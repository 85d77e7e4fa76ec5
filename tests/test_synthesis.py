import pytest

from mqgsim.baseline import synth_baseline_dirty, table1_compare
from mqgsim.circuit import CircuitError, control_target_masks, metrics, mqg_roles
from mqgsim.sim import output_columns
from mqgsim.stages import block_stages
from mqgsim.synthesis import layer_templates, pin_mask, synth_mqg_network
from network_reference import mcx_table, network_masks, table_columns, table_words


def T(roles, c1, c2, t):
    return tuple(roles.index(f"{r}{l}") for r, l in (c1, c2, t))


def test_spec_derived_quantities():
    c = synth_mqg_network(2)
    assert len(c.layers[0]) == 4  # rows
    assert c.num_qubits == 17
    control, target = control_target_masks(2)
    assert bin(control).count("1") == 9
    assert (control, target) == network_masks(2)
    assert table1_compare(2).N == 10  # simulated gate qubits


def test_spec_rejects_n_zero():
    with pytest.raises(CircuitError):
        synth_mqg_network(0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "call", [mqg_roles, control_target_masks, layer_templates, lambda n: pin_mask(n, 2),
             lambda n: next(block_stages(n, [0] * 9))],
)
def test_layout_helpers_reject_n_below_one(n, call):
    with pytest.raises(CircuitError, match="need n >= 1"):
        call(n)


def test_network_layer_structure_n1():
    c = synth_mqg_network(1)
    roles = mqg_roles(1)
    assert len(c.layers) == 8
    type1 = (T(roles, ("A", 0), ("C", 1), ("D", 1)), T(roles, ("A", 1), ("C", 2), ("D", 2)))
    type2 = (T(roles, ("B", 1), ("D", 1), ("A", 1)), T(roles, ("B", 2), ("D", 2), ("A", 2)))
    for i, layer in enumerate(c.layers):
        assert layer == (type1 if i % 2 == 0 else type2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_network_layer_support(n):
    c = synth_mqg_network(n)
    for layer in c.layers:
        assert len({w for gate in layer for w in gate}) == 3 * 2**n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_network_never_targets_controls(n):
    c = synth_mqg_network(n)
    targets = {mqg_roles(n)[t] for layer in c.layers for _, _, t in layer}
    assert "A0" not in targets
    assert not any(t[0] in ("B", "C") for t in targets)


def test_network_all_controls_one():
    # Only the target flips when every control is 1 and the rest start at 0.
    c = synth_mqg_network(1)
    roles = mqg_roles(1)
    word = sum(1 << roles.index(label) for label in ("A0", "B1", "C1", "B2", "C2"))
    out = table_words(output_columns(c))[word]
    assert out == word | (1 << roles.index("A2"))


def test_network_identity_when_a_control_is_zero():
    c = synth_mqg_network(1)
    c2_bit = 1 << mqg_roles(1).index("C2")
    outs = table_words(output_columns(c))
    for word in range(1 << 9):
        if not word & c2_bit:
            assert outs[word] == word


@pytest.mark.parametrize(
    "active,pinned_labels",
    [
        (5, set()),
        (4, {"C2"}),
        (3, {"C2", "B2"}),
        (2, {"C2", "B2", "C1"}),
    ],
)
def test_padding_pin_policy(active, pinned_labels):
    mask = pin_mask(1, active)
    assert {label for i, label in enumerate(mqg_roles(1)) if mask >> i & 1} == pinned_labels


def test_padding_rejects_out_of_range():
    with pytest.raises(CircuitError):
        pin_mask(1, 6)
    with pytest.raises(CircuitError):
        pin_mask(1, 1)


def test_baseline_m3_gate_list():
    c = synth_baseline_dirty(3)
    gates = [g for layer in c.layers for g in layer]
    # Controls c_1..c_3 are wires 0..2, ancilla x_1 is 3 and target t is 4.
    t_gate = (2, 3, 4)  # T(c_3, x_1 -> t)
    peak = (0, 1, 3)  # T(c_1, c_2 -> x_1)
    assert gates == [t_gate, peak, t_gate, peak]


@pytest.mark.parametrize("m,count", [(3, 4), (4, 8), (5, 12), (9, 28)])
def test_baseline_gate_counts(m, count):
    assert metrics(synth_baseline_dirty(m)).toffoli_count == count
    assert metrics(synth_baseline_dirty(m)).qubit_count == 2 * m - 1


def test_baseline_rejects_small_m():
    with pytest.raises(CircuitError):
        synth_baseline_dirty(2)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_baseline_exhaustive_with_dirty_ancillas(m):
    c = synth_baseline_dirty(m)
    M = c.num_qubits
    # Controls first, target last.
    expected = mcx_table((1 << m) - 1, 1 << (M - 1), M)
    assert output_columns(c) == table_columns(expected, M)


def test_baseline_dirty_example_m4():
    c = synth_baseline_dirty(4)
    # Controls (wires 0-3) all 1, ancillas (4, 5) dirty, target 6.
    word = 0b1111 | (1 << 4) | (1 << 5)
    out = table_words(output_columns(c))[word]
    assert out == word | (1 << 6)


@pytest.mark.parametrize(
    "n,N,proposed,baseline",
    [(1, 6, 8, 12), (2, 10, 16, 28), (3, 18, 32, 60), (4, 34, 64, 124)],
)
def test_table1_rows(n, N, proposed, baseline):
    row = table1_compare(n)
    assert (row.N, row.proposed_units, row.baseline_units) == (N, proposed, baseline)
    assert row.proposed_qubits == 2 ** (n + 2) + 1
    assert row.baseline_qubits == 2 * N - 3
