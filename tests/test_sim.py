import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqgsim import gf2, symbolic
from mqgsim.baseline import synth_baseline_dirty
from mqgsim.circuit import Circuit, CircuitError, mqg_roles
from mqgsim.gf2 import Anf
from mqgsim.sim import (
    McxOracle,
    output_columns,
    run_all,
    wire_columns,
)
from mqgsim.stages import Stage, check_stages
from mqgsim.symbolic import check_anf, run_anf
from mqgsim.synthesis import synth_mqg_network
from network_reference import (
    anf_outputs,
    closed_form_outputs,
    evaluate,
    mcx_table,
    naive_A,
    naive_Z,
    network_masks,
    run_word,
    stage_values,
    table_columns,
    table_words,
)


def network(n):
    return synth_mqg_network(n)


def oracle(n):
    return McxOracle(*network_masks(n))


def word(bits):
    return sum(b << i for i, b in enumerate(bits))


def bitstring(word, width):
    """``word`` as bits in flat-index order, lowest index first."""
    return "".join(str(word >> i & 1) for i in range(width))


def row(columns, s):
    """Row s of a bit-sliced table, as a bit tuple."""
    return tuple(column >> s & 1 for column in columns)


def assert_same_columns(got, want, names=None):
    """Bit-sliced columns (2^M-bit ints) are equal. On a mismatch, names the
    first differing column (wire i unless ``names`` says otherwise) and its
    lowest differing state, where pytest would print neither: it cannot
    render an int of more than 4300 digits."""
    __tracebackhide__ = True
    assert len(got) == len(want), f"{len(got)} columns, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            s = ((g ^ w) & -(g ^ w)).bit_length() - 1
            name = names[i] if names else f"wire {i}"
            got_bit, want_bit = g >> s & 1, w >> s & 1
            pytest.fail(f"{name} differs first at state {s}: got {got_bit}, expected {want_bit}")


def evaluate_all(polys, width):
    """Output ANFs evaluated on every basis state at once, bit-sliced."""
    wires, ones = wire_columns(width), (1 << (1 << width)) - 1
    return [evaluate(polys[i], wires, ones) for i in range(width)]


@st.composite
def random_layers(draw, width, min_layers=0, max_layers=6):
    """Layers of disjoint gates on ``width`` wires."""
    layers = []
    for _ in range(draw(st.integers(min_layers, max_layers))):
        wires = draw(st.permutations(range(width)))
        gates = draw(st.integers(1, width // 3))
        layers.append(tuple(tuple(wires[3 * g : 3 * g + 3]) for g in range(gates)))
    return tuple(layers)


@st.composite
def small_circuits(draw):
    """Random circuits on 3..10 wires: up to six layers of disjoint gates."""
    width = draw(st.integers(3, 10))
    return Circuit(width, draw(random_layers(width)))


def test_run_basis_all_controls():
    c = network(1)
    bits = (1, 1, 1, 0, 0, 1, 1, 0, 0)  # A0 B1 C1 D1 A1 B2 C2 D2 A2
    out = row(output_columns(c), word(bits))
    assert out == (1, 1, 1, 0, 0, 1, 1, 0, 1)


def test_run_basis_identity_when_b1_zero():
    c = network(1)
    outs = output_columns(c)
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = [int(b) for b in rng.integers(0, 2, 9)]
        bits[1] = 0  # B1
        assert row(outs, word(bits)) == tuple(bits)


def test_run_basis_empty_circuit():
    c = Circuit(9)
    bits = (1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert_same_columns(output_columns(c), wire_columns(9))
    assert row(output_columns(c), word(bits)) == bits


def test_run_basis_width_mismatch():
    # A one-state table must have one column per wire.
    with pytest.raises(CircuitError, match="input width 2 != circuit width 9"):
        check_stages(1, (0, 1))


@pytest.mark.parametrize("n", [1, 2])
def test_run_all_matches_closed_form(n):
    rep = run_all(network(n), oracle(n))
    assert rep.passed
    assert rep.qubits == 2 ** (n + 2) + 1


def test_run_all_mutation_gives_counterexample():
    c = network(1)
    mutated = c._replace(layers=c.layers[:-1])
    rep = run_all(mutated, oracle(1))
    assert not rep.passed
    assert rep.counterexample is not None
    assert set(rep.counterexample) == {"input", "expected", "actual"}


def test_run_all_rejects_non_bijection(monkeypatch):
    import mqgsim.sim

    # Every input sent to the all-zero state.
    monkeypatch.setattr(mqgsim.sim, "output_columns", lambda c: [0] * c.num_qubits)
    with pytest.raises(CircuitError, match="bijection"):
        run_all(network(1), oracle(1))


def test_run_all_refuses_large_width():
    with pytest.raises(CircuitError, match="exhaustive limit 24; use --mode symbolic"):
        run_all(network(3), oracle(3))


@pytest.mark.parametrize("n", [1, 2])
def test_network_is_involution(n):
    c = network(n)
    assert_same_columns(output_columns(c._replace(layers=c.layers * 2)), wire_columns(c.num_qubits))


def test_run_anf_single_toffoli():
    c = Circuit(3, (((0, 1, 2),),))
    out = run_anf(c)
    assert out[2] == Anf.var(2) ^ (Anf.var(0) & Anf.var(1))
    assert out[0] == Anf.var(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_anf_matches_closed_form(n):
    assert run_anf(network(n)) == closed_form_outputs(n)


def count_compositions(monkeypatch):
    """Record every call of ``gf2.compose`` into the returned list."""
    calls, compose = [], gf2.compose

    def counted(outer, inner):
        calls.append(len(outer))
        return compose(outer, inner)

    monkeypatch.setattr(gf2, "compose", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_anf_squares_the_network(n, monkeypatch):
    # 2^(n+2) layers: the layer pair is squared n + 1 times.
    calls = count_compositions(monkeypatch)
    c = network(n)
    assert run_anf(c) == anf_outputs(c)
    assert len(calls) == n + 1


def test_run_anf_matches_reference_on_every_layer_deletion(monkeypatch):
    # Each mutant is at most two runs of the layer pair around the gap, so
    # its compositions grow with n, not with the 2^(n+2) layers.
    calls = count_compositions(monkeypatch)
    for n in (2, 5):
        c = network(n)
        for drop in range(len(c.layers)):
            calls.clear()
            mutant = c._replace(layers=c.layers[:drop] + c.layers[drop + 1 :])
            assert run_anf(mutant) == anf_outputs(mutant), (n, drop)
            assert len(calls) <= 3 * n, (n, drop)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compose_of_run_anf_is_run_anf_of_the_sequence(data):
    width = data.draw(st.integers(3, 10))
    first = Circuit(width, data.draw(random_layers(width)))
    then = Circuit(width, data.draw(random_layers(width)))
    both = Circuit(width, first.layers + then.layers)
    assert gf2.compose(run_anf(then), run_anf(first)) == run_anf(both) == anf_outputs(both)


@pytest.mark.parametrize("m", range(3, 10))
def test_run_anf_matches_reference_on_v_chain(m, monkeypatch):
    # The V-chain is one block twice over; a block repeated only twice
    # keeps the plain gate pass.
    calls = count_compositions(monkeypatch)
    c = synth_baseline_dirty(m)
    assert run_anf(c) == anf_outputs(c)
    assert calls == []


def test_runs_finds_no_run_in_a_cube_free_sequence_in_linear_time(monkeypatch):
    # Two layers with the same first gate in Thue-Morse order: no block
    # repeats three times back to back, so nothing is powered. Finding that
    # tries one period per position; following every later equal layer
    # instead would take about L^2 / 6 steps, some 4.5e7 here.
    a, b = ((0, 1, 2), (3, 4, 5)), ((0, 1, 2), (3, 4, 6))
    order = tuple((a, b)[bin(k).count("1") & 1] for k in range(1 << 14))
    start = time.process_time()
    assert list(symbolic._runs(order)) == [(0, len(order), 1)]
    assert time.process_time() - start < 1.0
    calls = count_compositions(monkeypatch)
    c = Circuit(7, order[:256])
    assert run_anf(c) == anf_outputs(c)
    assert calls == []


def test_runs_treat_equal_layer_objects_as_one_layer():
    # Layers built apart are equal but distinct tuples; a Circuit interns
    # them, so equal ones still repeat.
    layers = network(2).layers
    copies = tuple(tuple(list(layer)) for layer in layers)
    assert copies[0] is not copies[2]
    interned = Circuit(network(2).num_qubits, copies).layers
    assert list(symbolic._runs(interned)) == list(symbolic._runs(layers)) == [(0, 2, len(layers) // 2)]


@pytest.mark.parametrize("suffix", [(), (((3, 4, 0),),)], ids=["end", "suffix"])
@pytest.mark.parametrize("k", range(1, 10))
def test_run_anf_powers_a_run_between_gate_passes(k, suffix, monkeypatch):
    # The layer pair k times after a prefix layer, at the end or before a
    # suffix layer: a run of k >= 3 takes bit_length - 1 squarings,
    # popcount - 1 odd steps and one composition into the prefix's
    # columns; k <= 2 takes the gate pass.
    calls = count_compositions(monkeypatch)
    c = network(2)
    padded = c._replace(layers=(((0, 1, 2),),) + c.layers[:2] * k + suffix)
    assert run_anf(padded) == anf_outputs(padded)
    powered = k.bit_length() - 1 + bin(k).count("1") if k >= 3 else 0
    assert len(calls) == powered


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_run_anf_matches_reference_on_repeated_blocks(data):
    # A random block 1..9 times over, so binary powering takes odd steps and
    # composes maps whose monomials have several moved variables and
    # cancel. A prefix, a suffix or both put the run between gate passes.
    width = data.draw(st.integers(3, 10))
    layers = data.draw(random_layers(width, 1, 4)) * data.draw(st.integers(1, 9))
    affix = data.draw(st.sampled_from(["none", "prefix", "suffix", "both"]))
    if affix in ("prefix", "both"):
        layers = data.draw(random_layers(width, 1, 2)) + layers
    if affix in ("suffix", "both"):
        layers = layers + data.draw(random_layers(width, 1, 2))
    c = Circuit(width, layers)
    assert run_anf(c) == anf_outputs(c)


def test_statevector_moves_amplitude():
    # The basis permutation sends the all-controls state to its flipped target.
    c = network(1)
    outs = table_words(output_columns(c))
    assert outs[word((1, 1, 1, 0, 0, 1, 1, 0, 0))] == word((1, 1, 1, 0, 0, 1, 1, 0, 1))


def test_statevector_unitary_on_random_state():
    # A basis permutation is unitary: every state is hit exactly once.
    outs = table_words(output_columns(network(1)))
    assert sorted(outs) == list(range(1 << 9))


def test_statevector_superposition_matches_ideal_gate():
    # Uniform superposition over control patterns, work wires fixed at 0.
    c = network(1)
    table = mcx_table(*network_masks(1), 9)
    outs = table_words(output_columns(c))
    control_bits = [mqg_roles(1).index(label) for label in ("A0", "B1", "C1", "B2", "C2")]
    for pattern in range(1 << 5):
        s = sum(1 << bit for j, bit in enumerate(control_bits) if (pattern >> j) & 1)
        assert outs[s] == table[s]


def test_statevector_dimension_mismatch():
    # An oracle for the 17-wire network does not fit the 9-wire table.
    with pytest.raises(CircuitError, match="do not fit 9 wires"):
        run_all(network(1), oracle(2))


def test_layer_order_within_layer_is_irrelevant():
    c = network(1)
    reversed_layers = tuple(tuple(reversed(layer)) for layer in c.layers)
    c_rev = c._replace(layers=reversed_layers)
    assert_same_columns(output_columns(c), output_columns(c_rev))


def test_trace_blocks_matches_worked_example():
    bits = (1, 1, 1, 1, 1, 0, 0, 0, 0)
    stages = {(st.l, st.k): st for st in check_stages(1, bits)}
    # Z_1(1) = B1 (A0 C1 + D1) + A1 = 1*(1+1)+1 = 1
    assert stages[(1, 1)].Z == 1
    # A_1(2) = A1 = 1 and Z_1(2) = B1 D1 + A1 = 0
    assert stages[(1, 2)].A == 1
    assert stages[(1, 2)].Z == 0
    # D_1(2) = D1 = 1
    assert stages[(1, 2)].D == 1
    assert all(st.match for st in stages.values())


@pytest.mark.parametrize("n", [1, 2])
def test_trace_blocks_matches_oracle_randomized(n):
    c = network(n)
    rng = np.random.default_rng(17)
    width = c.num_qubits
    A, Z = stage_values(n)
    for _ in range(200):
        bits = tuple(int(b) for b in rng.integers(0, 2, width))
        stages = check_stages(n, bits)
        assert len(stages) == 4**n
        for st in stages:
            assert st.match
            # The one-state recurrences agree with their ANFs at this input.
            assert st.A_oracle == evaluate(A(st.l, st.k), bits)
            assert st.Z_oracle == evaluate(Z(st.l, st.k), bits)


def test_check_stages_exhaustive_matches_one_state_runs():
    # Bit s of every field of the all-state run is that field of the
    # one-state run on input s.
    c = network(1)
    columns = wire_columns(c.num_qubits)
    everything = check_stages(1, columns)
    assert all(st.match for st in everything)
    for s in range(1 << c.num_qubits):
        one = check_stages(1, row(columns, s))
        assert [(st.l, st.k) for st in one] == [(st.l, st.k) for st in everything]
        for big, small in zip(everything, one):
            for field in Stage._fields[2:]:
                value = getattr(big, field)
                assert (None if value is None else value >> s & 1) == getattr(small, field)


@pytest.mark.parametrize("n", [1, 2])
def test_check_stages_final_stage_is_the_output(n):
    c = network(n)
    outs = output_columns(c)
    final = [st for st in check_stages(n, wire_columns(c.num_qubits)) if st.k == 2**n]
    assert [st.l for st in final] == list(range(1, 2**n + 1))
    for st in final:
        a, d = outs[mqg_roles(n).index(f"A{st.l}")], outs[mqg_roles(n).index(f"D{st.l}")]
        names = [f"{field} at l={st.l}" for field in ("A", "A_oracle", "D", "D_oracle")]
        assert_same_columns([st.A, st.A_oracle, st.D, st.D_oracle], [a, a, d, d], names)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_stages_symbolic(n):
    # The exact stage check: the layers and the recurrences on ANF columns.
    c = network(n)
    stages = check_stages(n, [Anf.var(i) for i in range(c.num_qubits)])
    assert len(stages) == 4**n
    assert all(st.match for st in stages)
    # The recurrences against the plain recursion, independent of block_stages.
    assert all(st.A_oracle == naive_A(st.l, st.k) for st in stages)
    assert all(st.Z_oracle == naive_Z(st.l, st.k) for st in stages)
    assert [st.D_oracle is None for st in stages] == [st.k < 2**n for st in stages]


def test_stage_match_reads_every_pinned_field():
    assert Stage(1, 1, 0, 0, 1, 1, 0, None).match
    assert Stage(1, 1, 0, 0, 1, 1, 1, None).match  # D is free before the last stage
    assert not Stage(1, 1, 1, 0, 1, 1, 0, None).match
    assert not Stage(1, 1, 0, 0, 0, 1, 0, None).match
    assert not Stage(1, 2, 0, 0, 1, 1, 1, 0).match


def test_backend_agreement_n1():
    c = network(1)
    outs = output_columns(c)
    anf_out = run_anf(c)
    rng = np.random.default_rng(5)
    for s in rng.integers(0, 1 << 9, size=100):
        s = int(s)
        bits = row(wire_columns(9), s)
        basis = run_word(c, s)
        assert word(row(outs, s)) == basis
        # The output ANFs on a one-state table, and on a dict assignment.
        assert word([evaluate(anf_out[i], bits) for i in range(9)]) == basis
        assert word([evaluate(anf_out[i], dict(enumerate(bits))) for i in range(9)]) == basis


def test_equiv_report_json_schema():
    # One report shape for both modes; both prove every input of the width.
    exhaustive = run_all(network(1), oracle(1))._asdict()
    assert exhaustive == {
        "mode": "exhaustive",
        "qubits": 9,
        "passed": True,
        "counterexample": None,
    }
    c = network(1)
    symbolic = check_anf(run_anf(c), oracle(1), mqg_roles(1))._asdict()
    assert symbolic == dict(exhaustive, mode="symbolic")


def test_check_anf_reports_first_bad_wire():
    c = network(1)
    mutated = c._replace(layers=c.layers[:-1])
    rep = check_anf(run_anf(mutated), oracle(1), mqg_roles(1))
    assert not rep.passed
    assert rep.qubits == 9
    assert set(rep.counterexample) == {"wire", "expected", "actual"}
    assert rep.counterexample["wire"] in mqg_roles(1)


@pytest.mark.parametrize("n", [1, 2])
def test_mcx_oracle_matches_reference(n):
    # The one evaluator on each column type: every one-state input, the
    # all-state truth table and the output ANFs.
    control, target = network_masks(n)
    width = 2 ** (n + 2) + 1
    oracle = McxOracle(control, target)
    table = mcx_table(control, target, width)
    for s in range(1 << width):
        assert word(oracle.apply([s >> i & 1 for i in range(width)], 1)) == table[s], s
    columns = oracle.apply(wire_columns(width), (1 << (1 << width)) - 1)
    assert_same_columns(columns, table_columns(table, width))
    anfs = oracle.apply([Anf.var(i) for i in range(width)], Anf.one())
    assert dict(enumerate(anfs)) == closed_form_outputs(n)
    assert_same_columns(evaluate_all(anfs, width), columns)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 11])
def test_wire_columns_are_the_identity(width):
    assert_same_columns(wire_columns(width), table_columns(range(1 << width), width))


@pytest.mark.parametrize("n,drop", [(1, None), (2, None), (1, 5)])
def test_anf_matches_truth_table(n, drop):
    # ANF and truth table are two exact views of one map; the layer-deletion
    # mutant checks that they agree where the oracle is not met too.
    c = network(n)
    if drop is not None:
        c = c._replace(layers=c.layers[:drop] + c.layers[drop + 1 :])
    assert_same_columns(evaluate_all(run_anf(c), c.num_qubits), output_columns(c))


@given(small_circuits(), st.data())
@settings(max_examples=60, deadline=None)
def test_bit_sliced_backend_matches_run_word(c, data):
    M = c.num_qubits
    words = [run_word(c, s) for s in range(1 << M)]
    assert_same_columns(output_columns(c), table_columns(words, M))
    gates = [g for layer in c.layers for g in layer]
    if gates and data.draw(st.booleans()):
        # The first gate alone as the oracle: passes on one-gate circuits.
        c1, c2, t = gates[0]
        control, target = (1 << c1) | (1 << c2), 1 << t
    else:
        target = data.draw(st.integers(1, (1 << M) - 1))
        control = data.draw(st.integers(0, (1 << M) - 1)) & ~target
    expected = mcx_table(control, target, M)
    bad = [s for s in range(1 << M) if words[s] != expected[s]]
    rep = run_all(c, McxOracle(control, target))
    assert rep.passed == (not bad)
    if bad:
        s = bad[0]  # the lowest failing input
        assert rep.counterexample == {
            "input": bitstring(s, M),
            "expected": bitstring(expected[s], M),
            "actual": bitstring(words[s], M),
        }


def test_mcx_oracle_rejects_overlapping_masks():
    with pytest.raises(CircuitError):
        McxOracle(0b011, 0b010)
    with pytest.raises(CircuitError):
        McxOracle(0b011, 0)


@pytest.mark.parametrize(
    "control,target", [(0b011, 0b010), (-8, 0b100), (0b011, -4), (0b011, 0)],
    ids=["overlap", "negative-control", "negative-target", "zero-target"],
)
def test_mcx_oracle_refuses_bad_masks_when_made_or_replaced(control, target):
    with pytest.raises(CircuitError, match="bad oracle masks"):
        McxOracle(control, target)
    good = McxOracle(0b001, 0b100)
    with pytest.raises(CircuitError, match="bad oracle masks"):
        good._replace(control=control, target=target)
    with pytest.raises(CircuitError, match="bad oracle masks"):
        McxOracle._make((control, target))


@pytest.mark.parametrize("kind", ["one-state", "all-state", "anf"])
@pytest.mark.parametrize("control,target", [(1 << 20, 1), (0b011, 1 << 3)])
def test_mcx_oracle_apply_rejects_masks_wider_than_width(control, target, kind):
    # A control bit at wire 20 would be ignored and wire 0 flipped everywhere.
    columns, one = {
        "one-state": ([1, 1, 1], 1),
        "all-state": (wire_columns(3), 0xFF),
        "anf": ([Anf.var(i) for i in range(3)], Anf.one()),
    }[kind]
    with pytest.raises(CircuitError, match="do not fit 3 wires"):
        McxOracle(control, target).apply(columns, one)
