import io

import pytest
from hypothesis import given, strategies as st

from mqgsim.circuit import (
    Circuit,
    CircuitError,
    LayerError,
    control_target_masks,
    metrics,
    mqg_roles,
    network_n,
    wire,
)
from mqgsim import mqgc
from mqgsim.mqgc import CircuitParseError, parse, serialize
from mqgsim.sim import output_columns
from mqgsim.synthesis import synth_mqg_network
from network_reference import network_masks, table_words

THREE_WIRES = "MQGC1\nqubits 3\nrole 0 A0\nrole 1 B1\nrole 2 C1\n"
LONG = "9" * 5000


def parse_text(text):
    """``parse`` on the UTF-8 lines of ``text``, as a file opened in binary
    mode yields them: split only at ``\\n``."""
    return parse(io.BytesIO(text.encode()))


def serialize_text(circuit, roles):
    return "".join(serialize(circuit, roles))


def test_make_circuit_empty():
    c = Circuit(9)
    assert c.num_qubits == 9
    assert c.layers == ()


def test_make_circuit_single_qubit():
    c = Circuit(1)
    assert c.num_qubits == 1


def test_make_circuit_missing_index():
    # Eight role lines for nine declared qubits.
    text = serialize_text(Circuit(9), mqg_roles(1))
    lines = text.splitlines()
    del lines[6]
    with pytest.raises(CircuitParseError):
        parse_text("\n".join(lines) + "\n")


def test_make_circuit_duplicate_label():
    # The role map must be a bijection; the error points at the last role line.
    text = serialize_text(synth_mqg_network(2), mqg_roles(2)).replace("role 1 B1\n", "role 1 A0\n")
    with pytest.raises(
        CircuitParseError, match="role map is not a bijection \\(duplicate labels\\)"
    ) as exc:
        parse_text(text)
    assert exc.value.line == 19


@pytest.mark.parametrize(
    "label", ["E1", "A01", "a1", "A-1", "", "A\u0661", 0, None, "B" + "1" * 5000]
)
def test_make_circuit_rejects_bad_labels(label):
    # A role line takes only the canonical spelling, and the error echoes
    # only a prefix of a long label.
    with pytest.raises(CircuitParseError, match="bad qubit label") as exc:
        parse_text(f"MQGC1\nqubits 2\nrole 0 A0\nrole 1 {label}\n")
    assert exc.value.line == 4
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize("n", range(1, 7))
def test_wire_layout(n):
    roles = mqg_roles(n)
    assert len(roles) == 2 ** (n + 2) + 1
    assert roles[wire("A", 0)] == "A0"
    for l in range(1, 2**n + 1):
        for r in "ABCD":
            assert roles[wire(r, l)] == f"{r}{l}"
    assert control_target_masks(n) == network_masks(n)


@pytest.mark.parametrize("width,n", [(3, None), (8, None), (9, 1), (17, 2), (33, 3)])
def test_network_n_inverts_the_width(width, n):
    if n:
        assert network_n(mqg_roles(n)) == n
    else:  # the width is checked before the labels
        with pytest.raises(CircuitError, match=f"^{width} qubits does not match any n-network$"):
            network_n(tuple(f"A{i}" for i in range(width)))


def test_network_n_rejects_relabelled_network():
    with pytest.raises(CircuitError, match="^circuit role map does not match the n-network"):
        network_n(mqg_roles(1)[:-1] + ("A3",))


def test_push_layer_disjoint_accepted():
    # T(a_0, c_1 -> d_1) and T(a_1, c_2 -> d_2) share no wire.
    c = Circuit(9, (((0, 2, 3), (4, 6, 7)),))
    assert metrics(c).toffoli_count == 2


def test_push_layer_overlap_rejected():
    with pytest.raises(LayerError, match="overlaps") as exc:
        Circuit(9, (((0, 2, 3), (2, 1, 4)),))
    assert (exc.value.layer, exc.value.gate) == (0, 1)


@pytest.mark.parametrize(
    "layers",
    [
        ((),),  # empty layer
        (((0, 2, 9),),),  # wire out of range
        (((0, 2),),),  # two wires
        (((0, 1, 2),), ((0, 2, 3), (8, 5, 8))),  # repeated wire, second layer
    ],
)
def test_circuit_rejects_bad_layers(layers):
    with pytest.raises(CircuitError):
        Circuit(9, layers)


def test_gate_duplicate_wire_rejected():
    with pytest.raises(CircuitError):
        Circuit(9, (((0, 0, 3),),))


def test_apply_gate_truth_table():
    c = Circuit(3, (((0, 1, 2),),))
    # Words are little-endian: 0b011 has wires 0 and 1 set.
    assert table_words(output_columns(c)) == [0, 1, 2, 7, 4, 5, 6, 3]


def test_apply_gate_involution():
    c = Circuit(3, (((0, 1, 2),),))
    outs = table_words(output_columns(c))
    for word in range(8):
        assert outs[outs[word]] == word


def test_masks_of_gates():
    # Gate (c1, c2, t) reads bits c1 and c2 of the state and flips bit t.
    c = Circuit(9, (((0, 2, 3), (4, 6, 7)), ((1, 3, 4),)))
    outs = table_words(output_columns(c))
    assert outs[0b101] == 0b1101
    assert outs[0b1010000] == 0b11010000
    assert outs[0b1010] == 0b11010
    assert outs[0b111] == 0b11111  # the first layer's output feeds the second


@pytest.mark.parametrize(
    "n,qubits,layers,gates",
    [(1, 9, 8, 16), (2, 17, 16, 64)],
)
def test_metrics_of_network(n, qubits, layers, gates):
    m = metrics(synth_mqg_network(n))
    assert (m.qubit_count, m.mqg_count, m.toffoli_count) == (qubits, layers, gates)


def test_metrics_empty():
    m = metrics(Circuit(9))
    assert m.mqg_count == 0 and m.toffoli_count == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_metrics_formulas(n):
    m = metrics(synth_mqg_network(n))
    assert m.toffoli_count == 2 ** (2 * n + 2)
    assert m.mqg_count == 2 ** (n + 2)
    N = 2 ** (n + 1) + 2
    assert m.mqg_count == 2 * N - 4


def test_serialize_minimal():
    text = serialize_text(Circuit(1), ("A0",))
    assert text == "MQGC1\nqubits 1\nrole 0 A0\n"


def test_serialize_network_counts():
    text = serialize_text(synth_mqg_network(1), mqg_roles(1))
    lines = text.splitlines()
    assert lines.count("layer") == 8
    assert sum(1 for ln in lines if ln.startswith("toff ")) == 16


@pytest.mark.parametrize("n", [1, 2])
def test_roundtrip_network(n):
    c, roles = synth_mqg_network(n), mqg_roles(n)
    assert parse_text(serialize_text(c, roles)) == (c, roles)


def test_parse_serialize_identity_on_text():
    text = serialize_text(synth_mqg_network(1), mqg_roles(1))
    assert serialize_text(*parse_text(text)) == text


def test_parse_duplicate_ref_rejected():
    text = "MQGC1\nqubits 2\nrole 0 A0\nrole 1 B1\nlayer\ntoff 0 0 1\n"
    with pytest.raises(CircuitParseError) as exc:
        parse_text(text)
    assert exc.value.line == 6


@pytest.mark.parametrize(
    "text,line",
    [
        ("MQG??\n", 1),
        ("MQGC1\nqubits x\n", 2),
        ("MQGC1\nqubits 1\nrole 0 A0\nbogus\n", 4),
        ("MQGC1\nqubits 1\nrole 0 A0\ntoff 0 0 0\n", 4),
        ("MQGC1\nqubits 2\nrole 0 A0\nrole 1 B1\nlayer\ntoff 0 1 5\n", 6),
        # Non-canonical spellings: serialize would write each differently.
        ("MQGC1\nqubits 1\nrole 0 A01\n", 3),
        ("MQGC1\nqubits 1\nrole 0 A\u0661\n", 3),
        ("MQGC1\nqubits 1\nrole 0 E1\n", 3),
        ("MQGC1\nqubits 1\nrole 0 a0\n", 3),
        ("MQGC1\nqubits +1\nrole 0 A0\n", 2),
        (f"{THREE_WIRES}layer\ntoff +0 1 2\n", 7),
        ("MQGC1\nqubits 1  \nrole 0 A0\n", 2),
        ("MQGC1\r\nqubits 1\r\nrole 0 A0\r\n", 1),
        ("MQGC1\nqubits 1\nrole 0 A0", 3),
        (f"{THREE_WIRES}layer\n", 6),
        (f"{THREE_WIRES}layer\ntoff 0 1 2\n\n", 8),
        # Numbers over Python's int() limit of 4300 digits.
        pytest.param(f"MQGC1\nqubits {LONG}\n", 2, id="long-qubits"),
        pytest.param(f"MQGC1\nqubits 1\nrole {LONG} A0\n", 3, id="long-role"),
        pytest.param(f"{THREE_WIRES}layer\ntoff 0 1 2\nlayer\ntoff 0 {LONG} 2\n", 9, id="long-toff"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(CircuitParseError) as exc:
        parse_text(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("MQG??\nqubits 1\nrole 0 A0", 1, "expected header"),
        (f"{THREE_WIRES}layer\nbogus\nlayer", 7, "unexpected line 'bogus'"),
        # A layer is checked when the next header closes it, so a header
        # with no newline shows before the bad gate above it.
        (f"{THREE_WIRES}layer\ntoff 0 1 9\nlayer", 8, "must end with a newline"),
        ("MQGC1\nqubits 2\nrole 0 A0\nrole 1 A0", 4, "must end with a newline"),
    ],
)
def test_missing_final_newline_shows_only_at_the_end(text, line, message):
    # Lines are checked as they are read, and a missing final newline only
    # shows at the last line, so an earlier faulty line is the one reported.
    with pytest.raises(CircuitParseError, match=message) as exc:
        parse_text(text)
    assert exc.value.line == line


def test_parse_matches_each_distinct_gate_line_once(monkeypatch):
    # The n=5 file has 4096 gate lines but 64 distinct ones, 32 rows of each
    # layer template; equal layers come back as one object.
    toff, matched = mqgc._TOFF, []

    class Counted:
        def fullmatch(self, line, *bounds):
            matched.append(line)
            return toff.fullmatch(line, *bounds)

    monkeypatch.setattr(mqgc, "_TOFF", Counted())
    c, roles = parse_text(serialize_text(synth_mqg_network(5), mqg_roles(5)))
    assert (c, roles) == (synth_mqg_network(5), mqg_roles(5))
    assert len(matched) == len(set(matched)) == 64
    assert c.layers[0] is c.layers[2] and c.layers[1] is c.layers[3]
    assert len({id(layer) for layer in c.layers}) == 2


def test_repeated_layer_object_is_checked_and_written_once():
    # Circuit hashes a layer object it has seen once, and serialize builds
    # the text of a layer object once, however often the layer repeats.
    hashed, iterated = [], []

    class Layer(tuple):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

        def __iter__(self):
            iterated.append(self)
            return super().__iter__()

    layer = Layer(((0, 1, 2),))
    c = Circuit(3, (layer,) * 1000)
    assert len(hashed) == 1
    iterated.clear()
    chunks = list(serialize(c, ("A0", "B1", "C1")))
    assert len(iterated) == 1
    assert chunks[1:] == ["layer\ntoff 0 1 2\n"] * 1000


def test_circuit_interns_equal_layers():
    # Equal layers built apart come back as one object, checked once.
    layer = ((0, 1, 2),)
    c = Circuit(3, (layer, tuple(list(layer))))
    assert c.layers[0] is c.layers[1] is layer
    streamed = Circuit(3, (tuple(list(layer)) for _ in range(4)))
    assert len({id(x) for x in streamed.layers}) == 1


@pytest.mark.parametrize(
    "edits,line,message",
    [
        ({4: "role 1 A0", 21: "toff 0 2"}, 19, "role map is not a bijection"),
        ({21: "toff 0 2 2", 99: "bogus"}, 21, "needs three distinct wires"),
    ],
    ids=["duplicate-label-then-bad-line", "bad-gate-then-bad-line"],
)
def test_parse_names_the_earlier_of_two_faults(edits, line, message):
    # The labels are checked right after the role lines, and a layer when the
    # next header closes it, so neither waits for the last line.
    lines = serialize_text(synth_mqg_network(2), mqg_roles(2)).splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    with pytest.raises(CircuitParseError, match=message) as exc:
        parse_text("\n".join(lines) + "\n")
    assert exc.value.line == line


def test_parse_rejects_overlapping_layer():
    text = (
        "MQGC1\nqubits 4\nrole 0 A0\nrole 1 B1\nrole 2 C1\nrole 3 D1\n"
        "layer\ntoff 0 1 2\ntoff 2 1 3\n"
    )
    with pytest.raises(CircuitParseError, match="overlaps") as exc:
        parse_text(text)
    assert exc.value.line == 9


@given(st.integers(min_value=0, max_value=511), st.integers(min_value=0, max_value=7))
def test_layer_involution(word, layer_idx):
    c = synth_mqg_network(1)
    layer = c.layers[layer_idx]
    outs = table_words(output_columns(Circuit(c.num_qubits, (layer,))))
    assert outs[outs[word]] == word


@st.composite
def circuits(draw):
    width = draw(st.integers(3, 10))
    labels = draw(
        st.lists(
            st.tuples(st.sampled_from("ABCD"), st.integers(0, 120)),
            min_size=width,
            max_size=width,
            unique=True,
        )
    )
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        wires = draw(st.permutations(range(width)))
        gates = draw(st.integers(1, width // 3))
        layers.append(tuple(tuple(wires[3 * g : 3 * g + 3]) for g in range(gates)))
    return Circuit(width, tuple(layers)), tuple(f"{r}{i}" for r, i in labels)


@given(circuits())
def test_roundtrip_random_circuits(labelled):
    text = serialize_text(*labelled)
    assert parse_text(text) == labelled
    assert serialize_text(*parse_text(text)) == text


@given(circuits(), st.data())
def test_parse_accepts_only_canonical_text(labelled, data):
    # Any text parse accepts must be exactly what serialize writes for it.
    text = serialize_text(*labelled)
    pos = data.draw(st.integers(0, len(text)))
    insert = data.draw(st.sampled_from([" ", "0", "1", "+", "-", "\r", "\n", "\t", "\u0661", "A"]))
    edited = text[:pos] + insert + text[pos:]
    try:
        parsed = parse_text(edited)
    except CircuitParseError:
        return
    assert serialize_text(*parsed) == edited
