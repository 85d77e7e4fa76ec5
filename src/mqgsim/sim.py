"""Execution backends over a Circuit, and the reference they are checked against.

``_apply_layers`` is the one gate pass: a Toffoli is
``col[t] ^= col[c1] & col[c2]`` on whatever the columns hold. On
bit-sliced int columns (bit s of column i is wire i in basis state s) it
runs all 2^M basis states at once, or one state whose columns are 0 or 1;
on ``Anf.var`` columns it is symbolic GF(2) simulation, exact at any
width. ``run_anf`` powers where the layer sequence repeats: a block
repeated three or more times back to back is run once and raised to its
power by binary powering (``gf2.compose``); every other stretch runs the
gate pass on the running ANF columns. The single reference is
``mcx_oracle``: a multi-controlled NOT given by a control mask and a
target mask, whose one evaluator ``McxOracle.apply`` also runs on columns
of any kind. The exhaustive check applies it to the identity truth table
and the symbolic check to ``Anf.var`` columns; both return an EquivReport.
The stage check that runs the gate pass beside the block recurrences is
in ``stages``.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .circuit import Circuit, CircuitError, Gate

if TYPE_CHECKING:
    from .gf2 import Anf

# A truth-table check holds three sets of M columns of 2^M bits at its
# peak (outputs, the reverse pass and the identity; the oracle then shares
# the reverse pass's columns), about 3*M*2^M/8 bytes: 144 MB at 24 qubits.
EXHAUSTIVE_LIMIT = 24


def bitstring(word: int, width: int) -> str:
    """Flat-index order, lowest index first."""
    return "".join(str((word >> i) & 1) for i in range(width))


def wire_columns(width: int) -> list[int]:
    """Bit-sliced identity map: bit s of column i is bit i of s.

    Built by doubling: once states 0..2^i - 1 are set, each column repeats
    them 2^i states up, and column i is 1 on states 2^i..2^(i+1) - 1.
    """
    columns = [0] * width
    for i in range(width):
        half = 1 << i
        for j in range(i):
            columns[j] |= columns[j] << half
        columns[i] = ((1 << half) - 1) << half
    return columns


def _apply_layers(columns: list, layers: Iterable[tuple[Gate, ...]]) -> None:
    for layer in layers:
        for c1, c2, t in layer:
            columns[t] ^= columns[c1] & columns[c2]


def output_columns(circuit: Circuit) -> list[int]:
    """Bit-sliced truth table: bit s of column i is wire i of the output for input s."""
    columns = wire_columns(circuit.num_qubits)
    _apply_layers(columns, circuit.layers)
    return columns


def _row_bits(columns: Sequence[int], s: int) -> str:
    """Row s of a bit-sliced table, in ``bitstring`` order."""
    return "".join(str(column >> s & 1) for column in columns)


class McxOracle(NamedTuple):
    """Reference multi-controlled NOT: XOR ``target`` into every state whose
    ``control`` bits are all 1; every other state is left alone."""

    control: int
    target: int

    def apply(self, columns: Sequence, one) -> list:
        """The output on ``columns``, one per wire, of any type with ``&`` and
        ``^``: the AND of the control columns, from ``one`` (the type's 1),
        XORed into each target column."""
        width = len(columns)
        if (self.control | self.target) >> width:
            raise CircuitError(
                f"oracle masks control {self.control:#x}, target {self.target:#x} "
                f"do not fit {width} wires"
            )
        fires = one
        for i in range(width):
            if self.control >> i & 1:
                fires &= columns[i]
        return [c ^ fires if self.target >> i & 1 else c for i, c in enumerate(columns)]


def mcx_oracle(control_mask: int, target_mask: int) -> McxOracle:
    """The C^k-NOT on ``control_mask`` and ``target_mask``; they must not overlap."""
    if target_mask <= 0 or control_mask < 0 or control_mask & target_mask:
        raise CircuitError(
            f"bad oracle masks: control {control_mask:#x}, target {target_mask:#x}"
        )
    return McxOracle(control_mask, target_mask)


class EquivReport(NamedTuple):
    """Outcome of one equivalence check, in either mode.

    Both modes prove all 2^M input states of the ``qubits`` = M wires:
    equal output ANFs prove every input. The counterexample is an input
    state (exhaustive) or the first differing wire (symbolic).
    """

    mode: str  # exhaustive | symbolic
    qubits: int
    passed: bool
    counterexample: dict | None = None


def run_all(circuit: Circuit, oracle: McxOracle) -> EquivReport:
    """Exhaustive bit-sliced truth-table comparison; the counterexample is the
    lowest failing input.

    Running the layers in reverse over the output columns must give back
    the identity columns, which proves the computed map is a bijection;
    the oracle is then applied to those identity columns.
    """
    M = circuit.num_qubits
    if M > EXHAUSTIVE_LIMIT:
        raise CircuitError(
            f"{M} qubits exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; "
            "use --mode symbolic"
        )
    outputs = output_columns(circuit)
    undone = list(outputs)
    _apply_layers(undone, reversed(circuit.layers))
    if undone != wire_columns(M):
        raise CircuitError("circuit output map is not a bijection")
    expected = oracle.apply(undone, (1 << (1 << M)) - 1)
    bad = 0
    for out, exp in zip(outputs, expected):
        bad |= out ^ exp
    if bad:
        s = (bad & -bad).bit_length() - 1
        return EquivReport(
            mode="exhaustive",
            qubits=M,
            passed=False,
            counterexample={
                "input": bitstring(s, M),
                "expected": _row_bits(expected, s),
                "actual": _row_bits(outputs, s),
            },
        )
    return EquivReport(mode="exhaustive", qubits=M, passed=True)


def run_anf(circuit: Circuit) -> dict[int, Anf]:
    """Symbolic simulation, keyed by flat index; exact for any Toffoli circuit.

    The layer sequence is split into runs (``_runs``). A block repeated
    k >= 3 times back to back is run once by the gate pass, raised to its
    k-th power by binary powering and composed in once (``gf2.compose``):
    the n-network's 2^(n+2) layers are one run of the layer pair and take
    n + 1 compositions, and a single-layer deletion O(n). Every other
    stretch runs through ``_apply_layers`` on the running ``Anf`` columns,
    so the V-chain, one block twice over, composes nothing.
    """
    from .gf2 import Anf, compose

    layers = circuit.layers
    width = circuit.num_qubits
    columns = [Anf.var(i) for i in range(width)]
    for start, period, count in _runs(layers):
        block = layers[start : start + period]
        if count == 1:
            _apply_layers(columns, block)
            continue
        power = _power(block, count, width)
        # At the start the columns are still the identity.
        after = compose(power, {i: c.monomials for i, c in enumerate(columns)}) if start else power
        for w in power:
            columns[w] = Anf(after[w])
    return dict(enumerate(columns))


def _power(block: Sequence[tuple[Gate, ...]], count: int, width: int) -> dict[int, frozenset[int]]:
    """The map of ``block`` repeated ``count`` times, as the raw monomial
    sets of the wires it moves: one gate pass, then binary powering."""
    from .gf2 import Anf, compose

    base = [Anf.var(i) for i in range(width)]
    _apply_layers(base, block)
    base = {t: base[t].monomials for layer in block for _, _, t in layer}
    power = None
    while True:
        if count & 1:
            power = base if power is None else compose(power, base)
        count >>= 1
        if not count:
            return power
        base = compose(base, base)


def _runs(layers: Sequence[tuple[Gate, ...]]):
    """Cover ``layers`` in order with runs ``(start, period, count)``.

    The one period tried at a position is the distance p to the next equal
    layer, the shortest a repeat can have. Where the p layers from there
    repeat back to back at least three times, the run takes every repeat
    that follows; the layers between such runs form runs of count 1. A
    block in which its first layer recurs is found from a later layer that
    is unique in it, one repeat shorter. So each position costs a lookup
    and, when the last layers agree, one comparison of 2p layers. A block
    repeated only twice stays in the gate pass: squaring it would spend one
    composition to save one pass of the block, and on the V-chain, which
    is one block twice, the pass is the faster.
    """
    end = len(layers)
    # Equal layers share a code; a layer object seen before is not hashed again.
    by_id, by_value, code = {}, {}, []
    for layer in layers:
        c = by_id.get(id(layer))
        if c is None:
            c = by_id[id(layer)] = by_value.setdefault(layer, len(by_value))
        code.append(c)
    nxt, last = [end] * end, {}  # nxt[i]: the next layer equal to layer i, or end
    for i in range(end - 1, -1, -1):
        nxt[i] = last.get(code[i], end)
        last[code[i]] = i
    i = plain = 0
    while i < end:
        # Period p repeats three times from i when layer x equals layer
        # x + p for x in i..i + 2p - 1; the last x is tried first.
        p = nxt[i] - i
        if i + 3 * p > end or (
            code[i + 2 * p - 1] != code[i + 3 * p - 1]
            or code[i : i + 2 * p] != code[i + p : i + 3 * p]
        ):
            i += 1
            continue
        count = 3
        while code[i + count * p : i + (count + 1) * p] == code[i : i + p]:
            count += 1
        if plain < i:
            yield plain, i - plain, 1
        yield i, p, count
        i = plain = i + count * p
    if plain < end:
        yield plain, end - plain, 1


def check_anf(
    outputs: Mapping[int, Anf], oracle: McxOracle, names: Sequence[str]
) -> EquivReport:
    """Compare output ANFs (from ``run_anf``) with the oracle's; ``names`` label the wires."""
    from .gf2 import Anf

    width = len(names)
    expected = oracle.apply([Anf.var(i) for i in range(width)], Anf.one())
    for i in range(width):
        if outputs[i] != expected[i]:
            return EquivReport(
                mode="symbolic",
                qubits=width,
                passed=False,
                counterexample={
                    "wire": names[i],
                    "expected": expected[i].to_text(names),
                    "actual": outputs[i].to_text(names),
                },
            )
    return EquivReport(mode="symbolic", qubits=width, passed=True)
