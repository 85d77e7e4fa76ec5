"""The exhaustive backend over a Circuit, and the reference it is checked against.

The truth-table check runs the gate pass (``circuit._apply_layers``) on
bit-sliced int columns: bit s of column i is wire i in basis state s, so
one pass runs all 2^M basis states at once. The single reference is
``McxOracle``: a multi-controlled NOT given by a control mask and a
target mask, checked when it is made, whose one evaluator
``McxOracle.apply`` runs on columns of any kind. The exhaustive check
applies it to the identity truth table, and the symbolic check
(``symbolic``) to ``Anf.var`` columns; both return an EquivReport. The stage check that runs the gate pass beside
the block recurrences is in ``stages``.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from .circuit import Circuit, CircuitError, _apply_layers

# A truth-table check holds three sets of M columns of 2^M bits at its
# peak (outputs, the reverse pass and the identity; the oracle then shares
# the reverse pass's columns), about 3*M*2^M/8 bytes: 144 MB at 24 qubits.
EXHAUSTIVE_LIMIT = 24


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


def output_columns(circuit: Circuit) -> list[int]:
    """Bit-sliced truth table: bit s of column i is wire i of the output for input s."""
    columns = wire_columns(circuit.num_qubits)
    _apply_layers(columns, circuit.layers)
    return columns


def _row_bits(columns: Sequence[int], s: int) -> str:
    """Row s of a bit-sliced table, lowest wire first."""
    return "".join(str(column >> s & 1) for column in columns)


class McxOracle(namedtuple("McxOracle", "control target")):
    """Reference multi-controlled NOT: XOR ``target`` into every state whose
    ``control`` bits are all 1; every other state is left alone. The masks
    must not overlap, and the target must be set."""

    __slots__ = ()

    def __new__(cls, control: int, target: int):
        if target <= 0 or control < 0 or control & target:
            raise CircuitError(f"bad oracle masks: control {control:#x}, target {target:#x}")
        return super().__new__(cls, control, target)

    @classmethod
    def _make(cls, fields) -> "McxOracle":
        return cls(*fields)  # so _replace validates too

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
                "input": _row_bits(undone, s),
                "expected": _row_bits(expected, s),
                "actual": _row_bits(outputs, s),
            },
        )
    return EquivReport(mode="exhaustive", qubits=M, passed=True)
