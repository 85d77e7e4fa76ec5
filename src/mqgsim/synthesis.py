"""Construction of the layered Toffoli networks.

Two builders live here: the 2^(n+2)-layer network whose only net effect
is to flip a_{2^n} when all 2^(n+1)+1 controls are 1, and the conventional
dirty-ancilla V-chain used for the unit-count comparison. Smaller
multi-controlled NOTs come from the unmodified network by holding the
controls of ``pin_mask`` at 1.
"""
from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit, CircuitError, Gate, metrics, mqg_roles, network_rows, wire

# Largest n the network builder takes. `synth --n 10` (4097 wires, 4096
# layers) peaks at about 520 MB and each step up costs about 4x, so n = 11
# would need about 2 GB.
NETWORK_LIMIT = 10


def layer_templates(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """The two layer shapes of the n-network, as flat-index gates.

    Type 1 is T(a_{l-1}, c_l -> d_l) and type 2 is T(b_l, d_l -> a_l), for
    every row l = 1..2^n.
    """
    rows = network_rows(n)
    type1 = tuple((wire("A", l - 1), wire("C", l), wire("D", l)) for l in rows)
    type2 = tuple((wire("B", l), wire("D", l), wire("A", l)) for l in rows)
    return type1, type2


def synth_mqg_network(n: int) -> Circuit:
    """Build the 2^(n+2)-layer network: the pair (type 1, type 2) 2^(n+1) times."""
    if n > NETWORK_LIMIT:
        raise CircuitError(
            f"n={n} is over the network limit of {NETWORK_LIMIT} "
            f"({2 ** (n + 2) + 1} wires)"
        )
    return Circuit(mqg_roles(n), layer_templates(n) * 2 ** (n + 1))


def pin_mask(n: int, active: int) -> int:
    """Controls to hold at 1 so the n-network acts as a C^active-NOT.

    Surplus controls are pinned from the highest row down, c before b;
    a_0 is never pinned.
    """
    budget = 2 ** (n + 1) + 1
    if not 2 <= active <= budget:
        raise CircuitError(f"active control count {active} outside 2..{budget}")
    order = [wire(r, l) for l in reversed(network_rows(n)) for r in "CB"]
    return sum(1 << i for i in order[: budget - active])


def baseline_roles(m_controls: int) -> tuple[str, ...]:
    """Wire labels of the V-chain: controls, then ancillas, then target."""
    controls = tuple(f"C{i}" for i in range(1, m_controls + 1))
    ancillas = tuple(f"D{i}" for i in range(1, m_controls - 1))
    return controls + ancillas + ("A0",)


def synth_baseline_dirty(m_controls: int) -> Circuit:
    """Two-pass V-chain computing t ^= c_1...c_m with dirty ancillas.

    Uses m-2 ancillas whose initial values may be arbitrary; they are
    restored by the second pass. Gate count 4(m-2), one gate per layer.
    """
    if m_controls < 3:
        raise CircuitError(f"need at least 3 controls, got {m_controls}")
    m = m_controls
    # Flat indices in baseline_roles order: c_i = i-1, x_i = m+i-1, t = 2m-2.
    c = {i: i - 1 for i in range(1, m + 1)}
    x = {i: m + i - 1 for i in range(1, m - 1)}
    t = 2 * m - 2

    down = [(c[m], x[m - 2], t)]
    down += [(c[i + 2], x[i], x[i + 1]) for i in range(m - 3, 0, -1)]
    peak = (c[1], c[2], x[1])
    gates = down + [peak] + down[::-1] + down[1:] + [peak] + down[:0:-1]
    return Circuit(baseline_roles(m), tuple((g,) for g in gates))


class ComparisonRow(NamedTuple):
    """One unit-count comparison row; units follow 2N-4 vs 4(N-3)."""

    N: int
    proposed_units: int
    proposed_qubits: int
    baseline_units: int
    baseline_qubits: int


def table1_compare(n: int) -> ComparisonRow:
    """Formula row cross-checked against the actual constructions."""
    # N in the C^(N-1)-NOT being simulated: controls + target.
    N = 2 ** (n + 1) + 2
    row = ComparisonRow(
        N=N,
        proposed_units=2 * N - 4,
        proposed_qubits=2 ** (n + 2) + 1,
        baseline_units=4 * (N - 3),
        baseline_qubits=2 * N - 3,
    )
    proposed = metrics(synth_mqg_network(n))
    baseline = metrics(synth_baseline_dirty(N - 1))
    if proposed.mqg_count != row.proposed_units:
        raise CircuitError(
            f"layer count {proposed.mqg_count} != 2N-4 = {row.proposed_units}"
        )
    if baseline.toffoli_count != row.baseline_units:
        raise CircuitError(
            f"baseline gate count {baseline.toffoli_count} != 4(N-3) = {row.baseline_units}"
        )
    if proposed.qubit_count != row.proposed_qubits:
        raise CircuitError("proposed qubit count mismatch")
    if baseline.qubit_count != row.baseline_qubits:
        raise CircuitError("baseline qubit count mismatch")
    return row
