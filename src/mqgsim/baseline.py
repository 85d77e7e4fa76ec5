"""The conventional dirty-ancilla V-chain and the unit-count comparison
with the n-network. Only ``compare`` loads this module.
"""
from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit, CircuitError, metrics
from .synthesis import synth_mqg_network


def synth_baseline_dirty(m_controls: int) -> Circuit:
    """Two-pass V-chain computing t ^= c_1...c_m with dirty ancillas.

    Uses m-2 ancillas whose initial values may be arbitrary; they are
    restored by the second pass. Gate count 4(m-2), one gate per layer.
    """
    if m_controls < 3:
        raise CircuitError(f"need at least 3 controls, got {m_controls}")
    m = m_controls
    # Flat indices: controls c_i = i-1, ancillas x_i = m+i-1, target t = 2m-2.
    c = {i: i - 1 for i in range(1, m + 1)}
    x = {i: m + i - 1 for i in range(1, m - 1)}
    t = 2 * m - 2

    down = [(c[m], x[m - 2], t)]
    down += [(c[i + 2], x[i], x[i + 1]) for i in range(m - 3, 0, -1)]
    peak = (c[1], c[2], x[1])
    gates = down + [peak] + down[::-1] + down[1:] + [peak] + down[:0:-1]
    return Circuit(2 * m - 1, tuple((g,) for g in gates))


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
