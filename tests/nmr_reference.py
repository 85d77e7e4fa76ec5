"""Test-side reference for the NMR identities: the dense basis action.

A sequence of pi-pulses and ZZ evolutions sends each of the 2^N basis
states to one basis state times a phase. These functions compute that
action for every state at once with numpy, from the pulse masks and the
Hamiltonian only, and check it against the sign algebra's surviving
terms state by state. `mqgsim.nmr.verify_identity` checks the same
identity term by term; the tests compare the two verdicts.
"""
from __future__ import annotations

import numpy as np

from mqgsim.nmr import (
    LatticeError,
    _spin_bits,
    build_hamiltonian,
    effective_evolution,
)

# Largest lattice the dense numerics will take: about 56 bytes per basis
# state at peak, so 24 spins (6 rows) reach 932 MB RSS.
SPIN_LIMIT = 24


def _energy(terms, num_spins: int) -> np.ndarray:
    """sum coeff Z_i Z_j at every basis state; bit k of the index is spin k.

    Built one spin at a time: adding spin k doubles the array, and the
    terms whose higher spin is k add +field or -field to the two halves,
    where field(s) = sum coeff Z_i(s) over their lower spins i, read from
    the bits of s. Every array of the numerics is sized here first, so the
    spin limit is enforced before any of them is allocated.
    """
    if num_spins > SPIN_LIMIT:
        raise LatticeError(
            f"{num_spins} spins is over the limit of {SPIN_LIMIT} "
            f"({1 << num_spins} basis states)"
        )
    import numpy as np

    energy = np.zeros(1)
    for k in range(num_spins):
        low = np.arange(energy.size)
        field = np.zeros(energy.size)
        for term in terms:
            i, j = sorted((term.i, term.j))
            if j == k:
                field += term.coeff * (1.0 - 2.0 * ((low >> i) & 1))
        energy = np.concatenate((energy + field, energy - field))
    return energy


def sequence_action(groups, t: float, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Exact action U|s> = phase[s] |image[s]> of U = E P1 E P2 E P3 E P4.

    ``groups`` are the pulses P1..P4. A pi-pulse sends |s> to (-i)^k times
    |s ^ mask>, k the number of spins it flips, and a free evolution E
    multiplies |s> by exp(-i t E(s)), so U maps each basis
    state to one basis state. Only the pulse masks and the Hamiltonian are
    read, never the sign algebra, so the two stay independent checks.
    """
    import numpy as np

    energy = _energy(build_hamiltonian(cfg), cfg.num_spins)
    image = np.arange(energy.size)
    angle = np.zeros(energy.size)
    pulse_phase = complex(1.0)
    for classes in reversed(groups):
        mask = cfg.pulse_mask(classes)
        image ^= mask
        angle += energy[image]
        pulse_phase *= (-1j) ** (mask.bit_count() % 4)  # exact for any k
    phase = np.exp(-1j * t * angle)
    phase *= pulse_phase
    return image, phase


def dense_verdict(groups, t, cfg, tol=1e-10):
    """(passed, counterexample) of the dense check of pulses P1..P4 at time t.

    It passes when the sequence fixes every basis state s and gives it the
    phase g d(s) up to ``tol``, where d is the diagonal of
    e^(-i sum surviving ZZ) from the sign algebra and g = phi(0)/d(0). The
    counterexample is the lowest moved state with its image, or else the
    lowest state whose phase deviates by more than ``tol``.
    """
    n = cfg.num_spins
    with np.errstate(over="ignore", invalid="ignore"):
        image, phase = sequence_action(groups, t, cfg)
        masks = [cfg.pulse_mask(g) for g in groups]
        survivors = effective_evolution(masks, t, build_hamiltonian(cfg))
        target = np.exp(-1j * _energy(survivors, n))
        moved = np.flatnonzero(image != np.arange(image.size))
        if moved.size:
            s = int(moved[0])
            return False, {"state": _spin_bits(s, n), "image": _spin_bits(int(image[s]), n)}
        deviation = np.abs(phase - target * (phase[0] / target[0]))
        bad = np.flatnonzero(~(deviation <= tol))
        if bad.size:
            s = int(bad[0])
            return False, {"state": _spin_bits(s, n), "deviation": float(deviation[s])}
    return True, None
