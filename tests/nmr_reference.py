"""Test-side reference for the NMR identities: the dense basis action.

A sequence of pi-pulses and ZZ evolutions sends each of the 2^N basis
states to one basis state times a phase. These functions compute that
action for every state at once with numpy, from the pulse masks, the
Hamiltonian, its own coupling strengths and evolution time, and check it
against the sign algebra's surviving terms state by state.
`mqgsim.nmr.verify_identity` checks the same identity per spin-class
triple, with integers only; the tests compare the two verdicts.
"""
from __future__ import annotations

import numpy as np

from mqgsim import nmr
from mqgsim.nmr import PULSE_CLASSES, LatticeError, build_hamiltonian, spin_class

# Largest lattice the dense numerics will take: about 56 bytes per basis
# state at peak, so 24 spins (6 rows) reach 932 MB RSS.
SPIN_LIMIT = 24


def pulse_mask(cfg, classes) -> int:
    """Bit mask of the spins a pi-pulse on pulse classes flips; A and D
    split by row parity."""
    mask = 0
    for cls in classes:
        if cls not in PULSE_CLASSES:
            raise LatticeError(f"unknown pulse class {cls!r}")
        role = "ABCD".index(cls[0])
        step = 1 if cls in ("B", "C") else 2
        first = 1 if cls.endswith("even") else 0  # 0-based row; row 1 is odd
        mask |= sum(1 << (4 * r + role) for r in range(first, cfg.rows, step))
    return mask


def _spin_bits(state: int, num_spins: int) -> str:
    """Basis state as 0/1 characters, spin index 0 first."""
    return format(state, f"0{num_spins}b")[::-1]


def weighted_terms(cfg, couplings):
    """(i, j, coeff) of every Hamiltonian term, coeff its coupling's strength;
    ``couplings`` are the six strengths a..f."""
    strength = dict(zip("abcdef", couplings))
    return [(x.i, x.j, strength[x.coupling]) for x in build_hamiltonian(cfg)]


def _energy(terms, num_spins: int) -> np.ndarray:
    """sum coeff Z_i Z_j over (i, j, coeff) terms at every basis state; bit k
    of the index is spin k.

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
    energy = np.zeros(1)
    for k in range(num_spins):
        low = np.arange(energy.size)
        field = np.zeros(energy.size)
        for i, j, coeff in terms:
            i, j = sorted((i, j))
            if j == k:
                field += coeff * (1.0 - 2.0 * ((low >> i) & 1))
        energy = np.concatenate((energy + field, energy - field))
    return energy


def sequence_action(groups, t: float, cfg, couplings) -> tuple[np.ndarray, np.ndarray]:
    """Exact action U|s> = phase[s] |image[s]> of U = E P1 E P2 E P3 E P4.

    ``groups`` are the pulses P1..P4. A pi-pulse sends |s> to (-i)^k times
    |s ^ mask>, k the number of spins it flips, and a free evolution E
    multiplies |s> by exp(-i t E(s)), so U maps each basis
    state to one basis state. Only the pulse masks and the Hamiltonian are
    read, never the sign algebra, so the two stay independent checks.
    """
    energy = _energy(weighted_terms(cfg, couplings), cfg.num_spins)
    image = np.arange(energy.size)
    angle = np.zeros(energy.size)
    pulse_phase = complex(1.0)
    for classes in reversed(groups):
        mask = pulse_mask(cfg, classes)
        image ^= mask
        angle += energy[image]
        pulse_phase *= (-1j) ** (mask.bit_count() % 4)  # exact for any k
    phase = np.exp(-1j * t * angle)
    phase *= pulse_phase
    return image, phase


def dense_verdict(groups, t, cfg, couplings, tol=1e-10):
    """(passed, counterexample) of the dense check of pulses P1..P4 at time t.

    It passes when the sequence fixes every basis state s and gives it the
    phase g d(s) up to ``tol``, where d is the diagonal of
    e^(-i sum surviving ZZ) from the sign algebra (``nmr.sign_total``
    times t times the term's coupling) and g = phi(0)/d(0). The
    counterexample is the lowest moved state with its image, or else the
    lowest state whose phase deviates by more than ``tol``.
    """
    n = cfg.num_spins
    with np.errstate(over="ignore", invalid="ignore"):
        image, phase = sequence_action(groups, t, cfg, couplings)
        survivors = [
            (i, j, nmr.sign_total(groups, spin_class(i), spin_class(j)) * t * coeff)
            for i, j, coeff in weighted_terms(cfg, couplings)
        ]
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
