"""ZZ spin-lattice model and the six refocusing pulse sequences.

The lattice has 4 spins per row (roles A, B, C, D) with six coupling
classes a..f. Spin ``role`` of row l (1-based) is the integer
4(l - 1) + "ABCD".index(role), and a set of spins is an int bit mask;
labels such as C1 appear only in the report's ``pair`` strings. All
Hamiltonian terms are diagonal ZZ products, so free evolution segments
commute exactly; a refocusing sequence interleaves four evolution segments
with simultaneous pi-pulses on whole frequency classes (a pulse is the
frozenset of class names it flips), cancelling every coupling except one,
which survives at 4t. The sign algebra and the term-by-term check of the
sequence's action are both exact integer bookkeeping, so a true identity
leaves every residual exactly 0.0, and neither needs the 2^N basis
states. A report counts the terms rather than listing them.
"""
from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

PULSE_CLASSES = ("A_odd", "A_even", "B", "C", "D_odd", "D_even")

# Coupling isolated by each sequence kind (the right-hand side of the
# identity the sequence realizes).
KIND_TARGET = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}

# Largest lattice LatticeConfig takes. Reports hold counts, so memory stays
# small, but each term reads bits of 4*rows-bit masks, so `nmr-verify --kind
# all` time grows about quadratically: 0.5 s/18 MB at 1024 rows, 4.4 s/24 MB
# at 4096, 15 s/33 MB at 8192 (shared 2-CPU machine, Python 3.11.7).
ROW_LIMIT = 4096


class LatticeError(ValueError):
    """Invalid lattice or sequence parameters."""


def pair_label(i: int, j: int) -> str:
    """Report label of the spin pair i, j: role letter and 1-based row, as in A1-C1."""
    return "-".join(f"{'ABCD'[s % 4]}{s // 4 + 1}" for s in (i, j))


class LatticeConfig(namedtuple("LatticeConfig", "rows couplings boundary")):
    """Rows of (A, B, C, D) spins with couplings a..f per row; the boundary
    is periodic or open."""

    __slots__ = ()

    def __new__(
        cls,
        rows: int,
        couplings: tuple[float, float, float, float, float, float],
        boundary: str = "periodic",
    ):
        if rows < 2:
            raise LatticeError(f"need at least 2 rows, got {rows}")
        if rows > ROW_LIMIT:
            raise LatticeError(f"{rows} rows is over the limit of {ROW_LIMIT}")
        couplings = tuple(couplings)  # hashable, for build_hamiltonian's cache
        if len(couplings) != 6:
            raise LatticeError("expected six couplings (a, b, c, d, e, f)")
        if not all(math.isfinite(c) for c in couplings):
            raise LatticeError(f"couplings must be finite, got {couplings}")
        if boundary not in ("periodic", "open"):
            raise LatticeError(f"unknown boundary {boundary!r}")
        return super().__new__(cls, rows, couplings, boundary)

    @classmethod
    def _make(cls, fields) -> "LatticeConfig":
        return cls(*fields)  # so _replace validates too

    @property
    def num_spins(self) -> int:
        return 4 * self.rows

    def pulse_mask(self, classes) -> int:
        """Bit mask of the spins a pi-pulse on pulse classes flips; A and D
        split by row parity."""
        mask = 0
        for cls in classes:
            if cls not in PULSE_CLASSES:
                raise LatticeError(f"unknown pulse class {cls!r}")
            role = "ABCD".index(cls[0])
            step = 1 if cls in ("B", "C") else 2
            first = 1 if cls.endswith("even") else 0  # 0-based row; row 1 is odd
            mask |= sum(1 << (4 * r + role) for r in range(first, self.rows, step))
        return mask


def seeded_couplings(seed: int) -> tuple[float, ...]:
    """Six couplings drawn uniformly from [0.2, 2.0] with random.Random(seed)."""
    if seed < 0:
        raise LatticeError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return tuple(rng.uniform(0.2, 2.0) for _ in range(6))


class ZZTerm(NamedTuple):
    i: int
    j: int
    coeff: float
    coupling: str  # which of a..f this term carries


@lru_cache(maxsize=4)
def build_hamiltonian(cfg: LatticeConfig) -> tuple[ZZTerm, ...]:
    """All ZZ terms; e/f terms wrap to row 1 or are dropped at an open edge.

    Cached per lattice, so the six identities of one ``nmr-verify`` run
    share one build; the terms are a tuple, so no caller can change
    another's.
    """
    a, b, c, d, e, f = cfg.couplings
    terms: list[ZZTerm] = []
    for l in range(1, cfg.rows + 1):
        A, B, C, D = range(4 * l - 4, 4 * l)
        terms.append(ZZTerm(A, C, a, "a"))
        terms.append(ZZTerm(C, D, b, "b"))
        terms.append(ZZTerm(D, A, c, "c"))
        terms.append(ZZTerm(D, B, d, "d"))
        if l < cfg.rows:
            nxt = 4 * l
        elif cfg.boundary == "periodic":
            nxt = 0
        else:
            continue
        terms.append(ZZTerm(B, nxt, e, "e"))
        terms.append(ZZTerm(nxt, D, f, "f"))
    return tuple(terms)


_KIND_GROUPS = {
    1: (frozenset({"D_odd", "D_even"}), frozenset({"B"})),
    2: (frozenset({"A_odd", "A_even"}), frozenset({"B"})),
    3: (frozenset({"B", "C"}), frozenset({"A_even", "D_even"})),
    4: (frozenset({"A_odd", "A_even"}), frozenset({"C"})),
    5: (frozenset({"D_odd", "D_even"}), frozenset({"C"})),
    # Kind 6 refocuses the inter-row A-D coupling, whose endpoints sit in
    # rows of opposite parity; the extra pulse pair must therefore mix
    # parities so both endpoints flip together.
    6: (frozenset({"B", "C"}), frozenset({"A_odd", "D_even"})),
}


def canonical_sequence(kind: int) -> tuple[frozenset[str], ...]:
    """The published pulses P1..P4 of U = E P1 E P2 E P3 E P4 isolating
    coupling a..f, where E is free evolution for the run's time t."""
    if kind not in _KIND_GROUPS:
        raise LatticeError(f"sequence kind must be 1..6, got {kind}")
    base, extra = _KIND_GROUPS[kind]
    return (base, base | extra) * 2


def effective_evolution(masks, t: float, terms) -> tuple[ZZTerm, ...]:
    """Exact sign bookkeeping: the ``terms`` that survive the four segments.

    ``masks`` are the pulse masks of P1..P4. Segment s evolves under the
    Hamiltonian conjugated by the product of the pulses P1..P_{s-1} before
    it in U = E P1 E P2 E P3 E P4, i.e. Z_i picks up a sign when bit i of
    the prefix XOR of their masks is set. A survivor's coeff is its nonzero
    sign sum times t times its coupling.
    """
    flips = [0]
    for mask in masks[:3]:
        flips.append(flips[-1] ^ mask)
    survivors = []
    for term in terms:
        if total := sum(1 - 2 * (((f >> term.i) ^ (f >> term.j)) & 1) for f in flips):
            survivors.append(term._replace(coeff=total * t * term.coeff))
    return tuple(survivors)


def pair_sign_total(i: int, j: int, masks) -> int | None:
    """u such that the segments' z_i z_j signs sum to u z_i z_j(s) at every s.

    Runs the pair's four local states (the values of bits i and j) through
    the pulse masks of P1..P4 in the order U = E P1 E P2 E P3 E P4 applies
    them (P4 first), flipping by each mask and then adding z_i z_j of the
    image, as the sequence does to a whole basis state. None if the four
    totals are not one u times z_i z_j (never for pulses of X's).
    """
    order = masks[::-1]
    units = set()
    for a0 in (0, 1):
        for b0 in (0, 1):
            a, b, total = a0, b0, 0
            for mask in order:
                a ^= mask >> i & 1
                b ^= mask >> j & 1
                total += 1 - 2 * (a ^ b)
            units.add(total * (1 - 2 * (a0 ^ b0)))
    return units.pop() if len(units) == 1 else None


def _spin_bits(state: int, num_spins: int) -> str:
    """Basis state as 0/1 characters, spin index 0 first."""
    return format(state, f"0{num_spins}b")[::-1]


class VerifyReport(NamedTuple):
    """One identity's verdict; the fields are the JSON keys of nmr-verify."""

    kind: int
    target_coupling: str
    rows: int
    boundary: str
    couplings: tuple[float, ...]
    t: float
    max_deviation: float | None  # None when some basis state is moved
    counterexample: dict | None  # moved state 0 or first failing pair; None on pass
    global_phase: tuple[float, float]  # (real, imag)
    terms_checked: int  # Hamiltonian terms, each checked against the sign algebra
    terms_surviving: int  # terms the sign algebra keeps
    matches_published: bool
    passed: bool


def verify_identity(
    kind: int,
    cfg: LatticeConfig,
    t: float,
    groups: tuple[frozenset[str], ...] | None = None,
) -> VerifyReport:
    """Check the sequence's exact action term by term against the sign algebra.

    Every Hamiltonian term is a diagonal Z_i Z_j and every pulse is a
    product of X's, so the sequence maps each basis state s to one state
    times exp(-i sum_terms u t coeff z_i z_j(s)), where u is the pair's
    sign total over the four segments (``pair_sign_total``, read from the
    pulse masks and never from the sign algebra). The sequence passes when
    its net pulse mask is 0 and every term's residual r = u t coeff - c is
    exactly 0.0, where c is the term's surviving coefficient from
    ``effective_evolution`` (0 if it does not survive); both sides are
    computed in the same operand order, so a true identity gives r = 0.0
    at any t. ``max_deviation`` is max |r| (None when the net mask
    moves basis states), and ``global_phase`` is the pulses' phase times
    exp(-i sum r). ``counterexample`` is None on a pass; otherwise state 0
    and its ``image`` if the net mask is not 0 (as for a mutated sequence),
    or else the first failing ``pair`` in Hamiltonian order and its
    ``deviation`` |r|; a NaN residual fails. ``matches_published`` records
    whether the surviving set is exactly the one coupling class at 4t that
    the kind is meant to isolate (true on every even-row or open lattice;
    an odd periodic ring has a parity seam that defeats kinds 3 and 6).
    ``groups`` overrides the canonical pulses P1..P4 with four others (for
    mutation tests); the evolution time is always ``t``.
    """
    if not 0.0 <= t < math.inf:
        raise LatticeError(f"evolution time t must be finite and >= 0, got {t}")
    # Residuals compute (u t) coeff with |u| <= 4, so this bounds every term.
    if not math.isfinite(4 * t * max(abs(c) for c in cfg.couplings)):
        raise LatticeError(f"4 t |coupling| overflows at t={t}, couplings {cfg.couplings}")

    canonical = canonical_sequence(kind)  # refuses a kind outside 1..6
    groups = canonical if groups is None else tuple(groups)
    if len(groups) != 4:
        raise LatticeError(f"a sequence has four pulse groups, got {len(groups)}")
    masks = [cfg.pulse_mask(g) for g in groups]
    net = masks[0] ^ masks[1] ^ masks[2] ^ masks[3]
    # U = E P1 E P2 E P3 E P4 acts right to left: P4 flips first. Each pulse
    # is -i X per spin, and (-i)^k is reduced mod 4 so the phase is exact.
    pulse_phase = complex(1.0)
    for mask in reversed(masks):
        pulse_phase *= (-1j) ** (mask.bit_count() % 4)
    terms = build_hamiltonian(cfg)

    survivors = effective_evolution(masks, t, terms)
    label = KIND_TARGET[kind]
    # 4 * t * coeff, in effective_evolution's operand order.
    published = {(x.i, x.j): 4 * t * x.coeff for x in terms if x.coupling == label}
    surviving = {(x.i, x.j): x.coeff for x in survivors}
    matches_published = surviving == published and not net

    residuals = []  # (i, j, r) in Hamiltonian order
    for term in terms:
        u = pair_sign_total(term.i, term.j, masks)
        c = surviving.pop((term.i, term.j), 0.0)
        residuals.append((term.i, term.j, math.nan if u is None else u * t * term.coeff - c))
    # A surviving term on no Hamiltonian pair is residual in full.
    residuals += [(i, j, -c) for (i, j), c in surviving.items()]

    total = sum(r for _, _, r in residuals)
    g = complex(math.nan, math.nan)  # an overflowed residual leaves no phase
    if math.isfinite(total):
        g = pulse_phase * cmath.exp(-1j * total)
    max_deviation = counterexample = None
    if net:
        n = cfg.num_spins
        counterexample = {"state": _spin_bits(0, n), "image": _spin_bits(net, n)}
    else:
        deviations = [abs(r) for _, _, r in residuals]
        max_deviation = math.nan if any(map(math.isnan, deviations)) else max(deviations)
        for (i, j, _), d in zip(residuals, deviations):
            if d != 0.0:  # NaN fails too
                counterexample = {"pair": pair_label(i, j), "deviation": d}
                break
    return VerifyReport(
        kind=kind,
        target_coupling=KIND_TARGET[kind],
        rows=cfg.rows,
        boundary=cfg.boundary,
        couplings=cfg.couplings,
        t=t,
        max_deviation=max_deviation,
        counterexample=counterexample,
        global_phase=(g.real, g.imag),
        terms_checked=len(terms),
        terms_surviving=len(survivors),
        matches_published=matches_published,
        passed=counterexample is None,
    )
