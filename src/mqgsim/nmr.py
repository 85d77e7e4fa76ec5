"""ZZ spin-lattice model and the six refocusing pulse sequences.

The lattice has 4 spins per row (roles A, B, C, D) with six coupling
classes a..f. Spin ``role`` of row l (1-based) is the integer
4(l - 1) + "ABCD".index(role); labels such as C1 appear only in the
report's ``pair`` strings. All terms are diagonal ZZ products, so free
evolution segments commute; a refocusing sequence interleaves four of
them with pi-pulses on whole frequency classes (a pulse is the frozenset
of class names it flips), cancelling every coupling but one, which
survives at 4t. A pulse flips a spin exactly when it names the spin's
class, so a term's sign totals depend only on its (coupling, class,
class) triple, and a lattice has at most 13 triples. Both checks are
integer functions of a class pair: the verdict reads no time and no
coupling strength, and never the 2^N basis states.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

PULSE_CLASSES = ("A_odd", "A_even", "B", "C", "D_odd", "D_even")

# Coupling isolated by each sequence kind (the right-hand side of the
# identity the sequence realizes).
KIND_TARGET = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}

# Largest lattice LatticeConfig takes: the largest power of two whose
# `nmr-verify --kind all` run stays under 2 s. The run is linear in rows:
# 0.12-0.19 s/17 MB at 4096 rows, 1.1-1.5 s/61 MB at 65536, 1.9-2.0 s/
# 107 MB at 131072 (shared 2-CPU machine, Python 3.11.7).
ROW_LIMIT = 65536

# (-i)^k for k mod 4, as (real, imag): the phase of pulses flipping k spins.
_QUARTER_TURNS = ((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0))


class LatticeError(ValueError):
    """Invalid lattice or sequence parameters."""


def pair_label(i: int, j: int) -> str:
    """Report label of the spin pair i, j: role letter and 1-based row, as in A1-C1."""
    return "-".join(f"{'ABCD'[s % 4]}{s // 4 + 1}" for s in (i, j))


def spin_class(s: int) -> str:
    """Pulse class of spin s: B or C, or A and D split by row parity (row 1 is odd)."""
    role = "ABCD"[s % 4]
    if role in "BC":
        return role
    return f"{role}_{'even' if s // 4 % 2 else 'odd'}"


class LatticeConfig(namedtuple("LatticeConfig", "rows boundary")):
    """Rows of (A, B, C, D) spins with couplings a..f per row; the boundary
    is periodic or open."""

    __slots__ = ()

    def __new__(cls, rows: int, boundary: str = "periodic"):
        if rows < 2:
            raise LatticeError(f"need at least 2 rows, got {rows}")
        if rows > ROW_LIMIT:
            raise LatticeError(f"{rows} rows is over the limit of {ROW_LIMIT}")
        if boundary not in ("periodic", "open"):
            raise LatticeError(f"unknown boundary {boundary!r}")
        return super().__new__(cls, rows, boundary)

    @classmethod
    def _make(cls, fields) -> "LatticeConfig":
        return cls(*fields)  # so _replace validates too

    @property
    def num_spins(self) -> int:
        return 4 * self.rows


class ZZTerm(NamedTuple):
    i: int
    j: int
    coupling: str  # which of a..f this term carries


def build_hamiltonian(cfg: LatticeConfig) -> tuple[ZZTerm, ...]:
    """All ZZ terms; e/f terms wrap to row 1 or are dropped at an open edge.

    Not cached: ``lattice_triples``, the one cache per lattice, reads the
    terms once for all six identities of an ``nmr-verify`` run. The terms
    are a tuple, so no caller can change another's.
    """
    terms: list[ZZTerm] = []
    for l in range(1, cfg.rows + 1):
        A, B, C, D = range(4 * l - 4, 4 * l)
        terms += (ZZTerm(A, C, "a"), ZZTerm(C, D, "b"), ZZTerm(D, A, "c"), ZZTerm(D, B, "d"))
        if l < cfg.rows:
            nxt = 4 * l
        elif cfg.boundary == "periodic":
            nxt = 0
        else:
            continue
        terms += (ZZTerm(B, nxt, "e"), ZZTerm(nxt, D, "f"))
    return tuple(terms)


@lru_cache(maxsize=4)
def lattice_triples(cfg: LatticeConfig) -> tuple[tuple[tuple[str, str, str], ZZTerm, int], ...]:
    """Each (coupling, class, class) triple of the lattice with its first term
    in Hamiltonian order and its term count, in the order of those first
    terms. Even periodic rings have 12 triples, odd ones 13 (the seam f
    term A_odd-D_odd), open lattices 10 at 2 rows and 12 from 3 rows.
    """
    triples: dict[tuple[str, str, str], tuple[ZZTerm, int]] = {}
    for term in build_hamiltonian(cfg):
        key = (term.coupling, spin_class(term.i), spin_class(term.j))
        first, count = triples.get(key, (term, 0))
        triples[key] = (first, count + 1)
    return tuple((key, first, count) for key, (first, count) in triples.items())


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
    coupling a..f, where E is free evolution for some time t."""
    if kind not in _KIND_GROUPS:
        raise LatticeError(f"sequence kind must be 1..6, got {kind}")
    base, extra = _KIND_GROUPS[kind]
    return (base, base | extra) * 2


def sign_total(groups, ci: str, cj: str) -> int:
    """Sign algebra: the sum over the four segments of a ci-cj term's sign.

    ``groups`` are the pulses P1..P4. Segment s evolves under the
    Hamiltonian conjugated by the pulses P1..P_{s-1} before it in
    U = E P1 E P2 E P3 E P4, so the term's sign is -1 exactly when the
    prefix of those pulses flips one of its two classes an odd number of
    times. A term survives at (total) t coupling; 4 isolates it, 0 drops it.
    """
    total, prefix = 0, frozenset()
    for pulse in (frozenset(), *groups[:3]):
        prefix ^= pulse
        total += 1 - 2 * ((ci in prefix) ^ (cj in prefix))
    return total


def pair_sign_total(groups, ci: str, cj: str) -> int | None:
    """u such that the segments' z_i z_j signs sum to u z_i z_j(s) at every s,
    for spins i, j of classes ci, cj.

    Runs the pair's four local states (the values of the two spins) through
    the pulses P1..P4 in the order U = E P1 E P2 E P3 E P4 applies them (P4
    first), flipping a spin when the pulse names its class and then adding
    z_i z_j of the image, as the sequence does to a whole basis state. None
    if the four totals are not one u times z_i z_j (never for pulses of X's).
    """
    units = set()
    for a0 in (0, 1):
        for b0 in (0, 1):
            a, b, total = a0, b0, 0
            for pulse in reversed(groups):
                a ^= ci in pulse
                b ^= cj in pulse
                total += 1 - 2 * (a ^ b)
            units.add(total * (1 - 2 * (a0 ^ b0)))
    return units.pop() if len(units) == 1 else None


class VerifyReport(NamedTuple):
    """One identity's verdict; the fields are the JSON keys of nmr-verify."""

    kind: int
    target_coupling: str
    rows: int
    boundary: str
    counterexample: dict | None  # moved state 0 or first failing pair; None on pass
    global_phase: tuple[float, float]  # (real, imag)
    terms_checked: int  # Hamiltonian terms, each in a triple both checks read
    terms_surviving: int  # terms the sign algebra keeps
    matches_published: bool
    passed: bool


def verify_identity(
    kind: int,
    cfg: LatticeConfig,
    groups: tuple[frozenset[str], ...] | None = None,
) -> VerifyReport:
    """Check the sequence's exact action against the sign algebra, per triple.

    The sequence maps each basis state s to one state times
    exp(-i t sum_terms u coupling z_i z_j(s)), u the walk's
    ``pair_sign_total``. It passes when no class is flipped an odd number
    of times (no state moves) and u equals ``sign_total`` on every triple;
    both are integers, so the verdict holds at every time and coupling.
    ``counterexample`` is None on a pass, else state 0 and its ``image``
    when a state moves, or the first failing term's ``pair`` in Hamiltonian
    order with its ``u`` and ``total``. ``matches_published``: totals of 4
    on the kind's target triples and 0 on the rest (false for kinds 3 and
    6 on an odd periodic ring, whose parity seam defeats them).
    ``global_phase`` is (-i)^k for the k spins the pulses flip. ``groups``
    overrides the canonical pulses P1..P4 (for mutation tests).
    """
    canonical = canonical_sequence(kind)  # refuses a kind outside 1..6
    groups = canonical if groups is None else tuple(map(frozenset, groups))
    if len(groups) != 4:
        raise LatticeError(f"a sequence has four pulse groups, got {len(groups)}")
    unknown = set().union(*groups) - set(PULSE_CLASSES)
    if unknown:
        raise LatticeError(f"unknown pulse class {min(unknown)!r}")
    net = groups[0] ^ groups[1] ^ groups[2] ^ groups[3]
    # Each pulse is -i X per spin it flips: B and C hold every row, the
    # other classes the odd rows (row 1 is odd) or the even ones.
    rows = cfg.rows
    flipped = sum(
        rows if "_" not in cls else (rows + cls.endswith("odd")) // 2
        for pulse in groups for cls in pulse
    )

    target = KIND_TARGET[kind]
    counterexample = None
    matches_published = not net
    terms_checked = terms_surviving = 0
    for (coupling, ci, cj), first, count in lattice_triples(cfg):
        total = sign_total(groups, ci, cj)
        u = pair_sign_total(groups, ci, cj)
        terms_checked += count
        terms_surviving += count if total else 0
        matches_published &= total == (4 if coupling == target else 0)
        if u != total and counterexample is None:
            counterexample = {"pair": pair_label(first.i, first.j), "u": u, "total": total}
    if net:
        image = "".join("1" if spin_class(s) in net else "0" for s in range(cfg.num_spins))
        counterexample = {"state": "0" * cfg.num_spins, "image": image}
    return VerifyReport(
        kind=kind,
        target_coupling=target,
        rows=rows,
        boundary=cfg.boundary,
        counterexample=counterexample,
        global_phase=_QUARTER_TURNS[flipped % 4],
        terms_checked=terms_checked,
        terms_surviving=terms_surviving,
        matches_published=matches_published,
        passed=counterexample is None,
    )
