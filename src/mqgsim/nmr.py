"""ZZ spin-lattice model and the six refocusing pulse sequences.

The lattice has 4 spins per row (roles A, B, C, D) with six coupling
classes a..f. All Hamiltonian terms are diagonal ZZ products, so free
evolution segments commute exactly; a refocusing sequence interleaves four
evolution segments with simultaneous pi-pulses on whole frequency classes,
cancelling every coupling except one, which survives at 4t. Both the sign
algebra and the basis action (each basis state's image and phase) are
exact, so the check tolerance is pure floating-point slack.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

PULSE_CLASSES = ("A_odd", "A_even", "B", "C", "D_odd", "D_even")

# Coupling isolated by each sequence kind (the right-hand side of the
# identity the sequence realizes).
KIND_TARGET = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}

# Largest lattice the numerics will take: about 56 bytes per basis state at
# peak, so `nmr-verify --kind 1 --rows 6` (24 spins) reaches 932 MB RSS.
SPIN_LIMIT = 24


class LatticeError(ValueError):
    """Invalid lattice or sequence parameters."""


class SpinRef(NamedTuple):
    role: str  # A, B, C or D
    row: int

    def __repr__(self) -> str:
        return f"{self.role}{self.row}"


_ROLE_OFFSET = {"A": 0, "B": 1, "C": 2, "D": 3}


def spin_index(ref: SpinRef) -> int:
    return 4 * (ref.row - 1) + _ROLE_OFFSET[ref.role]


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

    def class_spins(self, cls: str) -> tuple[SpinRef, ...]:
        if cls not in PULSE_CLASSES:
            raise LatticeError(f"unknown pulse class {cls!r}")
        role = cls[0]
        if role in ("A", "D"):
            wanted = 1 if cls.endswith("odd") else 0
            rows = [l for l in range(1, self.rows + 1) if l % 2 == wanted]
        else:
            rows = list(range(1, self.rows + 1))
        return tuple(SpinRef(role, l) for l in rows)


def seeded_couplings(seed: int) -> tuple[float, ...]:
    """Six couplings drawn uniformly from [0.2, 2.0) with numpy's default_rng(seed)."""
    import numpy as np

    return tuple(float(x) for x in np.random.default_rng(seed).uniform(0.2, 2.0, size=6))


class ZZTerm(NamedTuple):
    i: SpinRef
    j: SpinRef
    coeff: float
    coupling: str  # which of a..f this term carries
    row: int


def build_hamiltonian(cfg: LatticeConfig) -> list[ZZTerm]:
    """All ZZ terms; e/f terms wrap to row 1 or are dropped at an open edge."""
    a, b, c, d, e, f = cfg.couplings
    terms: list[ZZTerm] = []
    for l in range(1, cfg.rows + 1):
        A, B, C, D = (SpinRef(r, l) for r in "ABCD")
        terms.append(ZZTerm(A, C, a, "a", l))
        terms.append(ZZTerm(C, D, b, "b", l))
        terms.append(ZZTerm(D, A, c, "c", l))
        terms.append(ZZTerm(D, B, d, "d", l))
        if l < cfg.rows:
            nxt = SpinRef("A", l + 1)
        elif cfg.boundary == "periodic":
            nxt = SpinRef("A", 1)
        else:
            continue
        terms.append(ZZTerm(B, nxt, e, "e", l))
        terms.append(ZZTerm(nxt, D, f, "f", l))
    return terms


class PulseGroup(namedtuple("PulseGroup", "classes")):
    """Simultaneous pi-pulse about x on every spin of the listed classes."""

    __slots__ = ()

    def __new__(cls, classes: frozenset[str]):
        bad = classes - set(PULSE_CLASSES)
        if bad:
            raise LatticeError(f"unknown pulse classes {sorted(bad)}")
        return super().__new__(cls, classes)

    @classmethod
    def _make(cls, fields) -> "PulseGroup":
        return cls(*fields)  # so _replace validates too

    def spins(self, cfg: LatticeConfig) -> frozenset[SpinRef]:
        out: set[SpinRef] = set()
        for cls in self.classes:
            out |= set(cfg.class_spins(cls))
        return frozenset(out)


class RefocusSequence(NamedTuple):
    """U = E P1 E P2 E P3 E P4 with E = free evolution for time t."""

    t: float
    groups: tuple[PulseGroup, PulseGroup, PulseGroup, PulseGroup]
    kind: int | None = None


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


def canonical_sequence(kind: int, t: float) -> RefocusSequence:
    """The published four-segment sequence isolating coupling a..f."""
    if kind not in _KIND_GROUPS:
        raise LatticeError(f"sequence kind must be 1..6, got {kind}")
    base, extra = _KIND_GROUPS[kind]
    p_plain = PulseGroup(base)
    p_extra = PulseGroup(base | extra)
    return RefocusSequence(t, (p_plain, p_extra, p_plain, p_extra), kind=kind)


class EffectiveEvolution(NamedTuple):
    surviving: tuple[ZZTerm, ...]  # coeff holds the accumulated 4t * coupling
    global_phase: complex
    sign_table: tuple[dict, ...]
    # Nonempty iff the net pulse product is not the identity permutation
    # (only possible for mutated sequences); the diagonal picture then needs
    # this residual bit-flip on top.
    net_flips: frozenset[SpinRef] = frozenset()


def effective_evolution(seq: RefocusSequence, cfg: LatticeConfig) -> EffectiveEvolution:
    """Exact sign bookkeeping: which ZZ terms survive the four segments.

    Segment s evolves under the Hamiltonian conjugated by the product of
    the pulses P1..P_{s-1} before it in U = E P1 E P2 E P3 E P4, i.e. Z_i
    picks up a sign when spin i is flipped an odd number of times there.
    """
    flips = [frozenset()]
    pulsed = 0
    for group in seq.groups:
        spins = group.spins(cfg)
        flips.append(flips[-1] ^ spins)
        pulsed += len(spins)
    net = flips.pop()
    surviving = []
    table = []
    for term in build_hamiltonian(cfg):
        signs = [
            -1 if len(fl & {term.i, term.j}) == 1 else 1 for fl in flips
        ]
        total = sum(signs)
        table.append(
            {
                "coupling": term.coupling,
                "row": term.row,
                "pair": f"{term.i}-{term.j}",
                "signs": signs,
                "survives": total != 0,
            }
        )
        if total:
            surviving.append(
                ZZTerm(term.i, term.j, total * seq.t * term.coeff, term.coupling, term.row)
            )
    return EffectiveEvolution(tuple(surviving), complex((-1j) ** pulsed), tuple(table), net)


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
            i, j = sorted((spin_index(term.i), spin_index(term.j)))
            if j == k:
                field += term.coeff * (1.0 - 2.0 * ((low >> i) & 1))
        energy = np.concatenate((energy + field, energy - field))
    return energy


def pulse_operator(group: PulseGroup, cfg: LatticeConfig) -> tuple[int, complex]:
    """(xor mask, phase) of the simultaneous pi-pulse: -i X per spin."""
    spins = group.spins(cfg)
    mask = 0
    for s in spins:
        mask |= 1 << spin_index(s)
    return mask, complex((-1j) ** len(spins))


def sequence_action(seq: RefocusSequence, cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact action U|s> = phase[s] |image[s]> of U = E P1 E P2 E P3 E P4.

    A pi-pulse sends |s> to a constant phase times |s ^ mask>, and a free
    evolution E multiplies |s> by exp(-i t E(s)), so U maps each basis
    state to one basis state. Only the pulse masks and the Hamiltonian are
    read, never the sign algebra, so the two stay independent checks.
    """
    import numpy as np

    energy = _energy(build_hamiltonian(cfg), cfg.num_spins)
    image = np.arange(energy.size)
    angle = np.zeros(energy.size)
    pulse_phase = complex(1.0)
    for group in reversed(seq.groups):
        mask, phase = pulse_operator(group, cfg)
        image ^= mask
        angle += energy[image]
        pulse_phase *= phase
    phase = np.exp(-1j * seq.t * angle)
    phase *= pulse_phase
    return image, phase


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
    counterexample: dict | None  # first failing basis state; None on pass
    global_phase: tuple[float, float]  # (real, imag)
    sign_table: tuple[dict, ...]
    matches_published: bool
    passed: bool


def target_terms(kind: int, cfg: LatticeConfig) -> list[ZZTerm]:
    """The published right-hand side: only one coupling class, at weight 4."""
    label = KIND_TARGET[kind]
    return [t for t in build_hamiltonian(cfg) if t.coupling == label]


def verify_identity(
    kind: int,
    cfg: LatticeConfig,
    t: float,
    tol: float = 1e-10,
    sequence: RefocusSequence | None = None,
) -> VerifyReport:
    """Compare the sequence's exact basis action with the refocused evolution.

    The sequence passes when it fixes every basis state s and gives it the
    phase phi(s) = g d(s) up to ``tol``, where d is the diagonal of
    e^(-i sum surviving ZZ) from the independent sign algebra and
    g = phi(0)/d(0) is the global phase. ``counterexample`` names the first
    failing state, with its image if it is moved (as by a mutated sequence
    whose net pulse product is not the identity) or else its deviation.
    ``matches_published`` records
    whether the surviving set is exactly the one coupling class at 4t that
    the kind is meant to isolate (true on every even-row or open lattice;
    an odd periodic ring has a parity seam that defeats kinds 3 and 6).
    ``sequence`` overrides the canonical pulses for mutation tests.
    """
    if not 0.0 <= t < math.inf:
        raise LatticeError(f"evolution time t must be finite and >= 0, got {t}")
    if not 0.0 <= tol < math.inf:
        raise LatticeError(f"tolerance must be finite and >= 0, got {tol}")
    import numpy as np

    seq = canonical_sequence(kind, t) if sequence is None else sequence
    eff = effective_evolution(seq, cfg)
    published = {
        (t2.i, t2.j): 4.0 * t * t2.coeff for t2 in target_terms(kind, cfg)
    }
    surviving = {(t2.i, t2.j): t2.coeff for t2 in eff.surviving}
    matches_published = (
        surviving.keys() == published.keys()
        and all(abs(surviving[k] - published[k]) < 1e-12 for k in surviving)
        and not eff.net_flips
    )

    n = cfg.num_spins
    # An overflowing energy gives NaN phases, which the check below fails.
    with np.errstate(over="ignore", invalid="ignore"):
        image, phase = sequence_action(seq, cfg)
        target = np.exp(-1j * _energy(eff.surviving, n))
        g = complex(phase[0] / target[0])
        max_deviation = counterexample = None
        moved = np.flatnonzero(image != np.arange(image.size))
        if moved.size:
            s = int(moved[0])
            counterexample = {"state": _spin_bits(s, n), "image": _spin_bits(int(image[s]), n)}
        else:
            target *= g
            phase -= target  # in place: the deviation, with no extra 2^N temporaries
            deviation = np.abs(phase)
            max_deviation = float(deviation.max())
            bad = np.flatnonzero(~(deviation <= tol))  # an overflow to NaN fails too
            if bad.size:
                s = int(bad[0])
                counterexample = {"state": _spin_bits(s, n), "deviation": float(deviation[s])}
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
        sign_table=eff.sign_table,
        matches_published=matches_published,
        passed=counterexample is None,
    )
