"""ZZ spin-lattice model and the six refocusing pulse sequences.

The lattice has 4 spins per row (roles A, B, C, D) with six coupling
classes a..f. All Hamiltonian terms are diagonal ZZ products, so free
evolution segments commute exactly; a refocusing sequence interleaves four
evolution segments with simultaneous pi-pulses on whole frequency classes,
cancelling every coupling except one, which survives at 4t. Both the sign
algebra and the dense state-vector application are exact, so the check
tolerance is pure floating-point slack.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

PULSE_CLASSES = ("A_odd", "A_even", "B", "C", "D_odd", "D_even")

COUPLING_LABELS = ("a", "b", "c", "d", "e", "f")

# Coupling isolated by each sequence kind (the right-hand side of the
# identity the sequence realizes).
KIND_TARGET = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}


class LatticeError(ValueError):
    """Invalid lattice or sequence parameters."""


@dataclass(frozen=True, order=True)
class SpinRef:
    role: str  # A, B, C or D
    row: int

    @property
    def pulse_class(self) -> str:
        if self.role in ("A", "D"):
            parity = "odd" if self.row % 2 == 1 else "even"
            return f"{self.role}_{parity}"
        return self.role

    def __repr__(self) -> str:
        return f"{self.role}{self.row}"


_ROLE_OFFSET = {"A": 0, "B": 1, "C": 2, "D": 3}


def spin_index(ref: SpinRef) -> int:
    return 4 * (ref.row - 1) + _ROLE_OFFSET[ref.role]


@dataclass(frozen=True)
class LatticeConfig:
    """Rows of (A, B, C, D) spins with couplings a..f per row."""

    rows: int
    couplings: tuple[float, float, float, float, float, float]
    boundary: str = "periodic"  # periodic | open

    def __post_init__(self):
        if self.rows < 2:
            raise LatticeError(f"need at least 2 rows, got {self.rows}")
        if len(self.couplings) != 6:
            raise LatticeError("expected six couplings (a, b, c, d, e, f)")
        if self.boundary not in ("periodic", "open"):
            raise LatticeError(f"unknown boundary {self.boundary!r}")

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


@dataclass(frozen=True)
class ZZTerm:
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


@dataclass(frozen=True)
class PulseGroup:
    """Simultaneous pi-pulse about x on every spin of the listed classes."""

    classes: frozenset[str]

    def __post_init__(self):
        bad = self.classes - set(PULSE_CLASSES)
        if bad:
            raise LatticeError(f"unknown pulse classes {sorted(bad)}")

    def spins(self, cfg: LatticeConfig) -> frozenset[SpinRef]:
        out: set[SpinRef] = set()
        for cls in self.classes:
            out |= set(cfg.class_spins(cls))
        return frozenset(out)


@dataclass(frozen=True)
class RefocusSequence:
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


@dataclass(frozen=True)
class EffectiveEvolution:
    surviving: tuple[ZZTerm, ...]  # coeff holds the accumulated 4t * coupling
    global_phase: complex
    sign_table: tuple[dict, ...] = field(compare=False)
    # Nonempty iff the net pulse product is not the identity permutation
    # (only possible for mutated sequences); the diagonal picture then needs
    # this residual bit-flip on top.
    net_flips: frozenset[SpinRef] = frozenset()


def _cumulative_flips(seq: RefocusSequence, cfg: LatticeConfig) -> list[frozenset[SpinRef]]:
    """Flip sets seen by each of the four evolution segments.

    Segment s evolves under the Hamiltonian conjugated by the product of
    the pulses applied after it (P_{s+1}..P4 act first on the ket), i.e.
    Z_i picks up a sign when spin i is flipped an odd number of times.
    """
    sets = [frozenset()]
    acc: frozenset[SpinRef] = frozenset()
    for group in seq.groups[:3]:
        acc = acc ^ group.spins(cfg)
        sets.append(acc)
    return sets


def effective_evolution(seq: RefocusSequence, cfg: LatticeConfig) -> EffectiveEvolution:
    """Exact sign bookkeeping: which ZZ terms survive the four segments."""
    flips = _cumulative_flips(seq, cfg)
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

    net: frozenset[SpinRef] = frozenset()
    pulsed = 0
    for group in seq.groups:
        spins = group.spins(cfg)
        net = net ^ spins
        pulsed += len(spins)
    phase = (-1j) ** pulsed
    return EffectiveEvolution(tuple(surviving), complex(phase), tuple(table), net)


def _z_values(cfg: LatticeConfig) -> np.ndarray:
    """(2^spins, spins) array of Z eigenvalues; bit 0 of the index <-> +1."""
    dim = 1 << cfg.num_spins
    idx = np.arange(dim, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(cfg.num_spins)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _diagonal_phase(terms, cfg: LatticeConfig, t: float) -> np.ndarray:
    """exp(-i t sum coeff Z_i Z_j) as a diagonal over all basis states."""
    z = _z_values(cfg)
    energy = np.zeros(1 << cfg.num_spins)
    for term in terms:
        energy += term.coeff * z[:, spin_index(term.i)] * z[:, spin_index(term.j)]
    return np.exp(-1j * t * energy)


def pulse_operator(group: PulseGroup, cfg: LatticeConfig) -> tuple[int, complex]:
    """(xor mask, phase) of the simultaneous pi-pulse: -i X per spin."""
    spins = group.spins(cfg)
    mask = 0
    for s in spins:
        mask |= 1 << spin_index(s)
    return mask, complex((-1j) ** len(spins))


def apply_sequence(seq: RefocusSequence, cfg: LatticeConfig, state: np.ndarray) -> np.ndarray:
    """Exact application of U = E P1 E P2 E P3 E P4 to a state vector."""
    dim = 1 << cfg.num_spins
    if state.shape != (dim,):
        raise LatticeError(f"state dimension {state.shape} != ({dim},)")
    evo = _diagonal_phase(build_hamiltonian(cfg), cfg, seq.t)
    idx = np.arange(dim)
    out = state
    for group in reversed(seq.groups):
        mask, phase = pulse_operator(group, cfg)
        out = phase * out[idx ^ mask]
        out = evo * out
    return out


@dataclass(frozen=True)
class VerifyReport:
    kind: int
    rows: int
    boundary: str
    couplings: tuple[float, ...]
    t: float
    trials: int
    seed: int
    min_fidelity: float
    global_phase: complex
    sign_table: tuple[dict, ...]
    matches_published: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": self.rows,
            "boundary": self.boundary,
            "couplings": list(self.couplings),
            "t": self.t,
            "trials": self.trials,
            "seed": self.seed,
            "min_fidelity": self.min_fidelity,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "sign_table": list(self.sign_table),
            "matches_published": self.matches_published,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def target_terms(kind: int, cfg: LatticeConfig) -> list[ZZTerm]:
    """The published right-hand side: only one coupling class, at weight 4."""
    label = KIND_TARGET[kind]
    return [t for t in build_hamiltonian(cfg) if t.coupling == label]


def verify_identity(
    kind: int,
    cfg: LatticeConfig,
    t: float,
    trials: int = 20,
    tol: float = 1e-10,
    seed: int = 0,
    sequence: RefocusSequence | None = None,
) -> VerifyReport:
    """Compare the sequence's numerics against the refocused evolution.

    Random normalized states are pushed through the full pulse sequence and
    through e^(-i sum surviving ZZ) built from the independent sign algebra;
    fidelity is the global-phase-invariant overlap magnitude. A mutated
    sequence whose net pulse product is not the identity can never match a
    pure diagonal evolution, so it fails. ``matches_published`` records
    whether the surviving set is exactly the one coupling class at 4t that
    the kind is meant to isolate (true on every even-row or open lattice;
    an odd periodic ring has a parity seam that defeats kinds 3 and 6).
    ``sequence`` overrides the canonical pulses for mutation tests.
    """
    if trials < 1:
        raise LatticeError(f"need at least one trial, got {trials}")
    if not 0.0 <= t < math.inf:
        raise LatticeError(f"evolution time t must be finite and >= 0, got {t}")
    if not 0.0 <= tol < math.inf:
        raise LatticeError(f"tolerance must be finite and >= 0, got {tol}")
    seq = canonical_sequence(kind, t) if sequence is None else sequence
    eff = effective_evolution(seq, cfg)
    target_diag = _diagonal_phase(eff.surviving, cfg, 1.0)
    published = {
        (t2.i, t2.j): 4.0 * t * t2.coeff for t2 in target_terms(kind, cfg)
    }
    surviving = {(t2.i, t2.j): t2.coeff for t2 in eff.surviving}
    matches_published = (
        surviving.keys() == published.keys()
        and all(abs(surviving[k] - published[k]) < 1e-12 for k in surviving)
        and not eff.net_flips
    )

    dim = 1 << cfg.num_spins
    min_fid = 1.0
    phase = complex(1.0)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        actual = apply_sequence(seq, cfg, state)
        target = target_diag * state
        overlap = np.vdot(target, actual)
        if trial == 0:
            phase = complex(overlap / abs(overlap)) if abs(overlap) > 0 else 0j
        min_fid = min(min_fid, abs(overlap))
    return VerifyReport(
        kind=kind,
        rows=cfg.rows,
        boundary=cfg.boundary,
        couplings=cfg.couplings,
        t=t,
        trials=trials,
        seed=seed,
        min_fidelity=float(min_fid),
        global_phase=phase,
        sign_table=eff.sign_table,
        matches_published=matches_published,
        passed=bool(min_fid >= 1.0 - tol),
    )
