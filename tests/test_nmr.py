import json
import math
import random

import numpy as np
import pytest

import nmr_reference
from mqgsim import nmr
from mqgsim.nmr import (
    KIND_TARGET,
    LatticeConfig,
    LatticeError,
    PULSE_CLASSES,
    ZZTerm,
    build_hamiltonian,
    canonical_sequence,
    effective_evolution,
    pair_label,
    pair_sign_total,
    seeded_couplings,
    verify_identity,
)
from nmr_reference import _energy, dense_verdict, sequence_action


def spin(role, row):
    """Spin index of role A..D in 1-based row, as the module docstring defines it."""
    return 4 * (row - 1) + "ABCD".index(role)


def cfg_random(rows=2, boundary="periodic", seed=0):
    rng = np.random.default_rng(seed)
    return LatticeConfig(rows, tuple(rng.uniform(0.2, 2.0, 6)), boundary)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def drop_pulse(groups, group, cls):
    """The four pulse groups with pulse class cls removed from one of them."""
    groups = list(groups)
    groups[group] -= {cls}
    return tuple(groups)


def dense_unitary(groups, t, cfg):
    """U = E P1 E P2 E P3 E P4 as a dense matrix from explicit Pauli factors.

    np.kron puts its first factor on the highest bit, so the factors run
    from spin N-1 down to spin 0 (bit k of the index is spin k).
    """
    n = cfg.num_spins
    x, z, one = np.array([[0, 1], [1, 0]]), np.array([1.0, -1.0]), np.ones(2)

    def zz(i, j):
        diag = np.ones(1)
        for k in reversed(range(n)):
            diag = np.kron(diag, z if k in (i, j) else one)
        return diag

    def pulse(group):
        mask = cfg.pulse_mask(group)
        flipped = {k for k in range(n) if mask >> k & 1}
        op = np.eye(1)
        for k in reversed(range(n)):
            op = np.kron(op, x if k in flipped else np.eye(2))
        return (-1j) ** len(flipped) * op

    energy = sum(t.coeff * zz(t.i, t.j) for t in build_hamiltonian(cfg))
    evo = np.diag(np.exp(-1j * t * energy))
    u = np.eye(1 << n)
    for group in groups:
        u = u @ evo @ pulse(group)
    return u


def state_of(bits):
    """Basis index of a counterexample's spin bits (spin 0 first)."""
    return int(bits[::-1], 2)


def test_hamiltonian_term_counts():
    assert len(build_hamiltonian(cfg_random(2, "periodic"))) == 12
    assert len(build_hamiltonian(cfg_random(2, "open"))) == 10
    assert len(build_hamiltonian(cfg_random(3, "periodic"))) == 18


def test_hamiltonian_keeps_zero_couplings():
    cfg = LatticeConfig(2, (1.0, 1.0, 1.0, 1.0, 0.0, 1.0), "periodic")
    e_terms = [t for t in build_hamiltonian(cfg) if t.coupling == "e"]
    assert len(e_terms) == 2 and all(t.coeff == 0.0 for t in e_terms)


def test_verify_identity_builds_the_hamiltonian_once():
    cfg = LatticeConfig(3, [0.5, 0.6, 0.7, 0.8, 0.9, 1.1], "open")  # any sequence
    assert cfg.couplings == (0.5, 0.6, 0.7, 0.8, 0.9, 1.1)
    build_hamiltonian.cache_clear()
    for kind in range(1, 7):
        assert verify_identity(kind, cfg, t=0.7).passed
    assert build_hamiltonian.cache_info().misses == 1


def test_lattice_validation():
    with pytest.raises(LatticeError):
        LatticeConfig(1, (1,) * 6)
    with pytest.raises(LatticeError):
        LatticeConfig(2, (1,) * 5)
    with pytest.raises(LatticeError):
        LatticeConfig(2, (1,) * 6, boundary="twisted")
    with pytest.raises(LatticeError):
        LatticeConfig(2, (1.0, 1.0, float("nan"), 1.0, 1.0, 1.0))


def test_spin_classes():
    cfg = cfg_random(3)
    assert cfg.pulse_mask({"A_even"}) == 1 << spin("A", 2)
    assert cfg.pulse_mask({"D_even"}) == 1 << spin("D", 2)
    assert cfg.pulse_mask({"D_odd"}) == (1 << spin("D", 1)) | (1 << spin("D", 3))
    assert cfg.pulse_mask({"A_odd"}) == (1 << spin("A", 1)) | (1 << spin("A", 3))
    assert cfg.pulse_mask({"B"}) == sum(1 << spin("B", l) for l in (1, 2, 3))
    assert cfg.pulse_mask({"C"}) == sum(1 << spin("C", l) for l in (1, 2, 3))
    assert cfg.pulse_mask(frozenset()) == 0


def test_unknown_pulse_class_is_refused():
    cfg = cfg_random(2)
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        cfg.pulse_mask({"E"})
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        cfg.pulse_mask(frozenset({"B", "E"}))
    groups = canonical_sequence(1)[:3] + (frozenset({"B", "E"}),)
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        verify_identity(1, cfg, t=0.7, groups=groups)


def test_pair_labels():
    assert pair_label(spin("A", 1), spin("C", 1)) == "A1-C1"
    assert pair_label(spin("D", 12), spin("B", 3)) == "D12-B3"


def one_pulse_phase(cfg, classes):
    """global_phase of the single pulse P1 on classes at t = 0, as a complex."""
    groups = (frozenset(classes), frozenset(), frozenset(), frozenset())
    return complex(*verify_identity(1, cfg, t=0.0, groups=groups).global_phase)


def test_pulse_mask_b_class():
    cfg = cfg_random(2)
    assert cfg.pulse_mask({"B"}) == (1 << spin("B", 1)) | (1 << spin("B", 2))
    assert one_pulse_phase(cfg, {"B"}) == (-1j) ** 2


def test_pulse_mask_a_odd_single_spin():
    cfg = cfg_random(2)
    assert cfg.pulse_mask({"A_odd"}) == 1 << spin("A", 1)
    assert one_pulse_phase(cfg, {"A_odd"}) == -1j


def test_pulse_twice_is_pure_phase():
    cfg = cfg_random(2)
    mask = cfg.pulse_mask({"B", "C"})
    twice = (frozenset({"B", "C"}),) * 2 + (frozenset(),) * 2
    state = random_state(1 << cfg.num_spins, 11)
    image, phase = sequence_action(twice, 0.0, cfg)
    out = np.zeros_like(state)
    out[image] = phase * state
    assert np.allclose(out, (-1) ** bin(mask).count("1") * state, atol=1e-14)
    rep = verify_identity(1, cfg, t=0.0, groups=twice)
    assert complex(*rep.global_phase) == (-1) ** bin(mask).count("1")


def masks_of(groups, cfg):
    """The pulse masks of P1..P4."""
    return [cfg.pulse_mask(g) for g in groups]


def test_canonical_sequence_groups():
    base = frozenset({"D_odd", "D_even"})
    assert canonical_sequence(1) == (base, base | {"B"}, base, base | {"B"})
    assert canonical_sequence(3)[1] == frozenset({"B", "C", "A_even", "D_even"})


def test_canonical_sequence_invalid_kind():
    with pytest.raises(LatticeError):
        canonical_sequence(7)
    with pytest.raises(LatticeError, match="sequence kind must be 1..6, got 7"):
        verify_identity(7, cfg_random(2), t=0.7, groups=canonical_sequence(1))


@pytest.mark.parametrize("kind", range(1, 7))
def test_net_pulse_flips_are_even(kind):
    cfg = cfg_random(3, "open")
    net = 0
    for mask in masks_of(canonical_sequence(kind), cfg):
        net ^= mask
    assert net == 0


def test_effective_evolution_kind1_sign_table():
    cfg = cfg_random(2)
    terms = build_hamiltonian(cfg)
    survivors = effective_evolution(masks_of(canonical_sequence(1), cfg), 0.5, terms)
    # Every a term keeps all four signs +1 (a sign sum of 4); the b..f terms
    # sum to 0 and drop out.
    assert [(t.i, t.j) for t in survivors] == [(t.i, t.j) for t in terms if t.coupling == "a"]
    a = cfg.couplings[0]
    assert all(t.coeff == 4 * 0.5 * a for t in survivors)


@pytest.mark.parametrize("kind", range(1, 7))
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_effective_evolution_matches_published(kind, boundary):
    cfg = cfg_random(2, boundary, seed=kind)
    terms = build_hamiltonian(cfg)
    survivors = effective_evolution(masks_of(canonical_sequence(kind), cfg), 0.7, terms)
    expected = {
        (t.i, t.j): 4 * 0.7 * t.coeff for t in terms if t.coupling == KIND_TARGET[kind]
    }
    got = {(t.i, t.j): t.coeff for t in survivors}
    assert got.keys() == expected.keys()
    assert all(abs(got[k] - expected[k]) < 1e-12 for k in got)


def test_zz_terms_commute_numerically():
    cfg = cfg_random(2)
    terms = build_hamiltonian(cfg)
    e1 = _energy(terms, cfg.num_spins)
    e2 = _energy(list(reversed(terms)), cfg.num_spins)
    assert np.max(np.abs(e1 - e2)) < 1e-14


def test_apply_sequence_zero_couplings_is_phase():
    cfg = LatticeConfig(2, (0.0,) * 6, "periodic")
    image, phase = sequence_action(canonical_sequence(1), 0.7, cfg)
    assert np.array_equal(image, np.arange(1 << cfg.num_spins))
    assert np.allclose(phase, phase[0], atol=1e-12)
    assert abs(abs(phase[0]) - 1.0) < 1e-12


def test_apply_sequence_t_zero():
    cfg = cfg_random(2)
    masks = masks_of(canonical_sequence(3), cfg)
    assert all(t.coeff == 0.0 for t in effective_evolution(masks, 0.0, build_hamiltonian(cfg)))
    _, phase = sequence_action(canonical_sequence(3), 0.0, cfg)
    assert np.all(phase == phase[0])


def test_apply_sequence_preserves_norm():
    cfg = cfg_random(3, "open", seed=2)
    seq = canonical_sequence(4)
    for s in (seq, drop_pulse(seq, 1, "C")):
        image, phase = sequence_action(s, 1.3, cfg)
        assert np.array_equal(np.sort(image), np.arange(1 << cfg.num_spins))
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12


def test_apply_sequence_dimension_mismatch(monkeypatch):
    # Over the row limit no lattice is built, so no check can start.
    monkeypatch.setattr(nmr, "ROW_LIMIT", 2)
    with pytest.raises(LatticeError, match="3 rows is over the limit of 2"):
        cfg_random(3)
    assert cfg_random(2).rows == 2


@pytest.mark.parametrize("kind,drop", [(k, None) for k in range(1, 7)] + [(1, "B")])
def test_sequence_action_matches_dense_unitary(kind, drop):
    cfg = cfg_random(2, seed=40)
    seq = canonical_sequence(kind)
    if drop:
        seq = drop_pulse(seq, 1, drop)
    image, phase = sequence_action(seq, 0.7, cfg)
    states = np.arange(1 << cfg.num_spins)
    action = np.zeros((states.size, states.size), dtype=complex)
    action[image, states] = phase
    assert np.max(np.abs(dense_unitary(seq, 0.7, cfg) - action)) < 1e-12


def test_moved_counterexample_is_moved_by_dense_unitary():
    cfg = cfg_random(2, seed=40)
    seq = drop_pulse(canonical_sequence(1), 1, "B")
    rep = verify_identity(1, cfg, t=0.7, groups=seq)
    assert not rep.passed and rep.max_deviation is None
    s, image = state_of(rep.counterexample["state"]), state_of(rep.counterexample["image"])
    u = dense_unitary(seq, 0.7, cfg)
    assert abs(u[s, s]) < 1e-12
    assert abs(abs(u[image, s]) - 1.0) < 1e-12


@pytest.mark.parametrize("skew", [1e-8, 1e-12])
def test_wrong_sign_algebra_gives_deviation_counterexample(monkeypatch, skew):
    # The numerics never read the sign algebra, so a wrong surviving term
    # shows up as a nonzero residual, however small.
    real = effective_evolution

    def skewed(masks, t, terms):
        survivors = real(masks, t, terms)
        first = survivors[0]._replace(coeff=survivors[0].coeff + skew)
        return (first,) + survivors[1:]

    monkeypatch.setattr(nmr, "effective_evolution", skewed)
    rep = verify_identity(1, cfg_random(2, seed=8), t=0.7)
    assert not rep.passed
    assert skew / 10 < rep.max_deviation < skew * 10
    assert rep.counterexample == {"pair": "A1-C1", "deviation": rep.max_deviation}
    assert not rep.matches_published


def test_every_residual_is_exactly_zero():
    # The verdict has no slack: on a sequence whose net pulse mask is 0 both
    # sides compute u t coeff in the same operand order, so every residual
    # is exactly 0.0 at any t, on any lattice and for any such pulses.
    rng = random.Random(23)

    def pulse():
        return frozenset(c for c in PULSE_CLASSES if rng.random() < 0.5)

    for rows in range(2, 6):
        for boundary in ("periodic", "open"):
            cfg = cfg_random(rows, boundary, seed=rows)
            for kind in range(1, 7):
                sequences = [canonical_sequence(kind)]
                for _ in range(3):
                    f = (pulse(), pulse(), pulse())
                    sequences += [(*f, f[0] ^ f[1] ^ f[2]), (*f, pulse())]
                for groups in sequences:
                    net = 0
                    for g in groups:
                        net ^= cfg.pulse_mask(g)
                    for t in (0.0, 1e-300, 0.7, 1e5):
                        rep = verify_identity(kind, cfg, t, groups=groups)
                        assert rep.max_deviation == (None if net else 0.0)
                        assert rep.passed == (net == 0)


def test_verify_identity_overflow_fails():
    # Finite couplings whose 4 t |coeff| overflows are refused before the run.
    with pytest.raises(LatticeError, match="overflows"):
        verify_identity(1, LatticeConfig(2, (1e308,) * 6), t=0.7)


@pytest.mark.parametrize("kind", range(1, 7))
def test_verify_identity_passes(kind):
    cfg = cfg_random(2, seed=31)
    rep = verify_identity(kind, cfg, t=0.7)
    assert rep.passed
    assert rep.matches_published
    assert rep.counterexample is None
    assert rep.max_deviation == 0.0
    assert abs(abs(complex(*rep.global_phase)) - 1.0) < 1e-9


def test_verify_identity_global_phase_is_fourth_root():
    cfg = cfg_random(2, seed=13)
    rep = verify_identity(1, cfg, t=0.4)
    phase = complex(*rep.global_phase)
    assert min(abs(phase - p) for p in (1, -1, 1j, -1j)) < 1e-9
    # and it is (-i)^12: the four pulses flip 2 + 4 + 2 + 4 spins
    assert abs(phase - (-1j) ** 12) < 1e-9


@pytest.mark.parametrize("rows,seed", [(34, 1), (64, 0)])
def test_global_phase_is_exact_on_large_lattices(rows, seed):
    # From 34 rows a pulse flips more than 100 spins, where (-1j) ** k goes
    # through an inexact pow and left an imaginary part of about 2e-14.
    cfg = LatticeConfig(rows, seeded_couplings(seed))
    for kind in range(1, 7):
        rep = verify_identity(kind, cfg, t=0.7)
        assert rep.passed
        assert complex(*rep.global_phase) in (1, -1, 1j, -1j)
        assert set(rep.global_phase) <= {-1.0, 0.0, 1.0}


def test_verify_identity_deterministic_given_seed():
    cfg = cfg_random(2, seed=1)
    r1 = verify_identity(2, cfg, t=0.7)
    r2 = verify_identity(2, cfg, t=0.7)
    assert r1 == r2
    assert json.dumps(r1._asdict()) == json.dumps(r2._asdict())


def test_verify_identity_groups_override_only_the_pulses():
    # The groups carry no time: the run and its report are at t = 0.7.
    cfg = cfg_random(2, seed=6)
    for kind in range(1, 7):
        groups = canonical_sequence(kind)
        plain = verify_identity(kind, cfg, t=0.7)
        assert verify_identity(kind, cfg, t=0.7, groups=groups) == plain
        assert plain.t == 0.7 and plain.passed


@pytest.mark.parametrize("count", [0, 3, 5])
def test_verify_identity_needs_four_groups(count):
    # U = E P1 E P2 E P3 E P4: a dropped or extra segment is refused, not passed.
    cfg = cfg_random(2, seed=6)
    groups = (canonical_sequence(1) * 2)[:count]
    with pytest.raises(LatticeError, match=f"has four pulse groups, got {count}"):
        verify_identity(1, cfg, t=0.7, groups=groups)


def test_verify_identity_mutation_fails():
    cfg = cfg_random(2, seed=6)
    groups = list(canonical_sequence(1))
    groups[1] = frozenset({"D_odd", "D_even"})  # drop B from P2
    rep = verify_identity(1, cfg, t=0.7, groups=groups)
    assert not rep.passed
    assert rep.max_deviation is None
    assert set(rep.counterexample) == {"state", "image"}


def test_verify_identity_odd_periodic_parity_seam():
    # An odd periodic ring cannot 2-color rows, so kinds 3 and 6 cannot
    # isolate their coupling there; the sign algebra and the numerics still
    # agree with each other.
    cfg = cfg_random(3, "periodic", seed=12)
    for kind in (3, 6):
        rep = verify_identity(kind, cfg, t=0.7)
        assert rep.passed
        assert not rep.matches_published
    for kind in (1, 2, 4, 5):
        rep = verify_identity(kind, cfg, t=0.7)
        assert rep.passed and rep.matches_published


def test_kind_targets():
    assert KIND_TARGET == {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}


def single_deletions(seq):
    """Every sequence with one pulse class dropped from one group."""
    return [
        drop_pulse(seq, gi, cls)
        for gi, group in enumerate(seq)
        for cls in sorted(group)
    ]


def paired_deletions(seq):
    """Every sequence with one class dropped from both plain groups (0, 2)
    or both extra groups (1, 3); the net pulse mask stays 0."""
    return [
        drop_pulse(drop_pulse(seq, first, cls), first + 2, cls)
        for first in (0, 1)
        for cls in sorted(seq[first])
    ]


def test_local_check_agrees_with_dense_action():
    # Each canonical sequence and every single-pulse deletion, on rows 2-4
    # and both boundaries: the same verdict, and the same moved state.
    checked = 0
    for rows in (2, 3, 4):
        for boundary in ("periodic", "open"):
            cfg = cfg_random(rows, boundary, seed=rows)
            for kind in range(1, 7):
                seq = canonical_sequence(kind)
                for s in [seq] + single_deletions(seq):
                    rep = verify_identity(kind, cfg, t=0.7, groups=s)
                    passed, cex = dense_verdict(s, 0.7, cfg)
                    assert rep.passed == passed
                    moved = cex is not None and "image" in cex
                    assert moved == (rep.max_deviation is None)
                    if moved:
                        assert rep.counterexample == cex
                    checked += 1
    assert checked == 420


def test_local_check_agrees_on_net_zero_deletions():
    # These sequences refocus some other set of couplings. The sign algebra
    # reads that set off the same pulses, so both checks pass.
    for rows, boundary in ((2, "periodic"), (3, "open")):
        cfg = cfg_random(rows, boundary, seed=9)
        for kind in range(1, 7):
            for s in paired_deletions(canonical_sequence(kind)):
                rep = verify_identity(kind, cfg, t=0.7, groups=s)
                assert rep.passed and rep.max_deviation == 0.0
                assert dense_verdict(s, 0.7, cfg) == (True, None)


@pytest.mark.parametrize("kind", range(1, 7))
def test_pair_sign_total_matches_sign_algebra(kind):
    # Two independent readings of the same pulses: the local states' sign
    # total and the sign algebra's per-segment signs. They agree whenever
    # the net pulse mask is 0 (the sign algebra counts flips from the left,
    # the action from the right). With t = 1 and unit couplings a
    # survivor's coeff is its sign sum, and a term that drops out sums to 0.
    cfg = LatticeConfig(3, (1.0,) * 6)
    terms = build_hamiltonian(cfg)
    seq = canonical_sequence(kind)
    for s in [seq] + paired_deletions(seq):
        masks = masks_of(s, cfg)
        sums = {(x.i, x.j): x.coeff for x in effective_evolution(masks, 1.0, terms)}
        for term in terms:
            u = pair_sign_total(term.i, term.j, masks)
            assert u == sums.get((term.i, term.j), 0)


@pytest.mark.parametrize("kind", range(1, 7))
def test_verify_identity_long_time_is_exact(kind):
    # The dense check's phase error grew with t|E| and failed these at
    # t = 1e5 (max deviation about 4.7e-10); the residuals are exact.
    rep = verify_identity(kind, cfg_random(2, seed=31), t=1e5)
    assert rep.passed
    assert rep.max_deviation == 0.0


def test_local_check_rejects_residuals_that_cancel_mod_2pi(monkeypatch):
    # A residual of pi/2 on each edge of the A1-C1-D1 triangle gives every
    # basis state the same phase, so the dense check passes; every pair's
    # residual must be 0, so the local check fails.
    real = effective_evolution
    cfg = cfg_random(2, seed=4)
    a1, c1, d1 = spin("A", 1), spin("C", 1), spin("D", 1)

    def skewed(masks, t, terms):
        kept = [x._replace(coeff=x.coeff - math.pi / 2) if (x.i, x.j) == (a1, c1) else x
                for x in real(masks, t, terms)]
        kept += [ZZTerm(c1, d1, -math.pi / 2, "b"), ZZTerm(d1, a1, -math.pi / 2, "c")]
        return tuple(kept)

    monkeypatch.setattr(nmr, "effective_evolution", skewed)
    monkeypatch.setattr(nmr_reference, "effective_evolution", skewed)
    assert dense_verdict(canonical_sequence(1), 0.7, cfg) == (True, None)
    rep = verify_identity(1, cfg, t=0.7)
    assert not rep.passed
    assert rep.counterexample == {"pair": "A1-C1", "deviation": pytest.approx(math.pi / 2)}
    # The global phase takes up exp(-i sum r) = exp(-3i pi/2) = i, on top
    # of the pulses' (-i)^12 (2 + 4 + 2 + 4 spins flipped).
    assert abs(complex(*rep.global_phase) - (-1j) ** 12 * 1j) < 1e-12


def test_surviving_term_off_the_hamiltonian_fails(monkeypatch):
    # A and B share no Hamiltonian term; a surviving A1-B1 term is all residual.
    real = effective_evolution

    def extra(masks, t, terms):
        ghost = ZZTerm(spin("A", 1), spin("B", 1), 1e-3, "a")
        return real(masks, t, terms) + (ghost,)

    monkeypatch.setattr(nmr, "effective_evolution", extra)
    monkeypatch.setattr(nmr_reference, "effective_evolution", extra)
    cfg = cfg_random(2, seed=5)
    assert not dense_verdict(canonical_sequence(2), 0.7, cfg)[0]
    rep = verify_identity(2, cfg, t=0.7)
    assert rep.counterexample == {"pair": "A1-B1", "deviation": 1e-3}
    assert rep.max_deviation == 1e-3


def test_local_action_not_a_zz_phase_fails(monkeypatch):
    # If a pair's four local totals were not one u times z_i z_j, its
    # residual is undefined: NaN, which fails.
    monkeypatch.setattr(nmr, "pair_sign_total", lambda i, j, masks: None)
    rep = verify_identity(1, cfg_random(2), t=0.7)
    assert not rep.passed
    assert math.isnan(rep.max_deviation)
    assert rep.counterexample["pair"] == "A1-C1"
    assert math.isnan(rep.counterexample["deviation"])


def test_overflow_on_a_later_term_is_refused():
    # Only the b terms would overflow; the a terms before them are finite.
    with pytest.raises(LatticeError):
        verify_identity(2, LatticeConfig(2, (1.0, 1e308, 1.0, 1.0, 1.0, 1.0)), t=0.7)
    # t coeff is finite here, but the residual's u t is not.
    with pytest.raises(LatticeError):
        verify_identity(2, LatticeConfig(2, (1e-300,) * 6), t=1e308)
    # Just inside the bound, every residual is still exact.
    rep = verify_identity(2, LatticeConfig(2, (1e307,) * 6), t=1.0)
    assert rep.passed and rep.max_deviation == 0.0


def test_seeded_couplings():
    # The documented draw: six uniform values from random.Random(seed), in order.
    rng = random.Random(5)
    assert seeded_couplings(5) == tuple(rng.uniform(0.2, 2.0) for _ in range(6))
    assert seeded_couplings(5) != seeded_couplings(6)
    with pytest.raises(LatticeError, match="seed must be >= 0"):
        seeded_couplings(-1)
