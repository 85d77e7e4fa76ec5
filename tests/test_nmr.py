import json
import warnings

import numpy as np
import pytest

from mqgsim import nmr
from mqgsim.nmr import (
    KIND_TARGET,
    LatticeConfig,
    LatticeError,
    PulseGroup,
    RefocusSequence,
    SpinRef,
    build_hamiltonian,
    canonical_sequence,
    effective_evolution,
    pulse_operator,
    sequence_action,
    spin_index,
    target_terms,
    verify_identity,
)


def cfg_random(rows=2, boundary="periodic", seed=0):
    rng = np.random.default_rng(seed)
    return LatticeConfig(rows, tuple(rng.uniform(0.2, 2.0, 6)), boundary)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def drop_pulse(seq, group, cls):
    """seq with pulse class cls removed from one of its four groups."""
    groups = list(seq.groups)
    groups[group] = PulseGroup(groups[group].classes - {cls})
    return RefocusSequence(seq.t, tuple(groups), kind=seq.kind)


def dense_unitary(seq, cfg):
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
        flipped = {spin_index(s) for s in group.spins(cfg)}
        op = np.eye(1)
        for k in reversed(range(n)):
            op = np.kron(op, x if k in flipped else np.eye(2))
        return (-1j) ** len(flipped) * op

    energy = sum(
        t.coeff * zz(spin_index(t.i), spin_index(t.j)) for t in build_hamiltonian(cfg)
    )
    evo = np.diag(np.exp(-1j * seq.t * energy))
    u = np.eye(1 << n)
    for group in seq.groups:
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
    assert SpinRef("A", 2) in cfg.class_spins("A_even")
    assert SpinRef("D", 2) in cfg.class_spins("D_even")
    assert SpinRef("D", 2) not in cfg.class_spins("D_odd")
    assert cfg.class_spins("A_odd") == (SpinRef("A", 1), SpinRef("A", 3))
    assert cfg.class_spins("B") == tuple(SpinRef("B", l) for l in (1, 2, 3))


def test_pulse_operator_b_class():
    cfg = cfg_random(2)
    mask, phase = pulse_operator(PulseGroup(frozenset({"B"})), cfg)
    expected = (1 << spin_index(SpinRef("B", 1))) | (1 << spin_index(SpinRef("B", 2)))
    assert mask == expected
    assert phase == (-1j) ** 2


def test_pulse_operator_a_odd_single_spin():
    cfg = cfg_random(2)
    mask, phase = pulse_operator(PulseGroup(frozenset({"A_odd"})), cfg)
    assert mask == 1 << spin_index(SpinRef("A", 1))
    assert phase == -1j


def test_pulse_twice_is_pure_phase():
    cfg = cfg_random(2)
    group = PulseGroup(frozenset({"B", "C"}))
    mask, phase = pulse_operator(group, cfg)
    state = random_state(1 << cfg.num_spins, 11)
    idx = np.arange(1 << cfg.num_spins)
    once = phase * state[idx ^ mask]
    twice = phase * once[idx ^ mask]
    assert np.allclose(twice, (-1) ** bin(mask).count("1") * state, atol=1e-14)


def test_canonical_sequence_groups():
    seq = canonical_sequence(1, 0.5)
    base = frozenset({"D_odd", "D_even"})
    assert [g.classes for g in seq.groups] == [base, base | {"B"}, base, base | {"B"}]
    seq3 = canonical_sequence(3, 0.5)
    assert seq3.groups[1].classes == frozenset({"B", "C", "A_even", "D_even"})


def test_canonical_sequence_invalid_kind():
    with pytest.raises(LatticeError):
        canonical_sequence(7, 0.5)


@pytest.mark.parametrize("kind", range(1, 7))
def test_net_pulse_flips_are_even(kind):
    cfg = cfg_random(3, "open")
    eff = effective_evolution(canonical_sequence(kind, 0.3), cfg)
    assert eff.net_flips == frozenset()


def test_effective_evolution_kind1_sign_table():
    cfg = cfg_random(2)
    eff = effective_evolution(canonical_sequence(1, 0.5), cfg)
    by_coupling = {}
    for row in eff.sign_table:
        by_coupling.setdefault(row["coupling"], []).append(row)
    assert all(r["signs"] == [1, 1, 1, 1] for r in by_coupling["a"])
    for label in "bcdef":
        assert all(sum(r["signs"]) == 0 for r in by_coupling[label])
    surviving_labels = {t.coupling for t in eff.surviving}
    assert surviving_labels == {"a"}
    a = cfg.couplings[0]
    assert all(abs(t.coeff - 4 * 0.5 * a) < 1e-15 for t in eff.surviving)


@pytest.mark.parametrize("kind", range(1, 7))
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_effective_evolution_matches_published(kind, boundary):
    cfg = cfg_random(2, boundary, seed=kind)
    eff = effective_evolution(canonical_sequence(kind, 0.7), cfg)
    expected = {(t.i, t.j): 4 * 0.7 * t.coeff for t in target_terms(kind, cfg)}
    got = {(t.i, t.j): t.coeff for t in eff.surviving}
    assert got.keys() == expected.keys()
    assert all(abs(got[k] - expected[k]) < 1e-12 for k in got)


def test_zz_terms_commute_numerically():
    cfg = cfg_random(2)
    terms = build_hamiltonian(cfg)
    e1 = nmr._energy(terms, cfg.num_spins)
    e2 = nmr._energy(list(reversed(terms)), cfg.num_spins)
    assert np.max(np.abs(e1 - e2)) < 1e-14


def test_apply_sequence_zero_couplings_is_phase():
    cfg = LatticeConfig(2, (0.0,) * 6, "periodic")
    image, phase = sequence_action(canonical_sequence(1, 0.7), cfg)
    assert np.array_equal(image, np.arange(1 << cfg.num_spins))
    assert np.allclose(phase, phase[0], atol=1e-12)
    assert abs(abs(phase[0]) - 1.0) < 1e-12


def test_apply_sequence_t_zero():
    cfg = cfg_random(2)
    eff = effective_evolution(canonical_sequence(3, 0.0), cfg)
    assert all(t.coeff == 0.0 for t in eff.surviving)
    _, phase = sequence_action(canonical_sequence(3, 0.0), cfg)
    assert np.all(phase == phase[0])


def test_apply_sequence_preserves_norm():
    cfg = cfg_random(3, "open", seed=2)
    seq = canonical_sequence(4, 1.3)
    for s in (seq, drop_pulse(seq, 1, "C")):
        image, phase = sequence_action(s, cfg)
        assert np.array_equal(np.sort(image), np.arange(1 << cfg.num_spins))
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12


def test_apply_sequence_dimension_mismatch(monkeypatch):
    # Over the spin limit both entry points refuse before building an array.
    monkeypatch.setattr(nmr, "SPIN_LIMIT", 7)
    cfg = cfg_random(2)
    with pytest.raises(LatticeError, match="over the limit of 7"):
        sequence_action(canonical_sequence(1, 0.1), cfg)
    with pytest.raises(LatticeError, match="over the limit of 7"):
        verify_identity(1, cfg, t=0.1)


@pytest.mark.parametrize("kind,drop", [(k, None) for k in range(1, 7)] + [(1, "B")])
def test_sequence_action_matches_dense_unitary(kind, drop):
    cfg = cfg_random(2, seed=40)
    seq = canonical_sequence(kind, 0.7)
    if drop:
        seq = drop_pulse(seq, 1, drop)
    image, phase = sequence_action(seq, cfg)
    states = np.arange(1 << cfg.num_spins)
    action = np.zeros((states.size, states.size), dtype=complex)
    action[image, states] = phase
    assert np.max(np.abs(dense_unitary(seq, cfg) - action)) < 1e-12


def test_moved_counterexample_is_moved_by_dense_unitary():
    cfg = cfg_random(2, seed=40)
    seq = drop_pulse(canonical_sequence(1, 0.7), 1, "B")
    rep = verify_identity(1, cfg, t=0.7, sequence=seq)
    assert not rep.passed and rep.max_deviation is None
    s, image = state_of(rep.counterexample["state"]), state_of(rep.counterexample["image"])
    u = dense_unitary(seq, cfg)
    assert abs(u[s, s]) < 1e-12
    assert abs(abs(u[image, s]) - 1.0) < 1e-12


def test_wrong_sign_algebra_gives_deviation_counterexample(monkeypatch):
    # The numerics never read the sign algebra, so a wrong surviving term
    # shows up as a phase deviation on some basis state.
    real = effective_evolution

    def skewed(seq, cfg):
        eff = real(seq, cfg)
        first = eff.surviving[0]._replace(coeff=eff.surviving[0].coeff + 1e-8)
        return eff._replace(surviving=(first,) + eff.surviving[1:])

    monkeypatch.setattr(nmr, "effective_evolution", skewed)
    rep = verify_identity(1, cfg_random(2, seed=8), t=0.7)
    assert not rep.passed
    assert 1e-9 < rep.max_deviation < 1e-7
    assert rep.counterexample["deviation"] > 1e-10
    assert "image" not in rep.counterexample


def test_verify_identity_overflow_fails():
    # Finite couplings whose energies overflow give NaN phases; they must
    # fail, without a numpy RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_identity(1, LatticeConfig(2, (1e308,) * 6), t=0.7)
    assert not rep.passed and rep.counterexample is not None


@pytest.mark.parametrize("kind", range(1, 7))
def test_verify_identity_passes(kind):
    cfg = cfg_random(2, seed=31)
    rep = verify_identity(kind, cfg, t=0.7, tol=1e-10)
    assert rep.passed
    assert rep.matches_published
    assert rep.counterexample is None
    assert rep.max_deviation <= 1e-10
    assert abs(abs(complex(*rep.global_phase)) - 1.0) < 1e-9


def test_verify_identity_global_phase_is_fourth_root():
    cfg = cfg_random(2, seed=13)
    rep = verify_identity(1, cfg, t=0.4)
    phase = complex(*rep.global_phase)
    assert min(abs(phase - p) for p in (1, -1, 1j, -1j)) < 1e-9
    # and it is the (-i)^pulses the sign algebra predicts
    assert abs(phase - effective_evolution(canonical_sequence(1, 0.4), cfg).global_phase) < 1e-9


def test_verify_identity_deterministic_given_seed():
    cfg = cfg_random(2, seed=1)
    r1 = verify_identity(2, cfg, t=0.7)
    r2 = verify_identity(2, cfg, t=0.7)
    assert r1 == r2
    assert json.dumps(r1._asdict()) == json.dumps(r2._asdict())


def test_verify_identity_mutation_fails():
    cfg = cfg_random(2, seed=6)
    seq = canonical_sequence(1, 0.7)
    groups = list(seq.groups)
    groups[1] = PulseGroup(frozenset({"D_odd", "D_even"}))  # drop B from P2
    mutated = RefocusSequence(0.7, tuple(groups), kind=1)
    rep = verify_identity(1, cfg, t=0.7, sequence=mutated)
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
