import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from mqgsim import nmr
from mqgsim.nmr import (
    KIND_TARGET,
    LatticeConfig,
    LatticeError,
    PULSE_CLASSES,
    VerifyReport,
    ZZTerm,
    build_hamiltonian,
    canonical_sequence,
    lattice_triples,
    pair_label,
    pair_sign_total,
    sign_total,
    spin_class,
    verify_identity,
)
from nmr_reference import (
    _energy,
    dense_verdict,
    pulse_mask,
    sequence_action,
    weighted_terms,
)

QUARTER_TURNS = ((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0))  # (-i)^k, k mod 4


def spin(role, row):
    """Spin index of role A..D in 1-based row, as the module docstring defines it."""
    return 4 * (row - 1) + "ABCD".index(role)


def couplings_of(seed):
    """Six coupling strengths for the dense reference, uniform in [0.2, 2.0]."""
    return tuple(np.random.default_rng(seed).uniform(0.2, 2.0, 6))


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def drop_pulse(groups, group, cls):
    """The four pulse groups with pulse class cls removed from one of them."""
    groups = list(groups)
    groups[group] -= {cls}
    return tuple(groups)


def dense_unitary(groups, t, cfg, couplings):
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
        mask = pulse_mask(cfg, group)
        flipped = {k for k in range(n) if mask >> k & 1}
        op = np.eye(1)
        for k in reversed(range(n)):
            op = np.kron(op, x if k in flipped else np.eye(2))
        return (-1j) ** len(flipped) * op

    energy = sum(coeff * zz(i, j) for i, j, coeff in weighted_terms(cfg, couplings))
    evo = np.diag(np.exp(-1j * t * energy))
    u = np.eye(1 << n)
    for group in groups:
        u = u @ evo @ pulse(group)
    return u


def state_of(bits):
    """Basis index of a counterexample's spin bits (spin 0 first)."""
    return int(bits[::-1], 2)


def totals_of(groups, cfg):
    """The sign algebra's total on each triple of the lattice."""
    return {key: sign_total(groups, *key[1:]) for key, _, _ in lattice_triples(cfg)}


def test_hamiltonian_term_counts():
    assert len(build_hamiltonian(LatticeConfig(2, "periodic"))) == 12
    assert len(build_hamiltonian(LatticeConfig(2, "open"))) == 10
    assert len(build_hamiltonian(LatticeConfig(3, "periodic"))) == 18


def test_hamiltonian_keeps_zero_couplings():
    # A term carries no strength, so a coupling of 0.0 cannot drop it: the
    # e terms are built, and only the dense reference weighs them 0.0.
    cfg = LatticeConfig(2, "periodic")
    assert ZZTerm._fields == ("i", "j", "coupling")
    terms = build_hamiltonian(cfg)
    weighted = weighted_terms(cfg, (1.0, 1.0, 1.0, 1.0, 0.0, 1.0))
    e_terms = [w for w, x in zip(weighted, terms) if x.coupling == "e"]
    assert len(e_terms) == 2 and all(coeff == 0.0 for _, _, coeff in e_terms)


def test_verify_identity_builds_the_hamiltonian_once(monkeypatch):
    cfg = LatticeConfig(3, "open")
    built = []

    def counted(cfg):
        built.append(cfg)
        return build_hamiltonian(cfg)

    monkeypatch.setattr(nmr, "build_hamiltonian", counted)
    lattice_triples.cache_clear()
    for kind in range(1, 7):
        assert verify_identity(kind, cfg).passed
    assert built == [cfg]
    assert lattice_triples.cache_info().misses == 1


def test_lattice_validation():
    with pytest.raises(LatticeError, match="need at least 2 rows, got 1"):
        LatticeConfig(1)
    with pytest.raises(LatticeError, match="unknown boundary 'twisted'"):
        LatticeConfig(2, boundary="twisted")
    with pytest.raises(LatticeError, match="over the limit"):
        LatticeConfig(nmr.ROW_LIMIT + 1)
    with pytest.raises(LatticeError, match="need at least 2 rows"):
        LatticeConfig(2)._replace(rows=1)
    assert LatticeConfig(2) == (2, "periodic")


def test_spin_classes():
    cfg = LatticeConfig(3)
    assert pulse_mask(cfg, {"A_even"}) == 1 << spin("A", 2)
    assert pulse_mask(cfg, {"D_even"}) == 1 << spin("D", 2)
    assert pulse_mask(cfg, {"D_odd"}) == (1 << spin("D", 1)) | (1 << spin("D", 3))
    assert pulse_mask(cfg, {"A_odd"}) == (1 << spin("A", 1)) | (1 << spin("A", 3))
    assert pulse_mask(cfg, {"B"}) == sum(1 << spin("B", l) for l in (1, 2, 3))
    assert pulse_mask(cfg, {"C"}) == sum(1 << spin("C", l) for l in (1, 2, 3))
    assert pulse_mask(cfg, frozenset()) == 0
    # spin_class names the one class whose pulse flips the spin.
    for rows in (2, 3, 4):
        cfg = LatticeConfig(rows)
        for cls in PULSE_CLASSES:
            flipped = [s for s in range(cfg.num_spins) if spin_class(s) == cls]
            assert pulse_mask(cfg, {cls}) == sum(1 << s for s in flipped)


def test_lattice_triples_four_sets():
    # Four triple sets over rows 2..200: 12 on an even ring, 13 on an odd
    # one (the seam f term A_odd-D_odd), 10 open at 2 rows, 12 from 3 rows.
    for rows in range(2, 201):
        periodic = [key for key, _, _ in lattice_triples(LatticeConfig(rows, "periodic"))]
        opened = lattice_triples(LatticeConfig(rows, "open"))
        assert len(periodic) == (13 if rows % 2 else 12)
        assert len(opened) == (10 if rows == 2 else 12)
        assert (("f", "A_odd", "D_odd") in periodic) == (rows % 2 == 1)


def test_lattice_triples_first_terms_and_counts():
    for rows in range(2, 10):
        for boundary in ("periodic", "open"):
            cfg = LatticeConfig(rows, boundary)
            terms = build_hamiltonian(cfg)
            triples = lattice_triples(cfg)
            assert sum(count for _, _, count in triples) == len(terms)
            seen = {}
            for x in terms:
                seen.setdefault((x.coupling, spin_class(x.i), spin_class(x.j)), x)
            assert [(key, first) for key, first, _ in triples] == list(seen.items())


def test_unknown_pulse_class_is_refused():
    cfg = LatticeConfig(2)
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        pulse_mask(cfg, {"E"})
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        pulse_mask(cfg, frozenset({"B", "E"}))
    groups = canonical_sequence(1)[:3] + (frozenset({"B", "E"}),)
    with pytest.raises(LatticeError, match="unknown pulse class 'E'"):
        verify_identity(1, cfg, groups=groups)


def test_pair_labels():
    assert pair_label(spin("A", 1), spin("C", 1)) == "A1-C1"
    assert pair_label(spin("D", 12), spin("B", 3)) == "D12-B3"


def one_pulse_phase(cfg, classes):
    """global_phase of the single pulse P1 on classes, as a complex."""
    groups = (frozenset(classes), frozenset(), frozenset(), frozenset())
    return complex(*verify_identity(1, cfg, groups=groups).global_phase)


def test_pulse_mask_b_class():
    cfg = LatticeConfig(2)
    assert pulse_mask(cfg, {"B"}) == (1 << spin("B", 1)) | (1 << spin("B", 2))
    assert one_pulse_phase(cfg, {"B"}) == (-1j) ** 2


def test_pulse_mask_a_odd_single_spin():
    cfg = LatticeConfig(2)
    assert pulse_mask(cfg, {"A_odd"}) == 1 << spin("A", 1)
    assert one_pulse_phase(cfg, {"A_odd"}) == -1j


def test_pulse_twice_is_pure_phase():
    cfg = LatticeConfig(2)
    mask = pulse_mask(cfg, {"B", "C"})
    twice = (frozenset({"B", "C"}),) * 2 + (frozenset(),) * 2
    state = random_state(1 << cfg.num_spins, 11)
    image, phase = sequence_action(twice, 0.0, cfg, couplings_of(0))
    out = np.zeros_like(state)
    out[image] = phase * state
    assert np.allclose(out, (-1) ** bin(mask).count("1") * state, atol=1e-14)
    rep = verify_identity(1, cfg, groups=twice)
    assert complex(*rep.global_phase) == (-1) ** bin(mask).count("1")


def masks_of(groups, cfg):
    """The pulse masks of P1..P4."""
    return [pulse_mask(cfg, g) for g in groups]


def test_canonical_sequence_groups():
    base = frozenset({"D_odd", "D_even"})
    assert canonical_sequence(1) == (base, base | {"B"}, base, base | {"B"})
    assert canonical_sequence(3)[1] == frozenset({"B", "C", "A_even", "D_even"})


def test_canonical_sequence_invalid_kind():
    with pytest.raises(LatticeError):
        canonical_sequence(7)
    with pytest.raises(LatticeError, match="sequence kind must be 1..6, got 7"):
        verify_identity(7, LatticeConfig(2), groups=canonical_sequence(1))


@pytest.mark.parametrize("kind", range(1, 7))
def test_net_pulse_flips_are_even(kind):
    cfg = LatticeConfig(3, "open")
    seq = canonical_sequence(kind)
    net = 0
    for mask in masks_of(seq, cfg):
        net ^= mask
    assert net == 0
    assert not seq[0] ^ seq[1] ^ seq[2] ^ seq[3]


def test_effective_evolution_kind1_sign_table():
    cfg = LatticeConfig(2)
    seq = canonical_sequence(1)
    # Every a term keeps all four signs +1 (a sign sum of 4); the b..f terms
    # sum to 0 and drop out.
    totals = totals_of(seq, cfg)
    assert totals == {key: 4 if key[0] == "a" else 0 for key in totals}
    # The b term C1-D1 by segment: the prefixes are {}, D, B and B+D, so
    # its signs are +1, -1, +1, -1.
    d = frozenset({"D_odd", "D_even"})
    assert [seq[0] ^ seq[1] ^ seq[2], seq[0] ^ seq[1], seq[0]] == [d | {"B"}, {"B"}, d]
    assert sign_total(seq, "C", "D_odd") == 0
    rep = verify_identity(1, cfg)
    assert rep.terms_surviving == sum(c for key, _, c in lattice_triples(cfg) if key[0] == "a")


@pytest.mark.parametrize("kind", range(1, 7))
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_effective_evolution_matches_published(kind, boundary):
    for rows in (2, 3, 4):
        cfg = LatticeConfig(rows, boundary)
        totals = totals_of(canonical_sequence(kind), cfg)
        published = {key: 4 if key[0] == KIND_TARGET[kind] else 0 for key in totals}
        seam = rows % 2 and boundary == "periodic" and kind in (3, 6)
        assert (totals == published) != seam
        assert verify_identity(kind, cfg).matches_published != seam


def test_zz_terms_commute_numerically():
    cfg = LatticeConfig(2)
    terms = weighted_terms(cfg, couplings_of(0))
    e1 = _energy(terms, cfg.num_spins)
    e2 = _energy(list(reversed(terms)), cfg.num_spins)
    assert np.max(np.abs(e1 - e2)) < 1e-14


def test_apply_sequence_zero_couplings_is_phase():
    cfg = LatticeConfig(2, "periodic")
    image, phase = sequence_action(canonical_sequence(1), 0.7, cfg, (0.0,) * 6)
    assert np.array_equal(image, np.arange(1 << cfg.num_spins))
    assert np.allclose(phase, phase[0], atol=1e-12)
    assert abs(abs(phase[0]) - 1.0) < 1e-12


def test_apply_sequence_t_zero():
    # At t = 0 only the pulses act, so every state gets the report's phase.
    cfg = LatticeConfig(2)
    _, phase = sequence_action(canonical_sequence(3), 0.0, cfg, couplings_of(0))
    assert np.all(phase == phase[0])
    assert phase[0] == complex(*verify_identity(3, cfg).global_phase)


def test_apply_sequence_preserves_norm():
    cfg = LatticeConfig(3, "open")
    seq = canonical_sequence(4)
    for s in (seq, drop_pulse(seq, 1, "C")):
        image, phase = sequence_action(s, 1.3, cfg, couplings_of(2))
        assert np.array_equal(np.sort(image), np.arange(1 << cfg.num_spins))
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12


def test_apply_sequence_dimension_mismatch(monkeypatch):
    # Over the row limit no lattice is built, so no check can start.
    monkeypatch.setattr(nmr, "ROW_LIMIT", 2)
    with pytest.raises(LatticeError, match="3 rows is over the limit of 2"):
        LatticeConfig(3)
    assert LatticeConfig(2).rows == 2


@pytest.mark.parametrize("kind,drop", [(k, None) for k in range(1, 7)] + [(1, "B")])
def test_sequence_action_matches_dense_unitary(kind, drop):
    cfg, couplings = LatticeConfig(2), couplings_of(40)
    seq = canonical_sequence(kind)
    if drop:
        seq = drop_pulse(seq, 1, drop)
    image, phase = sequence_action(seq, 0.7, cfg, couplings)
    states = np.arange(1 << cfg.num_spins)
    action = np.zeros((states.size, states.size), dtype=complex)
    action[image, states] = phase
    assert np.max(np.abs(dense_unitary(seq, 0.7, cfg, couplings) - action)) < 1e-12


def test_moved_counterexample_is_moved_by_dense_unitary():
    cfg = LatticeConfig(2)
    seq = drop_pulse(canonical_sequence(1), 1, "B")
    rep = verify_identity(1, cfg, groups=seq)
    assert not rep.passed and set(rep.counterexample) == {"state", "image"}
    s, image = state_of(rep.counterexample["state"]), state_of(rep.counterexample["image"])
    u = dense_unitary(seq, 0.7, cfg, couplings_of(40))
    assert abs(u[s, s]) < 1e-12
    assert abs(abs(u[image, s]) - 1.0) < 1e-12


@pytest.mark.parametrize("skew", [1e-8, 1e-12])
def test_wrong_sign_algebra_gives_deviation_counterexample(monkeypatch, skew):
    # The walk never reads the sign algebra, so a wrong total on one triple
    # fails, however small the error: the verdict compares them exactly.
    real = sign_total

    def skewed(groups, ci, cj):
        return real(groups, ci, cj) + (skew if (ci, cj) == ("A_odd", "C") else 0)

    monkeypatch.setattr(nmr, "sign_total", skewed)
    rep = verify_identity(1, LatticeConfig(2))
    assert not rep.passed
    assert rep.counterexample == {"pair": "A1-C1", "u": 4, "total": 4 + skew}
    assert not rep.matches_published


def test_every_residual_is_exactly_zero():
    # The old float residual was (u - total) t coupling: zero at every t and
    # for every coupling exactly when the integers u and total are equal.
    # They are on every triple of every sequence that flips each class an
    # even number of times, so such a sequence passes on any lattice; an
    # odd class flip moves state 0.
    rng = random.Random(23)

    def pulse():
        return frozenset(c for c in PULSE_CLASSES if rng.random() < 0.5)

    for rows in range(2, 6):
        for boundary in ("periodic", "open"):
            cfg = LatticeConfig(rows, boundary)
            for kind in range(1, 7):
                sequences = [canonical_sequence(kind)]
                for _ in range(3):
                    f = (pulse(), pulse(), pulse())
                    sequences += [(*f, f[0] ^ f[1] ^ f[2]), (*f, pulse())]
                for groups in sequences:
                    net = groups[0] ^ groups[1] ^ groups[2] ^ groups[3]
                    rep = verify_identity(kind, cfg, groups=groups)
                    assert rep.passed == (not net)
                    if net:
                        assert set(rep.counterexample) == {"state", "image"}
                        continue
                    for key, _, _ in lattice_triples(cfg):
                        assert pair_sign_total(groups, *key[1:]) == sign_total(groups, *key[1:])


def test_verify_identity_overflow_fails():
    # The verdict reads no time and no coupling strength, so nothing in it
    # can overflow: verify_identity takes no t, and a lattice holds no
    # strengths (six of them where the boundary goes are refused).
    with pytest.raises(TypeError):
        verify_identity(1, LatticeConfig(2), t=0.7)
    with pytest.raises(LatticeError, match="unknown boundary"):
        LatticeConfig(2, (1e308,) * 6)
    assert not {"t", "couplings", "max_deviation"} & set(VerifyReport._fields)


@pytest.mark.parametrize("kind", range(1, 7))
def test_verify_identity_passes(kind):
    rep = verify_identity(kind, LatticeConfig(2))
    assert rep.passed
    assert rep.matches_published
    assert rep.counterexample is None
    assert rep.global_phase in QUARTER_TURNS


def test_verify_identity_global_phase_is_fourth_root():
    rep = verify_identity(1, LatticeConfig(2))
    # (-i)^12: the four pulses flip 2 + 4 + 2 + 4 spins
    assert rep.global_phase == (1.0, 0.0)
    assert complex(*rep.global_phase) == (-1j) ** 12


@pytest.mark.parametrize("rows,seed", [(34, 1), (64, 0)])
def test_global_phase_is_exact_on_large_lattices(rows, seed):
    # From 34 rows a pulse flips more than 100 spins, where (-1j) ** k goes
    # through an inexact pow and left an imaginary part of about 2e-14. The
    # phase is (-i)^k from a table, k the spins the pulses flip, here
    # counted from the reference's masks on the canonical sequences and on
    # seeded random pulses.
    rng = random.Random(seed)
    cfg = LatticeConfig(rows)
    for kind in range(1, 7):
        random_groups = tuple(
            frozenset(c for c in PULSE_CLASSES if rng.random() < 0.5) for _ in range(4)
        )
        for groups in (canonical_sequence(kind), random_groups):
            rep = verify_identity(kind, cfg, groups=groups)
            flipped = sum(m.bit_count() for m in masks_of(groups, cfg))
            assert rep.global_phase == QUARTER_TURNS[flipped % 4]
            assert set(rep.global_phase) <= {-1.0, 0.0, 1.0}
        assert verify_identity(kind, cfg).passed


def test_verify_identity_deterministic_given_seed():
    cfg = LatticeConfig(2)
    r1 = verify_identity(2, cfg)
    r2 = verify_identity(2, cfg)
    assert r1 == r2
    assert json.dumps(r1._asdict()) == json.dumps(r2._asdict())


def test_verify_identity_groups_override_only_the_pulses():
    cfg = LatticeConfig(2)
    for kind in range(1, 7):
        groups = canonical_sequence(kind)
        plain = verify_identity(kind, cfg)
        assert verify_identity(kind, cfg, groups=list(map(set, groups))) == plain
        assert plain.passed


@pytest.mark.parametrize("count", [0, 3, 5])
def test_verify_identity_needs_four_groups(count):
    # U = E P1 E P2 E P3 E P4: a dropped or extra segment is refused, not passed.
    groups = (canonical_sequence(1) * 2)[:count]
    with pytest.raises(LatticeError, match=f"has four pulse groups, got {count}"):
        verify_identity(1, LatticeConfig(2), groups=groups)


def test_verify_identity_mutation_fails():
    groups = list(canonical_sequence(1))
    groups[1] = frozenset({"D_odd", "D_even"})  # drop B from P2
    rep = verify_identity(1, LatticeConfig(2), groups=groups)
    assert not rep.passed
    assert set(rep.counterexample) == {"state", "image"}


def test_verify_identity_odd_periodic_parity_seam():
    # An odd periodic ring cannot 2-color rows, so kinds 3 and 6 cannot
    # isolate their coupling there; the sign algebra and the walk still
    # agree with each other.
    cfg = LatticeConfig(3, "periodic")
    for kind in (3, 6):
        rep = verify_identity(kind, cfg)
        assert rep.passed
        assert not rep.matches_published
    for kind in (1, 2, 4, 5):
        rep = verify_identity(kind, cfg)
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
            cfg, couplings = LatticeConfig(rows, boundary), couplings_of(rows)
            for kind in range(1, 7):
                seq = canonical_sequence(kind)
                for s in [seq] + single_deletions(seq):
                    rep = verify_identity(kind, cfg, groups=s)
                    passed, cex = dense_verdict(s, 0.7, cfg, couplings)
                    assert rep.passed == passed
                    if cex is not None and "image" in cex:
                        assert rep.counterexample == cex
                    checked += 1
    assert checked == 420


def test_local_check_agrees_on_net_zero_deletions():
    # These sequences refocus some other set of couplings. The sign algebra
    # reads that set off the same pulses, so both checks pass.
    for rows, boundary in ((2, "periodic"), (3, "open")):
        cfg, couplings = LatticeConfig(rows, boundary), couplings_of(9)
        for kind in range(1, 7):
            for s in paired_deletions(canonical_sequence(kind)):
                assert verify_identity(kind, cfg, groups=s).passed
                assert dense_verdict(s, 0.7, cfg, couplings) == (True, None)


@pytest.mark.parametrize("kind", range(1, 7))
def test_pair_sign_total_matches_sign_algebra(kind):
    # Two independent readings of the same pulses: the local states' sign
    # total and the sign algebra's per-segment signs. They agree whenever
    # no class is flipped an odd number of times (the sign algebra counts
    # flips from the left, the walk from the right). A term that drops
    # out sums to 0.
    cfg = LatticeConfig(3)
    seq = canonical_sequence(kind)
    for s in [seq] + paired_deletions(seq):
        for key, _, _ in lattice_triples(cfg):
            assert pair_sign_total(s, *key[1:]) == sign_total(s, *key[1:])


@pytest.mark.parametrize("kind", range(1, 7))
def test_verify_identity_long_time_is_exact(kind):
    # The old dense check's phase error grew with t|E| and failed these at
    # t = 1e5 (max deviation about 4.7e-10). The verdict reads no time, so
    # it holds at every t; the dense reference agrees at t = 100.
    cfg = LatticeConfig(2)
    rep = verify_identity(kind, cfg)
    assert rep.passed and rep.matches_published
    assert dense_verdict(canonical_sequence(kind), 100.0, cfg, couplings_of(31)) == (True, None)


def test_local_check_rejects_residuals_that_cancel_mod_2pi(monkeypatch):
    # On 2 rows A1-C1, C1-D1 and D1-A1 are the only terms of their triples.
    # A sign algebra off by 1 on those three triples gives each edge of that
    # triangle the residual t coupling; at pi/2 on every edge each basis
    # state gets the same extra phase (the edges' z z sum is 3 or -1), so
    # the dense check passes. The verdict needs u == total on every triple.
    real = sign_total
    triangle = {("A_odd", "C"), ("C", "D_odd"), ("D_odd", "A_odd")}
    monkeypatch.setattr(
        nmr, "sign_total", lambda groups, ci, cj: real(groups, ci, cj) + ((ci, cj) in triangle)
    )
    cfg, t = LatticeConfig(2), 0.7
    couplings = (math.pi / 2 / t,) * 3 + couplings_of(4)[3:]
    assert dense_verdict(canonical_sequence(1), t, cfg, couplings) == (True, None)
    rep = verify_identity(1, cfg)
    assert not rep.passed
    assert rep.counterexample == {"pair": "A1-C1", "u": 4, "total": 5}


def test_local_action_not_a_zz_phase_fails(monkeypatch):
    # If a pair's four local totals were not one u times z_i z_j, there is
    # no u to compare: the pair fails with u None.
    monkeypatch.setattr(nmr, "pair_sign_total", lambda groups, ci, cj: None)
    rep = verify_identity(1, LatticeConfig(2))
    assert not rep.passed
    assert rep.counterexample == {"pair": "A1-C1", "u": None, "total": 4}


def test_walk_off_by_one_fails_every_kind(monkeypatch):
    # The float residual was 0.0 at t = 0 whatever the walk said; the
    # integer verdict fails a walk off by 1 at any size and on any boundary.
    real = pair_sign_total
    monkeypatch.setattr(nmr, "pair_sign_total", lambda groups, ci, cj: real(groups, ci, cj) + 1)
    for rows in range(2, 6):
        for boundary in ("periodic", "open"):
            cfg = LatticeConfig(rows, boundary)
            for kind in range(1, 7):
                rep = verify_identity(kind, cfg)
                assert not rep.passed
                total = 4 if kind == 1 else 0
                assert rep.counterexample == {"pair": "A1-C1", "u": total + 1, "total": total}


def test_overflow_on_a_later_term_is_refused(monkeypatch):
    # A fault on later terms only: the sign algebra skewed on the b triples
    # (C with D_odd or D_even) alone. The float check passed it whenever
    # the b coupling was 0.0; the verdict fails every kind at C1-D1.
    real = sign_total

    def skewed(groups, ci, cj):
        return real(groups, ci, cj) + (ci == "C" and cj.startswith("D"))

    monkeypatch.setattr(nmr, "sign_total", skewed)
    for rows in range(2, 6):
        for boundary in ("periodic", "open"):
            for kind in range(1, 7):
                rep = verify_identity(kind, LatticeConfig(rows, boundary))
                assert not rep.passed
                assert rep.counterexample["pair"] == "C1-D1"
                assert rep.counterexample["total"] == rep.counterexample["u"] + 1


def test_seeded_couplings():
    # No draw is left: the verdict reads no coupling strength or time, so
    # nmr has no seeded couplings and imports no float or random module.
    assert not hasattr(nmr, "seeded_couplings")
    tree = ast.parse(Path(nmr.__file__).read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not imported & {"math", "cmath", "random"}
