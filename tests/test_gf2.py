import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mqgsim.circuit import mqg_roles
from mqgsim.gf2 import Anf, compose
from network_reference import (
    appendix_identities,
    closed_form_outputs,
    evaluate,
    naive_A,
    naive_Z,
    stage_values,
    var,
    wire,
)

x1, x2, x3 = Anf.var(1), Anf.var(2), Anf.var(3)


def anfs(max_var=4, max_monomials=5):
    mask = st.integers(0, (2 << max_var) - 1)
    return st.builds(Anf, st.frozensets(mask, max_size=max_monomials))


def test_xor_cancels_constant():
    assert (x1 ^ Anf.one()) ^ x1 == Anf.one()


def test_xor_self_is_zero():
    p = x1 & x2 ^ x3
    assert p ^ p == Anf()


def test_xor_zero_identity():
    p = x1 ^ x2
    assert p ^ Anf() == p


def test_and_distributes_with_idempotence():
    assert (x1 ^ x2) & x1 == x1 ^ (x1 & x2)


def test_and_one_and_zero():
    p = x1 & x2 ^ x3
    assert p & Anf.one() == p
    assert p & Anf() == Anf()


def test_eval_examples():
    p = (x1 & x2) ^ x3
    assert evaluate(p, {1: 1, 2: 1, 3: 0}) == 1
    assert evaluate(Anf.one(), {}) == 1
    assert evaluate(Anf(), {}) == 0


def test_eval_missing_variable():
    with pytest.raises(ValueError):
        evaluate(x1 & x2, {1: 1})


@given(anfs(), anfs())
def test_xor_commutes(p, q):
    assert p ^ q == q ^ p


@given(anfs(), anfs())
def test_and_commutes(p, q):
    assert (p & q) == (q & p)


@given(anfs(), anfs(), anfs())
@settings(max_examples=50)
def test_and_associates_and_distributes(p, q, r):
    assert ((p & q) & r) == (p & (q & r))
    assert (p & (q ^ r)) == ((p & q) ^ (p & r))


@given(anfs())
def test_char2_and_idempotence(p):
    assert p ^ p == Anf()
    assert (p & p) == p


@given(anfs(), anfs(), st.integers(0, 31))
def test_eval_is_a_homomorphism(p, q, word):
    assign = {v: (word >> v) & 1 for v in range(5)}
    assert evaluate(p ^ q, assign) == evaluate(p, assign) ^ evaluate(q, assign)
    assert evaluate(p & q, assign) == evaluate(p, assign) & evaluate(q, assign)


def anf_maps():
    """Maps from each of the variables 0..4 to an ANF over them."""
    return st.lists(anfs(), min_size=5, max_size=5).map(lambda polys: dict(enumerate(polys)))


IDENTITY = {v: Anf.var(v) for v in range(5)}


@given(anf_maps())
def test_compose_identity_on_either_side(f):
    assert compose(f, IDENTITY) == f
    assert compose(f, {}) == f  # a variable the inner map omits is fixed
    assert compose(IDENTITY, f) == f


@given(anf_maps(), anf_maps(), st.integers(0, 31))
def test_compose_is_substitution(f, g, word):
    assign = {v: (word >> v) & 1 for v in range(5)}
    inner = {v: evaluate(g[v], assign) for v in range(5)}
    fg = compose(f, g)
    assert sorted(fg) == sorted(f)
    for w in f:
        assert evaluate(fg[w], assign) == evaluate(f[w], inner)


def test_compose_cancels():
    # x1 x2 after x1 -> x1 + x2, x2 -> x1 + x2 is (x1 + x2)^2 = x1 + x2.
    f = {0: x1 & x2}
    g = {1: x1 ^ x2, 2: x1 ^ x2}
    assert compose(f, g) == {0: x1 ^ x2, **g}
    # x1 x3 after x1 -> x1 + x3 (x3 fixed) is x1 x3 + x3.
    assert compose({0: x1 & x3}, {1: x1 ^ x3})[0] == (x1 & x3) ^ x3


def test_compose_cancels_coinciding_products_of_one_moved_variable():
    # One moved variable x1, fixed part x3: x3 x1 and x3 (x1 x3) are one
    # monomial, so x1 x3 after x1 -> x1 + x1 x3 + x2 is x2 x3.
    g = {1: x1 ^ (x1 & x3) ^ x2}
    assert compose({0: x1 & x3}, g)[0] == x2 & x3
    assert compose({0: x1 & x3}, {1: x1 ^ (x1 & x3)})[0] == Anf()


def test_compose_maps_only_what_moves():
    # Omitted wires are fixed; the result maps every wire of either map, and a
    # polynomial with no moved variable is kept as the same object.
    kept = x2 & x3
    out = compose({0: kept, 2: x1 ^ x2}, {1: x1 ^ x3, 4: Anf()})
    assert out == {0: kept, 1: x1 ^ x3, 2: x1 ^ x2 ^ x3, 4: Anf()}
    assert out[0] is kept


CONTROLS_N1 = Anf([sum(1 << wire(r, l) for r, l in zip("ABCBC", (0, 1, 1, 2, 2)))])


def test_text_form():
    names = mqg_roles(1)
    poly = CONTROLS_N1 ^ var("A", 2)
    assert poly.to_text(names) == "A0 B1 C1 B2 C2 + A2"
    assert Anf().to_text(names) == "0"
    assert Anf.one().to_text(names) == "1"


def test_closed_form_n1():
    out = closed_form_outputs(1)  # flat order A0 B1 C1 D1 A1 B2 C2 D2 A2
    assert out[8] == CONTROLS_N1 ^ var("A", 2)
    assert out[3] == var("D", 1)
    assert out[5] == var("B", 2)


def test_closed_form_n2_target_degree():
    out = closed_form_outputs(2)
    target = out[16]  # A4
    degrees = sorted(m.bit_count() for m in target.monomials)
    assert degrees == [1, 9]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_matches_brute_force(n):
    # Independent oracle: flip the target bit iff every control is 1.
    out = closed_form_outputs(n)
    m = 2**n
    labels = mqg_roles(n)
    assert sorted(out) == list(range(len(labels)))
    controls = ["A0"] + [f"{r}{l}" for l in range(1, m + 1) for r in ("B", "C")]
    idx = {label: i for i, label in enumerate(labels)}
    n_vars = len(labels)
    if n == 1:
        words = range(1 << n_vars)
    else:
        import random

        rng = random.Random(7)
        words = [rng.getrandbits(n_vars) for _ in range(10_000)]
    for word in words:
        assign = {i: (word >> i) & 1 for i in range(n_vars)}
        flip = all(assign[idx[c]] for c in controls)
        for label in labels:
            expected = assign[idx[label]]
            if label == f"A{m}":
                expected ^= flip
            assert evaluate(out[idx[label]], assign) == expected


def test_block_base_cases():
    A, Z = stage_values(1)
    assert A(0, 2) == var("A", 0)
    assert Z(0, 0) == var("A", 0)
    assert A(2, 0) == var("A", 2)


def test_block_worked_values_n1():
    A, Z = stage_values(1)
    assert A(1, 2) == var("A", 1)
    assert Z(1, 2) == (var("B", 1) & var("D", 1)) ^ var("A", 1)
    assert Z(2, 2) == CONTROLS_N1 ^ (var("B", 2) & var("D", 2)) ^ var("A", 2)
    assert A(2, 2) == CONTROLS_N1 ^ var("A", 2)
    assert Z(1, 1) == (var("B", 1) & ((var("A", 0) & var("C", 1)) ^ var("D", 1))) ^ var("A", 1)


@pytest.mark.parametrize("n", [1, 2])
def test_memoized_matches_naive(n):
    # block_stages' one pass against the plain recursion, stage 0 and row 0 included.
    A, Z = stage_values(n)
    m = 2**n
    for l, k in itertools.product(range(m + 1), range(m + 1)):
        assert A(l, k) == naive_A(l, k)
        if l == 0 or k >= 1:
            assert Z(l, k) == naive_Z(l, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_appendix(n):
    checks = list(appendix_identities(n))
    assert [name for name, lhs, rhs in checks if lhs != rhs] == []
    names = {name for name, _, _ in checks}
    m = 2**n
    assert {f"A_{m}({m}) closed form", f"doubling j={n} l={m} k={m}"} <= names
