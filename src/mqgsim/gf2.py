"""Exact GF(2) algebra over wire variables.

Anf is a multilinear polynomial stored as a set of monomials, each an int
bit mask with bit v set for flat wire index v. The module imports
nothing from the package; the block recurrences that run on ``Anf``
columns live in ``stages``.

``compose`` substitutes one map of wire ANFs into another and touches
only what the inner map moves, so ``symbolic.run_anf`` can raise a
repeated block of layers to its power instead of running its gates again;
the gate pass itself stays in ``circuit._apply_layers``. ``Anf.__and__`` and
``compose`` multiply monomial sets with one helper, ``_product``.
"""
from __future__ import annotations


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Anf:
    """Polynomial over GF(2): XOR of AND-monomials, canonical by set identity.

    The constructor takes the monomials' bit masks. The empty monomial
    (mask 0) is the constant 1; the empty polynomial, ``Anf()``, is 0.
    """

    __slots__ = ("monomials",)

    def __init__(self, masks=()):
        self.monomials = frozenset(masks)

    @classmethod
    def one(cls) -> "Anf":
        return cls((0,))

    @classmethod
    def var(cls, v: int) -> "Anf":
        return cls((1 << v,))

    def __xor__(self, other: "Anf") -> "Anf":
        return Anf(self.monomials ^ other.monomials)

    def __and__(self, other: "Anf") -> "Anf":
        return Anf(_product(self.monomials, other.monomials))

    def __eq__(self, other) -> bool:
        return isinstance(other, Anf) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def to_text(self, names=None) -> str:
        """Render as e.g. ``A0 B1 C1 + A2``; 0 and 1 literals."""
        if not self.monomials:
            return "0"
        name = (lambda v: names[v]) if names is not None else str
        keyed = sorted((_bits(m) for m in self.monomials), key=lambda t: (-len(t), t))
        parts = [" ".join(name(v) for v in m) if m else "1" for m in keyed]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Anf({self.to_text()})"


def _product(ps, qs, acc: set[int] | None = None) -> set[int]:
    """The product of two monomial sets over GF(2): every pairwise OR, with
    equal products cancelled in pairs; added into ``acc`` when given."""
    if acc is None:
        acc = set()
    for p in ps:
        for q in qs:
            m = p | q
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    return acc


def compose(outer: dict[int, Anf], inner: dict[int, Anf]) -> dict[int, Anf]:
    """The map ``outer`` after ``inner``: ``inner[v]`` substituted for each v in ``outer``.

    A map holds the ANF of each wire it moves; a wire that it omits or maps
    to itself is fixed. The result maps every wire of either map. Only the
    variables that ``inner`` moves are substituted: a wire of ``outer``
    whose polynomial has none keeps its ``Anf`` object, and a monomial's
    fixed variables stay in place as one mask.
    """
    moved = 0
    for v, poly in inner.items():
        if poly.monomials != {1 << v}:
            moved |= 1 << v
    out = dict(inner)
    for w, poly in outer.items():
        monomials = poly.monomials
        acc = {m for m in monomials if not m & moved}
        if len(acc) == len(monomials):
            out[w] = poly
            continue
        for m in monomials:
            hit = m & moved
            if not hit:
                continue
            # The fixed mask times each moved variable's image, lowest
            # first; the last factor is added straight into acc.
            term = (m ^ hit,)
            while hit & (hit - 1):
                low = hit & -hit
                term = _product(term, inner[low.bit_length() - 1].monomials)
                hit ^= low
            _product(term, inner[hit.bit_length() - 1].monomials, acc)
        out[w] = Anf(acc)
    return out
