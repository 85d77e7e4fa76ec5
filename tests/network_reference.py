"""Test-side reference for the n-network, independent of mqgsim's gate pass.

The masks and wire indices are written from the documented flat wire
order (a_0 at index 0, then b_l, c_l, d_l, a_l at 4l-3 .. 4l for rows
l = 1..2^n), not read from the package, the truth tables are plain
per-state loops, and the output ANFs are a plain per-gate loop. The stage
values A_l(k), Z_l(k) are read off ``stages.block_stages`` and re-derived by
the plain recursion, and ``appendix_identities`` states the paper's
stage-boundary identities on them.
"""
from functools import lru_cache

import numpy as np

from mqgsim.gf2 import Anf
from mqgsim.stages import block_stages


def wire(role, l):
    """Flat index of wire ``role``_l: a_0 is 0, and b_l, c_l, d_l, a_l are 4l-3 .. 4l."""
    return 0 if l == 0 else 4 * l - 3 + "BCDA".index(role)


def var(role, l):
    return Anf.var(wire(role, l))


def network_masks(n):
    """(control, target) masks: controls a_0, b_l, c_l; target a_{2^n}."""
    control = sum(1 << wire(r, l) for l in range(1, 2**n + 1) for r in "BC")
    return control | 1 << wire("A", 0), 1 << wire("A", 2**n)


def closed_form_outputs(n):
    """Output ANFs of the n-network, keyed by flat index: only the target
    changes, by the product of the controls."""
    control, target = network_masks(n)
    width = target.bit_length()
    out = {i: Anf.var(i) for i in range(width)}
    t = width - 1
    out[t] = Anf([control]) ^ out[t]
    return out


def stage_values(n):
    """Functions A(l, k) and Z(l, k), as ANFs, of ``block_stages`` on
    ``Anf.var`` columns. Stage 0 is the input, A(l, 0) = a_l, and row 0 is
    a_0 at every stage; Z(l, 0) is undefined for l >= 1."""
    a = [var("A", l) for l in range(2**n + 1)]
    stages = [(a, a[:1])] + list(block_stages(n, [Anf.var(i) for i in range(4 * 2**n + 1)]))
    return (lambda l, k: stages[k][0][l]), (lambda l, k: stages[k][1][l])


def naive_A(l, k):
    """A_l(k) by the plain recursion, unmemoized."""
    if l == 0:
        return var("A", 0)
    if k == 0:
        return var("A", l)
    return (var("B", l) & var("C", l) & naive_Z(l - 1, k)) ^ naive_A(l, k - 1)


def naive_Z(l, k):
    """Z_l(k) by the plain recursion, for k >= 1 (or l = 0)."""
    if l == 0:
        return var("A", 0)
    if k == 1:
        return (var("B", l) & ((var("A", l - 1) & var("C", l)) ^ var("D", l))) ^ var("A", l)
    return (var("B", l) & var("C", l) & naive_A(l - 1, k - 1)) ^ naive_Z(l, k - 1)


def appendix_identities(n):
    """Yield (name, lhs, rhs) for each stage-boundary identity of the n-network.

    Covers: the closed form of A_{2^n}(2^n); restoration A_l(2^n) = A_l for
    l < 2^n; the final Z_l(2^n) forms; D restoration via
    B_l AND D_l = A_l(2^n) XOR Z_l(2^n); and the doubling identity
    A_l(k) = [prod_{p<2^j} B_{l-p} C_{l-p}] A_{l-2^j}(k-2^(j-1)) XOR A_l(k-2^j)
    for every power 2^j fitting inside (l, k).
    """
    m = 2**n
    A, Z = stage_values(n)
    closed = closed_form_outputs(n)[wire("A", m)]
    yield f"A_{m}({m}) closed form", A(m, m), closed
    for l in range(1, m):
        yield f"A_{l}({m}) restored", A(l, m), var("A", l)
    for l in range(1, m):
        yield f"Z_{l}({m}) final form", Z(l, m), (var("B", l) & var("D", l)) ^ var("A", l)
    yield f"Z_{m}({m}) final form", Z(m, m), closed ^ (var("B", m) & var("D", m))
    for l in range(1, m + 1):
        yield f"B_{l} D_{l}({m}) relation", A(l, m) ^ Z(l, m), var("B", l) & var("D", l)
    for j in range(1, n + 1):
        step = 2**j
        for l in range(step, m + 1):
            bc = Anf.one()
            for p in range(step):
                bc = bc & var("B", l - p) & var("C", l - p)
            for k in range(step, m + 1):
                yield (
                    f"doubling j={j} l={l} k={k}",
                    A(l, k),
                    (bc & A(l - step, k - step // 2)) ^ A(l, k - step),
                )


@lru_cache(maxsize=None)
def _factors(monomials):
    """Each monomial's variable indices, lowest first."""
    return tuple(tuple(v for v in range(m.bit_length()) if m >> v & 1) for m in monomials)


def evaluate(poly, columns, ones=1):
    """XOR over the monomials of ``poly`` of the AND of their variables' columns.

    Columns are bit-sliced, indexed by variable (a list or a dict), and each
    AND starts from ``ones``, the all-ones column; a single state has
    columns 0 or 1 and ones = 1.
    """
    acc = 0
    try:
        for factors in _factors(poly.monomials):
            term = ones
            for v in factors:
                term &= columns[v]
                if not term:
                    break
            acc ^= term
    except (KeyError, IndexError) as e:
        raise ValueError(f"assignment missing variable {e}") from e
    return acc


def mcx_table(control, target, width):
    """outputs[s] of the C^k-NOT that XORs target into s when all controls are 1."""
    return [s ^ target if s & control == control else s for s in range(1 << width)]


def anf_outputs(circuit):
    """Output ANFs keyed by flat index: each gate of ``circuit.layers`` in
    turn, as t ^= c1 AND c2 on ``Anf.var`` values."""
    wires = [Anf.var(i) for i in range(circuit.num_qubits)]
    for layer in circuit.layers:
        for c1, c2, t in layer:
            wires[t] = wires[t] ^ (wires[c1] & wires[c2])
    return dict(enumerate(wires))


def run_word(circuit, word):
    """One basis state through the circuit, gate by gate, as a word."""
    for layer in circuit.layers:
        for c1, c2, t in layer:
            if word >> c1 & 1 and word >> c2 & 1:
                word ^= 1 << t
    return word


def table_columns(table, width):
    """Bit-slice a truth table: bit s of column i is bit i of table[s]."""
    words = np.asarray(table, dtype=np.uint64)
    return [
        int.from_bytes(
            np.packbits(((words >> np.uint64(i)) & np.uint64(1)).astype(np.uint8),
                        bitorder="little").tobytes(),
            "little",
        )
        for i in range(width)
    ]


def table_words(columns):
    """Un-slice a bit-sliced table: table[s] has bit i = bit s of column i."""
    states = 1 << len(columns)
    return [sum((col >> s & 1) << i for i, col in enumerate(columns)) for s in range(states)]
