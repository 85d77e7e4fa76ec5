"""Test-side reference for the n-network, independent of mqgsim's gate pass.

The masks are written from the documented flat wire order (a_0 at index
0, then b_l, c_l, d_l, a_l at 4l-3 .. 4l for rows l = 1..2^n), not read
from the package, the truth tables are plain per-state loops, and the
output ANFs are a plain per-gate loop.
"""
from functools import lru_cache

import numpy as np

from mqgsim.gf2 import Anf


def network_masks(n):
    """(control, target) masks: controls a_0, b_l, c_l; target a_{2^n}."""
    m = 2**n
    control = 1
    for l in range(1, m + 1):
        control |= (1 << (4 * l - 3)) | (1 << (4 * l - 2))
    return control, 1 << (4 * m)


def closed_form_outputs(n):
    """Output ANFs of the n-network, keyed by flat index: only the target
    changes, by the product of the controls."""
    control, target = network_masks(n)
    width = target.bit_length()
    out = {i: Anf.var(i) for i in range(width)}
    t = width - 1
    out[t] = Anf([[i for i in range(width) if control >> i & 1]]) ^ out[t]
    return out


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
