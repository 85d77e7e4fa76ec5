"""Test-side reference for the n-network, independent of mqgsim.

The masks are written from the documented flat wire order (a_0 at index
0, then b_l, c_l, d_l, a_l at 4l-3 .. 4l for rows l = 1..2^n), not read
from the package, and the truth table is a plain per-state loop.
"""
import numpy as np


def network_masks(n):
    """(control, target) masks: controls a_0, b_l, c_l; target a_{2^n}."""
    m = 2**n
    control = 1
    for l in range(1, m + 1):
        control |= (1 << (4 * l - 3)) | (1 << (4 * l - 2))
    return control, 1 << (4 * m)


def mcx_table(control, target, width):
    """outputs[s] of the C^k-NOT that XORs target into s when all controls are 1."""
    return [s ^ target if s & control == control else s for s in range(1 << width)]


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
