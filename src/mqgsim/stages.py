"""The n-network's block stages, an oracle independent of the gate pass.

``block_stages`` is the one recurrence pass for A_l(k), Z_l(k). It uses
only ``&`` and ``^``, so it runs on bit-sliced int columns (one state or
all 2^M) and on ``Anf.var`` columns alike. ``check_stages`` runs the
layers beside it and compares the two at every block-stage boundary.
Only ``trace`` loads this module.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .circuit import CircuitError, _apply_layers, network_rows, wire
from .synthesis import layer_templates

if TYPE_CHECKING:
    from .gf2 import Anf


def block_stages(n: int, columns):
    """Yield the lists (A, Z) with A[l] = A_l(k) and Z[l] = Z_l(k), for k = 1..2^n.

    ``columns`` holds one value per wire of the n-network, by flat index.
    Stage 0 is the input, A_l(0) = a_l, and row 0 is a_0 at every stage.
    Z_l(1) = B_l (A_{l-1} C_l + D_l) + A_l is the k >= 2 step
    Z_l(k) = B_l C_l A_{l-1}(k-1) + Z_l(k-1) from Z_l(0) := B_l D_l + A_l.
    """
    rows = network_rows(n)

    def col(role: str, l: int):
        return columns[wire(role, l)]

    A = [col("A", l) for l in range(2**n + 1)]
    bc = [None] + [col("B", l) & col("C", l) for l in rows]
    Z = [A[0]] + [col("B", l) & col("D", l) ^ A[l] for l in rows]
    for _ in range(2**n):
        Z = [A[0]] + [bc[l] & A[l - 1] ^ Z[l] for l in rows]
        A = [A[0]] + [bc[l] & Z[l - 1] ^ A[l] for l in rows]
        yield A, Z


class Stage(NamedTuple):
    """Row l at block stage k: the simulated a_l (A), a_l at the stage's
    midpoint (Z) and d_l (D), each beside its recurrence value. D is only
    pinned at the final stage k = 2^n, where d_l is restored to its input;
    elsewhere ``D_oracle`` is None."""

    l: int
    k: int
    A: int | Anf
    A_oracle: int | Anf
    Z: int | Anf
    Z_oracle: int | Anf
    D: int | Anf
    D_oracle: int | Anf | None

    @property
    def match(self) -> bool:
        return (
            self.A == self.A_oracle
            and self.Z == self.Z_oracle
            and (self.D_oracle is None or self.D == self.D_oracle)
        )


def check_stages(n: int, columns: Sequence) -> list[Stage]:
    """Run the n-network's layer pair (``layer_templates(n)``) beside the block recurrences.

    Z_l(k) is a_l after layer 4k-2; A_l(k) and D_l(k) are a_l and d_l after
    layer 4k. ``columns`` are the input, one per wire: one-state or
    all-state int columns, or ``Anf.var`` columns.
    """
    pair = type1, type2 = layer_templates(n)
    width = 2 ** (n + 2) + 1
    if len(columns) != width:
        raise CircuitError(f"input width {len(columns)} != circuit width {width}")
    # Row l's type-2 gate is T(b_l, d_l -> a_l).
    rows = [(l, d, a) for l, (_, d, a) in enumerate(type2, start=1)]
    last = 2**n
    wires = list(columns)
    stages: list[Stage] = []
    for k, (A, Z) in enumerate(block_stages(n, columns), start=1):
        _apply_layers(wires, pair)
        z = [wires[a] for _, _, a in rows]
        _apply_layers(wires, pair)
        stages += [
            Stage(l, k, wires[a], A[l], z[l - 1], Z[l], wires[d],
                  columns[d] if k == last else None)
            for l, d, a in rows
        ]
    return stages
