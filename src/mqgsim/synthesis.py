"""Construction of the layered Toffoli network.

The builder here makes the 2^(n+2)-layer network whose only net effect
is to flip a_{2^n} when all 2^(n+1)+1 controls are 1, from its two layer
templates. Smaller multi-controlled NOTs come from the unmodified network
by holding the controls of ``pin_mask`` at 1. The conventional V-chain it
is compared with is in ``baseline``.
"""
from __future__ import annotations

from .circuit import Circuit, CircuitError, Gate, network_rows, wire

# Largest n the network builder takes. The file edge does not bound it:
# `synth --n 10` (4097 wires, 4096 layers) writes its 80 MB file in about
# 0.1 s at a 15 MB peak, and `verify --circuit` reads it back in about
# 1.7 s at 33 MB. The symbolic check does: `verify --n 10` takes about
# 0.9 s and 32 MB, and `verify --n 11`, with the limit raised, 3.1 s and
# 82 MB, so 10 keeps every network command within seconds and 100 MB.
NETWORK_LIMIT = 10


def layer_templates(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """The two layer shapes of the n-network, as flat-index gates.

    Type 1 is T(a_{l-1}, c_l -> d_l) and type 2 is T(b_l, d_l -> a_l), for
    every row l = 1..2^n.
    """
    rows = network_rows(n)
    type1 = tuple((wire("A", l - 1), wire("C", l), wire("D", l)) for l in rows)
    type2 = tuple((wire("B", l), wire("D", l), wire("A", l)) for l in rows)
    return type1, type2


def synth_mqg_network(n: int) -> Circuit:
    """Build the 2^(n+2)-layer network: the pair (type 1, type 2) 2^(n+1) times."""
    if n > NETWORK_LIMIT:
        raise CircuitError(
            f"n={n} is over the network limit of {NETWORK_LIMIT} "
            f"({2 ** (n + 2) + 1} wires)"
        )
    return Circuit(2 ** (n + 2) + 1, layer_templates(n) * 2 ** (n + 1))


def pin_mask(n: int, active: int) -> int:
    """Controls to hold at 1 so the n-network acts as a C^active-NOT.

    Surplus controls are pinned from the highest row down, c before b;
    a_0 is never pinned.
    """
    budget = 2 ** (n + 1) + 1
    if not 2 <= active <= budget:
        raise CircuitError(f"active control count {active} outside 2..{budget}")
    order = [wire(r, l) for l in reversed(network_rows(n)) for r in "CB"]
    return sum(1 << i for i in order[: budget - active])
