"""Reversible circuits built from layers of disjoint Toffoli gates.

A wire is its flat index. A circuit is its width plus a tuple of layers.
Each layer is a tuple of ``(c1, c2, t)`` flat wire indices, one per
Toffoli, and the gates of one layer touch disjoint wires, so they commute
and can be thought of as executing simultaneously. Basis states are plain
integers with bit 0 corresponding to flat wire index 0 (little-endian).
``_apply_layers`` is the one gate pass: a Toffoli is
``col[t] ^= col[c1] & col[c2]`` on whatever the columns hold. On
bit-sliced int columns (bit s of column i is wire i in basis state s) it
runs all 2^M basis states at once, or one state whose columns are 0 or 1;
on ``Anf.var`` columns it is symbolic GF(2) simulation, exact at any
width.
``wire`` is the n-network's one layout formula from role and row to flat
index; wire labels (``mqg_roles``) are only for the edges: the MQGC1 file
format (``mqgc``), ``network_n`` and text output.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable, NamedTuple

Gate = tuple[int, int, int]


def _clip(text: str, limit: int = 60) -> str:
    """``text``, or its first ``limit`` characters and '...' if it is longer,
    so an error message never echoes an unbounded token."""
    return text if len(text) <= limit else text[:limit] + "..."


class CircuitError(ValueError):
    """Invalid circuit construction."""


class LayerError(CircuitError):
    """A bad layer (``gate`` is None) or a bad gate at (``layer``, ``gate``)."""

    def __init__(self, layer: int, gate: int | None, message: str):
        where = f"layer {layer}" if gate is None else f"layer {layer} gate {gate}"
        super().__init__(f"{where}: {message}")
        self.layer = layer
        self.gate = gate


def _check_layer(index: int, layer: tuple[Gate, ...], width: int) -> None:
    if not layer:
        raise LayerError(index, None, "empty layer")
    seen: set[int] = set()
    for g, gate in enumerate(layer):
        wires = set(gate)
        if len(gate) != 3 or len(wires) != 3:
            raise LayerError(index, g, f"gate {_clip(str(gate))} needs three distinct wires")
        if not all(0 <= w < width for w in gate):
            raise LayerError(
                index, g, f"gate {_clip(str(gate))} has a wire outside 0..{width - 1}"
            )
        if seen & wires:
            raise LayerError(
                index, g, f"gate {_clip(str(gate))} overlaps wires {sorted(seen & wires)}"
            )
        seen |= wires


class Circuit(namedtuple("Circuit", "num_qubits layers")):
    """Immutable circuit: a width, plus layers of (c1, c2, t) gates.

    ``layers`` may be any iterable of layer tuples, such as a generator, so
    a caller need hold only its distinct layers. Construction interns equal
    layers, so in a Circuit equal layers are one object, and checks each
    distinct layer once, as it arrives at its first index: non-empty, in
    range, and made of disjoint three-wire gates. A layer object it holds
    is not hashed again, so a network that repeats a few layer objects
    costs a dict lookup per layer.
    """

    __slots__ = ()

    def __new__(cls, num_qubits: int, layers: Iterable[tuple[Gate, ...]] = ()):
        distinct: dict[tuple[Gate, ...], tuple[Gate, ...]] = {}
        # Ids only of the objects in distinct: a dropped temporary's id can recur.
        held: set[int] = set()
        interned = []
        for i, layer in enumerate(layers):
            if id(layer) not in held:
                kept = distinct.setdefault(layer, layer)
                if kept is layer:
                    _check_layer(i, layer, num_qubits)
                    held.add(id(layer))
                layer = kept
            interned.append(layer)
        return super().__new__(cls, num_qubits, tuple(interned))

    @classmethod
    def _make(cls, fields) -> "Circuit":
        return cls(*fields)  # so _replace validates too


def _apply_layers(columns: list, layers: Iterable[tuple[Gate, ...]]) -> None:
    for layer in layers:
        for c1, c2, t in layer:
            columns[t] ^= columns[c1] & columns[c2]


class Metrics(NamedTuple):
    qubit_count: int
    mqg_count: int
    toffoli_count: int


def metrics(circuit: Circuit) -> Metrics:
    return Metrics(
        qubit_count=circuit.num_qubits,
        mqg_count=len(circuit.layers),
        toffoli_count=sum(len(layer) for layer in circuit.layers),
    )


def network_rows(n: int) -> range:
    """The rows l = 1..2^n of the n-network, which needs n >= 1."""
    if n < 1:
        raise CircuitError(f"need n >= 1, got {n}")
    return range(1, 2**n + 1)


def wire(role: str, l: int) -> int:
    """Flat index of wire ``role``_l in the n-network: a_0 is 0, and row l
    holds b_l, c_l, d_l, a_l at 4l-3 .. 4l, so each layer's support is contiguous."""
    return 4 * l - 3 + "BCDA".index(role)


@lru_cache(maxsize=None)
def mqg_roles(n: int) -> tuple[str, ...]:
    """Wire labels of the 2^(n+2)+1-qubit network, in ``wire`` order."""
    return ("A0",) + tuple(f"{r}{l}" for l in network_rows(n) for r in "BCDA")


def network_n(roles: tuple[str, ...]) -> int:
    """The n of the n-network whose layout the wire labels ``roles`` give:
    2^(n+2)+1 wires labelled ``mqg_roles(n)``."""
    M = len(roles)
    n = (M - 1).bit_length() - 3
    if n < 1 or 2 ** (n + 2) + 1 != M:
        raise CircuitError(f"{M} qubits does not match any n-network")
    if roles != mqg_roles(n):
        raise CircuitError("circuit role map does not match the n-network layout")
    return n


def control_target_masks(n: int) -> tuple[int, int]:
    """Controls a_0, b_l, c_l and target a_{2^n} of the n-network, as bit masks."""
    control = 1 << wire("A", 0)
    for l in network_rows(n):
        control |= 1 << wire("B", l) | 1 << wire("C", l)
    return control, 1 << wire("A", 2**n)
