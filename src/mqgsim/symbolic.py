"""The symbolic backend: output ANFs of a Circuit, exact at any width.

``run_anf`` runs the gate pass (``circuit._apply_layers``) on ``Anf.var``
columns and powers where the layer sequence repeats: a block repeated
three or more times back to back is run once and raised to its power by
binary powering (``gf2.compose``); every other stretch runs the gate pass
on the running ANF columns. ``check_anf`` compares the output ANFs with
the oracle's on ``Anf.var`` columns. Only ``verify`` in symbolic mode
loads this module, so an exhaustive check compiles no ANF engine.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from . import gf2
from .circuit import Circuit, Gate, _apply_layers
from .gf2 import Anf
from .sim import EquivReport, McxOracle


def run_anf(circuit: Circuit) -> dict[int, Anf]:
    """Symbolic simulation, keyed by flat index; exact for any Toffoli circuit.

    The layer sequence is split into runs (``_runs``). A block repeated
    k >= 3 times back to back is run once by the gate pass, raised to its
    k-th power by binary powering and composed in once (``gf2.compose``):
    the n-network's 2^(n+2) layers are one run of the layer pair and take
    n + 1 compositions, and a single-layer deletion O(n). Every other
    stretch runs through ``_apply_layers`` on the running ``Anf`` columns,
    so the V-chain, one block twice over, composes nothing.
    """
    layers = circuit.layers
    width = circuit.num_qubits
    columns = [Anf.var(i) for i in range(width)]
    for start, period, count in _runs(layers):
        block = layers[start : start + period]
        if count == 1:
            _apply_layers(columns, block)
            continue
        power = _power(block, count, width)
        # At the start the columns are still the identity.
        after = gf2.compose(power, dict(enumerate(columns))) if start else power
        for w in power:
            columns[w] = after[w]
    return dict(enumerate(columns))


def _power(block: Sequence[tuple[Gate, ...]], count: int, width: int) -> dict[int, Anf]:
    """The map of ``block`` repeated ``count`` times, as the ANFs of the
    wires it moves: one gate pass, then binary powering."""
    base = [Anf.var(i) for i in range(width)]
    _apply_layers(base, block)
    base = {t: base[t] for layer in block for _, _, t in layer}
    power = None
    while True:
        if count & 1:
            power = base if power is None else gf2.compose(power, base)
        count >>= 1
        if not count:
            return power
        base = gf2.compose(base, base)


def _runs(layers: Sequence[tuple[Gate, ...]]):
    """Cover ``layers`` in order with runs ``(start, period, count)``.

    Layers are compared by identity, as a ``Circuit``'s are: it interns
    equal layers, so a layer's id is its code. The one period tried at a
    position is the distance p to the next equal layer, the shortest a
    repeat can have. Where the p layers from there repeat back to back at
    least three times, the run takes every repeat that follows; the layers
    between such runs form runs of count 1. A block in which its first
    layer recurs is found from a later layer that is unique in it, one
    repeat shorter. So each position costs a lookup and, when the last
    layers agree, one comparison of 2p layers. A block repeated only twice
    stays in the gate pass: squaring it would spend one composition to
    save one pass of the block, and on the V-chain, which is one block
    twice, the pass is the faster.
    """
    end = len(layers)
    code = [id(layer) for layer in layers]
    nxt, last = [end] * end, {}  # nxt[i]: the next layer equal to layer i, or end
    for i in range(end - 1, -1, -1):
        nxt[i] = last.get(code[i], end)
        last[code[i]] = i
    i = plain = 0
    while i < end:
        # Period p repeats three times from i when layer x equals layer
        # x + p for x in i..i + 2p - 1; the last x is tried first.
        p = nxt[i] - i
        if i + 3 * p > end or (
            code[i + 2 * p - 1] != code[i + 3 * p - 1]
            or code[i : i + 2 * p] != code[i + p : i + 3 * p]
        ):
            i += 1
            continue
        count = 3
        while code[i + count * p : i + (count + 1) * p] == code[i : i + p]:
            count += 1
        if plain < i:
            yield plain, i - plain, 1
        yield i, p, count
        i = plain = i + count * p
    if plain < end:
        yield plain, end - plain, 1


def check_anf(
    outputs: Mapping[int, Anf], oracle: McxOracle, names: Sequence[str]
) -> EquivReport:
    """Compare output ANFs (from ``run_anf``) with the oracle's; ``names`` label the wires."""
    width = len(names)
    expected = oracle.apply([Anf.var(i) for i in range(width)], Anf.one())
    for i in range(width):
        if outputs[i] != expected[i]:
            return EquivReport(
                mode="symbolic",
                qubits=width,
                passed=False,
                counterexample={
                    "wire": names[i],
                    "expected": expected[i].to_text(names),
                    "actual": outputs[i].to_text(names),
                },
            )
    return EquivReport(mode="symbolic", qubits=width, passed=True)
