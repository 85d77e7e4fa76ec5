"""A fixed reference program, timed beside every CLI call to gauge the host's speed.

The machine this benchmark runs on is shared, and its speed drifts by up
to 1.8x for stretches of seconds to minutes. The reference does the kind
of work the CLI does: interpreter start-up, the numpy import, and building
and hashing many small Python objects. It imports nothing from mqgsim, so
no change to the package changes its time. Dividing the CLI's wall time by
the reference's cancels much of the drift.
"""
import numpy  # noqa: F401  (start-up cost, as in every CLI call)

layers = ()
for i in range(3000):
    layers = layers + (tuple(frozenset((i, 10**6 + j, 2 * 10**6 + j)) for j in range(40)),)
index = {gate: n for n, layer in enumerate(layers) for gate in layer}
if sum(len(gate) for gate in index) != 3 * 3000 * 40:
    raise SystemExit("reference computed a wrong result")
