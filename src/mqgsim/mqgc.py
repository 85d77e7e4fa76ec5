"""The MQGC1 circuit file format: ``serialize`` and its canonical ``parse``.

A file holds a ``Circuit`` and one distinct label per wire (``A0``, ``B1``,
...): ``parse`` returns the labels beside the circuit and ``serialize``
takes them. Only ``verify --circuit`` and ``synth``, the commands that
read or write a file, load this module.
"""
from __future__ import annotations

import re

from .circuit import Circuit, CircuitError, Gate, LayerError, _clip

FORMAT_MAGIC = "MQGC1"

# ASCII decimal, no sign, no leading zero: the only spelling serialize emits.
# At most 4300 digits, the most Python's int() converts by default.
_NUM = "(0|[1-9][0-9]{0,4299})"
_LABEL = re.compile(f"([ABCD]){_NUM}")

_QUBITS = re.compile(f"qubits {_NUM}")
_ROLE = re.compile(f"role {_NUM} (.*)")
_TOFF = re.compile(f"toff {_NUM} {_NUM} {_NUM}")


class CircuitParseError(CircuitError):
    """Malformed circuit file; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize(circuit: Circuit, roles: tuple[str, ...]) -> str:
    """MQGC1 text of ``circuit`` with ``roles`` labelling its wires by flat index."""
    lines = [FORMAT_MAGIC, f"qubits {circuit.num_qubits}"]
    lines += [f"role {i} {label}" for i, label in enumerate(roles)]
    for layer in circuit.layers:
        lines.append("layer")
        lines += [f"toff {c1} {c2} {t}" for c1, c2, t in layer]
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[Circuit, tuple[str, ...]]:
    """Parse canonical MQGC1 text, exactly what ``serialize`` writes, into
    the circuit and its wire labels.

    Any other spelling (signs, leading zeros, non-ASCII digits, extra
    spaces, blank lines, CR or a missing final newline) raises
    CircuitParseError with the 1-based offending line.
    """
    lines = text.split("\n")

    def fail(lineno: int, msg: str):
        raise CircuitParseError(lineno, msg)

    if lines.pop() != "":
        fail(len(lines) + 1, "text must end with a newline")
    if not lines or lines[0] != FORMAT_MAGIC:
        fail(1, f"expected header {FORMAT_MAGIC!r}")
    match = _QUBITS.fullmatch(lines[1]) if len(lines) > 1 else None
    if match is None:
        fail(2, "expected 'qubits <M>'")
    num_qubits = int(match[1])
    if num_qubits < 1:
        fail(2, f"qubit count must be positive, got {num_qubits}")

    roles = []
    for i in range(num_qubits):
        lineno = i + 3
        if lineno > len(lines):
            fail(lineno, "missing role line")
        line = lines[lineno - 1]
        match = _ROLE.fullmatch(line)
        if match is None:
            fail(lineno, f"expected 'role <index> <label>', got {_clip(repr(line))}")
        if int(match[1]) != i:
            fail(lineno, f"role index {_clip(match[1])} out of order (expected {i})")
        if _LABEL.fullmatch(match[2]) is None:
            fail(lineno, f"bad qubit label {_clip(repr(match[2]))}")
        roles.append(match[2])

    layers: list[list[Gate]] = []
    layer_lines: list[int] = []
    for lineno in range(num_qubits + 3, len(lines) + 1):
        line = lines[lineno - 1]
        if line == "layer":
            layers.append([])
            layer_lines.append(lineno)
            continue
        match = _TOFF.fullmatch(line)
        if match is None:
            fail(lineno, f"unexpected line {_clip(repr(line))}")
        if not layers:
            fail(lineno, "toff outside a layer block")
        layers[-1].append((int(match[1]), int(match[2]), int(match[3])))

    if len(set(roles)) != num_qubits:
        fail(num_qubits + 2, "role map is not a bijection (duplicate labels)")
    try:
        return Circuit(num_qubits, tuple(tuple(layer) for layer in layers)), tuple(roles)
    except LayerError as e:
        # A layer's gates sit on the lines right after its header.
        start = layer_lines[e.layer]
        fail(start if e.gate is None else start + 1 + e.gate, str(e))
