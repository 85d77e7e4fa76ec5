"""The MQGC1 circuit file format: ``serialize`` and its canonical ``parse``.

A file holds a ``Circuit`` and one distinct label per wire (``A0``, ``B1``,
...): ``parse`` returns the labels beside the circuit and ``serialize``
takes them. Only ``verify --circuit`` and ``synth``, the commands that
read or write a file, load this module.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

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


def serialize(circuit: Circuit, roles: tuple[str, ...]) -> Iterator[str]:
    """MQGC1 text of ``circuit`` with ``roles`` labelling its wires by flat
    index, in chunks: the header and role lines, then one chunk per layer.
    Each distinct layer object's text is built once."""
    yield f"{FORMAT_MAGIC}\nqubits {circuit.num_qubits}\n" + "".join(
        f"role {i} {label}\n" for i, label in enumerate(roles)
    )
    texts: dict[int, str] = {}
    for layer in circuit.layers:
        text = texts.get(id(layer))
        if text is None:
            text = texts[id(layer)] = "layer\n" + "".join(
                f"toff {c1} {c2} {t}\n" for c1, c2, t in layer
            )
        yield text


def parse(lines: Iterable[bytes]) -> tuple[Circuit, tuple[str, ...]]:
    """Parse canonical MQGC1 text, exactly what ``serialize`` writes, into
    the circuit and its wire labels.

    ``lines`` are the UTF-8 lines of the text with their ``\\n`` ends, as a
    file opened in binary mode yields them, so a lone CR stays inside its
    line. Any other spelling (signs, leading zeros, non-ASCII digits, extra
    spaces, blank lines, CR, bytes that are not UTF-8 or a missing final
    newline) raises CircuitParseError with the 1-based offending line.
    Lines are checked as they are read, so of two faulty lines the earlier
    is reported: the labels right after the role lines, and each layer when
    the next header or the end closes it. The layers stream into
    ``Circuit``, which interns them, so the parse holds only the distinct
    layers, and each distinct gate line is decoded and matched once.
    """
    numbered = enumerate(lines, 1)

    def fail(lineno: int, msg: str):
        raise CircuitParseError(lineno, msg)

    def decode(lineno: int, line: bytes) -> str:
        """``line`` without its newline, as text."""
        if line[-1:] != b"\n":
            fail(lineno, "text must end with a newline")
        try:
            return line[:-1].decode("utf-8")
        except UnicodeDecodeError as e:
            fail(lineno, str(e))

    def next_line() -> str | None:
        """The next line as text, or None after the last."""
        for lineno, line in numbered:
            return decode(lineno, line)
        return None

    if next_line() != FORMAT_MAGIC:
        fail(1, f"expected header {FORMAT_MAGIC!r}")
    match = _QUBITS.fullmatch(next_line() or "")
    if match is None:
        fail(2, "expected 'qubits <M>'")
    num_qubits = int(match[1])
    if num_qubits < 1:
        fail(2, f"qubit count must be positive, got {num_qubits}")

    roles = []
    for i in range(num_qubits):
        lineno = i + 3
        line = next_line()
        if line is None:
            fail(lineno, "missing role line")
        match = _ROLE.fullmatch(line)
        if match is None:
            fail(lineno, f"expected 'role <index> <label>', got {_clip(repr(line))}")
        if int(match[1]) != i:
            fail(lineno, f"role index {_clip(match[1])} out of order (expected {i})")
        if _LABEL.fullmatch(match[2]) is None:
            fail(lineno, f"bad qubit label {_clip(repr(match[2]))}")
        roles.append(match[2])

    if len(set(roles)) != num_qubits:
        fail(num_qubits + 2, "role map is not a bijection (duplicate labels)")

    header = 0  # line of the open layer block's header

    def layers() -> Iterator[tuple[Gate, ...]]:
        nonlocal header
        gates: dict[bytes, Gate] = {}  # each distinct gate line, newline included
        layer = None  # the gates of the open layer block
        for lineno, line in numbered:
            gate = gates.get(line)
            if gate is not None:
                layer.append(gate)
                continue
            if line == b"layer\n":
                if layer is not None:
                    yield tuple(layer)
                layer, header = [], lineno
                continue
            text = decode(lineno, line)
            match = _TOFF.fullmatch(text)
            if match is None:
                fail(lineno, f"unexpected line {_clip(repr(text))}")
            if layer is None:
                fail(lineno, "toff outside a layer block")
            gate = gates[line] = (int(match[1]), int(match[2]), int(match[3]))
            layer.append(gate)
        if layer is not None:
            yield tuple(layer)

    try:
        return Circuit(num_qubits, layers()), tuple(roles)
    except LayerError as e:
        # Circuit checks a layer as it takes it, so the bad layer is the one
        # just yielded, and its gates sit on the lines after its header.
        fail(header if e.gate is None else header + 1 + e.gate, str(e))
