"""Spans around calls into mqgsim's layers, recorded from outside the package.

Each wrapped function is replaced at the attribute its caller looks up
(`mqgsim.cli.run_anf`, `mqgsim.sim.synth_mqg_network`, ...), so the
package itself is unchanged. Spans nest; a span's self time is its
duration minus the durations of its direct children. The span name's
prefix is the layer, the module the function is defined in.

`gf2.block_A` and `gf2.block_Z` are recursive and lru-cached, so a
wrapper would time every cache hit and every recursion level; their cost
is seen through `sim.oracle_trace`, which evaluates them.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

from workloads import ztable_bytes

LAYERS = ("circuit", "synthesis", "gf2", "sim", "nmr", "cli")

ROOT = "cli.main"


def _toffolis(counts, args, kwargs, result):
    metrics = importlib.import_module("mqgsim.circuit").metrics
    counts["synthesis.toffoli_built"] += metrics(result).toffoli_count
    counts["synthesis.synth_calls"] += 1


def _parse_bytes(counts, args, kwargs, result):
    counts["circuit.parse_bytes"] += len(args[0].encode())


def _states(counts, args, kwargs, result):
    counts["sim.states_checked"] += 1 << args[0].num_qubits


def _monomials(counts, args, kwargs, result):
    counts["sim.anf_output_monomials"] += sum(len(a.monomials) for a in result.values())


def _identity_ztable(counts, args, kwargs, result):
    # verify_identity builds the target diagonal once per call (computed).
    counts["nmr.ztable_bytes_computed"] += ztable_bytes(args[1].num_spins)


def _sequence_ztable(counts, args, kwargs, result):
    # apply_sequence builds the evolution diagonal once per call (computed).
    counts["nmr.apply_sequence_calls"] += 1
    counts["nmr.ztable_bytes_computed"] += ztable_bytes(args[1].num_spins)


# (module whose attribute the caller looks up, attribute, span name, counter)
WRAPPED = (
    ("mqgsim.cli", "parse", "circuit.parse", _parse_bytes),
    ("mqgsim.cli", "serialize", "circuit.serialize", None),
    ("mqgsim.cli", "metrics", "circuit.metrics", None),
    ("mqgsim.cli", "synth_mqg_network", "synthesis.synth_mqg_network", _toffolis),
    ("mqgsim.sim", "synth_mqg_network", "synthesis.synth_mqg_network", _toffolis),
    ("mqgsim.cli", "run_all", "sim.run_all", _states),
    ("mqgsim.sim", "all_outputs", "sim.all_outputs", None),
    ("mqgsim.cli", "run_anf", "sim.run_anf", _monomials),
    ("mqgsim.cli", "closed_form_outputs", "gf2.closed_form_outputs", None),
    ("mqgsim.cli", "trace_blocks", "sim.trace_blocks", None),
    ("mqgsim.cli", "oracle_trace", "sim.oracle_trace", None),
    ("mqgsim.cli", "verify_identity", "nmr.verify_identity", _identity_ztable),
    ("mqgsim.nmr", "effective_evolution", "nmr.effective_evolution", None),
    ("mqgsim.nmr", "apply_sequence", "nmr.apply_sequence", _sequence_ztable),
)

COUNTS = (
    "synthesis.synth_calls",
    "synthesis.toffoli_built",
    "circuit.parse_bytes",
    "sim.states_checked",
    "sim.anf_output_monomials",
    "nmr.apply_sequence_calls",
    "nmr.ztable_bytes_computed",
    "cli.report_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Holds the spans and counts of one traced stretch of work, in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    count_errors: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)

    def exit(self) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # The package changed the shape the counter reads;
                    # keep timing, and report the count as broken.
                    self.count_errors.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every attribute in WRAPPED that the package still has."""
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds, summed per span name."""
        inclusive: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for s in self.spans:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
            self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - s.children_s
        return inclusive, self_s

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced stretch (one pass)."""
        inclusive, self_s = self.totals()
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, s in self_s.items():
            out[name.split(".")[0] + ".self_s"] += s
        out.update(
            {
                "synthesis.synth_s": inclusive.get("synthesis.synth_mqg_network", 0.0),
                "circuit.parse_s": inclusive.get("circuit.parse", 0.0),
                "sim.all_outputs_s": inclusive.get("sim.all_outputs", 0.0),
                "sim.run_all_self_s": self_s.get("sim.run_all", 0.0),
                "sim.run_anf_s": inclusive.get("sim.run_anf", 0.0),
                "gf2.closed_form_s": inclusive.get("gf2.closed_form_outputs", 0.0),
                "sim.trace_blocks_self_s": self_s.get("sim.trace_blocks", 0.0),
                "sim.oracle_trace_s": inclusive.get("sim.oracle_trace", 0.0),
                "nmr.effective_evolution_s": inclusive.get("nmr.effective_evolution", 0.0),
                "nmr.apply_sequence_s": inclusive.get("nmr.apply_sequence", 0.0),
                "nmr.verify_identity_self_s": self_s.get("nmr.verify_identity", 0.0),
            }
        )
        out.update(self.counts)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
