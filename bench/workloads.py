"""The benchmark's workloads: what each pass runs, and what it must print.

A workload is planned from its seed alone. The plan lists the CLI calls
that write the input files (set-up), the mutants the benchmark derives
from those files, and the invocations of one timed pass, each with the
verdict it must reach and the memory it will need. Sizes never depend on
the seed; the seed only picks couplings, trace inputs and which layers
the mutants drop.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The CLI's auto mode checks a circuit exhaustively up to this width and
# symbolically beyond it.
EXHAUSTIVE_QUBITS = 24

# Largest computed footprint one invocation may have. `nmr-verify --rows 5`
# needs 168 MB of Z-table (612 MB peak RSS); `--rows 6` would need 3.2 GB
# of table and about 10 GB in all, on an 8 GB machine shared with others.
BYTE_BUDGET = 512 << 20

WORKLOADS = ("verify_symbolic", "verify_file", "nmr_lattice")


class BudgetError(ValueError):
    """An invocation would need more memory than BYTE_BUDGET."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect_pass: bool
    footprint: int  # computed bytes of the largest table the command builds
    label: str

    @property
    def expected_exit(self) -> int:
        return 0 if self.expect_pass else 1


@dataclass(frozen=True)
class Mutant:
    """Copy of an MQGC1 file with one layer (0-based) deleted."""

    source: str
    layer: int
    out: str


@dataclass(frozen=True)
class Plan:
    setup: tuple[tuple[str, ...], ...]  # CLI argvs that write the input files
    mutants: tuple[Mutant, ...]
    invocations: tuple[Invocation, ...]  # one pass


def network_qubits(n: int) -> int:
    return 2 ** (n + 2) + 1


def network_layers(n: int) -> int:
    return 2 ** (n + 2)


def truth_table_bytes(qubits: int) -> int:
    """One uint64 output word per basis state, if auto mode goes exhaustive."""
    return 8 << qubits if qubits <= EXHAUSTIVE_QUBITS else 0


def ztable_bytes(spins: int) -> int:
    """The float64 (2^N, N) Z-eigenvalue table built for every diagonal."""
    return (1 << spins) * spins * 8


def verify_network(n: int) -> Invocation:
    return Invocation(
        ("verify", "--n", str(n)),
        True,
        truth_table_bytes(network_qubits(n)),
        f"verify --n {n}",
    )


def verify_file(path: Path, n: int, expect_pass: bool) -> Invocation:
    return Invocation(
        ("verify", "--circuit", str(path)),
        expect_pass,
        truth_table_bytes(network_qubits(n)),
        f"verify --circuit {path.name}",
    )


def trace(n: int, bits: str) -> Invocation:
    return Invocation(
        ("trace", "--n", str(n), "--input", bits, "--format", "json"),
        True,
        0,
        f"trace --n {n}",
    )


def nmr_verify(kind: str, rows: int, seed: int, trials: int | None = None) -> Invocation:
    argv = ("nmr-verify", "--kind", kind, "--rows", str(rows), "--seed", str(seed))
    if trials is not None:
        argv += ("--trials", str(trials))
    label = f"nmr-verify --kind {kind} --rows {rows}"
    if trials is not None:
        label += f" --trials {trials}"
    return Invocation(argv, True, ztable_bytes(4 * rows), label)


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    if workload == "verify_symbolic":
        # The large-n path: synthesis, then the ANF backend. No parse, no
        # truth table, no NMR. Nothing in it depends on the seed.
        return Plan((), (), (verify_network(5), verify_network(6)))
    if workload == "verify_file":
        # Reads the circuit IR instead of building it, and covers the
        # exhaustive truth table, the failing path and block tracing.
        files = {n: workdir / f"n{n}.mqgc" for n in (1, 2, 5)}
        setup = tuple(("synth", "--n", str(n), "--out", str(p)) for n, p in files.items())
        picks = [(2, d) for d in sorted(rng.sample(range(network_layers(2)), 3))]
        picks.append((5, rng.randrange(network_layers(5))))
        mutants = tuple(
            Mutant(str(files[n]), d, str(workdir / f"n{n}-drop{d}.mqgc")) for n, d in picks
        )
        invocations = tuple(verify_file(p, n, True) for n, p in files.items())
        invocations += tuple(
            verify_file(Path(m.out), n, False) for (n, _), m in zip(picks, mutants)
        )
        invocations += tuple(
            trace(n, "".join(rng.choice("01") for _ in range(network_qubits(n))))
            for n in (3, 4)
        )
        return Plan(setup, mutants, invocations)
    if workload == "nmr_lattice":
        # Only the NMR layer works here: sign algebra and state-vector
        # numerics. The seed draws the couplings and the random states.
        nmr_seed = rng.randrange(2**31)
        return Plan(
            (),
            (),
            (nmr_verify("all", 4, nmr_seed), nmr_verify("1", 5, nmr_seed, trials=2)),
        )
    raise ValueError(f"unknown workload {workload!r}")


def check_budget(p: Plan) -> None:
    """Refuse the whole plan, before anything runs, if one call is too big."""
    over = [inv.label for inv in p.invocations if inv.footprint > BYTE_BUDGET]
    if over:
        raise BudgetError(
            f"computed footprint over the {BYTE_BUDGET} byte budget: {', '.join(over)}"
        )


def write_mutant(m: Mutant) -> None:
    """Delete the m.layer-th `layer` block of an MQGC1 file, textually."""
    lines = Path(m.source).read_text(encoding="ascii").splitlines()
    starts = [i for i, line in enumerate(lines) if line == "layer"]
    if not 0 <= m.layer < len(starts):
        raise ValueError(f"{m.source} has no layer {m.layer}")
    end = starts[m.layer + 1] if m.layer + 1 < len(starts) else len(lines)
    kept = lines[: starts[m.layer]] + lines[end:]
    Path(m.out).write_text("\n".join(kept) + "\n", encoding="ascii")


def judge(inv: Invocation, exit_code: int, stdout: str) -> bool:
    """The correctness gate: exit code, `report.pass`, counterexample presence.

    It reads nothing else of the report, so report fields may be added or
    renamed without breaking it. An expected failure must carry a
    counterexample; a crash (exit 2, or no JSON) is always a failure.
    """
    if exit_code != inv.expected_exit:
        return False
    try:
        report = json.loads(stdout)["report"]
    except (ValueError, KeyError, TypeError):
        return False
    if not isinstance(report, dict) or report.get("pass") is not inv.expect_pass:
        return False
    return inv.expect_pass or report.get("counterexample") is not None
