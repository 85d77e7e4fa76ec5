"""mqgsim benchmark: CLI workloads timed end to end, and a traced per-layer run.

    python3 bench/run.py --workload verify_file --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload verify_file --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --compare before.jsonl after.jsonl

Run it from the root of a checkout; it uses the sources under `src/`.
With `--trace 0` it runs the CLI the way users do, one child process per
command, one at a time (a closed loop with one client), and reports the
end-to-end metrics. With `--trace 1` it repeats the same invocations
in-process through `mqgsim.cli.main(argv)`, with spans around the calls
into each layer, and reports the per-layer metrics. Either way the last
line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. The line before it holds
the run's metadata and details; `--out FILE` appends both, as one JSON
record per line, to FILE for `--compare`.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, ROOT, Tracer
from workloads import WORKLOADS, check_budget, judge, plan, write_mutant

# What the `mqgsim` console script runs.
ENTRY = "import sys; from mqgsim.cli import main; sys.exit(main())"

SETUP_REPEATS = 5

# Every run must end within 180 s; past this the run stops its child and
# exits with an error instead of printing a result.
DEADLINE_S = 170

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


class Stop(BaseException):
    """Raised by SIGALRM or SIGTERM; a BaseException so no handler in the CLI eats it."""


class SetupError(RuntimeError):
    """A set-up step failed, so the workload cannot be measured."""


@dataclass(frozen=True)
class Outcome:
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


# ---------------------------------------------------------------- metadata


def _git_rev(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines(root: Path) -> dict[str, int]:
    """Line count of each module (a module may later become a package)."""
    pkg = root / "src" / "mqgsim"
    out = {}
    for layer in LAYERS:
        files = [pkg / f"{layer}.py"] if (pkg / f"{layer}.py").is_file() else sorted(
            (pkg / layer).rglob("*.py")
        )
        out[layer] = sum(len(f.read_text().splitlines()) for f in files)
    return out


def metadata(root: Path, workload: str, seed: int, trace: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": _git_rev(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(root),
    }


def tail(values: list[float]) -> dict | None:
    """Highest order statistic with at least ten samples above it."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return {"percentile": round(100 * (i + 1) / len(xs), 1), "value": xs[i]}


# ------------------------------------------------------ end-to-end (children)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    return env


def spawn(args: tuple[str, ...], env: dict, workdir: Path) -> Outcome:
    """Run `python3 <args>` to completion; its own peak RSS comes from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return Outcome(
        os.waitstatus_to_exitcode(status),
        out_path.read_text(),
        err_path.read_text(),
        wall,
        usage.ru_maxrss,
    )


def timed_reference(reference: tuple[str, ...], env: dict, workdir: Path) -> float:
    o = spawn(reference, env, workdir)
    if o.exit != 0:
        raise SetupError(f"reference program failed: exit {o.exit}\n{o.stderr}")
    return o.wall_s


def run_e2e(root: Path, workload: str, seed: int, seconds: int, workdir: Path) -> tuple:
    env = child_env(root)
    p = plan(workload, seed, workdir)
    check_budget(p)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        steps = [("-c", "import mqgsim.cli")] + [("-c", ENTRY, *argv) for argv in p.setup]
        for args in steps:
            o = spawn(args, env, workdir)
            if o.exit != 0:
                raise SetupError(f"{' '.join(args[2:]) or args[1]}: exit {o.exit}\n{o.stderr}")
        for m in p.mutants:
            write_mutant(m)
        setup_times.append(time.perf_counter() - t0)

    reference = (str(BENCH_DIR / "reference.py"),)
    walls, refs, rss, failures = [], [], [], []
    per_inv = {inv.label: {"wall_s": [], "maxrss_kb": 0} for inv in p.invocations}
    refs.append(timed_reference(reference, env, workdir))
    started = time.perf_counter()
    while True:
        wall = 0.0
        pass_rss = 0
        for inv in p.invocations:
            o = spawn(("-c", ENTRY, *inv.argv), env, workdir)
            if not judge(inv, o.exit, o.stdout):
                failures.append({"label": inv.label, "exit": o.exit, "stderr": o.stderr[-2000:]})
            # Interleaved, so the reference sees the same drift as the calls.
            refs.append(timed_reference(reference, env, workdir))
            wall += o.wall_s
            pass_rss = max(pass_rss, o.maxrss_kb)
            per_inv[inv.label]["wall_s"].append(o.wall_s)
            per_inv[inv.label]["maxrss_kb"] = max(per_inv[inv.label]["maxrss_kb"], o.maxrss_kb)
        walls.append(wall)
        rss.append(pass_rss / 1024)
        # Start another pass only if it should end within the run length.
        elapsed = time.perf_counter() - started
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break

    attempted = len(walls) * len(p.invocations)
    metrics = {
        # Means: a run has only 3-8 passes and 7-40 reference runs, and
        # over ten seeds the ratio of means spread less than any median.
        "wall_ratio": (statistics.fmean(walls) / statistics.fmean(refs), "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    detail = {
        "passes": len(walls),
        "invocations_per_pass": len(p.invocations),
        "fail_ratio": len(failures) / attempted,
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "reference_s_samples": refs,
        "peak_rss_mb_samples": rss,
        "setup_s_samples": setup_times,
        "invocations": {
            label: {"wall_s": v["wall_s"], "maxrss_mb": v["maxrss_kb"] / 1024}
            for label, v in per_inv.items()
        },
        "failures": failures,
    }
    return attempted, len(failures), metrics, detail


# ------------------------------------------------------- traced (in-process)


def reset_caches() -> None:
    """Empty mqgsim's lru caches, so each call starts as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "mqgsim" or name.startswith("mqgsim."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def call_main(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    """`mqgsim.cli.main(argv)` with its output captured; a crash exits 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            print(traceback.format_exc(), file=sys.__stderr__)
            code = 2
    return code, out.getvalue()


def inprocess_pass(cli, invocations, tracer: Tracer | None) -> tuple[float, list]:
    failures = []
    t0 = time.perf_counter()
    for inv in invocations:
        reset_caches()
        if tracer is not None:
            tracer.enter(ROOT)
        try:
            code, out = call_main(cli, inv.argv)
        finally:
            if tracer is not None:
                tracer.exit()
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += len(out.encode())
        if not judge(inv, code, out):
            failures.append({"label": inv.label, "exit": code})
    return time.perf_counter() - t0, failures


def import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("mqgsim.cli")
    if Path(cli.__file__).resolve().parent != (root / "src" / "mqgsim").resolve():
        raise SetupError(f"imported mqgsim from {cli.__file__}, not from {root / 'src'}")
    return cli


def run_traced(root: Path, workload: str, seed: int, seconds: int, workdir: Path) -> tuple:
    cli = import_cli(root)
    p = plan(workload, seed, workdir)
    check_budget(p)

    setup = Tracer()
    setup.install()
    try:
        for argv in p.setup:
            reset_caches()
            setup.enter(ROOT)
            try:
                code, _ = call_main(cli, argv)
            finally:
                setup.exit()
            if code != 0:
                raise SetupError(f"{' '.join(argv)}: exit {code}")
    finally:
        setup.uninstall()
    for m in p.mutants:
        write_mutant(m)
    setup_inclusive, _ = setup.totals()

    started = time.perf_counter()
    # An untimed first pass pays the process's one-time costs (numpy's lazy
    # set-up, the first large allocations), so neither timed side does.
    _, failures = inprocess_pass(cli, p.invocations, None)
    plain_walls, traced_walls, samples = [], [], []
    first_spans = None
    while True:
        # Alternate which of the pair goes first, so drift hits both alike.
        order = (False, True) if len(traced_walls) % 2 == 0 else (True, False)
        for traced in order:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                wall, bad = inprocess_pass(cli, p.invocations, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            failures += bad
            if tracer is None:
                plain_walls.append(wall)
                continue
            traced_walls.append(wall)
            m = tracer.layer_metrics()
            m["trace.wall_s"] = wall
            m["trace.unaccounted_s"] = wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
            samples.append(m)
            if first_spans is None:
                first_spans = {
                    "calls": [inv.label for inv in p.invocations],
                    "spans": tracer.span_records(),
                    "count_errors": sorted(tracer.count_errors),
                }
        pair = statistics.mean(plain_walls) + statistics.mean(traced_walls)
        if time.perf_counter() - started + pair > seconds:
            break

    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    values["trace.untraced_wall_s"] = statistics.median(plain_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["circuit.serialize_s"] = setup_inclusive.get("circuit.serialize", 0.0)
    values["setup.synthesis.synth_s"] = setup_inclusive.get("synthesis.synth_mqg_network", 0.0)
    for layer, n in src_lines(root).items():
        values[f"{layer}.src_lines"] = n
    metrics = {k: (v, unit_of(k)) for k, v in sorted(values.items())}
    attempted = (1 + len(plain_walls) + len(traced_walls)) * len(p.invocations)
    detail = {
        "traced_passes": len(traced_walls),
        "untraced_passes": len(plain_walls),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "first_traced_pass": first_spans,
    }
    return attempted, len(failures), metrics, detail


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_bytes" in name:
        return "bytes"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


# ----------------------------------------------------------------- compare


def load_records(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from a file written with --out."""
    out: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                out.setdefault((rec["meta"]["workload"], name), []).append(m["value"])
    return out


def compare(old_path: Path, new_path: Path, spec: dict) -> int:
    """Print per-(workload, metric) median deltas; exit 1 on a flagged regression."""
    old, new = load_records(old_path), load_records(new_path)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print(f"{'workload':<16} {'metric':<30} {'old':>14} {'new':>14} {'delta':>9}")
    for key in sorted(set(old) | set(new)):
        workload, name = key
        if key not in old or key not in new:
            side = "new" if key in new else "old"
            print(f"{workload:<16} {name:<30} only in {side}")
            continue
        a, b = statistics.median(old[key]), statistics.median(new[key])
        rel = (b - a) / abs(a) if a else None
        flag = ""
        if rel is not None and name in bounded:
            worse = rel if better[name] == "lower" else -rel
            if worse > bounded[name]["bound"]:
                flag = f"  REGRESSION (bound {bounded[name]['bound']:.0%})"
                regressions += 1
        shown = "n/a" if rel is None else f"{rel:+.1%}"
        print(f"{workload:<16} {name:<30} {a:>14.6g} {b:>14.6g} {shown:>9}{flag}")
    print(f"{regressions} end-to-end regression(s) beyond the bound")
    return 1 if regressions else 0


# -------------------------------------------------------------------- main


def _stop(signum, frame):
    raise Stop(f"stopped by {signal.Signals(signum).name} (run limit {DEADLINE_S} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append this run's record to FILE (JSON lines)")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)

    if args.compare:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        return compare(*args.compare, spec)
    if args.workload is None:
        ap.error("--workload is required")
    if not (REPO / "src" / "mqgsim" / "cli.py").is_file():
        print(f"error: no mqgsim sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    workdir = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = run_traced if args.trace else run_e2e
    try:
        attempted, failed, metrics, detail = run(REPO, args.workload, args.seed, args.seconds, workdir)
    except (Stop, SetupError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for f in detail["failures"]:
        print(f"failed: {f['label']} (exit {f['exit']})\n{f.get('stderr', '')}", file=sys.stderr)
    meta = metadata(REPO, args.workload, args.seed, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with args.out.open("a") as f:
            f.write(json.dumps({"meta": meta, "detail": detail, "metrics": result["metrics"]}) + "\n")
    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
