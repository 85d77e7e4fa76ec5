"""Command-line front end: synth, verify, compare, nmr-verify, trace.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse error.
Nothing in the package is random, so identical invocations produce
byte-identical JSON. Each subcommand imports the modules it runs when it
runs, so a circuit command never loads the NMR module and nmr-verify
never loads the circuit stack. The file format (``mqgc``) loads only for
``verify --circuit`` and ``synth``, the ANF engine (``symbolic``) only for
a symbolic ``verify``, the stage check (``stages``) only for ``trace`` and
the V-chain (``baseline``) only for ``compare``. Importing this module
loads neither argparse nor json: ``build_parser`` loads argparse and gives
options only to the subcommand a call names, and ``_emit`` loads json, so
``synth`` never does.
"""
from __future__ import annotations

import sys

from . import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest n that `trace` runs. It holds all 4^n Stage records and, for
# --format json, their dicts and the whole text: about 2 kB per record, so
# n = 8 peaks at 149 MB RSS and n = 9 at 550 MB.
TRACE_LIMIT = 8


def _write(chunks, args) -> None:
    """Write the strings ``chunks`` to ``--out`` when it is given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(payload: dict, args) -> None:
    import json

    _write([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"], args)


def _payload(args, command: str, report: dict) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "report": report,
    }


def _report(report) -> dict:
    rep = report._asdict()
    rep["pass"] = rep.pop("passed")
    return rep


def cmd_synth(args) -> int:
    from .circuit import metrics, mqg_roles
    from .mqgc import serialize
    from .synthesis import synth_mqg_network

    circuit = synth_mqg_network(args.n)
    _write(serialize(circuit, mqg_roles(args.n)), args)
    m = metrics(circuit)
    print(
        f"qubits={m.qubit_count} mqg_count={m.mqg_count} "
        f"toffoli_count={m.toffoli_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .circuit import control_target_masks, mqg_roles, network_n
    from .sim import EXHAUSTIVE_LIMIT, McxOracle, run_all

    if args.circuit:
        from .mqgc import parse

        with open(args.circuit, "rb") as f:
            circuit, roles = parse(f)
    else:
        from .synthesis import synth_mqg_network

        circuit = synth_mqg_network(args.n)
        roles = mqg_roles(args.n)
    oracle = McxOracle(*control_target_masks(network_n(roles)))

    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if circuit.num_qubits <= EXHAUSTIVE_LIMIT else "symbolic"
    if mode == "exhaustive":
        report = run_all(circuit, oracle)
    else:
        from .symbolic import check_anf, run_anf

        report = check_anf(run_anf(circuit), oracle, roles)
    _emit(_payload(args, "verify", _report(report)), args)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_compare(args) -> int:
    from .baseline import table1_compare

    if args.n < 1:
        raise ValueError(f"need n >= 1, got {args.n}")
    ns = range(1, args.n + 1) if args.all_up_to else [args.n]
    rows = [{"n": n, **table1_compare(n)._asdict()} for n in ns]
    _emit(_payload(args, "compare", {"rows": rows}), args)
    return EXIT_OK


def cmd_nmr_verify(args) -> int:
    from .nmr import LatticeConfig, verify_identity

    kinds = range(1, 7) if args.kind == "all" else [int(args.kind)]
    cfg = LatticeConfig(rows=args.rows, boundary=args.boundary)
    reports = [_report(verify_identity(kind, cfg)) for kind in kinds]
    all_pass = all(r["pass"] for r in reports)
    _emit(_payload(args, "nmr-verify", {"pass": all_pass, "identities": reports}), args)
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_trace(args) -> int:
    n = args.n
    if n > TRACE_LIMIT:
        raise ValueError(f"n={n} is over the trace limit of {TRACE_LIMIT} ({4**n} stage records)")
    from .circuit import CircuitError, mqg_roles
    from .stages import check_stages

    width = len(mqg_roles(n))  # refuses n < 1 before the width
    if len(args.input) != width or set(args.input) - {"0", "1"}:
        raise CircuitError(f"--input must be {width} chars of 0/1 in flat-index order")
    stages = check_stages(n, [int(ch) for ch in args.input])
    all_match = all(st.match for st in stages)
    if args.format == "json":
        blocks = [dict(st._asdict(), match=st.match) for st in stages]
        _emit(_payload(args, "trace", {"pass": all_match, "blocks": blocks}), args)
    else:
        lines = [
            f"input {args.input} (word {int(args.input[::-1], 2)})",
            "  l  k  A sim/orc  Z sim/orc  D sim/orc  match",
        ]
        lines += [
            f"  {st.l}  {st.k}    {st.A} / {st.A_oracle}      "
            f"{st.Z} / {st.Z_oracle}      {st.D} / {'-' if st.D_oracle is None else st.D_oracle}"
            f"     {'ok' if st.match else 'MISMATCH'}"
            for st in stages
        ]
        _write(["\n".join(lines) + "\n"], args)
    return EXIT_OK if all_match else EXIT_FAIL


def _synth_options(p) -> None:
    p.add_argument("--n", type=int, required=True)


def _verify_options(p) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit", type=str, help="MQGC1 file to verify")
    src.add_argument("--n", type=int, help="synthesize and verify the n-network")
    p.add_argument("--mode", choices=("auto", "exhaustive", "symbolic"), default="auto")


def _compare_options(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-up-to", action="store_true", help="emit rows for 1..n")


def _nmr_verify_options(p) -> None:
    p.add_argument("--kind", default="all", choices=["all", "1", "2", "3", "4", "5", "6"])
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--trials", type=int, default=20, help="no effect; every term is checked")
    p.add_argument("--seed", type=int, default=0, help="no effect; the verdict reads no draw")


def _trace_options(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", type=str, required=True, help="bits, flat-index order")
    p.add_argument("--format", choices=("text", "json"), default="text")


# (name, help, add-options function, handler) of each subcommand, in help order.
_COMMANDS = (
    ("synth", "write the n-network in MQGC1 format", _synth_options, cmd_synth),
    ("verify", "check a circuit against the output law", _verify_options, cmd_verify),
    ("compare", "unit-count comparison row(s)", _compare_options, cmd_compare),
    ("nmr-verify", "check the six refocusing identities", _nmr_verify_options, cmd_nmr_verify),
    ("trace", "block-boundary wire values vs the oracle", _trace_options, cmd_trace),
)


def build_parser(argv):
    """The parser for ``argv``. Every subcommand is registered with its help,
    but only the one ``argv[0]`` names gets its options, ``--out`` last, so
    a call builds one subcommand's options. No parser takes abbreviated options, so a
    deleted flag that is a prefix of a live one is refused, not taken for it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="mqgsim",
        description="Synthesize and verify layered Toffoli networks and their "
        "NMR refocusing schedules.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"mqgsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    chosen = argv[0] if argv else None
    for name, summary, add_options, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if name == chosen:
            add_options(p)
            p.add_argument("--out", type=str, default=None)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
