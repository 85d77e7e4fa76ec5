import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mqgsim
from mqgsim import nmr, synthesis
from mqgsim.circuit import mqg_roles
from mqgsim.mqgc import serialize
from mqgsim.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv) when argparse refuses argv."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# Runs main() on each argv in a fresh interpreter; the last stdout line is
# the exit codes and the names of the loaded modules.
_PROBE = """
import json, sys
from mqgsim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(sys.modules)]))
"""


def child(*args, check=True):
    """Runs ``python *args`` on this checkout's sources."""
    src = str(Path(mqgsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120, check=check,
    )


def probe(*argvs):
    done = child("-c", _PROBE, json.dumps(argvs))
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    return codes, set(modules)


def test_option_strings_are_pinned():
    # Every option of every subcommand, as build_parser(argv) builds them,
    # so no knob can appear or linger unnoticed. Each parser gives options
    # only to the subcommand that argv names.
    def options(argv):
        (sub,) = [a for a in build_parser(argv)._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }

    pinned = {
        "synth": ["--n", "--out"],
        "verify": ["--circuit", "--n", "--mode", "--out"],
        "compare": ["--n", "--all-up-to", "--out"],
        # --trials and --seed have no effect; they go once the benchmark
        # stops passing them (ROADMAP item 1).
        "nmr-verify": ["--kind", "--rows", "--boundary", "--trials", "--seed", "--out"],
        "trace": ["--n", "--input", "--format", "--out"],
    }
    for name, strings in pinned.items():
        assert options([name]) == {other: [] for other in pinned} | {name: strings}
    assert options([]) == options(["--help"]) == {name: [] for name in pinned}
    with pytest.raises(SystemExit) as exc:
        main(["nmr-verify", "--tol", "1e-10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=" ".join(argv))
        for argv in [
            ["compare", "--n", "2", "--all"],
            ["trace", "--n", "1", "--inp", "111110000", "--form", "json"],
            ["verify", "--circ", "n1.mqgc"],
            ["--vers"],
        ]
    ],
)
def test_abbreviated_options_are_refused(tmp_path, monkeypatch, capsys, argv):
    # No parser takes a prefix of an option, so a deleted flag that is a
    # prefix of a live one cannot pass for it.
    monkeypatch.chdir(tmp_path)
    main(["synth", "--n", "1", "--out", "n1.mqgc"])
    capsys.readouterr()
    code, stdout, err = refused(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: mqgsim") and "error: " in err


def test_synth_writes_file(tmp_path, capsys):
    out = tmp_path / "n1.mqgc"
    code, _, err = run_cli(capsys, "synth", "--n", "1", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("MQGC1\nqubits 9\n")
    assert text.count("layer") == 8
    assert err == "qubits=9 mqg_count=8 toffoli_count=16\n"


def test_synth_n2_counts(tmp_path, capsys):
    out = tmp_path / "n2.mqgc"
    code, _, err = run_cli(capsys, "synth", "--n", "2", "--out", str(out))
    assert code == 0
    assert "qubits=17" in err and "mqg_count=16" in err


def test_synth_invalid_n(capsys):
    code, _, err = run_cli(capsys, "synth", "--n", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=" ".join(argv))
        for argv in [
            ["synth", "--n", "3"],
            ["verify", "--n", "3"],
            ["compare", "--n", "3"],
            ["verify", "--n", "3", "--mode", "symbolic"],
        ]
    ],
)
def test_over_network_limit_exit_2(capsys, monkeypatch, argv):
    # A small patched limit, so a missing check still allocates little.
    monkeypatch.setattr(synthesis, "NETWORK_LIMIT", 2)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err == "error: n=3 is over the network limit of 2 (33 wires)\n"


def test_circuit_commands_never_import_numpy(tmp_path):
    n1, mutant = tmp_path / "n1.mqgc", tmp_path / "drop.mqgc"
    main(["synth", "--n", "1", "--out", str(n1)])
    mutant.write_text("".join(n1.read_text().splitlines(True)[:-3]))
    codes, modules = probe(
        ["verify", "--n", "1"],
        ["verify", "--n", "1", "--mode", "symbolic"],
        ["verify", "--circuit", str(n1)],
        ["verify", "--circuit", str(mutant)],
        ["trace", "--n", "1", "--input", "111110000"],
        ["synth", "--n", "1", "--out", str(tmp_path / "again.mqgc")],
        ["compare", "--n", "2", "--all-up-to"],
    )
    assert codes == [0, 0, 0, 1, 0, 0, 0]
    # Each command imports only the modules it runs.
    assert {"mqgsim.circuit", "mqgsim.sim"} <= modules
    assert not modules & {"numpy", "dataclasses", "mqgsim.nmr"}
    # The exhaustive check needs no ANF algebra and a file needs no builder;
    # the symbolic check loads gf2, and --n and trace load synthesis.
    codes, modules = probe(["verify", "--circuit", str(n1)], ["verify", "--circuit", str(mutant)])
    assert codes == [0, 1]
    assert "mqgsim.sim" in modules
    assert not modules & {"numpy", "mqgsim.gf2", "mqgsim.synthesis"}
    symbolic = ["--mode", "symbolic"]
    codes, modules = probe(["verify", "--circuit", str(n1), *symbolic],
                           ["verify", "--circuit", str(mutant), *symbolic])
    assert codes == [0, 1]
    assert "mqgsim.gf2" in modules and "mqgsim.synthesis" not in modules
    codes, modules = probe(["verify", "--n", "3"])
    assert codes == [0]
    assert {"mqgsim.gf2", "mqgsim.synthesis"} <= modules
    codes, modules = probe(["trace", "--n", "1", "--input", "111110000"])
    assert codes == [0] and "mqgsim.synthesis" in modules


def test_only_nmr_imports_numpy():
    # No module in src/ imports numpy, anywhere in the module: function-local
    # and TYPE_CHECKING imports count too.
    importers = set()
    for path in Path(mqgsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_nmr_verify_in_fresh_interpreter():
    codes, modules = probe(["nmr-verify", "--kind", "1", "--rows", "2", "--seed", "5"])
    assert codes == [0]
    assert "mqgsim.nmr" in modules
    assert not modules & {
        "numpy",
        "dataclasses",
        "mqgsim.circuit",
        "mqgsim.sim",
        "mqgsim.gf2",
        "mqgsim.synthesis",
    }


def package_modules(*argv):
    """The mqgsim modules that one passing command loads in a fresh interpreter."""
    codes, modules = probe(list(argv))
    assert codes == [0]
    return {m for m in modules if m.startswith("mqgsim.")}


def test_each_command_loads_only_its_own_modules(tmp_path):
    # The file format, the ANF engine, the stage check and the V-chain each
    # load only for the commands that run them.
    mqgc, stages, baseline = "mqgsim.mqgc", "mqgsim.stages", "mqgsim.baseline"
    symbolic = "mqgsim.symbolic"
    n1 = tmp_path / "n1.mqgc"
    assert package_modules("synth", "--n", "1", "--out", str(n1)) & {mqgc, stages, baseline} == {mqgc}
    assert not package_modules("verify", "--n", "3") & {mqgc, stages, baseline}
    exhaustive = package_modules("verify", "--circuit", str(n1))
    assert mqgc in exhaustive
    assert not exhaustive & {"mqgsim.gf2", symbolic, stages, baseline, "mqgsim.synthesis"}
    assert symbolic in package_modules("verify", "--circuit", str(n1), "--mode", "symbolic")
    # trace runs the gate pass from circuit, so it loads neither backend.
    trace = package_modules("trace", "--n", "1", "--input", "111110000")
    assert stages in trace
    assert not trace & {"mqgsim.sim", symbolic, "mqgsim.gf2", mqgc, baseline}
    compare = package_modules("compare", "--n", "2", "--all-up-to")
    assert compare & {mqgc, stages, baseline} == {baseline}
    nmr_verify = package_modules("nmr-verify", "--kind", "1", "--rows", "2", "--seed", "5")
    assert not nmr_verify & {mqgc, stages, baseline}
    # Importing the CLI loads neither argparse nor json, and synth, which
    # writes no report, never loads json.
    done = child("-c", "import sys, mqgsim.cli; print({'argparse', 'json'} & set(sys.modules))")
    assert done.stdout == "set()\n"
    done = child(
        "-c", "import sys; from mqgsim.cli import main; main(sys.argv[1:]); print('json' in sys.modules)",
        "synth", "--n", "1", "--out", str(tmp_path / "again.mqgc"),
    )
    assert done.stdout == "False\n"
    # The ANF algebra stands alone.
    done = child("-c", "import json, sys, mqgsim.gf2; print(json.dumps(sorted(sys.modules)))")
    loaded = {m for m in json.loads(done.stdout) if m.startswith("mqgsim")}
    assert loaded == {"mqgsim", "mqgsim.gf2"}


def test_verify_exhaustive_pass(tmp_path, capsys):
    out = tmp_path / "c.mqgc"
    run_cli(capsys, "synth", "--n", "1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["report"]["mode"] == "exhaustive"
    assert payload["report"]["qubits"] == 9
    assert payload["report"]["pass"] is True
    assert payload["version"]
    assert payload["config"]["mode"] == "auto"


def test_verify_mutated_file_fails(tmp_path, capsys):
    out = tmp_path / "c.mqgc"
    run_cli(capsys, "synth", "--n", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    # drop the last layer (header line + its two gates)
    del lines[-3:]
    out.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out))
    assert code == 1
    payload = json.loads(stdout)
    assert payload["report"]["pass"] is False
    cex = payload["report"]["counterexample"]
    assert set(cex) == {"input", "expected", "actual"}
    assert len(cex["input"]) == 9


def test_verify_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mqgc"
    bad.write_text("MQGC1\nqubits 2\nrole 0 A0\nrole 1 B1\nlayer\ntoff 0 0 1\n")
    code, _, err = run_cli(capsys, "verify", "--circuit", str(bad))
    assert code == 2
    assert "line 6" in err


@pytest.mark.parametrize("n,line", [(2, 4), (2, 99), (5, 4355)])
def test_verify_non_utf8_file_exit_2(tmp_path, capsys, n, line):
    # A byte that is not UTF-8 is a parse error at its own line, with no
    # report; the n=5 file is longer than one read of the file.
    lines = "".join(serialize(synthesis.synth_mqg_network(n), mqg_roles(n))).encode()
    lines = lines.splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:-1] + b"\xff\n"
    bad = tmp_path / "bad.mqgc"
    bad.write_bytes(b"".join(lines))
    code, stdout, err = run_cli(capsys, "verify", "--circuit", str(bad))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: line {line}: 'utf-8' codec can't decode byte 0xff in position ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "old,new,count,message",
    [
        ("\n", "\r\n", -1, "line 1: expected header 'MQGC1'"),
        ("toff 0 2 3\n", "toff 0 2\r3\n", 1, "line 21: unexpected line 'toff 0 2\\r3'"),
    ],
    ids=["crlf", "lone-cr"],
)
def test_verify_refuses_cr_in_file(tmp_path, capsys, old, new, count, message):
    # The file is read in binary, so a CR reaches the parser and is refused
    # at its own line: a CRLF copy of a network file does not pass.
    text = "".join(serialize(synthesis.synth_mqg_network(2), mqg_roles(2)))
    bad = tmp_path / "bad.mqgc"
    bad.write_bytes(text.replace(old, new, count).encode())
    code, stdout, err = run_cli(capsys, "verify", "--circuit", str(bad))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "line,text,message",
    [
        (4, "role " + "1" * 5000 + " B1", "expected 'role <index> <label>', got 'role 111"),
        (4, "role " + "1" * 4300 + " B1", "role index 111"),
        (3, "role 0 " + "X" * 5000, "bad qubit label 'XXX"),
        (13, "toff 0 1 " + "2" * 5000, "unexpected line 'toff 0 1 222"),
        (13, "toff 0 1 " + "9" * 4300, "layer 0 gate 0: gate (0, 1, 999"),
        (13, "toff 0 " + "9" * 4300 + " " + "9" * 4300, "layer 0 gate 0: gate (0, 999"),
    ],
    ids=["role-line", "role-index", "label", "toff-line", "wire", "repeated-wire"],
)
def test_parse_errors_clip_long_tokens(tmp_path, capsys, line, text, message):
    # Each message keeps its line number and hint but echoes only a prefix.
    lines = "".join(serialize(synthesis.synth_mqg_network(1), mqg_roles(1))).split("\n")
    lines[line - 1] = text
    bad = tmp_path / "bad.mqgc"
    bad.write_text("\n".join(lines))
    code, stdout, err = run_cli(capsys, "verify", "--circuit", str(bad))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: line {line}: {message}")
    assert "..." in err and len(err.encode()) < 300


def test_verify_over_exhaustive_limit_names_the_flag(tmp_path, capsys):
    n5 = tmp_path / "n5.mqgc"
    assert main(["synth", "--n", "5", "--out", str(n5)]) == 0
    code, stdout, err = run_cli(capsys, "verify", "--circuit", str(n5), "--mode", "exhaustive")
    assert code == 2
    assert stdout == ""
    assert "--mode symbolic" in err


def test_verify_symbolic_n3(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--n", "3", "--mode", "auto")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["report"]["mode"] == "symbolic"
    assert payload["report"]["pass"] is True
    # Equal ANFs prove all 2^33 inputs of the 33-wire network.
    assert payload["report"]["qubits"] == 33


def test_verify_report_shape_same_in_both_modes(tmp_path, capsys):
    out = tmp_path / "c.mqgc"
    run_cli(capsys, "synth", "--n", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    del lines[-3:]
    out.write_text("\n".join(lines) + "\n")
    reports = {}
    for mode in ("exhaustive", "symbolic"):
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out), "--mode", mode)
        assert code == 1
        reports[mode] = json.loads(stdout)["report"]
    for mode, rep in reports.items():
        assert set(rep) == {"mode", "qubits", "pass", "counterexample"}
        assert (rep["mode"], rep["qubits"], rep["pass"]) == (mode, 9, False)
    assert set(reports["symbolic"]["counterexample"]) == {"wire", "expected", "actual"}


def test_verify_n12_layout_reports_its_verdict(tmp_path, capsys):
    # 16385 wires and no layers: the target wire A4096 never flips. 2^M has
    # more than the 4300 digits json.dumps prints, so the report holds M.
    roles = mqg_roles(12)
    lines = ["MQGC1", f"qubits {len(roles)}"]
    lines += [f"role {i} {label}" for i, label in enumerate(roles)]
    bare = tmp_path / "n12-bare.mqgc"
    bare.write_text("\n".join(lines) + "\n")
    code, stdout, err = run_cli(capsys, "verify", "--circuit", str(bare))
    assert (code, err) == (1, "")
    report = json.loads(stdout)["report"]
    assert (report["mode"], report["qubits"], report["pass"]) == ("symbolic", 16385, False)
    assert report["counterexample"]["wire"] == "A4096"


def test_compare_rows(capsys):
    code, stdout, _ = run_cli(capsys, "compare", "--n", "3", "--all-up-to")
    assert code == 0
    rows = json.loads(stdout)["report"]["rows"]
    assert [r["proposed_units"] for r in rows] == [8, 16, 32]
    assert [r["baseline_units"] for r in rows] == [12, 28, 60]


@pytest.mark.parametrize(
    "argv", [["--n", "0"], ["--n", "0", "--all-up-to"], ["--n", "-1", "--all-up-to"]]
)
def test_compare_rejects_n_below_1(capsys, argv):
    code, stdout, err = run_cli(capsys, "compare", *argv)
    assert code == 2
    assert stdout == ""
    assert err == f"error: need n >= 1, got {argv[1]}\n"


def test_nmr_verify_all_kinds(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "nmr-verify", "--kind", "all", "--rows", "2",
        "--boundary", "periodic", "--seed", "7",
    )
    assert code == 0
    report = json.loads(stdout)["report"]
    assert report["pass"] is True
    assert len(report["identities"]) == 6
    assert [i["target_coupling"] for i in report["identities"]] == list("abcdef")


def test_nmr_verify_rows_3(capsys):
    code, stdout, _ = run_cli(
        capsys, "nmr-verify", "--kind", "all", "--rows", "3", "--seed", "7"
    )
    assert code == 0
    assert json.loads(stdout)["report"]["pass"] is True


@pytest.mark.parametrize(
    "argv,digest",
    [
        pytest.param(argv, digest, id=argv)
        for argv, digest in [
            ("--kind all --rows 2 --seed 7",
             "ad6eba39ee22e32ff5f1ab0f306c9508a0f15ec8f55af16f9fb797c3a0f85dc1"),
            # The odd ring: kinds 3 and 6 report matches_published false.
            ("--kind all --rows 3 --seed 7",
             "9037ab93810ede8eba26c48443fdf07dba46779df47eb078c5b346593eae7768"),
            ("--kind all --rows 3 --boundary open --seed 7",
             "e43be1c0d230ddd65d12a2939cea6275a154fdbb8e9bf84fdd1c6b77a299f6f6"),
            ("--kind 4 --rows 2",
             "4c70579c457787976352f6cb504b937d2fac86fd5288d36aa7789baeb810846e"),
            ("--kind all --rows 4",
             "b9831db3afd5674100814bc16d6155066f3af1bfbc2fbb70258fa5f957d73e28"),
        ]
    ],
)
def test_nmr_verify_report_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the whole stdout; any change to the report's bytes shows
    # here. Each case's id is its command line, so a re-pin keeps the id.
    code, stdout, err = run_cli(capsys, "nmr-verify", *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_nmr_verify_byte_identical_given_seed(capsys):
    args = ["nmr-verify", "--kind", "1", "--rows", "2", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_nmr_verify_explicit_couplings(capsys):
    # The verdict reads no coupling strength, so --couplings is gone and
    # the report names none.
    code, stdout, err = refused(
        capsys, "nmr-verify", "--kind", "4", "--rows", "2",
        "--couplings", "1", "0.5", "0.25", "2", "1.5", "0.75",
    )
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --couplings" in err
    code, stdout, _ = run_cli(
        capsys, "nmr-verify", "--kind", "4", "--rows", "2", "--trials", "5", "--seed", "1"
    )
    assert code == 0
    identity = json.loads(stdout)["report"]["identities"][0]
    assert identity["pass"] is True and identity["counterexample"] is None
    assert not {"couplings", "t", "max_deviation", "trials", "seed", "min_fidelity",
                "passed"} & identity.keys()


def test_nmr_verify_trials_has_no_effect(capsys):
    args = ["nmr-verify", "--kind", "2", "--rows", "2", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args, "--trials", "2")
    assert json.loads(out1)["report"] == json.loads(out2)["report"]


def test_nmr_verify_over_spin_limit(capsys, monkeypatch):
    # Checked when the lattice is made, before any term is built.
    monkeypatch.setattr(nmr, "ROW_LIMIT", 2)
    monkeypatch.setattr(nmr, "build_hamiltonian", None)
    code, stdout, err = run_cli(capsys, "nmr-verify", "--kind", "1", "--rows", "3")
    assert code == 2
    assert stdout == ""
    assert err == "error: 3 rows is over the limit of 2\n"


def test_nmr_verify_long_time(capsys):
    # The dense check reported false failures at --t 1e5; the verdict reads
    # no time, so --t is gone.
    code, stdout, err = refused(capsys, "nmr-verify", "--kind", "all", "--rows", "4", "--t", "1e5")
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --t 1e5" in err
    code, stdout, _ = run_cli(capsys, "nmr-verify", "--kind", "all", "--rows", "4")
    assert code == 0
    payload = json.loads(stdout)
    assert "t" not in payload["config"]
    assert all(i["pass"] and "max_deviation" not in i for i in payload["report"]["identities"])


def test_nmr_verify_without_numpy():
    # A fresh interpreter in which `import numpy` fails.
    done = child(
        "-c",
        "import sys; sys.modules['numpy'] = None; from mqgsim.cli import main; "
        "sys.exit(main(sys.argv[1:]))",
        "nmr-verify", "--kind", "all", "--rows", "64",
    )
    assert json.loads(done.stdout)["report"]["pass"] is True


def test_nmr_verify_seed_draws_couplings(capsys):
    # --seed draws nothing: any seed, a negative one too, gives the same
    # report, and the config echoes it.
    runs = [run_cli(capsys, "nmr-verify", "--kind", "1", "--seed", seed) for seed in "05"]
    runs.append(run_cli(capsys, "nmr-verify", "--kind", "1", "--seed=-1"))
    assert [code for code, _, _ in runs] == [0, 0, 0]
    payloads = [json.loads(stdout) for _, stdout, _ in runs]
    assert [p["config"]["seed"] for p in payloads] == [0, 5, -1]
    assert all(p["report"] == payloads[0]["report"] for p in payloads)
    assert "couplings" not in payloads[0]["report"]["identities"][0]


def test_nmr_verify_overflow_fails_without_warnings():
    # A fresh interpreter, so pytest's own warning capture cannot hide any:
    # the deleted --couplings is refused with the usage line and one error.
    done = child(
        "-W", "error", "-m", "mqgsim.cli", "nmr-verify", "--rows", "2",
        "--couplings", "1e308", "1", "1", "1", "1", "1",
        check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert done.stderr.endswith("error: unrecognized arguments: --couplings 1e308 1 1 1 1 1\n")
    assert done.stderr.count("\n") == 2  # usage and error, no warnings


@pytest.mark.parametrize(
    "argv",
    [
        ["--couplings", "1e308", "1", "1", "1", "1", "1", "--kind", "1", "--t", "4"],
        ["--t", "1e308", "--kind", "all"],
        ["--couplings", *["1e-300"] * 6, "--t", "1e308"],
    ],
)
def test_nmr_verify_overflow_is_a_usage_error(capsys, argv):
    # --couplings and --t are deleted flags, refused before any run.
    code, stdout, err = refused(capsys, "nmr-verify", "--rows", "2", *argv)
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments" in err


def test_nmr_verify_never_prints_nan(capsys, monkeypatch):
    # A walk with no integer total fails the pair, and stdout stays strict
    # JSON: the missing total is null.
    monkeypatch.setattr(nmr, "pair_sign_total", lambda groups, ci, cj: None)
    code, stdout, err = run_cli(capsys, "nmr-verify", "--kind", "1")
    assert (code, err) == (1, "")
    strict = json.loads(stdout, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    (identity,) = strict["report"]["identities"]
    assert identity["counterexample"] == {"pair": "A1-C1", "u": None, "total": 4}
    assert '"u": null' in stdout


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=" ".join(argv))
        for argv in [
            ["verify", "--n", "2"],
            ["verify", "--n", "3"],
            ["verify", "--circuit", "drop.mqgc"],
            ["compare", "--n", "3", "--all-up-to"],
            ["trace", "--n", "1", "--input", "111110000", "--format", "json"],
            ["nmr-verify", "--kind", "all", "--rows", "3"],
        ]
    ],
)
def test_stdout_is_strict_json(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    main(["synth", "--n", "1", "--out", "n1.mqgc"])
    Path("drop.mqgc").write_text("".join(Path("n1.mqgc").read_text().splitlines(True)[:-3]))
    code, stdout, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    strict = json.loads(stdout, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert strict["command"] == argv[0]


def test_nmr_verify_bad_flags(capsys):
    code, _, err = run_cli(capsys, "nmr-verify", "--rows", "1")
    assert code == 2
    assert err == "error: need at least 2 rows, got 1\n"
    code, _, err = refused(capsys, "nmr-verify", "--couplings", "nan", "1", "1", "1", "1", "1")
    assert code == 2 and "unrecognized arguments: --couplings nan" in err


@pytest.mark.parametrize("flag,value", [("--t", "-0.7")])
def test_nmr_verify_rejects_negative(capsys, flag, value):
    # --t is gone, so any value of it is refused.
    code, stdout, err = refused(capsys, "nmr-verify", "--kind", "1", f"{flag}={value}")
    assert code == 2
    assert stdout == ""
    assert f"unrecognized arguments: {flag}={value}" in err


def test_trace_text_output(capsys):
    code, stdout, _ = run_cli(capsys, "trace", "--n", "1", "--input", "111110000")
    assert code == 0
    assert "MISMATCH" not in stdout
    assert stdout.count("ok") == 4


def test_trace_text_out_writes_the_file(tmp_path, capsys):
    _, table, _ = run_cli(capsys, "trace", "--n", "1", "--input", "111110000")
    out = tmp_path / "t.txt"
    code, stdout, err = run_cli(
        capsys, "trace", "--n", "1", "--input", "111110000", "--out", str(out)
    )
    assert (code, stdout, err) == (0, "", "")
    assert out.read_text(encoding="utf-8") == table


# Runs main() on argv in a fresh interpreter and prints its exit code and
# its own peak RSS in KiB: VmHWM, which starts afresh at exec. A child's
# ru_maxrss would start at the forking process's peak instead.
_PEAK = """
import sys
from mqgsim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, hwm)
"""


def peak_run(*argv):
    """(exit code, peak RSS in KiB, wall seconds) of main(argv) in a fresh interpreter."""
    start = time.perf_counter()
    done = child("-c", _PEAK, *argv)
    code, peak_kib = map(int, done.stdout.split())
    return code, peak_kib, time.perf_counter() - start


def test_trace_n7_peak_memory(tmp_path):
    # 513 wires, 512 stage boundaries of 128 rows, one input state.
    bits = "01" * 256 + "1"
    code, peak_kib, _ = peak_run(
        "trace", "--n", "7", "--input", bits,
        "--format", "json", "--out", str(tmp_path / "t.json"),
    )
    assert code == 0
    assert json.loads((tmp_path / "t.json").read_text())["report"]["pass"] is True
    assert peak_kib < 200 * 1024


def test_verify_n9_scale(tmp_path):
    # 2049 wires and 2^20 gates; squaring the repeated layer pair takes
    # about 0.5 s and 20 MB, where a run of every gate took about 41 s.
    out = tmp_path / "v.json"
    code, peak_kib, wall_s = peak_run("verify", "--n", "9", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["report"]["pass"] is True
    assert wall_s < 20
    assert peak_kib < 100 * 1024


def test_nmr_verify_1024_rows_peak_memory(tmp_path):
    # The report counts the terms instead of listing them, so its size
    # does not grow with --rows.
    out = tmp_path / "n.json"
    code, peak_kib, _ = peak_run(
        "nmr-verify", "--kind", "all", "--rows", "1024", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["pass"] is True
    assert [i["terms_checked"] for i in report["identities"]] == [6 * 1024] * 6
    assert out.stat().st_size < 8 * 1024
    assert peak_kib < 30 * 1024


# Runs main() on argv in a fresh interpreter whose address space is capped
# at 256 MiB, and prints its exit code. A child's ru_maxrss starts at the
# forking process's peak, so the cap, not ru_maxrss, bounds what it built.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from mqgsim.cli import main
print(main(sys.argv[1:]))
"""


def test_trace_over_trace_limit_builds_nothing():
    # Refused before synthesis: n = 10 would hold about 2.2 GB of records.
    done = child("-c", _CAPPED, "trace", "--n", "10", "--input", "0" * 4097, check=False)
    assert done.stdout == "2\n"
    assert done.stderr == "error: n=10 is over the trace limit of 8 (1048576 stage records)\n"
    done = child("-c", _CAPPED, "trace", "--n", "8", "--input", "0" * 1025)
    assert done.stdout.endswith("0\n")


def test_trace_json_all_zero_input(capsys):
    code, stdout, _ = run_cli(
        capsys, "trace", "--n", "1", "--input", "0" * 9, "--format", "json"
    )
    assert code == 0
    blocks = json.loads(stdout)["report"]["blocks"]
    assert all(b["A"] == 0 and b["Z"] == 0 and b["D"] == 0 for b in blocks)


def test_trace_bad_width(capsys):
    code, _, err = run_cli(capsys, "trace", "--n", "1", "--input", "101")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
