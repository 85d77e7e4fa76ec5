"""Checks of the benchmark's own logic; needs no mqgsim and starts no process.

    python3 bench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    BudgetError,
    Mutant,
    Plan,
    check_budget,
    judge,
    nmr_verify,
    plan,
    verify_file,
    verify_network,
    write_mutant,
)


def report(**fields) -> str:
    return json.dumps({"version": "x", "command": "verify", "report": fields})


class GateTest(unittest.TestCase):
    passing = verify_network(5)
    mutant = verify_file(Path("n2-drop3.mqgc"), 2, expect_pass=False)

    def test_expected_verdicts_pass_the_gate(self):
        self.assertTrue(judge(self.passing, 0, report(**{"pass": True, "counterexample": None})))
        cex = {"input": "0", "expected": "1", "actual": "0"}
        self.assertTrue(judge(self.mutant, 1, report(**{"pass": False, "counterexample": cex})))

    def test_wrong_verdict_is_a_failure(self):
        self.assertFalse(judge(self.passing, 0, report(**{"pass": False})))
        self.assertFalse(judge(self.passing, 1, report(**{"pass": False})))
        self.assertFalse(judge(self.mutant, 0, report(**{"pass": True})))

    def test_mutant_without_counterexample_is_a_failure(self):
        self.assertFalse(judge(self.mutant, 1, report(**{"pass": False, "counterexample": None})))
        self.assertFalse(judge(self.mutant, 1, report(**{"pass": False})))

    def test_crash_is_a_failure(self):
        self.assertFalse(judge(self.passing, 2, ""))
        self.assertFalse(judge(self.mutant, 1, "Traceback (most recent call last):\n"))
        self.assertFalse(judge(self.passing, 0, "[]"))

    def test_gate_ignores_other_report_fields(self):
        text = report(**{"pass": True, "trials": None, "states_checked": 0, "stats": {}})
        self.assertTrue(judge(self.passing, 0, text))

    def test_wrong_verdict_is_counted(self):
        class WrongCli:
            @staticmethod
            def main(argv):
                print(report(**{"pass": False, "counterexample": None}))
                return 1

        wall, failures = run.inprocess_pass(WrongCli, (self.passing, self.passing), None)
        self.assertEqual([f["label"] for f in failures], ["verify --n 5"] * 2)


class BudgetTest(unittest.TestCase):
    def test_rows_6_is_refused_before_launch(self):
        with self.assertRaises(BudgetError):
            check_budget(Plan((), (), (nmr_verify("1", 6, seed=0),)))

    def test_every_workload_fits(self):
        for name in WORKLOADS:
            check_budget(plan(name, 0, Path("w")))


class PlanTest(unittest.TestCase):
    def test_seed_changes_inputs_not_sizes(self):
        for name in WORKLOADS:
            a, b = plan(name, 1, Path("w")), plan(name, 2, Path("w"))
            self.assertEqual(a, plan(name, 1, Path("w")))
            self.assertEqual([len(i.argv) for i in a.invocations], [len(i.argv) for i in b.invocations])
            self.assertEqual([i.footprint for i in a.invocations], [i.footprint for i in b.invocations])

    def test_write_mutant_drops_one_layer(self):
        text = "MQGC1\nqubits 3\nrole 0 A0\nrole 1 B1\nrole 2 C1\nlayer\ntoff 0 1 2\nlayer\ntoff 1 2 0\n"
        with tempfile.TemporaryDirectory() as d:
            src, out = Path(d, "a.mqgc"), Path(d, "b.mqgc")
            src.write_text(text)
            write_mutant(Mutant(str(src), 0, str(out)))
            self.assertEqual(out.read_text(), text.replace("layer\ntoff 0 1 2\n", ""))
            write_mutant(Mutant(str(src), 1, str(out)))
            self.assertEqual(out.read_text(), text.replace("layer\ntoff 1 2 0\n", ""))


class CompareTest(unittest.TestCase):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    def records(self, d: str, name: str, wall: float, synth: float) -> Path:
        path = Path(d, name)
        rec = {
            "meta": {"workload": "verify_symbolic"},
            "metrics": {
                "wall_ratio": {"value": wall, "unit": "ratio"},
                "synthesis.synth_s": {"value": synth, "unit": "s"},
            },
        }
        path.write_text(json.dumps(rec) + "\n")
        return path

    def test_flags_only_end_to_end_regressions_beyond_the_bound(self):
        with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
            old = self.records(d, "old", 10.0, 1.0)
            self.assertEqual(run.compare(old, self.records(d, "a", 12.0, 9.0), self.spec), 0)
            self.assertEqual(run.compare(old, self.records(d, "b", 13.0, 1.0), self.spec), 1)


class ReportingTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail([1.0] * 10))
        self.assertEqual(run.tail(list(range(11)))["value"], 0)
        self.assertEqual(run.tail(list(range(20))), {"percentile": 50.0, "value": 9})

    def test_self_times_add_up_to_the_root(self):
        t = Tracer()
        t.enter("cli.main")
        t.enter("sim.run_all")
        t.enter("sim.all_outputs")
        t.exit()
        t.exit()
        t.exit()
        _, self_s = t.totals()
        self.assertAlmostEqual(sum(self_s.values()), t.spans[0].duration, places=12)
        self.assertAlmostEqual(t.layer_metrics()["sim.self_s"], t.spans[1].duration, places=12)


if __name__ == "__main__":
    unittest.main()
