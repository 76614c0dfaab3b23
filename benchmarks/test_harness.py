"""Self-tests of the benchmark harness (stdlib only, a few seconds):

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import unittest

import run

VERIFY = ("verify", "epw2", "--n-max", "6", "--format", "json")


def cli_stdout(argv):
    return subprocess.run(
        run.cli_command(argv), capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
    ).stdout


def printing(text, exit_code=0):
    """A child command that prints `text` verbatim and exits."""
    code = "import sys; sys.stdout.write(%r); sys.exit(%d)" % (text, exit_code)
    return [sys.executable, "-c", code]


class DigestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.text = cli_stdout(VERIFY)
        cls.reference = run.run_child(run.cli_command(VERIFY)).scan.sha.hexdigest()

    def failed(self, text, exit_code=0):
        return run.failed_ops(run.run_child(printing(text, exit_code)), self.reference)

    def test_same_output_passes(self):
        self.assertEqual(self.failed(self.text), 0)

    def test_wall_time_is_left_out_of_the_digest(self):
        retimed = re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 123.456', self.text)
        self.assertNotEqual(retimed, self.text)
        self.assertEqual(self.failed(retimed), 0)

    def test_corrupted_output_counts_as_failed(self):
        # a wrong residual that the report itself still calls a pass
        corrupted = self.text.replace('"actual": "0"', '"actual": "t"', 1)
        self.assertNotEqual(corrupted, self.text)
        self.assertEqual(self.failed(corrupted), 1)

    def test_failed_case_and_not_ok_count(self):
        report = json.loads(self.text)
        suite = report["suites"][0]
        suite["cases"][0]["passed"] = False
        suite["passed"] -= 1
        suite["failed"] += 1
        suite["ok"] = report["ok"] = False
        child = run.run_child(printing(json.dumps(report, indent=2) + "\n"))
        self.assertEqual(child.scan.cases, len(suite["cases"]))
        self.assertTrue(child.scan.not_ok)
        self.assertEqual(run.failed_ops(child, self.reference), 2)

    def test_nonzero_exit_counts_as_failed(self):
        self.assertEqual(self.failed(self.text, exit_code=1), 1)


class ChildTest(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        ballast = bytearray(64 << 20)
        ballast[::4096] = b"x" * len(range(0, len(ballast), 4096))
        del ballast
        child = run.run_child([sys.executable, "-c", "pass"])
        self.assertEqual(child.exit_code, 0)
        self.assertLess(child.rss_mib, 48)

    def test_traced_run_patches_every_binding(self):
        argv = ("poly", "--n", "9", "--format", "json")
        plain = run.run_child(run.cli_command(argv))
        traced = run.run_child(run.cli_command(argv, traced=True))
        self.assertEqual(traced.scan.sha.hexdigest(), plain.scan.sha.hexdigest())
        trace = traced.trace
        # cmd_poly reaches kl_poly only through the name bound in cli
        self.assertEqual(trace["calls"]["klnumbers.kl_poly"], 1)
        self.assertEqual(trace["bindings"]["klnumbers.kl_poly"], 4)
        self.assertEqual(trace["bindings"]["polynomial.mul"], 2)  # __mul__, __rmul__
        self.assertEqual(run.failed_ops(traced, plain.scan.sha.hexdigest(), traced=True), 0)


class DefinitionTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in run.PER_LAYER})
        self.assertEqual([w["name"] for w in spec["workloads"]], sorted(run.SWEEPS))

    def test_every_drawable_invocation_has_a_digest(self):
        digests = json.loads(run.DIGESTS.read_text())
        for workload, sweep in run.SWEEPS.items():
            for argv in sweep + [a for slot in run.query_slots(workload) for a in slot]:
                self.assertIn(" ".join(argv), digests)


if __name__ == "__main__":
    unittest.main()
