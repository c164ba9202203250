"""Self-tests of the benchmark (not part of the project's test suite).

    python3 bench/selftest.py [-v]

They check that the output checker catches a corrupted value and a wrong
tune gamma, that a traced run emits every per-layer metric named in
BENCHMARK.json with root spans covering the traced run time, that an
untraced run emits every end-to-end metric, and that the benchmark refuses
to run without the program's sources.  The traced runs take about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_run", "selftest")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _materialise(workload, k):
    """Output directory holding exactly the reference outputs of input
    set k (what an unmodified program writes)."""
    reference = checks.load_reference(workload)
    ref = reference["sets"][str(k)]
    out = os.path.join(SCRATCH, f"{workload}_{k}")
    shutil.rmtree(out, ignore_errors=True)
    for rel, sha in ref["files"].items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(reference["blobs"][sha])
    return out, ref["inputs"]


def _edit(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text, f"{old!r} not in {path}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(SCRATCH))
    except OSError:
        pass


class CheckerTests(unittest.TestCase):
    def test_reference_outputs_pass(self):
        for workload in ("spectrum", "tune"):
            out, inputs = _materialise(workload, 1)
            report = checks.check(workload, inputs, 0, out)
            self.assertEqual(report.failed, 0, report.failures)
            self.assertEqual(report.identical, report.compared)

    def test_corrupted_value_fails(self):
        out, inputs = _materialise("spectrum", 0)
        path = os.path.join(out, "harmonic_03.csv")
        with open(path, encoding="utf-8") as fh:
            row = fh.read().splitlines()[100]
        mag = row.split(",")[2]
        _edit(path, row, row.replace(mag, repr(float(mag) * (1 + 1e-8))))
        report = checks.check("spectrum", inputs, 0, out)
        self.assertGreater(report.failed / report.attempted, 0)
        self.assertTrue(any("harmonic_03.csv" in f for f in report.failures))
        self.assertLess(report.identical, report.compared)

    def test_last_digit_change_passes_but_is_not_identical(self):
        out, inputs = _materialise("spectrum", 0)
        path = os.path.join(out, "harmonic_01.csv")
        with open(path, encoding="utf-8") as fh:
            row = fh.read().splitlines()[5]
        ph = row.split(",")[3]
        _edit(path, row, row.replace(ph, repr(float(ph) * (1 + 1e-14))))
        report = checks.check("spectrum", inputs, 0, out)
        self.assertEqual(report.failed, 0, report.failures)
        self.assertEqual(report.identical, report.compared - 1)

    def test_wrong_tune_gamma_fails(self):
        out, inputs = _materialise("tune", 0)
        path = os.path.join(out, "tuned.spec")
        with open(path, encoding="utf-8") as fh:
            line = next(l for l in fh if l.startswith("gamma ="))
        gamma = checks.spec_list(line, "gamma")
        wrong = [gamma[0] + 0.01] + gamma[1:]
        _edit(path, line, "gamma = [" + ", ".join(map(repr, wrong)) + "]\n")
        report = checks.check("tune", inputs, 0, out)
        self.assertGreater(report.failed / report.attempted, 0)
        self.assertTrue(any("tuned gamma" in f for f in report.failures))
        self.assertTrue(any("objective" in f for f in report.failures))

    def test_simulation_metric_tolerance(self):
        # 1e-9 relative passes for a simulation metric (1e-8) but not for
        # a frequency-domain number such as kp (1e-10)
        report = checks.Report()
        ref = "e_rms_100nm: 11.87126002735483\nkp: 0.11884651036630796\n"
        self.assertIsNone(checks.text_mismatch(
            report, ref, ref.replace("11.87126002735483", "11.871260039226")))
        self.assertIsNotNone(checks.text_mismatch(
            report, ref, ref.replace("11.87126002735483", "11.87127")))
        self.assertIsNotNone(checks.text_mismatch(
            report, ref, ref.replace("0.11884651036630796", "0.118846510485")))
        self.assertIsNotNone(checks.text_mismatch(
            report, "status: diverged at t = 0.0104 s",
            "status: diverged at t = 0.0105 s"))

    def test_nonzero_exit_fails(self):
        out, inputs = _materialise("spectrum", 2)
        report = checks.check("spectrum", inputs, 3, out)
        self.assertGreater(report.failed, 0)


class HarnessTests(unittest.TestCase):
    def test_benchmark_json_matches_tracer(self):
        spec = _benchmark_json()
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         [tuple(m) for m in PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_traced_runs_emit_every_layer_metric(self):
        names = [m["name"] for m in _benchmark_json()["per_layer"]]
        expected = {
            "reproduce": {"sim.closed_loop_calls": 40, "sim.trajectory_calls": 40,
                          "sim.trajectory_distinct": 4, "sim.csv_calls": 9,
                          "analysis.open_loop_view_calls": 5},
            "tune": {"reset.batch_calls": 4, "synthesis.gamma_points": 37044},
            "validate": {"sim.oracle_calls": 15},
            "spectrum": {"reset.hosidf_points": 5 * 471, "cli.files_written": 7},
        }
        for workload, counts in expected.items():
            with self.subTest(workload=workload):
                proc = _run_bench("--workload", workload, "--seed", "3",
                                  "--seconds", "0", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = _result(proc)
                self.assertTrue(res["correct"], proc.stdout[-3000:])
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                for name, value in counts.items():
                    self.assertEqual(res["metrics"][name]["value"], value, name)
                cover = [float(c) for c in proc.stdout.split(
                    "root spans / traced run_s: ")[1].splitlines()[0].split(",")]
                self.assertTrue(all(0.95 <= c <= 1.0 for c in cover), cover)

    def test_untraced_run_emits_end_to_end_metrics(self):
        proc = _run_bench("--workload", "spectrum", "--seed", "11",
                          "--seconds", "0", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = _result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]),
                         sorted(m["name"] for m in _benchmark_json()["end_to_end"]))
        self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = _run_bench("--workload", "tune", "--seed", "0",
                              "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
