"""resetloop benchmark.

    python3 bench/run.py --workload {reproduce,tune,validate,spectrum,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Each iteration is a fresh interpreter (child.py) that sets up, runs the
workload once and checks the outputs against ``reference/``.  Iterations
repeat, one at a time, until S seconds have passed (at least
MIN_ITERATIONS).  With --trace 0 the result holds the end-to-end metrics
(medians over the iterations); with --trace 1 it alternates untraced and
traced iterations and reports the per-layer metrics.  The last stdout line
is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import machine  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

#: (name, unit) of the end-to-end metrics
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
MIN_ITERATIONS = 3
#: set-up is sampled at least this often per run (extra set-up-only
#: interpreters when the workload itself ran fewer times)
MIN_SETUPS = 5
#: an iteration that takes longer counts as a crash; no iteration starts
#: after MAX_LOOP_S, so a run ends well within three minutes
CHILD_TIMEOUT_S = 60.0
MAX_LOOP_S = 90.0


class Runner:
    """Starts one child interpreter at a time inside a private work
    directory of the checkout, and removes what each one wrote."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.count = 0
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")

    def child(self, workload, inputs, trace=False, spans_path=None):
        """Record of one iteration, or None if the child crashed."""
        self.count += 1
        out_dir = os.path.join(self.work_dir, f"out{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
               json.dumps(inputs), out_dir, "1" if trace else "0"]
        if spans_path:
            cmd.append(spans_path)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"# {workload}: iteration timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            if os.path.exists(out_dir + ".spec"):  # spectrum's input file
                os.remove(out_dir + ".spec")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {workload}: iteration exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"# {workload}: unreadable record {lines[-1][:200]!r}",
                  file=sys.stderr)
            return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _checks(records, crashed):
    attempted = sum(r["check"]["attempted"] for r in records) + crashed
    failed = sum(r["check"]["failed"] for r in records) + crashed
    failures = [f for r in records for f in r["check"]["failures"]]
    return attempted, failed, failures


def measure(runner, workload, seed, seconds, trace):
    """Iterate one workload for `seconds`; returns (result dict, notes)."""
    inputs = workloads.make_inputs(workload, seed)
    runner.child("setup", {})  # warm-up (page cache, bytecode); not counted
    plain, traced, crashed = [], [], 0
    spans_path = None
    if trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".bench_out", f"spans_{workload}.json")
    min_iterations = 1 if trace else MIN_ITERATIONS
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and
                                     len(plain) + crashed >= min_iterations):
            break
        for is_traced in ((False, True) if trace else (False,)):
            rec = runner.child(workload, inputs, is_traced, spans_path)
            if rec is None:
                crashed += 1
            else:
                (traced if is_traced else plain).append(rec)
    records = plain + traced
    attempted, failed, failures = _checks(records, crashed)
    notes = {"inputs": inputs, "iterations": len(plain),
             "traced_iterations": len(traced), "crashed": crashed,
             "failures": failures[:10]}
    if records:
        notes["machine"] = records[-1]["machine"]
    run_s = [r["run_s"] for r in plain]
    if trace:
        metrics = {name: _median([r["layers"][name] for r in traced])
                   for name, _unit, _better in PER_LAYER
                   if not name.startswith(("trace.", "check."))}
        traced_run = _median([r["run_s"] for r in traced])
        metrics["trace.overhead_ratio"] = (traced_run / _median(run_s)
                                           if run_s else 0.0)
        metrics["check.max_rel_dev"] = max(
            (r["check"]["max_rel_dev"] for r in records), default=0.0)
        compared = sum(r["check"]["compared"] for r in records)
        metrics["check.files_identical"] = (
            sum(r["check"]["identical"] for r in records) / compared
            if compared else 0.0)
        notes["root_span_coverage"] = [r["root_span_s"] / r["run_s"]
                                       for r in traced]
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            rec = runner.child("setup", {})
            if rec is None:
                crashed += 1
                attempted += 1
                failed += 1
                break
            setups.append(rec["setup_s"])
        metrics = {"setup_s": _median(setups), "run_s": _median(run_s),
                   "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain])}
        notes["setup_samples"] = len(setups)
        units = dict(END_TO_END)
    notes["run_s_samples"] = run_s
    result = {"correct": bool(records) and failed == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, notes


def _print_summary(workload, seed, result, notes):
    print(f"# {workload}: seed {seed} -> inputs {json.dumps(notes['inputs'])[:160]}")
    print(f"#   {notes['iterations']} untraced and "
          f"{notes['traced_iterations']} traced iteration(s), "
          f"{notes['crashed']} crashed")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    print("#   run_s samples: " + ", ".join(f"{v:.4g}" for v in notes["run_s_samples"]))
    ratio = result["failed"] / result["attempted"]
    print(f"#   {'check_fail_ratio':40s} {ratio:.6g} "
          f"({result['failed']}/{result['attempted']} output checks failed)")
    for failure in notes["failures"]:
        print(f"#   FAILED: {failure}")
    if "root_span_coverage" in notes:
        cov = ", ".join(f"{c:.4f}" for c in notes["root_span_coverage"])
        print(f"#   root spans / traced run_s: {cov}")


def _terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv=None):
    parser = argparse.ArgumentParser(description="resetloop benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resetloop", "cli.py")):
        print(f"no resetloop sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)  # so children get killed too

    print("# machine " + json.dumps(machine.host_record()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        runner = Runner(work_dir)
        for name in names:
            result, notes = measure(runner, name, args.seed, args.seconds,
                                    bool(args.trace))
            if "machine" in notes:
                print("# libraries " + json.dumps(notes["machine"]))
            _print_summary(name, args.seed, result, notes)
            if len(names) == 1:
                combined = result
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
