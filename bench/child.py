"""One measured iteration of a workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD INPUTS_JSON OUT_DIR TRACE [SPANS_PATH]

run.py starts it with the checkout's ``src`` first on PYTHONPATH.  Set-up
(import of ``resetloop.cli`` plus ``build_benchmark_suite(stage_plant())``)
is timed from the first statement; then the workload runs once, timed on
its own, and its outputs are checked after the clock stops.  A fresh
interpreter per iteration keeps ``matched_sore_gamma``'s lru_cache and the
peak RSS from carrying over.  WORKLOAD "setup" stops after set-up.  The
last stdout line is a JSON record.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (both preloaded by the interpreter)
import sys  # noqa: E402

TRACE = sys.argv[4] == "1"
import resetloop.cli  # noqa: E402  (timed: part of set-up)

if TRACE:
    import tracing  # noqa: E402

    TRACER = tracing.Tracer(run_id=os.getpid())
    tracing.install_resetloop(TRACER)
from resetloop import lti, synthesis  # noqa: E402

synthesis.build_benchmark_suite(lti.stage_plant())
SETUP_S = time.perf_counter() - T0

import json  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main():
    workload, inputs, out_dir = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    imported = os.path.realpath(resetloop.cli.__file__)
    if not imported.startswith(os.path.realpath(SRC) + os.sep):
        print(f"resetloop imported from {imported}, not from {SRC}",
              file=sys.stderr)
        return 2
    record = {"setup_s": SETUP_S}
    if workload == "setup":
        print(json.dumps(record))
        return 0
    argv = workloads.prepare(workload, inputs, out_dir)
    if TRACE:
        TRACER.start_run()
    error = None
    t = time.perf_counter()
    try:
        result = workloads.run(workload, inputs, argv)
    except Exception as exc:  # a crash is a failed check, not a lost run
        result, error = None, f"{type(exc).__name__}: {exc}"
    record["run_s"] = time.perf_counter() - t
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if TRACE:
        TRACER.uninstall()
        record["layers"] = tracing.layer_metrics(TRACER, out_dir)
        record["root_span_s"] = tracing.root_span_seconds(TRACER)
        if len(sys.argv) > 5:
            with open(sys.argv[5], "w", encoding="utf-8") as fh:
                json.dump(TRACER.spans, fh)
    if error is None:
        report = checks.check(workload, inputs, result, out_dir)
    else:
        report = checks.Report()
        report.expect(False, f"{workload} crashed: {error}")
    record["check"] = report.as_dict()
    record["machine"] = machine.library_record()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
