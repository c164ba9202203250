"""Record the reference snapshot the benchmark checks outputs against.

Run from the repository root, on the code whose outputs are the reference
(the snapshot in ``reference/`` was recorded from the unmodified program):

    python3 bench/record_reference.py [--workload NAME ...]

For every input set it runs the workload once in this process, stores the
sha256 of every output file and the text of every file except the sampled
simulation traces, and writes ``reference/<workload>.json.gz``.  It then
checks the fresh outputs against what it wrote and fails if any check
fails (for `validate`, that means the oracle misses criterion 2).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402


def _snapshot(out_dir, blobs):
    files = {}
    for rel, path in sorted(checks.files_under(out_dir).items()):
        with open(path, "rb") as fh:
            data = fh.read()
        digest = checks.sha256_bytes(data)
        files[rel] = digest
        text = data.decode("utf-8")
        if not text.startswith(checks.SIM_CSV_HEADER + "\n"):
            blobs[digest] = text
    return files


def _tune_reference(inputs):
    import numpy as np
    from resetloop.lti import hz
    from resetloop.synthesis import CroneApprox, tune_arho

    crone = CroneApprox(tuple(hz(np.array(workloads.CLOC1_ZEROS_HZ))),
                        tuple(hz(np.array(workloads.CLOC1_POLES_HZ))), 1.0)
    res = tune_arho(crone, inputs["target"], delta=0.1)
    return {"gamma": list(res.gamma), "objective": res.objective,
            "gain_slope": res.gain_slope, "phase_slope": res.phase_slope}


def record(workload, scratch):
    import numpy as np
    import scipy

    reference = {"workload": workload,
                 "recorded_with": {"python": sys.version.split()[0],
                                   "numpy": np.__version__,
                                   "scipy": scipy.__version__},
                 "blobs": {}, "sets": {}}
    outputs = {}
    for k in range(workloads.N_INPUT_SETS):
        inputs = workloads.make_inputs(workload, k)
        out_dir = os.path.join(scratch, f"{workload}_{k}")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = workloads.prepare(workload, inputs, out_dir)
        result = workloads.run(workload, inputs, argv)
        entry = {"inputs": inputs}
        if workload == "validate":
            entry["closed"] = [[[c.real, c.imag] for c in r["closed"]]
                               for r in result]
        else:
            if result != 0:
                raise SystemExit(f"{workload} set {k}: exit code {result}")
            entry["files"] = _snapshot(out_dir, reference["blobs"])
        if workload == "tune":
            entry.update(_tune_reference(inputs))
        reference["sets"][str(k)] = entry
        outputs[k] = (inputs, result, out_dir)
        print(f"{workload} set {k}: recorded", flush=True)

    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(checks.REFERENCE_DIR, f"{workload}.json.gz")
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(reference, sort_keys=True).encode("utf-8"))

    for k, (inputs, result, out_dir) in outputs.items():
        report = checks.check(workload, inputs, result, out_dir)
        if report.failed or report.identical != report.compared:
            raise SystemExit(f"{workload} set {k} fails its own reference: "
                             f"{report.as_dict()}")
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    scratch = os.path.join(ROOT, ".bench_run", "record")
    try:
        for workload in args.workload:
            record(workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
