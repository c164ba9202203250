"""Output checks against the reference snapshot in ``reference/``.

The references were recorded from the unmodified program by
``record_reference.py``.  Numbers are compared with a tolerance; byte
identity of each output is only counted (``check.files_identical``), so a
correct change in the last digits does not fail a run.
"""

from __future__ import annotations

import cmath
import gzip
import hashlib
import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: frequency-domain numbers and text reports (the harmonic-kernel gate)
REL_TOL = 1e-10
#: absolute floor, in the file's own units (dB, deg, Hz), for values near 0
ABS_FLOOR = 1e-12
#: e_rms / e_max / overshoot of the stable hybrid simulations: the
#: hybrid-vs-linear tolerance of the acceptance suite
SIM_METRIC_REL_TOL = 1e-8
SIM_METRIC_KEYS = ("e_rms_100nm:", "e_max_100nm:", "overshoot:")
TUNE_OBJECTIVE_REL_TOL = 1e-9
TUNE_GAMMA_ABS_TOL = 1e-9
#: acceptance criterion 2: oracle vs closed form
ORACLE_MAG_TOL = 0.02
ORACLE_PHASE_TOL_DEG = 1.0
ORACLE_EVEN_DB = -80.0

SIM_CSV_HEADER = "t_s,r_m,y_m,e_m,u"
_TOKENS = re.compile(r"([\s,\[\]()=:;]+)")
_DIGEST = re.compile(r"^[0-9a-f]{64}  ", re.MULTILINE)


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


class Report:
    """Attempted and failed output checks, plus the diagnostics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_rel_dev = 0.0
        self.compared = 0
        self.identical = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def close(self, got, ref, rel):
        """|got - ref| within rel of the larger magnitude (or ABS_FLOOR);
        NaN never matches.  Works for real and complex numbers."""
        diff = abs(got - ref)
        scale = max(abs(got), abs(ref))
        if diff > 0 and scale > 0:
            self.max_rel_dev = max(self.max_rel_dev, diff / scale)
        return diff <= max(rel * scale, ABS_FLOOR)

    def same_bytes(self, same):
        self.compared += 1
        self.identical += bool(same)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20],
                "max_rel_dev": self.max_rel_dev, "compared": self.compared,
                "identical": self.identical}


def _line_rel(line):
    return SIM_METRIC_REL_TOL if line.startswith(SIM_METRIC_KEYS) else REL_TOL


def text_mismatch(report, ref_text, got_text):
    """First difference between two text outputs, or None.  Tokens that
    parse as numbers are compared numerically, everything else exactly."""
    ref_lines, got_lines = ref_text.splitlines(), got_text.splitlines()
    if len(ref_lines) != len(got_lines):
        return f"{len(got_lines)} lines, reference has {len(ref_lines)}"
    for no, (a, b) in enumerate(zip(ref_lines, got_lines), start=1):
        ta, tb = _TOKENS.split(a), _TOKENS.split(b)
        if len(ta) != len(tb):
            return f"line {no}: {b!r} vs reference {a!r}"
        rel = _line_rel(a)
        for x, y in zip(ta, tb):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return f"line {no}: {y!r} vs reference {x!r}"
            if not report.close(fy, fx, rel):
                return f"line {no}: {fy!r} vs reference {fx!r}"
    return None


def files_under(out_dir):
    found = {}
    for dirpath, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, out_dir).replace(os.sep, "/")] = path
    return found


def check_bundle(report, ref_files, blobs, out_dir):
    """Every file the command wrote against its reference: same file
    list; text compared numerically; simulation traces (whose text is not
    stored) checked through their metrics report; manifest digests only
    counted for byte identity."""
    got = files_under(out_dir)
    report.expect(sorted(got) == sorted(ref_files),
                  f"file list differs: extra {sorted(set(got) - set(ref_files))},"
                  f" missing {sorted(set(ref_files) - set(got))}")
    for rel, ref_sha in sorted(ref_files.items()):
        if rel not in got:
            continue
        with open(got[rel], "rb") as fh:
            data = fh.read()
        report.same_bytes(sha256_bytes(data) == ref_sha)
        text = data.decode("utf-8", errors="replace")
        if ref_sha not in blobs:
            first = text.split("\n", 1)[0]
            report.expect(first == SIM_CSV_HEADER, f"{rel}: header {first!r}")
            continue
        ref_text = blobs[ref_sha]
        if rel == "manifest.txt":
            ref_text, text = _DIGEST.sub("", ref_text), _DIGEST.sub("", text)
        bad = text_mismatch(report, ref_text, text)
        report.expect(bad is None, f"{rel}: {bad}")


def spec_list(text, key):
    for line in text.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return [float(x) for x in v.strip().strip("[]").split(",")]
    raise ValueError(f"no {key!r} in spec")


def check_cli(report, workload, reference, inputs, rc, out_dir):
    ref = reference["sets"][str(inputs["set"])]
    report.expect(rc == 0, f"{workload} exit code {rc}")
    check_bundle(report, ref["files"], reference["blobs"], out_dir)
    if workload == "tune" and rc == 0:
        check_tune(report, ref, inputs, out_dir)


def check_tune(report, ref, inputs, out_dir):
    """Reference gamma, and an objective re-derived through the per-spec
    describing function and slope fit."""
    from workloads import tune_fit

    with open(os.path.join(out_dir, "tuned.spec"), encoding="utf-8") as fh:
        gamma = spec_list(fh.read(), "gamma")
    ok = len(gamma) == len(ref["gamma"]) and all(
        abs(g - r) <= TUNE_GAMMA_ABS_TOL for g, r in zip(gamma, ref["gamma"]))
    report.expect(ok, f"tuned gamma {gamma} vs reference {ref['gamma']}")
    gain, phase, objective = tune_fit(inputs["target"], gamma)
    for name, value in (("objective", objective), ("gain_slope", gain),
                        ("phase_slope", phase)):
        report.expect(report.close(value, ref[name], TUNE_OBJECTIVE_REL_TOL),
                      f"tune {name} {value!r} vs reference {ref[name]!r}")


def check_validate(report, reference, inputs, result):
    """Acceptance criterion 2 between oracle and closed form, and the
    closed form against its reference values."""
    ref = reference["sets"][str(inputs["set"])]["closed"]
    for case, res, ref_vals in zip(inputs["cases"], result, ref):
        oracle, closed = res["oracle"], res["closed"]
        label = f"{case['element']}(gamma={case['gamma']}) at {case['freq_hz']} Hz"
        for i, n in enumerate((1, 3, 5)):
            got, pred = oracle[n - 1], closed[i]
            mag_err = abs(abs(got) / abs(pred) - 1.0)
            ph_err = abs(math.degrees(cmath.phase(got / pred)))
            report.expect(mag_err < ORACLE_MAG_TOL and ph_err < ORACLE_PHASE_TOL_DEG,
                          f"{label} n={n}: oracle mag err {mag_err:.3g}, "
                          f"phase err {ph_err:.3g} deg")
            want = complex(*ref_vals[i])
            report.same_bytes(pred == want)
            report.expect(report.close(pred, want, REL_TOL),
                          f"{label} n={n}: closed form {pred!r} vs reference {want!r}")
        even = max(abs(oracle[1]), abs(oracle[3])) / abs(oracle[0])
        even_db = 20.0 * math.log10(even + 1e-300)
        report.expect(even_db < ORACLE_EVEN_DB,
                      f"{label}: even harmonics at {even_db:.1f} dB")
    report.expect(len(result) == len(ref), "validate case count")


def check(workload, inputs, result, out_dir):
    report = Report()
    reference = load_reference(workload)
    if workload == "validate":
        check_validate(report, reference, inputs, result)
    else:
        check_cli(report, workload, reference, inputs, result, out_dir)
    return report
