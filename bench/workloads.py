"""Workload inputs and the calls that run them.

Each workload is a closed loop with one client: the next library call is
made only after the previous one returned.  Inputs are drawn from the
benchmark seed; the program only ever sees the drawn values.  References
exist for ``N_INPUT_SETS`` input sets, so seed n uses input set
n mod N_INPUT_SETS; set 0 holds the documented defaults.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("reproduce", "tune", "validate", "spectrum")
N_INPUT_SETS = 8

#: cloc-1 ladder (Hz) and reset map, as published; `validate` drives its
#: lag chain, `tune` re-tunes its reset map
CLOC1_POLES_HZ = (16.5, 76.6, 355.5)
CLOC1_ZEROS_HZ = (35.55, 165.0, 766.0)
CLOC1_GAMMA = (0.21, -0.22, 0.1)
#: tuner defaults the `tune` check re-derives the objective with
TUNE_WEIGHTS = (1.0, 0.04)
TUNE_TRIM = 1.5
TUNE_POINTS_PER_DECADE = 50
TUNE_TAMING_FACTOR = 20.0
#: criterion-2 elements: first/second-order reset lags at 20 Hz
VALIDATE_GAMMAS = (-0.5, 0.0, 0.5)


def input_set(seed):
    return int(seed) % N_INPUT_SETS


def _log_uniform(rng, lo, hi):
    x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return float(f"{x:.4g}")


def ladder_hz(alpha=-0.5, lo_hz=5.0, hi_hz=2000.0, n_pairs=5):
    """Interlaced zero/pole ladder for s^alpha on [lo, hi] (the recursive
    placement of crone_place), in Hz.  Computed here so the spec the
    program reads does not depend on the code under test."""
    r = hi_hz / lo_hz
    m = range(1, n_pairs + 1)
    zeros = [lo_hz * r ** ((2 * k - 1 - alpha) / (2 * n_pairs)) for k in m]
    poles = [lo_hz * r ** ((2 * k - 1 + alpha) / (2 * n_pairs)) for k in m]
    return poles, zeros


def make_inputs(workload, seed):
    """The generated inputs of one run; the same seed gives the same
    inputs."""
    k = input_set(seed)
    rng = random.Random(f"resetloop-bench/{workload}/{k}")
    if workload == "reproduce":
        return {"set": k, "seed": 0 if k == 0 else rng.randrange(1, 10**6)}
    if workload == "tune":
        if k == 0:
            target = (-10.0, 125.0)   # the README example
        else:
            target = (round(rng.uniform(-12.0, -8.0), 2),
                      round(rng.uniform(105.0, 145.0), 1))
        return {"set": k, "target": target}
    if workload == "validate":
        cases = []
        for kind in ("fore", "sore"):
            for g in VALIDATE_GAMMAS:
                for _ in range(2):
                    cases.append({"element": kind, "gamma": g,
                                  "freq_hz": _log_uniform(rng, 0.5, 200.0)})
        for _ in range(3):
            cases.append({"element": "cloc-1", "gamma": None,
                          "freq_hz": _log_uniform(rng, 2.0, 1100.0)})
        return {"set": k, "cases": cases}
    if workload == "spectrum":
        return {"set": k,
                "gamma": [round(rng.uniform(-0.5, 0.5), 2) for _ in range(5)]}
    raise ValueError(f"unknown workload {workload!r}")


def _fmt(v):
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    return repr(v) if isinstance(v, float) else str(v)


def write_ladder_spec(path, gamma):
    poles, zeros = ladder_hz()
    spec = {"kind": "cloc", "label": "ladder5", "poles_hz": poles,
            "zeros_hz": zeros, "gamma": gamma, "omega_l_hz": 5.0,
            "omega_h_hz": 2000.0, "omega_c_hz": 150.0, "omega_i_hz": 15.0,
            "omega_f_hz": 1500.0, "taming_factor": 20.0, "kp": 1.0}
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in spec.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def prepare(workload, inputs, out_dir):
    """Untimed preparation: the command-line arguments of a CLI workload,
    with any input file it needs written next to out_dir (None for
    validate, which calls the library directly)."""
    if workload == "validate":
        return None
    if workload == "reproduce":
        return ["reproduce", "--seed", str(inputs["seed"]), "--out", out_dir]
    if workload == "tune":
        g, p = inputs["target"]
        return ["tune", "cloc-1", "--target-gain-slope", repr(float(g)),
                "--target-phase-slope", repr(float(p)), "--delta", "0.1",
                "--out", out_dir]
    if workload == "spectrum":
        spec = out_dir.rstrip(os.sep) + ".spec"
        os.makedirs(os.path.dirname(spec), exist_ok=True)
        write_ladder_spec(spec, inputs["gamma"])
        return ["df", spec, "--fmin-hz", "0.1", "--fmax-hz", "5000",
                "--points-per-decade", "100",
                "--harmonics", "1", "3", "5", "7", "9", "11", "--out", out_dir]
    raise ValueError(f"{workload!r} is not a CLI workload")


def validate_element(case):
    import numpy as np
    from resetloop import reset
    from resetloop.lti import hz

    if case["element"] == "fore":
        return reset.fore(hz(20.0), case["gamma"])
    if case["element"] == "sore":
        return reset.sore(hz(20.0), 1.0, case["gamma"])
    return reset.lag_chain(hz(np.array(CLOC1_POLES_HZ)), CLOC1_GAMMA)


def run_validate(inputs):
    """Closed form against the time-domain oracle, one frequency at a
    time.  Returns per case the oracle gains (n = 1..5) and the closed
    form for n = 1, 3, 5."""
    from resetloop import reset, sim
    from resetloop.lti import hz

    out = []
    for case in inputs["cases"]:
        rs = validate_element(case)
        w = float(hz(case["freq_hz"]))
        oracle = sim.steady_state_harmonics(rs, w, 5)
        closed = [reset.describing_function(rs, [w]).values[0],
                  reset.hosidf(rs, [w], 3).values[0],
                  reset.hosidf(rs, [w], 5).values[0]]
        out.append({"omega": w, "oracle": [complex(c) for c in oracle],
                    "closed": [complex(c) for c in closed]})
    return out


def run(workload, inputs, argv):
    """The timed part of one run.  CLI workloads return the exit code;
    validate returns the compared gains."""
    if workload == "validate":
        return run_validate(inputs)
    import resetloop.cli

    return resetloop.cli.main(argv)


def tune_fit(target, gamma):
    """(gain slope, phase slope, objective) of the cloc-1 ladder with reset
    map gamma, through the per-spec describing function and slope fit on
    the tuner's band and grid.  The tuner itself uses the gamma-batch
    kernel, so this is a second route to the same numbers."""
    import numpy as np
    from resetloop.lti import hz
    from resetloop.reset import HarmonicResponse
    from resetloop.synthesis import CroneApprox, slope_estimate, split_reset

    poles = hz(np.array(CLOC1_POLES_HZ))
    zeros = hz(np.array(CLOC1_ZEROS_HZ))
    lo, hi = poles[0] * TUNE_TRIM, zeros[-1] / TUNE_TRIM
    npts = max(12, int(round(np.log10(hi / lo) * TUNE_POINTS_PER_DECADE)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    crone = CroneApprox(tuple(zeros), tuple(poles), 1.0)
    vals = split_reset(crone, gamma, TUNE_TAMING_FACTOR).response(grid, 1)
    fit = slope_estimate(HarmonicResponse(grid, 1, vals), (lo, hi))
    wg, wp = TUNE_WEIGHTS
    objective = (wg * (fit.gain_slope - target[0]) ** 2
                 + wp * (fit.phase_slope - target[1]) ** 2)
    return fit.gain_slope, fit.phase_slope, objective
