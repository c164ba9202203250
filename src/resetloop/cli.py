"""Command-line surface.

    resetloop df SPEC --harmonics 1 3 5 ...    harmonic response CSVs
    resetloop bode SPEC ...                    no-reset-limit response CSV
    resetloop tune SKELETON --target-...       reset-map grid search
    resetloop simulate SCENARIO                closed-loop run + metrics
    resetloop reproduce --out DIR              full analysis dataset

SPEC and SCENARIO are `key = value` text files (see specfile); a handful of
builtin names (clegg, fore, sore, cglp-fore, cglp-sore, pid, cglp-pid,
cglp-pi, cloc-1, cloc-2) can be used in place of a path.  The user-facing
unit is Hz everywhere; exit codes: 0 ok, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    crossover_pm,
    open_loop_view,
    save_normalized_third_csv,
    save_open_loop_csv,
)
from .lti import (
    FrequencyResponse,
    SingularFrequencyError,
    first_order_lag,
    hz,
    load_frf,
    log_grid,
    save_response,
    stage_plant,
    tf_to_ss,
    to_hz,
)
from .reset import HarmonicResponse, save_harmonics
from .sim import (
    SimConfig,
    SimulationDiverged,
    generate_trajectory,
    make_feedforward,
    metrics,
    save_sim_csv,
    simulate_closed_loop,
)
from .specfile import (
    SUITE,
    _builtin_specs,
    build_controller,
    emit_spec,
    finite_number,
    finite_numbers,
    parse_spec,
)
from .synthesis import (
    ApproxBand,
    CroneApprox,
    build_benchmark_suite,
    controller_harmonic,
    crone_place,
    fit_band,
    normalize_open_loop_gain,
    pi_stage,
    slope_estimate,
    tune_arho,
)


def _load_spec(name_or_path) -> dict:
    # the names do not depend on the matched gamma, so a spec file never
    # pays for its root-find
    if name_or_path in _builtin_specs(matched_gamma=0.0):
        return dict(_builtin_specs()[name_or_path])
    return parse_spec(name_or_path)


def _linear_values(d, grid):
    """No-reset-limit response: the spec with every gamma set to 1."""
    spec = build_controller(d)
    if spec.reset_part is not None:
        spec.reset_part = spec.reset_part.with_gamma(np.ones(spec.reset_part.n_r))
    return controller_harmonic(spec, grid, 1)


def _write_harmonic_files(out_dir, d, grid, orders, man):
    """harmonic_NN.csv per order (even orders are exact zeros)."""
    spec = build_controller(d)
    for n in orders:
        path = os.path.join(out_dir, f"harmonic_{n:02d}.csv")
        values = controller_harmonic(spec, grid, n)
        save_harmonics(path, [HarmonicResponse(grid, n, values)])
        man.add(path)


def _write_response_csv(path, grid, values):
    save_response(FrequencyResponse(grid, values), path)


class Manifest:
    """Output ledger: every file the command wrote, with a sha256."""

    def __init__(self, command, out_dir, seed=None):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.entries = []

    def add(self, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        rel = os.path.relpath(path, self.out_dir)
        self.entries.append((rel, digest))

    def write(self):
        path = os.path.join(self.out_dir, "manifest.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# resetloop {__version__} manifest\n")
            fh.write(f"# command: {self.command}\n")
            if self.seed is not None:
                fh.write(f"# seed: {self.seed}\n")
            for rel, digest in sorted(self.entries):
                fh.write(f"{digest}  {rel}\n")
        return path


def cmd_df(args):
    if min(args.harmonics) < 1:
        raise ValueError("--harmonics takes orders >= 1, "
                         f"got {min(args.harmonics)}")
    d = _load_spec(args.spec)
    grid = log_grid(args.fmin_hz, args.fmax_hz, args.points_per_decade)
    os.makedirs(args.out, exist_ok=True)
    man = Manifest("df", args.out)
    _write_harmonic_files(args.out, d, grid, args.harmonics, man)
    man.write()
    print(f"wrote {len(args.harmonics)} harmonic file(s) to {args.out}")
    return 0


def cmd_bode(args):
    d = _load_spec(args.spec)
    grid = log_grid(args.fmin_hz, args.fmax_hz, args.points_per_decade)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bode.csv")
    _write_response_csv(path, grid, _linear_values(d, grid))
    man = Manifest("bode", args.out)
    man.add(path)
    man.write()
    print(f"wrote {path}")
    return 0


def _skeleton_from_spec(d) -> tuple:
    """CroneApprox plus band from a skeleton file: either explicit ladder
    lists or (alpha, n_pairs, omega_l_hz, omega_h_hz)."""
    if "poles_hz" in d and "zeros_hz" in d:
        crone = CroneApprox(tuple(hz(np.array(finite_numbers(d, "zeros_hz")))),
                            tuple(hz(np.array(finite_numbers(d, "poles_hz")))),
                            1.0)
    elif {"alpha", "n_pairs", "omega_l_hz", "omega_h_hz"} <= d.keys():
        n_pairs = finite_number(d, "n_pairs")
        if not n_pairs.is_integer():
            raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
        band = ApproxBand(hz(finite_number(d, "omega_l_hz")),
                          hz(finite_number(d, "omega_h_hz")), int(n_pairs))
        crone = crone_place(finite_number(d, "alpha"), band)
    else:
        raise ValueError("skeleton needs poles_hz/zeros_hz or "
                         "alpha/n_pairs/omega_l_hz/omega_h_hz")
    return crone


def cmd_tune(args):
    d = _load_spec(args.skeleton)
    crone = _skeleton_from_spec(d)
    result = tune_arho(crone, (args.target_gain_slope, args.target_phase_slope),
                       delta=args.delta)
    os.makedirs(args.out, exist_ok=True)
    man = Manifest("tune", args.out)
    # the placed ladder replaces the placement keys, which a cloc does not read
    tuned = {k: v for k, v in d.items() if k not in ("alpha", "n_pairs")}
    tuned["kind"] = d.get("kind", "cloc")
    tuned["poles_hz"] = tuple(to_hz(np.array(crone.poles)))
    tuned["zeros_hz"] = tuple(to_hz(np.array(crone.zeros)))
    tuned["gamma"] = result.gamma
    spec_path = os.path.join(args.out, "tuned.spec")
    emit_spec(tuned, spec_path)
    man.add(spec_path)
    report_path = os.path.join(args.out, "tune_report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"target: gain {args.target_gain_slope} dB/dec, "
                 f"phase {args.target_phase_slope} deg/dec\n")
        fh.write(f"gamma: {list(result.gamma)}\n")
        fh.write(f"achieved: gain {result.gain_slope:.4f} dB/dec, "
                 f"phase {result.phase_slope:.4f} deg/dec\n")
        fh.write(f"objective: {result.objective:.6g}\n")
        fh.write("best grid points (gamma -> objective):\n")
        for g, o in result.top:
            fh.write(f"  {list(g)} -> {o:.6g}\n")
    man.add(report_path)
    man.write()
    print(f"tuned gamma = {list(result.gamma)}; achieved "
          f"({result.gain_slope:.2f} dB/dec, {result.phase_slope:.2f} deg/dec)")
    return 0


_REFERENCES = {
    "step3um": ("step", 3e-6, 0.5, 0.0),
    "ref1": ("fourth_order_scan", 100e-6, 0.397, 0.1),
    "ref2": ("fourth_order_scan", 100e-6, 0.235, 0.1),
    "ref3": ("fourth_order_scan", 100e-6, 0.093, 0.1),
}


def _run_scenario(name, spec, d, plant_tf, out_dir, man, tag=""):
    """Scenario ``d`` for ``spec``, whose kp is normalized on plant_tf."""
    ref = d.get("reference", "step3um")
    if ref not in _REFERENCES:
        raise ValueError(f"unknown reference {ref!r}")
    feedforward = d.get("feedforward", False)
    if not isinstance(feedforward, bool):
        raise ValueError(f"feedforward must be true or false, got {feedforward!r}")
    kind, dist, dur, hold = _REFERENCES[ref]
    dt = finite_number(d, "dt_s", 1e-4)
    cfg = SimConfig(dt=dt,
                    quantization=finite_number(d, "quantization_m", 100e-9),
                    noise_amplitude=finite_number(d, "noise_um", 0.0) * 1e-6,
                    noise_seed=int(d.get("seed", 0)))
    traj = generate_trajectory(kind, dist, dur, dt=dt, hold=hold)
    ff = None
    if feedforward:
        ff = make_feedforward(plant_tf, 100.0 * spec.omega_c)
    plant_ss = tf_to_ss(plant_tf)
    base = f"{tag}{name}_{ref}"
    report_path = os.path.join(out_dir, f"{base}_metrics.txt")
    try:
        res = simulate_closed_loop(plant_ss, spec, traj, cfg, feedforward=ff)
    except SimulationDiverged as exc:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(f"controller: {name}\nreference: {ref}\n")
            fh.write(f"status: diverged at t = {exc.time:.4f} s "
                     "(loop unstable in hybrid simulation)\n")
        man.add(report_path)
        return None, report_path
    csv_path = os.path.join(out_dir, f"{base}.csv")
    save_sim_csv(res, csv_path)
    man.add(csv_path)
    window = (0.0, 0.5) if kind == "step" else (0.0, dur + hold)
    e_rms, e_max, overshoot = metrics(res, window)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"controller: {name}\nreference: {ref}\nstatus: ok\n")
        fh.write(f"kp: {spec.kp!r}\n")
        fh.write(f"e_rms_100nm: {float(e_rms / 1e-7)!r}\n")
        fh.write(f"e_max_100nm: {float(e_max / 1e-7)!r}\n")
        fh.write(f"overshoot: {overshoot!r}\n")
        fh.write(f"resets: {res.n_resets}\n")
    man.add(report_path)
    return res, report_path


def cmd_simulate(args):
    if not os.path.exists(args.scenario):
        raise ValueError(f"scenario file not found: {args.scenario}")
    d = parse_spec(args.scenario)
    if "controller" not in d:
        raise ValueError("scenario file needs a `controller` key")
    if "seed" in d:
        seed = d["seed"]
        if not (isinstance(seed, float) and seed.is_integer()):
            raise ValueError(f"scenario seed must be an integer, got {seed!r}")
        d["seed"] = int(seed)
    os.makedirs(args.out, exist_ok=True)
    man = Manifest("simulate", args.out, seed=d.get("seed"))
    name = d["controller"]
    if not isinstance(name, str):
        raise ValueError(f"controller must be a builtin name or a spec path, "
                         f"got {name!r}")
    spec = build_controller(_load_spec(name))
    if spec.omega_c is None:
        raise ValueError(f"{name!r} is not a loop controller: its spec has "
                         "no omega_c_hz")
    plant = stage_plant()
    spec = spec.with_kp(normalize_open_loop_gain(spec, plant, spec.omega_c))
    res, report = _run_scenario(name, spec, d, plant, args.out, man)
    man.write()
    print(f"wrote {report}")
    return 0 if res is not None else 3


def cmd_reproduce(args):
    out = args.out
    os.makedirs(out, exist_ok=True)
    man = Manifest("reproduce", out, seed=args.seed)
    plant_tf = stage_plant()
    plant_resp = load_frf(args.plant) if args.plant else None
    builtins = _builtin_specs()

    try:
        # resetting-integrator harmonics, orders 1..11
        d1 = os.path.join(out, "01_clegg_harmonics")
        os.makedirs(d1, exist_ok=True)
        _write_harmonic_files(d1, builtins["clegg"], log_grid(0.01, 100.0, 20),
                              range(1, 12), man)

        # constant-gain lead-phase stage: reset vs no-reset limit
        d2 = os.path.join(out, "02_cglp_lead")
        os.makedirs(d2, exist_ok=True)
        grid = log_grid(1.0, 1000.0, 30)
        for tag in ("cglp-fore", "cglp-sore"):
            p1 = os.path.join(d2, f"{tag}_reset.csv")
            _write_response_csv(p1, grid, controller_harmonic(
                build_controller(builtins[tag]), grid, 1))
            p2 = os.path.join(d2, f"{tag}_linear.csv")
            _write_response_csv(p2, grid, _linear_values(builtins[tag], grid))
            man.add(p1)
            man.add(p2)

        # complex-order ladder filters: reset vs linear + slope report
        d3 = os.path.join(out, "03_ladder_filters")
        os.makedirs(d3, exist_ok=True)
        slopes_path = os.path.join(d3, "slopes.txt")
        with open(slopes_path, "w", encoding="utf-8") as fh:
            for name in ("cloc-1", "cloc-2"):
                d = builtins[name]
                grid = log_grid(1.0, 5000.0, 50)
                vals = controller_harmonic(build_controller(d), grid, 1)
                # strip PI and low-pass to leave the bare filter
                pi = pi_stage(hz(d["omega_i_hz"]))
                lpf_vals = (pi(1j * grid)
                            * first_order_lag(hz(d["omega_f_hz"]))(1j * grid))
                filt_vals = vals / lpf_vals
                p1 = os.path.join(d3, f"{name.replace('-', '')}_filter_reset.csv")
                _write_response_csv(p1, grid, filt_vals)
                man.add(p1)
                crone = CroneApprox(tuple(hz(np.array(d["zeros_hz"]))),
                                    tuple(hz(np.array(d["poles_hz"]))), 1.0)
                fit = slope_estimate(HarmonicResponse(grid, 1, filt_vals),
                                     fit_band(crone))
                fh.write(f"{name}: gain {fit.gain_slope:.3f} dB/dec, "
                         f"phase {fit.phase_slope:.3f} deg/dec over trimmed "
                         f"band\n")
        man.add(slopes_path)

        # controller spec round trip
        d4 = os.path.join(out, "04_controller_specs")
        os.makedirs(d4, exist_ok=True)
        for name in SUITE:
            path = os.path.join(d4, f"{name}.spec")
            emit_spec(builtins[name], path)
            reparsed = parse_spec(path)
            if reparsed != builtins[name]:
                raise ValueError(f"spec round-trip mismatch for {name}")
            build_controller(reparsed)  # must rebuild cleanly
            man.add(path)

        # open-loop first harmonics + crossover report
        d5 = os.path.join(out, "05_open_loop")
        os.makedirs(d5, exist_ok=True)
        # each design normalized once per plant, used by every later stage
        suite = build_benchmark_suite(plant_tf)
        plant_for_loop = plant_resp if plant_resp is not None else plant_tf
        loop_suite = suite if plant_resp is None else build_benchmark_suite(plant_resp)
        grid = log_grid(1.0, 2000.0, 50)
        pm_path = os.path.join(d5, "crossover_pm.txt")
        views = {}
        with open(pm_path, "w", encoding="utf-8") as fh:
            for name, spec in loop_suite.items():
                view = open_loop_view(spec, plant_for_loop, grid)
                views[name] = view
                path = os.path.join(d5, f"{name}.csv")
                save_open_loop_csv(view, path)
                man.add(path)
                wc, pm = crossover_pm(view)
                fh.write(f"{name}: crossover {to_hz(wc):.3f} Hz, "
                         f"phase margin {pm:.3f} deg, kp {spec.kp!r}\n")
        man.add(pm_path)

        # normalized third harmonic
        d7 = os.path.join(out, "07_normalized_third")
        os.makedirs(d7, exist_ok=True)
        for name in SUITE:
            if name == "pid":
                continue
            path = os.path.join(d7, f"{name}.csv")
            save_normalized_third_csv(views[name], path)
            man.add(path)

        # step responses (hybrid simulation; instability is a result)
        d6 = os.path.join(out, "06_step_responses")
        os.makedirs(d6, exist_ok=True)
        for name, spec in suite.items():
            _run_scenario(name, spec, {"reference": "step3um", "seed": args.seed},
                          plant_tf, d6, man)

        # tracking and noise metrics, simulation only
        d8 = os.path.join(out, "08_tracking_metrics")
        os.makedirs(d8, exist_ok=True)
        note = os.path.join(d8, "README.txt")
        with open(note, "w", encoding="utf-8") as fh:
            fh.write("Simulated closed-loop metrics on the bundled plant "
                     "model -- simulation, not hardware.\n")
        man.add(note)
        for name, spec in suite.items():
            for ref in ("ref1", "ref2", "ref3"):
                _run_scenario(name, spec, {"reference": ref, "seed": args.seed},
                              plant_tf, d8, man)
                _run_scenario(name, spec, {"reference": ref, "seed": args.seed,
                                           "feedforward": True},
                              plant_tf, d8, man, tag="ff_")
            _run_scenario(name, spec, {"reference": "step3um", "noise_um": 2.0,
                                       "seed": args.seed + 17},
                          plant_tf, d8, man, tag="noise_")
    except ArithmeticError as exc:
        # numerical failure (exit 3); input errors reach main (exit 2)
        print(f"reproduce aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        path = man.write()   # partial on any failure
    print(f"wrote {len(man.entries)} files; manifest at {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="resetloop",
        description="reset-element controller synthesis and analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fmin-hz", type=float, default=0.1)
    common.add_argument("--fmax-hz", type=float, default=1000.0)
    common.add_argument("--points-per-decade", type=int, default=50)
    common.add_argument("--out", default="resetloop_out")

    p = sub.add_parser("df", parents=[common],
                       help="harmonic responses of a spec")
    p.add_argument("spec")
    p.add_argument("--harmonics", type=int, nargs="+", default=[1, 3, 5])
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("bode", parents=[common],
                       help="no-reset-limit frequency response")
    p.add_argument("spec")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("tune", help="grid-search reset-map tuning")
    p.add_argument("skeleton")
    p.add_argument("--target-gain-slope", type=float, required=True)
    p.add_argument("--target-phase-slope", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--out", default="resetloop_out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="closed-loop scenario run")
    p.add_argument("scenario")
    p.add_argument("--out", default="resetloop_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="regenerate the analysis dataset")
    p.add_argument("--out", default="resetloop_out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plant", default=None,
                   help="FRF CSV for the open-loop views")
    p.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularFrequencyError, SimulationDiverged, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
