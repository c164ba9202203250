"""Command-line surface.

    resetloop df SPEC --harmonics 1 3 5 ...    harmonic response CSVs
    resetloop bode SPEC ...                    no-reset-limit response CSV
    resetloop tune SKELETON --target-...       reset-map grid search
    resetloop simulate SCENARIO                closed-loop run + metrics
    resetloop reproduce --out DIR              full analysis dataset

SPEC, SKELETON and SCENARIO are `key = value` text files read by specfile;
a builtin name (clegg, fore, sore, cglp-fore, cglp-sore, pid, cglp-pid,
cglp-pi, cloc-1, cloc-2) stands in for a spec path.  Hz is the user-facing
unit; exit codes: 0 ok, 2 input error, 3 numerical failure.  Every output
file goes through the command's Manifest, which places it under --out and
records its sha256 in manifest.txt.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

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
    SampledLoop,
    SimConfig,
    SimulationDiverged,
    feedforward_signal,
    generate_trajectory,
    make_feedforward,
    metrics,
    save_sim_csv,
    simulate_closed_loop,
)
from .specfile import (
    REFERENCES,
    SUITE,
    build_controller,
    builtin_specs,
    emit_spec,
    load_spec,
    parse_scenario,
    parse_skeleton,
    parse_spec,
)
from .synthesis import (
    build_benchmark_suite,
    controller_harmonic,
    controller_harmonics,
    fit_band,
    normalize_open_loop_gain,
    pi_stage,
    slope_estimate,
    tune_arho,
)


def _linear_response(d, grid) -> FrequencyResponse:
    """No-reset-limit response: the spec with every gamma set to 1."""
    spec = build_controller(d)
    if spec.reset_part is not None:
        spec = replace(spec, reset_part=spec.reset_part.with_gamma(
            np.ones(spec.reset_part.n_r)))
    return FrequencyResponse(grid, controller_harmonic(spec, grid, 1))


def _write_harmonic_files(man, subdir, grid, orders, gains):
    """harmonic_NN.csv in ``subdir`` for each order and its gains (even
    orders are exact zeros)."""
    for n, vals in zip(orders, gains):
        man.save(save_harmonics, [HarmonicResponse(grid, n, vals)],
                 subdir, f"harmonic_{n:02d}.csv")


class Manifest:
    """Output layout and ledger: every file a command writes goes through
    ``path``, ``save`` or ``text`` under ``out_dir``, and ``add`` records
    its sha256 for manifest.txt.  The first write makes ``out_dir``."""

    def __init__(self, command, out_dir, seed=None):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.entries = []

    def path(self, *parts):
        """``out_dir``/parts..., with its parent directory made."""
        path = os.path.join(self.out_dir, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def add(self, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.entries.append((os.path.relpath(path, self.out_dir), digest))

    def save(self, writer, obj, *parts):
        """``writer(obj, path)`` at ``path(*parts)``, recorded; the path."""
        path = self.path(*parts)
        writer(obj, path)
        self.add(path)
        return path

    def text(self, body, *parts):
        """A text report ``body`` at ``path(*parts)``, recorded; the path."""
        path = self.path(*parts)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        self.add(path)
        return path

    def write(self):
        path = self.path("manifest.txt")
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
    if len(set(args.harmonics)) < len(args.harmonics):
        raise ValueError(f"--harmonics repeats an order: {args.harmonics}")
    spec = build_controller(load_spec(args.spec))
    grid = log_grid(args.fmin_hz, args.fmax_hz, args.points_per_decade)
    gains = controller_harmonics(spec, grid, args.harmonics)
    man = Manifest("df", args.out)
    _write_harmonic_files(man, "", grid, args.harmonics, gains)
    man.write()
    print(f"wrote {len(args.harmonics)} harmonic file(s) to {args.out}")
    return 0


def cmd_bode(args):
    grid = log_grid(args.fmin_hz, args.fmax_hz, args.points_per_decade)
    response = _linear_response(load_spec(args.spec), grid)
    man = Manifest("bode", args.out)
    path = man.save(save_response, response, "bode.csv")
    man.write()
    print(f"wrote {path}")
    return 0


def cmd_tune(args):
    d = load_spec(args.skeleton)
    crone = parse_skeleton(d)
    result = tune_arho(crone, (args.target_gain_slope, args.target_phase_slope),
                       delta=args.delta)
    man = Manifest("tune", args.out)
    # the placed ladder replaces the placement keys, which a cloc does not read
    tuned = {k: v for k, v in d.items() if k not in ("alpha", "n_pairs")}
    tuned["kind"] = d.get("kind", "cloc")
    tuned["poles_hz"] = tuple(to_hz(np.array(crone.poles)))
    tuned["zeros_hz"] = tuple(to_hz(np.array(crone.zeros)))
    tuned["gamma"] = result.gamma
    man.save(emit_spec, tuned, "tuned.spec")
    man.text(f"target: gain {args.target_gain_slope} dB/dec, "
             f"phase {args.target_phase_slope} deg/dec\n"
             f"gamma: {list(result.gamma)}\n"
             f"achieved: gain {result.gain_slope:.4f} dB/dec, "
             f"phase {result.phase_slope:.4f} deg/dec\n"
             f"objective: {result.objective:.6g}\n"
             "best grid points (gamma -> objective):\n"
             + "".join(f"  {list(g)} -> {o:.6g}\n" for g, o in result.top),
             "tune_report.txt")
    man.write()
    print(f"tuned gamma = {list(result.gamma)}; achieved "
          f"({result.gain_slope:.2f} dB/dec, {result.phase_slope:.2f} deg/dec)")
    return 0


def _run_scenario(name, spec, loop, scenario, plant_tf, commands, man, subdir,
                  tag=""):
    """The parsed ``scenario`` for ``spec`` (kp normalized on plant_tf) on
    its SampledLoop ``loop``, written to ``subdir``.  ``commands`` holds the
    feedforward command of each (filter, reference, dt) driven so far."""
    ref, cfg, feedforward = scenario
    kind, dist, dur, hold = REFERENCES[ref]
    traj = generate_trajectory(kind, dist, dur, dt=cfg.dt, hold=hold)
    u_ff = None
    if feedforward:
        key = (make_feedforward(plant_tf, 100.0 * spec.omega_c), ref, cfg.dt)
        if key not in commands:
            commands[key] = feedforward_signal(key[0], traj, cfg.dt)
        u_ff = commands[key]
    base = f"{tag}{name}_{ref}"
    try:
        res = simulate_closed_loop(loop, traj, cfg, u_ff)
    except SimulationDiverged as exc:
        res, status = None, (f"diverged at t = {exc.time:.4f} s "
                             "(loop unstable in hybrid simulation)\n")
    else:
        man.save(save_sim_csv, res, subdir, f"{base}.csv")
        e_rms, e_max, overshoot = metrics(res, (0.0, dur + hold))
        status = (f"ok\nkp: {spec.kp!r}\n"
                  f"e_rms_100nm: {float(e_rms / 1e-7)!r}\n"
                  f"e_max_100nm: {float(e_max / 1e-7)!r}\n"
                  f"overshoot: {overshoot!r}\n"
                  f"resets: {res.n_resets}\n")
    report = man.text(f"controller: {name}\nreference: {ref}\nstatus: {status}",
                      subdir, f"{base}_metrics.txt")
    return res, report


def cmd_simulate(args):
    if not os.path.exists(args.scenario):
        raise ValueError(f"scenario file not found: {args.scenario}")
    d = parse_spec(args.scenario)
    if "controller" not in d:
        raise ValueError("scenario file needs a `controller` key")
    name = d.pop("controller")
    if not isinstance(name, str):
        raise ValueError(f"controller must be a builtin name or a spec path, "
                         f"got {name!r}")
    spec = build_controller(load_spec(name))
    if spec.omega_c is None:
        raise ValueError(f"{name!r} is not a loop controller: its spec has "
                         "no omega_c_hz")
    scenario = parse_scenario(d)
    plant = stage_plant()
    spec = spec.with_kp(normalize_open_loop_gain(spec, plant, spec.omega_c))
    loop = SampledLoop.build(tf_to_ss(plant), spec, scenario[1].dt)
    man = Manifest("simulate", args.out,
                   seed=scenario[1].noise_seed if "seed" in d else None)
    res, report = _run_scenario(name, spec, loop, scenario, plant, {}, man, "")
    man.write()
    print(f"wrote {report}")
    return 0 if res is not None else 3


def cmd_reproduce(args):
    plant_tf = stage_plant()
    loop_plant = load_frf(args.plant) if args.plant else plant_tf
    builtins = builtin_specs()
    # each design normalized once per plant
    suite = build_benchmark_suite(plant_tf)
    loop_suite = suite if loop_plant is plant_tf else build_benchmark_suite(loop_plant)
    # the closed-loop runs, each made for every design: (subdir, tag, scenario)
    track = "08_tracking_metrics"
    runs = [("06_step_responses", "", {"reference": "step3um"}),
            *((track, tag, {"reference": ref, "feedforward": tag == "ff_"})
              for ref in ("ref1", "ref2", "ref3") for tag in ("", "ff_")),
            (track, "noise_", {"reference": "step3um", "noise_um": 2.0,
                               "seed": args.seed + 17})]
    runs = [(subdir, tag, parse_scenario({"seed": args.seed, **d}))
            for subdir, tag, d in runs]
    # one sampled loop per design, all on the first one's plant step: every
    # run samples at the default dt
    first = next(iter(suite))
    loop = SampledLoop.build(tf_to_ss(plant_tf), suite[first], SimConfig.dt)
    loops = {name: loop if name == first else loop.with_controller(spec)
             for name, spec in suite.items()}
    # open-loop views before the first write; stage 5 raises a numerical failure
    views, report, failure = {}, "", None
    try:
        for name, spec in loop_suite.items():
            views[name] = open_loop_view(spec, loop_plant)
            wc, pm = crossover_pm(views[name])
            report += (f"{name}: crossover {to_hz(wc):.3f} Hz, "
                       f"phase margin {pm:.3f} deg, kp {spec.kp!r}\n")
    except ArithmeticError as exc:
        failure = exc
    man = Manifest("reproduce", args.out, seed=args.seed)
    try:
        # resetting-integrator harmonics, orders 1..11
        grid, orders = log_grid(0.01, 100.0, 20), range(1, 12)
        gains = controller_harmonics(build_controller(builtins["clegg"]), grid, orders)
        _write_harmonic_files(man, "01_clegg_harmonics", grid, orders, gains)

        # constant-gain lead-phase stage: reset vs no-reset limit
        grid = log_grid(1.0, 1000.0, 30)
        for tag in ("cglp-fore", "cglp-sore"):
            vals = controller_harmonic(build_controller(builtins[tag]), grid, 1)
            man.save(save_response, FrequencyResponse(grid, vals),
                     "02_cglp_lead", f"{tag}_reset.csv")
            man.save(save_response, _linear_response(builtins[tag], grid),
                     "02_cglp_lead", f"{tag}_linear.csv")

        # complex-order ladder filters: reset vs linear + slope report
        grid = log_grid(1.0, 5000.0, 50)
        slopes = ""
        for name in ("cloc-1", "cloc-2"):
            d = builtins[name]
            vals = controller_harmonic(build_controller(d), grid, 1)
            # strip PI and low-pass to leave the bare filter
            filt_vals = vals / (pi_stage(hz(d["omega_i_hz"]))(1j * grid)
                                * first_order_lag(hz(d["omega_f_hz"]))(1j * grid))
            man.save(save_response, FrequencyResponse(grid, filt_vals),
                     "03_ladder_filters",
                     f"{name.replace('-', '')}_filter_reset.csv")
            fit = slope_estimate(HarmonicResponse(grid, 1, filt_vals),
                                 fit_band(parse_skeleton(d)))
            slopes += (f"{name}: gain {fit.gain_slope:.3f} dB/dec, "
                       f"phase {fit.phase_slope:.3f} deg/dec over trimmed "
                       f"band\n")
        man.text(slopes, "03_ladder_filters", "slopes.txt")

        # controller spec round trip
        for name in SUITE:
            path = man.save(emit_spec, builtins[name],
                            "04_controller_specs", f"{name}.spec")
            reparsed = parse_spec(path)
            if reparsed != builtins[name]:
                raise ValueError(f"spec round-trip mismatch for {name}")
            build_controller(reparsed)  # must rebuild cleanly

        # open-loop views + crossover report, each reset design's third harmonic
        for name, view in views.items():
            man.save(save_open_loop_csv, view, "05_open_loop", f"{name}.csv")
            if name != "pid":
                man.save(save_normalized_third_csv, view,
                         "07_normalized_third", f"{name}.csv")
        if failure is not None:
            raise failure
        man.text(report, "05_open_loop", "crossover_pm.txt")

        # closed-loop runs (hybrid simulation; instability is a result)
        man.text("Simulated closed-loop metrics on the bundled plant "
                 "model -- simulation, not hardware.\n", track, "README.txt")
        commands = {}   # feedforward command per (filter, reference, dt)
        for name, spec in suite.items():
            for subdir, tag, scenario in runs:
                _run_scenario(name, spec, loops[name], scenario, plant_tf,
                              commands, man, subdir, tag)
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
