"""Spans and counters recorded from outside the library.

The tracer rebinds public functions of the ``resetloop`` modules to thin
wrappers.  ``cli``, ``synthesis``, ``analysis``, ``sim`` and ``specfile``
import with ``from .x import name``, so each wrapper replaces the function
under every module attribute that refers to it, not just in the module
that defines it.  Spans stay in memory; the caller writes them out when the
run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time


class Tracer:
    """One span per wrapped call: name, start, end, parent, run id and a
    small ``info`` dict (points, samples, bytes...).  ``phase`` tags each
    span with the benchmark stage ("setup" or "run") it was recorded in."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.phase = "setup"
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []

    def start_run(self):
        """Spans from here on belong to the measured run; counters restart."""
        self.phase = "run"
        for key in self.counts:
            self.counts[key] = 0

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "phase": self.phase,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "info": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        """Wrapper recording a span called `name` around each call of fn.
        ``info(arguments, exc)`` returns extra numbers for the span; exc is
        the exception the call raised, or None."""
        sig = inspect.signature(fn) if info is not None else None

        def wrapper(*args, **kwargs):
            span = self._open(name)
            exc = None
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                exc = err
                span["info"]["error"] = type(err).__name__
                raise
            finally:
                self._close(span)
                if info is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["info"].update(info(bound.arguments, exc))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        """Wrapper that only counts calls (for hot scipy entry points)."""
        self.counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def replace(self, owner, attr, value):
        """Set owner.attr, remembering the old value for uninstall()."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper, package="resetloop"):
        """Replace `original` under every attribute of every loaded module
        of the package that refers to it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _grid_points(args, _exc):
    return {"points": len(args["grid"]) if hasattr(args["grid"], "__len__")
            else 1}


def _batch_points(args, _exc):
    g = len(args["gammas"])
    return {"points": g * len(args["grid"]), "gamma_points": g}


def _samples(args, exc):
    # a diverged run stops at the sample that blew up
    if exc is not None and getattr(exc, "time", None) is not None:
        return {"samples": int(round(exc.time / args["cfg"].dt)) + 1}
    return {"samples": int(len(args["traj"].t))}


def _oracle_steps(args, _exc):
    spp = args["samples_per_period"]
    if args["dt"] is not None:
        spp = 2 * max(1, int(round(math.pi / (float(args["omega"])
                                              * args["dt"]))))
    return {"steps": (spp // 2) * 2 * int(args["n_periods"])}


def _trajectory_key(args, _exc):
    return {"key": repr(sorted(args.items()))}


def _file_bytes(args, exc):
    return {} if exc is not None else {"bytes": os.path.getsize(args["path"])}


def install_resetloop(tracer):
    """Wrap the layer boundaries of every resetloop module.  The package
    must already be imported."""
    from resetloop import analysis, cli, lti, reset, sim, specfile, synthesis

    boundaries = [
        (reset.describing_function, "reset.df", _grid_points),
        (reset.hosidf, "reset.hosidf", _grid_points),
        (reset.describing_function_gamma_batch, "reset.batch", _batch_points),
        (synthesis.tune_arho, "synthesis.tune", None),
        (synthesis.controller_harmonic, "synthesis.controller_harmonic", None),
        (synthesis.normalize_open_loop_gain, "synthesis.normalize", None),
        (synthesis.build_benchmark_suite, "synthesis.suite_build", None),
        (sim.simulate_closed_loop, "sim.closed_loop", _samples),
        (sim.generate_trajectory, "sim.trajectory", _trajectory_key),
        (sim.feedforward_signal, "sim.feedforward", None),
        (sim.save_sim_csv, "sim.csv", _file_bytes),
        (sim.steady_state_harmonics, "sim.oracle", _oracle_steps),
        (analysis.open_loop_view, "analysis.open_loop_view", None),
        (analysis.save_open_loop_csv, "analysis.csv", _file_bytes),
        (analysis.save_normalized_third_csv, "analysis.csv", _file_bytes),
        (specfile.build_controller, "specfile.build_controller", None),
        (lti.save_response, "lti.save_response", _file_bytes),
        (cli.main, "cli.main", None),
    ]
    for fn, name, info in boundaries:
        tracer.rebind(fn, tracer.wrap(name, fn, info))
    # `expm` as bound in each module, counted separately per layer
    tracer.replace(reset, "expm", tracer.counter("reset.expm_calls", reset.expm))
    tracer.replace(sim, "expm", tracer.counter("sim.expm_calls", sim.expm))
    tracer.replace(cli.Manifest, "add",
                    tracer.wrap("cli.manifest", cli.Manifest.add))


#: per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = [
    ("reset.df_calls", "count", "lower"),
    ("reset.df_points", "count", "lower"),
    ("reset.df_self_s", "s", "lower"),
    ("reset.df_us_per_point", "us", "lower"),
    ("reset.hosidf_calls", "count", "lower"),
    ("reset.hosidf_points", "count", "lower"),
    ("reset.hosidf_self_s", "s", "lower"),
    ("reset.hosidf_us_per_point", "us", "lower"),
    ("reset.expm_calls", "count", "lower"),
    ("reset.batch_calls", "count", "lower"),
    ("reset.batch_points", "count", "lower"),
    ("reset.batch_s", "s", "lower"),
    ("reset.batch_ns_per_point", "ns", "lower"),
    ("reset.singular_errors", "count", "lower"),
    ("synthesis.tune_s", "s", "lower"),
    ("synthesis.tune_self_s", "s", "lower"),
    ("synthesis.gamma_points", "count", "lower"),
    ("synthesis.gamma_points_per_s", "1/s", "higher"),
    ("synthesis.controller_harmonic_calls", "count", "lower"),
    ("synthesis.controller_harmonic_self_s", "s", "lower"),
    ("synthesis.normalize_calls", "count", "lower"),
    ("synthesis.normalize_s", "s", "lower"),
    ("synthesis.suite_build_s", "s", "lower"),
    ("sim.closed_loop_calls", "count", "lower"),
    ("sim.closed_loop_samples", "count", "lower"),
    ("sim.closed_loop_self_s", "s", "lower"),
    ("sim.closed_loop_us_per_sample", "us", "lower"),
    ("sim.diverged", "count", "lower"),
    ("sim.trajectory_calls", "count", "lower"),
    ("sim.trajectory_distinct", "count", "lower"),
    ("sim.trajectory_s", "s", "lower"),
    ("sim.feedforward_calls", "count", "lower"),
    ("sim.feedforward_s", "s", "lower"),
    ("sim.expm_calls", "count", "lower"),
    ("sim.csv_calls", "count", "lower"),
    ("sim.csv_s", "s", "lower"),
    ("sim.csv_bytes", "B", "lower"),
    ("sim.oracle_calls", "count", "lower"),
    ("sim.oracle_steps", "count", "lower"),
    ("sim.oracle_s", "s", "lower"),
    ("sim.oracle_s_per_freq", "s", "lower"),
    ("analysis.open_loop_view_calls", "count", "lower"),
    ("analysis.open_loop_view_self_s", "s", "lower"),
    ("analysis.csv_s", "s", "lower"),
    ("analysis.csv_bytes", "B", "lower"),
    ("specfile.build_controller_calls", "count", "lower"),
    ("specfile.build_controller_s", "s", "lower"),
    ("lti.save_response_calls", "count", "lower"),
    ("lti.save_response_s", "s", "lower"),
    ("lti.save_response_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.manifest_s", "s", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("check.max_rel_dev", "ratio", "lower"),
    ("check.files_identical", "ratio", "higher"),
]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, out_dir):
    """Per-layer numbers of one traced run, from its spans and counters.
    Self time is a span's duration minus that of its direct children.
    ``trace.*`` and ``check.*`` are filled in by the caller."""
    child_time = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    run = {}
    for s in tracer.spans:
        run.setdefault((s["phase"], s["name"]), []).append(s)

    def spans(name, phase="run"):
        return run.get((phase, name), [])

    def calls(name):
        return len(spans(name))

    def total(name, phase="run"):
        return sum(s["end"] - s["start"] for s in spans(name, phase))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   for s in spans(name))

    def info(name, key):
        return sum(s["info"].get(key, 0) for s in spans(name))

    def errors(name, kind):
        return sum(s["info"].get("error") == kind for s in spans(name))

    files = bytes_ = 0
    for dirpath, _dirs, names in os.walk(out_dir):
        for n in names:
            files += 1
            bytes_ += os.path.getsize(os.path.join(dirpath, n))

    m = {}
    for key, name in (("df", "reset.df"), ("hosidf", "reset.hosidf")):
        m[f"reset.{key}_calls"] = calls(name)
        m[f"reset.{key}_points"] = info(name, "points")
        m[f"reset.{key}_self_s"] = self_time(name)
        m[f"reset.{key}_us_per_point"] = _ratio(self_time(name),
                                                info(name, "points"), 1e6)
    m["reset.expm_calls"] = tracer.counts.get("reset.expm_calls", 0)
    m["reset.batch_calls"] = calls("reset.batch")
    m["reset.batch_points"] = info("reset.batch", "points")
    m["reset.batch_s"] = total("reset.batch")
    m["reset.batch_ns_per_point"] = _ratio(total("reset.batch"),
                                           info("reset.batch", "points"), 1e9)
    m["reset.singular_errors"] = sum(
        errors(n, "SingularFrequencyError")
        for n in ("reset.df", "reset.hosidf", "reset.batch"))
    m["synthesis.tune_s"] = total("synthesis.tune")
    m["synthesis.tune_self_s"] = self_time("synthesis.tune")
    m["synthesis.gamma_points"] = info("reset.batch", "gamma_points")
    m["synthesis.gamma_points_per_s"] = _ratio(info("reset.batch", "gamma_points"),
                                               total("synthesis.tune"))
    m["synthesis.controller_harmonic_calls"] = calls("synthesis.controller_harmonic")
    m["synthesis.controller_harmonic_self_s"] = self_time("synthesis.controller_harmonic")
    m["synthesis.normalize_calls"] = calls("synthesis.normalize")
    m["synthesis.normalize_s"] = total("synthesis.normalize")
    m["synthesis.suite_build_s"] = total("synthesis.suite_build", phase="setup")
    m["sim.closed_loop_calls"] = calls("sim.closed_loop")
    m["sim.closed_loop_samples"] = info("sim.closed_loop", "samples")
    m["sim.closed_loop_self_s"] = self_time("sim.closed_loop")
    m["sim.closed_loop_us_per_sample"] = _ratio(self_time("sim.closed_loop"),
                                                info("sim.closed_loop", "samples"), 1e6)
    m["sim.diverged"] = errors("sim.closed_loop", "SimulationDiverged")
    m["sim.trajectory_calls"] = calls("sim.trajectory")
    m["sim.trajectory_distinct"] = len({s["info"].get("key")
                                        for s in spans("sim.trajectory")})
    m["sim.trajectory_s"] = total("sim.trajectory")
    m["sim.feedforward_calls"] = calls("sim.feedforward")
    m["sim.feedforward_s"] = total("sim.feedforward")
    m["sim.expm_calls"] = tracer.counts.get("sim.expm_calls", 0)
    m["sim.csv_calls"] = calls("sim.csv")
    m["sim.csv_s"] = total("sim.csv")
    m["sim.csv_bytes"] = info("sim.csv", "bytes")
    m["sim.oracle_calls"] = calls("sim.oracle")
    m["sim.oracle_steps"] = info("sim.oracle", "steps")
    m["sim.oracle_s"] = total("sim.oracle")
    m["sim.oracle_s_per_freq"] = _ratio(total("sim.oracle"), calls("sim.oracle"))
    m["analysis.open_loop_view_calls"] = calls("analysis.open_loop_view")
    m["analysis.open_loop_view_self_s"] = self_time("analysis.open_loop_view")
    m["analysis.csv_s"] = total("analysis.csv")
    m["analysis.csv_bytes"] = info("analysis.csv", "bytes")
    m["specfile.build_controller_calls"] = calls("specfile.build_controller")
    m["specfile.build_controller_s"] = total("specfile.build_controller")
    m["lti.save_response_calls"] = calls("lti.save_response")
    m["lti.save_response_s"] = total("lti.save_response")
    m["lti.save_response_bytes"] = info("lti.save_response", "bytes")
    m["cli.self_s"] = self_time("cli.main")
    m["cli.manifest_s"] = total("cli.manifest")
    m["cli.files_written"] = files
    m["cli.bytes_written"] = bytes_
    return m


def root_span_seconds(tracer):
    """Summed duration of the run phase's root spans."""
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["phase"] == "run" and s["parent"] is None)
