"""The benchmark's tracer against the current library.

bench/tracing.py rebinds the library's layer boundaries by name; a rename
in the library would break the benchmark without any other test noticing.
This loads the tracer by path, installs it, makes one small call through
each wrapped boundary and checks that each recorded a clean span.
"""

import importlib.util
import inspect
import pathlib
import sys

import numpy as np

from resetloop import analysis, cli, lti, reset, sim, specfile, synthesis

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

BOUNDARIES = {
    "reset.df", "reset.hosidf", "reset.batch", "synthesis.tune",
    "synthesis.controller_harmonic", "synthesis.normalize",
    "synthesis.suite_build", "sim.closed_loop", "sim.trajectory",
    "sim.feedforward", "sim.csv", "sim.oracle", "analysis.open_loop_view",
    "analysis.csv", "specfile.build_controller", "lti.save_response",
    "cli.main", "cli.manifest",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded resetloop module, plus the wrapped
    method, by identity."""
    out = {(name, attr): value for name, mod in list(sys.modules.items())
           if mod is not None and name.split(".")[0] == "resetloop"
           for attr, value in vars(mod).items()}
    out[("cli.Manifest", "add")] = cli.Manifest.add
    return out


def _exercise(tmp):
    """One small call through each boundary, looked up on its module so
    the wrapper is what runs."""
    grid = lti.log_grid(10.0, 100.0, 5)
    fore = reset.fore(lti.hz(50.0), 0.2)
    reset.describing_function(fore, grid)
    reset.hosidf(fore, grid, 3)
    chain = reset.lag_chain((10.0, 100.0), (1.0, 1.0))
    reset.describing_function_gamma_batch(chain.base, 2, np.array([[0.0, 0.5]]),
                                          grid)
    crone = synthesis.CroneApprox((20.0, 200.0), (10.0, 100.0))
    synthesis.tune_arho(crone, (-10.0, 100.0), delta=2.0, refine=False)

    plant = lti.stage_plant()
    suite = synthesis.build_benchmark_suite(plant)
    pid = suite["pid"]
    synthesis.normalize_open_loop_gain(pid, plant, pid.omega_c)
    view = analysis.open_loop_view(suite["cglp-pid"], plant, grid)
    analysis.save_open_loop_csv(view, tmp / "ol.csv")
    analysis.save_normalized_third_csv(view, tmp / "third.csv")

    traj = sim.generate_trajectory("step", 3e-6, 0.01)
    ff = sim.make_feedforward(plant, 100.0 * pid.omega_c)
    res = sim.simulate_closed_loop(
        sim.SampledLoop.build(lti.tf_to_ss(plant), pid, 1e-4), traj,
        sim.SimConfig(), sim.feedforward_signal(ff, traj, 1e-4))
    sim.save_sim_csv(res, tmp / "sim.csv")
    sim.steady_state_harmonics(fore, lti.hz(50.0), 3, samples_per_period=200,
                               n_periods=2)
    assert cli.main(["bode", "clegg", "--fmin-hz", "10", "--fmax-hz", "100",
                     "--points-per-decade", "5", "--out", str(tmp / "bode")]) == 0


def test_tracer_records_a_clean_span_at_every_boundary(tmp_path):
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer(0)
    tracing.install_resetloop(tracer)
    try:
        assert specfile.build_controller is not before[("resetloop.specfile",
                                                        "build_controller")]
        _exercise(tmp_path)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())

    clean = {s["name"] for s in tracer.spans if "error" not in s["info"]}
    assert BOUNDARIES <= clean, sorted(BOUNDARIES - clean)
    assert not [s for s in tracer.spans if "error" in s["info"]]
    assert tracer.counts["sim.expm_calls"] > 0
    assert "reset.expm_calls" in tracer.counts


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def test_simulation_reaches_its_kernels_through_the_module(monkeypatch,
                                                           tmp_path):
    # the tracer counts sim.feedforward_calls by rebinding every module
    # attribute bound to the drive, so a run with feedforward must look the
    # drive up there
    calls = []
    drive = sim.feedforward_signal
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "resetloop":
            for attr, value in list(vars(mod).items()):
                if value is drive:
                    monkeypatch.setattr(
                        mod, attr, lambda *args: calls.append(args) or drive(*args))
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = ref3\nfeedforward = true\n")
    assert cli.main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1

    # no kernel keeps a module-level function in a local, a closure cell or
    # a default argument, where a rebinding would not reach it
    globals_ = {name for name, value in vars(sim).items() if callable(value)}
    for name, fn in vars(sim).items():
        if not (inspect.isfunction(fn) and fn.__module__ == sim.__name__):
            continue
        for code in _code_objects(fn.__code__):
            assert not globals_ & set(code.co_varnames + code.co_cellvars), name
        defaults = (*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values())
        assert not [d for d in defaults if callable(d)], name
