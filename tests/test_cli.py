import contextlib
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import resetloop
from resetloop.cli import main
from resetloop.specfile import builtin_specs, emit_spec

BUILTIN_NAMES = ["clegg", "fore", "sore", "cglp-fore", "cglp-sore", "pid",
                 "cglp-pid", "cglp-pi", "cloc-1", "cloc-2"]


def _read_manifest(path):
    entries = {}
    for line in open(path, encoding="utf-8"):
        if line.startswith("#"):
            continue
        digest, rel = line.strip().split(None, 1)
        entries[rel] = digest
    return entries


def _assert_manifest_complete(out):
    """The files under ``out``, bar manifest.txt, are exactly the
    manifest's entries, each listed once with its sha256, and every number
    in them is finite (no nan or inf token)."""
    listed = [line.split(None, 1) for line in
              (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
              if not line.startswith("#")]
    rels = [rel for _, rel in listed]
    assert len(rels) == len(set(rels)), rels
    on_disk = {path.relative_to(out).as_posix() for path in out.rglob("*")
               if path.is_file()}
    assert on_disk - {"manifest.txt"} == set(rels)
    for digest, rel in listed:
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
        for token in re.split(r"[\s,;:=\[\]()]+", (out / rel).read_text(encoding="utf-8")):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token)), (rel, token)


def test_df_writes_harmonics_and_manifest(tmp_path):
    out = tmp_path / "df"
    rc = main(["df", "clegg", "--fmin-hz", "0.01", "--fmax-hz", "100",
               "--harmonics", "1", "2", "3", "--out", str(out)])
    assert rc == 0
    entries = _read_manifest(out / "manifest.txt")
    assert set(entries) == {"harmonic_01.csv", "harmonic_02.csv",
                            "harmonic_03.csv"}
    _assert_manifest_complete(out)
    even = (out / "harmonic_02.csv").read_text()
    assert "exactly zero" in even
    assert len(even.splitlines()) == 2   # header + stub comment


def test_df_gamma_one_matches_bode(tmp_path):
    spec = tmp_path / "f.spec"
    spec.write_text("kind = fore\nomega_r_hz = 50.0\ngamma = [1.0]\n")
    out_df = tmp_path / "df"
    out_bode = tmp_path / "bode"
    assert main(["df", str(spec), "--harmonics", "1", "--out", str(out_df)]) == 0
    assert main(["bode", str(spec), "--out", str(out_bode)]) == 0
    _assert_manifest_complete(out_df)
    _assert_manifest_complete(out_bode)
    df_rows = np.loadtxt(out_df / "harmonic_01.csv", delimiter=",",
                         skiprows=1, usecols=(0, 2, 3))
    bode_rows = np.loadtxt(out_bode / "bode.csv", delimiter=",", skiprows=1)
    assert np.allclose(df_rows[:, 1:], bode_rows[:, 1:], atol=1e-9)


def test_tune_command(tmp_path):
    out = tmp_path / "tune"
    rc = main(["tune", "cloc-1", "--target-gain-slope", "-10",
               "--target-phase-slope", "125", "--delta", "0.25",
               "--out", str(out)])
    assert rc == 0
    report = (out / "tune_report.txt").read_text()
    assert "achieved" in report
    assert "best grid points" in report
    tuned = (out / "tuned.spec").read_text()
    assert "gamma" in tuned
    _assert_manifest_complete(out)


def test_tune_degenerate_delta(tmp_path):
    # a coarse grid of just the corners is degenerate but legal
    skel = tmp_path / "skel.spec"
    skel.write_text("kind = cloc\nalpha = -0.5\nn_pairs = 2\n"
                    "omega_l_hz = 10.0\nomega_h_hz = 1000.0\n")
    out = tmp_path / "tune"
    rc = main(["tune", str(skel), "--target-gain-slope", "-10",
               "--target-phase-slope", "60", "--delta", "2",
               "--out", str(out)])
    assert rc == 0
    from resetloop.specfile import parse_spec

    tuned = parse_spec(out / "tuned.spec")
    assert all(-1.0 <= g <= 1.0 for g in tuned["gamma"])


def test_tuned_spec_from_a_placement_skeleton_builds(tmp_path):
    skel = tmp_path / "skel.spec"
    skel.write_text("kind = cloc\nalpha = -0.5\nn_pairs = 2\n"
                    "omega_l_hz = 10.0\nomega_h_hz = 1000.0\n"
                    "omega_c_hz = 150.0\nomega_i_hz = 15.0\nomega_f_hz = 1500.0\n")
    out = tmp_path / "tune"
    assert main(["tune", str(skel), "--target-gain-slope", "-10",
                 "--target-phase-slope", "60", "--delta", "2",
                 "--out", str(out)]) == 0
    assert main(["df", str(out / "tuned.spec"), "--harmonics", "1",
                 "--out", str(tmp_path / "df")]) == 0


def test_simulate_stable_scenario(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\nseed = 3\n")
    out = tmp_path / "run"
    rc = main(["simulate", str(scen), "--out", str(out)])
    assert rc == 0
    report = (out / "pid_step3um_metrics.txt").read_text()
    assert "status: ok" in report
    csv = (out / "pid_step3um.csv").read_text().splitlines()
    assert csv[0] == "t_s,r_m,y_m,e_m,u"
    _assert_manifest_complete(out)


def test_simulate_divergent_scenario_exits_3(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = cloc-2\nreference = step3um\n")
    out = tmp_path / "run"
    rc = main(["simulate", str(scen), "--out", str(out)])
    assert rc == 3
    report = (out / "cloc-2_step3um_metrics.txt").read_text()
    assert "diverged" in report
    _assert_manifest_complete(out)


def test_missing_scenario_is_input_error(tmp_path):
    rc = main(["simulate", str(tmp_path / "nope.spec"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_malformed_spec_is_input_error(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("kind cloc\n")
    rc = main(["df", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_reproduce_is_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["reproduce", "--out", str(out1), "--seed", "9"]) == 0
    assert main(["reproduce", "--out", str(out2), "--seed", "9"]) == 0
    m1 = _read_manifest(out1 / "manifest.txt")
    m2 = _read_manifest(out2 / "manifest.txt")
    assert m1 == m2
    assert len(m1) > 50
    _assert_manifest_complete(out1)


def test_reproduce_with_frf_plant(tmp_path):
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant

    frf_path = tmp_path / "plant.csv"
    save_frf(freq_response(stage_plant(), log_grid(0.5, 2000.0, 30)), frf_path)
    out = tmp_path / "rep"
    rc = main(["reproduce", "--out", str(out), "--plant", str(frf_path)])
    assert rc == 0
    pm = (out / "05_open_loop" / "crossover_pm.txt").read_text()
    assert "crossover 15" in pm  # still lands at ~150 Hz on the frf
    _assert_manifest_complete(out)


@pytest.mark.parametrize("span_hz", [(2.0, 5000.0), (100.0, 200.0)])
def test_reproduce_views_an_frf_above_1_hz_on_its_own_grid(tmp_path, span_hz):
    # the model plant's 1-2000 Hz view grid would read the FRF outside its
    # span, and the NaN would reach every phase margin
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant

    frf = freq_response(stage_plant(), log_grid(*span_hz, 50))
    frf_path = tmp_path / "plant.csv"
    save_frf(frf, frf_path)
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out), "--plant", str(frf_path)]) == 0
    _assert_manifest_complete(out)
    report = (out / "05_open_loop" / "crossover_pm.txt").read_text()
    margins = [float(m) for m in re.findall(r"phase margin (\S+) deg", report)]
    assert len(margins) == 5 and all(30.0 < m < 90.0 for m in margins), report
    view = (out / "05_open_loop" / "pid.csv").read_text().splitlines()
    assert sum(line.split(",")[1] == "1" for line in view[1:]) == frf.omega.size


@pytest.mark.parametrize("with_plant, calls", [(False, 5), (True, 10)])
def test_reproduce_normalizes_each_design_once_per_plant(tmp_path, monkeypatch,
                                                         with_plant, calls):
    import resetloop.cli
    import resetloop.synthesis
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant
    from resetloop.sim import SimulationDiverged

    normalize, seen = resetloop.synthesis.normalize_open_loop_gain, []

    def counting(*args):
        seen.append(args)
        return normalize(*args)

    def diverge(*args, **kwargs):   # the runs themselves do not matter here
        raise SimulationDiverged("not simulated", time=0.0)

    for module in (resetloop.synthesis, resetloop.cli):
        monkeypatch.setattr(module, "normalize_open_loop_gain", counting)
    monkeypatch.setattr(resetloop.cli, "simulate_closed_loop", diverge)
    argv = ["reproduce", "--out", str(tmp_path / "rep")]
    if with_plant:
        frf_path = tmp_path / "plant.csv"
        save_frf(freq_response(stage_plant(), log_grid(0.5, 2000.0, 30)), frf_path)
        argv += ["--plant", str(frf_path)]
    assert main(argv) == 0
    assert len(seen) == calls


def test_simulate_rejects_plant_option(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(scen), "--plant", str(tmp_path / "none.csv"),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_simulate_integral_seed_is_an_int(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\nseed = 7\n")
    out = tmp_path / "run"
    assert main(["simulate", str(scen), "--out", str(out)]) == 0
    assert "# seed: 7\n" in (out / "manifest.txt").read_text()


def test_reproduce_rejects_a_negative_noise_seed_before_out(tmp_path, capsys):
    # the noise_ rows are seeded with --seed + 17, here -3
    out = tmp_path / "rep"
    assert main(["reproduce", "--seed", "-20", "--out", str(out)]) == 2
    assert "noise_seed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_negative_seed_with_noise(tmp_path, capsys):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\nseed = -3\n"
                    "noise_um = 1.0\n")
    out = tmp_path / "o"
    assert main(["simulate", str(scen), "--out", str(out)]) == 2
    assert "-3" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_keeps_a_negative_seed_that_draws_no_noise(tmp_path,
                                                             monkeypatch):
    # --seed -1 seeds the noise_ rows with 16; the others draw no noise
    import resetloop.cli
    from resetloop.sim import SimulationDiverged

    def diverge(*args, **kwargs):   # the runs themselves do not matter here
        raise SimulationDiverged("not simulated", time=0.0)

    monkeypatch.setattr(resetloop.cli, "simulate_closed_loop", diverge)
    out = tmp_path / "rep"
    assert main(["reproduce", "--seed", "-1", "--out", str(out)]) == 0
    assert "# seed: -1\n" in (out / "manifest.txt").read_text()


def test_simulate_rejects_fractional_seed(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\nseed = 7.5\n")
    out = tmp_path / "run"
    assert main(["simulate", str(scen), "--out", str(out)]) == 2
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("line", [
    "quantization_m = -1", "quantization_m = nan",
    "noise_um = -2.0", "noise_um = nan",
])
def test_simulate_rejects_bad_sensor_values(tmp_path, line):
    scen = tmp_path / "s.spec"
    scen.write_text(f"controller = pid\nreference = step3um\n{line}\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2


def test_readme_scenario_runs_verbatim(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    after = readme.split("Scenario files name a controller and a reference:")[1]
    block = after.split("```")[1]
    scen = tmp_path / "s.spec"
    scen.write_text(block.lstrip("\n"))
    out = tmp_path / "run"
    assert main(["simulate", str(scen), "--out", str(out)]) == 0
    assert "status: ok" in (out / "pid_ref2_metrics.txt").read_text()


@st.composite
def _broken_frf(draw):
    """FRF file bytes that load_frf must reject: a valid table with one
    cell, row or the header broken, or arbitrary bytes."""
    freqs = sorted(set(draw(st.lists(st.floats(0.5, 2000.0), min_size=1,
                                     max_size=5))))
    rows = [[repr(f), "1.0", "-0.5"] for f in freqs]
    header = "freq_hz,real,imag"
    i = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, 2))
    fault = draw(st.sampled_from(["non-finite", "non-numeric", "columns",
                                  "order", "non-positive", "header",
                                  "no rows", "bytes"]))
    if fault == "bytes":
        return draw(st.binary(max_size=64))
    if fault == "non-finite":
        rows[i][col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN",
                                             "Infinity", "+inf"]))
    elif fault == "non-numeric":
        rows[i][col] = draw(st.sampled_from(["", "one", "1e", "0x10", "1..0",
                                             "j"]))
    elif fault == "columns":
        rows[i] = rows[i][:col + 1] if col < 2 else rows[i] + ["0.0"]
    elif fault == "order":
        rows.insert(i, list(rows[i]))
    elif fault == "non-positive":
        rows[0][0] = draw(st.sampled_from(["0", "-0.0", "-1.5"]))
    elif fault == "header":
        header = draw(st.sampled_from(["", "freq,real,imag", "freq_hz,imag,real",
                                       "freq_hz;real;imag", "FREQ_HZ,REAL,IMAG",
                                       "freq_hz,real,imag,extra"]))
    else:
        rows = []
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    return text.encode("utf-8")


@given(_broken_frf())
def test_reproduce_rejects_fuzzed_frf_files(tmp_path_factory, data):
    # load_frf runs before any stage, so every example is cheap
    tmp = tmp_path_factory.mktemp("frf")
    frf_path = tmp / "plant.csv"
    frf_path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["reproduce", "--out", str(tmp / "rep"),
                   "--plant", str(frf_path)])
    assert rc == 2, data
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    assert not (tmp / "rep").exists()


def test_cold_start_does_not_import_scipy_optimize(tmp_path):
    # the builtin table holds the matched gamma as a literal, so neither
    # set-up nor a builtin's df needs scipy's root-finders
    code = "\n".join([
        "import sys",
        "import resetloop.cli",
        "from resetloop.lti import stage_plant",
        "from resetloop.synthesis import build_benchmark_suite",
        "build_benchmark_suite(stage_plant())",
        f"rc = resetloop.cli.main(['df', 'cglp-pi', '--fmin-hz', '10', "
        f"'--fmax-hz', '1000', '--points-per-decade', '5', '--out', "
        f"{str(tmp_path / 'df')!r}])",
        "assert rc == 0, rc",
        "assert 'scipy.optimize' not in sys.modules",
    ])
    src = str(pathlib.Path(resetloop.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "df" / "harmonic_01.csv").is_file()


def _run_fresh(lines):
    """Run `lines` in a fresh interpreter with this checkout's package."""
    src = str(pathlib.Path(resetloop.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cold_start_and_simulation_do_not_import_scipy(tmp_path):
    # the simulator and the oracle have their own exponential, and the
    # builtin closed forms never reach the scipy fallback
    _run_fresh([
        "import sys",
        "import resetloop.cli",
        "from resetloop.lti import hz, stage_plant, tf_to_ss",
        "from resetloop.reset import sore",
        "from resetloop.sim import (SampledLoop, SimConfig, feedforward_signal,",
        "    generate_trajectory, make_feedforward, simulate_closed_loop,",
        "    steady_state_harmonics)",
        "from resetloop.synthesis import build_benchmark_suite",
        "plant = stage_plant()",
        "suite = build_benchmark_suite(plant)",
        f"rc = resetloop.cli.main(['df', 'cglp-pi', '--fmin-hz', '10', "
        f"'--fmax-hz', '1000', '--points-per-decade', '5', '--out', "
        f"{str(tmp_path / 'df')!r}])",
        "assert rc == 0, rc",
        "steady_state_harmonics(sore(hz(20.0), 0.7, 0.2), hz(30.0), 3)",
        "spec = suite['pid']",
        "traj = generate_trajectory('fourth_order_scan', 100e-6, 0.093, hold=0.1)",
        "simulate_closed_loop(SampledLoop.build(tf_to_ss(plant), spec, 1e-4),",
        "    traj, SimConfig(),",
        "    feedforward_signal(make_feedforward(plant, 100.0 * spec.omega_c),",
        "                       traj, 1e-4))",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not loaded, loaded",
    ])


def test_cold_start_and_element_harmonics_call_no_eigen_or_svd_driver():
    # triangular and 2x2 bases are classified from their structure and
    # Lambda is screened by a bound, so set-up and the element harmonics
    # never call LAPACK's general eigensolver or SVD
    _run_fresh([
        "import sys",
        "import numpy as np",
        "calls = []",
        "# the public names, and the implementation module's, which cond calls",
        "impl = (sys.modules.get('numpy.linalg._linalg')",
        "        or sys.modules['numpy.linalg.linalg'])",
        "for mod in (np.linalg, impl):",
        "    for name in ('eigvals', 'svd', 'cond'):",
        "        f = getattr(mod, name)",
        "        setattr(mod, name, lambda *a, _f=f, _n=name, **k:",
        "                calls.append(_n) or _f(*a, **k))",
        "import resetloop.cli",
        "from resetloop.lti import hz, log_grid, stage_plant",
        "from resetloop.reset import describing_function, fore, hosidf, sore",
        "from resetloop.specfile import builtin_specs, build_controller",
        "from resetloop.synthesis import build_benchmark_suite",
        "build_benchmark_suite(stage_plant())",
        "grid = log_grid(hz(0.5), hz(2000.0), 10)",
        "for rs in (fore(hz(20.0), -0.5), sore(hz(20.0), 1.0, 0.5),",
        "           build_controller(builtin_specs()['cloc-1']).reset_part):",
        "    describing_function(rs, grid)",
        "    hosidf(rs, grid, 3)",
        "assert not calls, calls",
        "np.linalg.cond(np.eye(2))",   # the counters do see a call
        "assert calls == ['cond', 'svd'], calls",
    ])


def test_unstructured_exponential_still_falls_back_to_scipy():
    _run_fresh([
        "import sys",
        "import numpy as np",
        "from resetloop.reset import _expm_grid",
        "assert 'scipy' not in sys.modules",
        "A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])",
        "t = np.array([1e-3, 0.1, 2.0])",
        "E = _expm_grid(A, t)",
        "import scipy.linalg",
        "assert np.array_equal(E, scipy.linalg.expm(t[:, None, None] * A))",
    ])


def test_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cglp-sore").write_text("not a spec\n")
    assert main(["df", "cglp-sore", "--fmin-hz", "10", "--fmax-hz", "1000",
                 "--points-per-decade", "5", "--out", str(tmp_path / "o")]) == 0


def test_reproduce_frf_not_covering_crossover_is_input_error(tmp_path):
    # kp normalization at 150 Hz needs the FRF there; 1-100 Hz cannot give it
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant

    frf_path = tmp_path / "plant.csv"
    save_frf(freq_response(stage_plant(), log_grid(1.0, 100.0, 30)), frf_path)
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out), "--plant", str(frf_path)]) == 2
    assert not out.exists()


def test_reproduce_frf_on_which_a_design_never_crosses_leaves_no_out(tmp_path,
                                                                   capsys):
    # the FRF starts at the 150 Hz crossover, so a view sees no 0 dB crossing;
    # the views are checked before stages 1-4 write anything
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant

    frf_path = tmp_path / "plant.csv"
    save_frf(freq_response(stage_plant(), log_grid(150.0, 300.0, 30)), frf_path)
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out), "--plant", str(frf_path)]) == 2
    assert "first harmonic never crosses 0 dB on the grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, key", [
    ("simulate", "controller = pid\nreference = ref2\nreference = step3um\n",
     "reference"),
    ("df", "kind = clegg\ngamma = 0.5\ngamma = 0.0\n", "gamma"),
])
def test_a_repeated_key_is_an_input_error(tmp_path, command, body, key, capsys):
    # the last value would otherwise win silently (a step3um run, a gamma 0)
    path = tmp_path / "in.spec"
    path.write_text(body)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert f"in.spec:3: repeated key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_numerical_failure_keeps_a_partial_manifest(tmp_path,
                                                              monkeypatch):
    import resetloop.cli
    from resetloop.lti import SingularFrequencyError

    def singular(*args, **kwargs):
        raise SingularFrequencyError("singular in an open-loop view")

    monkeypatch.setattr(resetloop.cli, "open_loop_view", singular)
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out)]) == 3
    partial = _read_manifest(out / "manifest.txt")
    for stage in ("01_", "02_", "03_", "04_"):
        assert any(rel.startswith(stage) for rel in partial), stage
    assert not any(rel.startswith("05_open_loop/") for rel in partial)
    _assert_manifest_complete(out)


def test_reproduce_runs_the_forty_scenario_plan(tmp_path, monkeypatch):
    import resetloop.cli
    import resetloop.sim

    calls = {}

    def counted(module, name, key=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(key(args, kwargs) if key else None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(resetloop.cli, "simulate_closed_loop")
    counted(resetloop.cli, "generate_trajectory",
            lambda args, kwargs: (args, tuple(sorted(kwargs.items()))))
    counted(resetloop.cli, "feedforward_signal")
    counted(resetloop.cli, "save_sim_csv")
    counted(resetloop.sim, "_discretize")
    # every loop is a SampledLoop instance, built or swapped to a controller
    counted(resetloop.sim.SampledLoop, "__init__")
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out)]) == 0
    assert len(calls["simulate_closed_loop"]) == 40
    assert len(calls["generate_trajectory"]) == 40
    assert len(set(calls["generate_trajectory"])) == 4
    # one command per reference: the five designs share one filter
    assert len(calls["feedforward_signal"]) == 3
    # one loop per design on one shared plant step: 5 controller steps and
    # 1 plant step
    assert len(calls["__init__"]) == 5
    assert len(calls["_discretize"]) == 6
    assert len(calls["save_sim_csv"]) == 9
    manifest = _read_manifest(out / "manifest.txt")
    assert sum(rel.endswith("_metrics.txt") for rel in manifest) == 40


def test_clegg_spec_gamma_is_honoured(tmp_path):
    outs = {}
    for tag, body in (("builtin", None), ("g0", "gamma = [0.0]\n"),
                      ("g05", "gamma = [0.5]\n")):
        spec = "clegg"
        if body is not None:
            spec = tmp_path / f"{tag}.spec"
            spec.write_text("kind = clegg\n" + body)
        out = tmp_path / tag
        assert main(["df", str(spec), "--harmonics", "1", "3",
                     "--out", str(out)]) == 0
        assert main(["bode", str(spec), "--out", str(out)]) == 0
        outs[tag] = {name: (out / name).read_bytes()
                     for name in ("harmonic_01.csv", "harmonic_03.csv",
                                  "bode.csv")}
    assert outs["g0"] == outs["builtin"]
    assert outs["g05"]["harmonic_01.csv"] != outs["g0"]["harmonic_01.csv"]
    assert outs["g05"]["harmonic_03.csv"] != outs["g0"]["harmonic_03.csv"]
    # the no-reset limit forces gamma to 1 whatever the spec says
    assert outs["g05"]["bode.csv"] == outs["g0"]["bode.csv"]


def _assert_finite_csvs(out):
    for path in out.glob("*.csv"):
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_df_and_bode_accept_every_builtin(tmp_path, name):
    out = tmp_path / "out"
    assert main(["df", name, "--harmonics", "1", "2", "3", "--fmin-hz", "1",
                 "--fmax-hz", "1000", "--points-per-decade", "10",
                 "--out", str(out)]) == 0
    assert main(["bode", name, "--fmin-hz", "1", "--fmax-hz", "1000",
                 "--points-per-decade", "10", "--out", str(out)]) == 0
    first = (out / "harmonic_01.csv").read_text().splitlines()
    assert first[0] == "freq_hz,order,mag_db,phase_deg" and len(first) == 32
    assert len((out / "bode.csv").read_text().splitlines()) == 32
    _assert_finite_csvs(out)


@pytest.mark.parametrize("controller", ["fore", "cglp-fore"])
def test_simulate_rejects_a_bare_element(tmp_path, controller, capsys):
    scen = tmp_path / "s.spec"
    scen.write_text(f"controller = {controller}\nreference = step3um\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert "not a loop controller" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "feedforward = no", "feedforward = 1.0", "dt_s = [1e-4]",
    "noise_um = [2.0]", "quantization_m = [1e-7]", "controller = 5.0",
])
def test_simulate_rejects_malformed_scenario_values(tmp_path, line):
    scen = tmp_path / "s.spec"
    scen.write_text(f"controller = pid\nreference = step3um\n{line}\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line", [
    "noise_uM = 2.0", "bogus = 1", "kind = pid", "label = run", "kp = 2.0",
])
def test_simulate_rejects_unknown_scenario_keys(tmp_path, monkeypatch, capsys,
                                                line):
    import resetloop.cli

    def simulated(*args, **kwargs):
        raise AssertionError("simulated a scenario with an unknown key")

    monkeypatch.setattr(resetloop.cli, "simulate_closed_loop", simulated)
    scen = tmp_path / "s.spec"
    scen.write_text(f"controller = pid\nreference = step3um\n{line}\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["df", "bode"])
def test_misspelt_spec_key_writes_nothing(tmp_path, command, capsys):
    spec = tmp_path / "f.spec"
    spec.write_text("kind = fore\nomega_r_hz = 10.0\ngama = 0.5\n")
    out = tmp_path / "o"
    assert main([command, str(spec), "--out", str(out)]) == 2
    assert "'gama'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_step_too_coarse_for_the_run(tmp_path, capsys):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\ndt_s = 0.1\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert "at least 10 steps" in capsys.readouterr().err
    # found after the design is built and normalized, before any file
    assert not (tmp_path / "o").exists()


def test_simulate_feedforward_false_equals_absent(tmp_path):
    outs = []
    for tag, extra in (("absent", ""), ("false", "feedforward = false\n")):
        scen = tmp_path / f"{tag}.spec"
        scen.write_text("controller = pid\nreference = step3um\n" + extra)
        out = tmp_path / tag
        assert main(["simulate", str(scen), "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes()
                     for name in ("pid_step3um.csv",
                                  "pid_step3um_metrics.txt")})
    assert outs[0] == outs[1]


def _mutations(value):
    """A scalar for a list, a list for a scalar, an empty list, nan."""
    if isinstance(value, tuple):
        yield value[0]
    else:
        yield (value,) if isinstance(value, float) else (1.0,)
    yield ()
    yield float("nan")


def test_df_mutation_sweep_never_crashes_or_writes_non_finite(tmp_path):
    # every single-key mutation of every builtin either runs or is
    # rejected: exit 0, 2 or 3, never a traceback, never nan/inf in a CSV
    runs = 0
    for name, d in builtin_specs().items():
        for key, value in d.items():
            for k, mutated in enumerate(_mutations(value)):
                out = tmp_path / f"{name}_{key}_{k}"
                spec = tmp_path / f"{name}_{key}_{k}.spec"
                emit_spec(dict(d, **{key: mutated}), spec)
                start = time.perf_counter()
                rc = main(["df", str(spec), "--fmin-hz", "10", "--fmax-hz",
                           "1000", "--points-per-decade", "5",
                           "--out", str(out)])
                assert time.perf_counter() - start < 3.0, (name, key, mutated)
                assert rc in (0, 2, 3), (name, key, mutated, rc)
                _assert_finite_csvs(out)
                runs += 1
    assert runs == 3 * sum(len(d) for d in builtin_specs().values())


def test_df_rejects_every_misspelt_builtin_key(tmp_path):
    # a misspelt key must not fall back to a default: each key of each
    # builtin, written with its last letter doubled, is an input error
    for name, d in builtin_specs().items():
        for key in d:
            spec = tmp_path / f"{name}_{key}.spec"
            emit_spec({(k + k[-1] if k == key else k): v for k, v in d.items()},
                      spec)
            rc = main(["df", str(spec), "--fmin-hz", "10", "--fmax-hz", "1000",
                       "--points-per-decade", "5",
                       "--out", str(tmp_path / f"{name}_{key}")])
            assert rc == 2, (name, key)


@pytest.mark.parametrize("order", ["0", "-1"])
def test_df_rejects_harmonic_orders_below_one(tmp_path, order, capsys):
    out = tmp_path / "o"
    assert main(["df", "clegg", "--harmonics", "1", order, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--harmonics" in err and "hosidf" not in err
    assert not out.exists()


def test_df_rejects_repeated_harmonic_orders(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["df", "fore", "--harmonics", "1", "1", "3",
                 "--out", str(out)]) == 2
    assert "--harmonics repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, band", [
    ("kind = clegg\ngamma = [-1.0]\n", ("10", "1000")),   # resolvent singular
    ("sore", ("1e150", "1e199")),   # omega^2 overflows: Lambda singular
])
def test_df_singular_spec_exits_3_and_leaves_no_out(tmp_path, spec, band, capsys):
    if "\n" in spec:
        path = tmp_path / "s.spec"
        path.write_text(spec)
        spec = str(path)
    out = tmp_path / "o"
    assert main(["df", spec, "--fmin-hz", band[0], "--fmax-hz", band[1],
                 "--out", str(out)]) == 3
    assert "singular" in capsys.readouterr().err
    assert not out.exists()


def test_df_computes_every_order_in_one_kernel_pass(tmp_path, kernel_calls):
    orders = [str(n) for n in range(1, 12)]
    assert main(["df", "clegg", "--harmonics", *orders,
                 "--out", str(tmp_path / "o")]) == 0
    assert kernel_calls == [(1, 3, 5, 7, 9, 11)]


def test_reproduce_clegg_harmonics_take_one_kernel_pass(tmp_path, monkeypatch,
                                                        kernel_calls):
    import resetloop.cli
    from resetloop.sim import SimulationDiverged

    def diverge(*args, **kwargs):   # the runs make no kernel call
        raise SimulationDiverged("not simulated", time=0.0)

    monkeypatch.setattr(resetloop.cli, "simulate_closed_loop", diverge)
    assert main(["reproduce", "--out", str(tmp_path / "rep")]) == 0
    # stage 01 is the only call for orders above 1; the rest are first
    # harmonics (normalizations, stages 02-04) and one (1, 3) pass per
    # reset design's open-loop view
    assert kernel_calls.count((1, 3, 5, 7, 9, 11)) == 1
    assert kernel_calls.count((1, 3)) == 4
    assert len(kernel_calls) == 21


@pytest.mark.parametrize("command", ["df", "bode"])
def test_band_below_the_grid_floor_is_an_input_error(tmp_path, command, capsys):
    # every point would fall below OMEGA_FLOOR: no grid, not an empty result
    out = tmp_path / "o"
    assert main([command, "clegg", "--fmin-hz", "1e-6", "--fmax-hz", "1e-5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fmax_hz" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["df", "bode"])
@pytest.mark.parametrize("option,value", [
    ("--points-per-decade", "0"),
    ("--points-per-decade", "-7"),
    ("--fmax-hz", "inf"),
    ("--fmin-hz", "nan"),
])
def test_bad_grid_arguments_are_input_errors(tmp_path, command, option, value,
                                             capsys):
    out = tmp_path / "o"
    assert main([command, "pid", option, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option.lstrip("-").replace("-", "_") in err
    assert not out.exists()
