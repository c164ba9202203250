import contextlib
import hashlib
import io
import pathlib

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import resetloop.specfile
from resetloop.cli import main
from resetloop.specfile import _builtin_specs, emit_spec

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


def test_df_writes_harmonics_and_manifest(tmp_path):
    out = tmp_path / "df"
    rc = main(["df", "clegg", "--fmin-hz", "0.01", "--fmax-hz", "100",
               "--harmonics", "1", "2", "3", "--out", str(out)])
    assert rc == 0
    entries = _read_manifest(out / "manifest.txt")
    assert set(entries) == {"harmonic_01.csv", "harmonic_02.csv",
                            "harmonic_03.csv"}
    for rel, digest in entries.items():
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
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


def test_simulate_divergent_scenario_exits_3(tmp_path):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = cloc-2\nreference = step3um\n")
    out = tmp_path / "run"
    rc = main(["simulate", str(scen), "--out", str(out)])
    assert rc == 3
    report = (out / "cloc-2_step3um_metrics.txt").read_text()
    assert "diverged" in report


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


def test_reproduce_with_frf_plant(tmp_path):
    from resetloop.lti import freq_response, log_grid, save_frf, stage_plant

    frf_path = tmp_path / "plant.csv"
    save_frf(freq_response(stage_plant(), log_grid(0.5, 2000.0, 30)), frf_path)
    out = tmp_path / "rep"
    rc = main(["reproduce", "--out", str(out), "--plant", str(frf_path)])
    assert rc == 0
    pm = (out / "05_open_loop" / "crossover_pm.txt").read_text()
    assert "crossover 15" in pm  # still lands at ~150 Hz on the frf


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


def test_spec_file_skips_the_matched_gamma_root_find(tmp_path, monkeypatch):
    spec = tmp_path / "cloc.spec"
    emit_spec(_builtin_specs()["cloc-1"], spec)

    def root_find(*args, **kwargs):
        raise AssertionError("matched_sore_gamma ran for a spec file")

    monkeypatch.setattr(resetloop.specfile, "matched_sore_gamma", root_find)
    assert main(["df", str(spec), "--fmin-hz", "10", "--fmax-hz", "1000",
                 "--points-per-decade", "5", "--out", str(tmp_path / "o")]) == 0


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
    partial = _read_manifest(out / "manifest.txt")
    assert "01_clegg_harmonics/harmonic_01.csv" in partial
    assert not any(rel.startswith("05_open_loop/") for rel in partial)


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


def test_simulate_rejects_a_step_too_coarse_for_the_run(tmp_path, capsys):
    scen = tmp_path / "s.spec"
    scen.write_text("controller = pid\nreference = step3um\ndt_s = 0.1\n")
    assert main(["simulate", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert "at least 10 steps" in capsys.readouterr().err


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
    for name, d in _builtin_specs().items():
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
    assert runs == 3 * sum(len(d) for d in _builtin_specs().values())


def test_df_rejects_every_misspelt_builtin_key(tmp_path):
    # a misspelt key must not fall back to a default: each key of each
    # builtin, written with its last letter doubled, is an input error
    for name, d in _builtin_specs().items():
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
