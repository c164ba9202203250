import hashlib
import pathlib

import numpy as np
import pytest

from resetloop.cli import main


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
