import numpy as np
import pytest

from resetloop.analysis import (
    crossover_pm,
    normalized_third,
    open_loop,
    open_loop_view,
    save_normalized_third_csv,
    save_open_loop_csv,
)
from resetloop.lti import (
    TransferFunction,
    freq_response,
    hz,
    log_grid,
    to_hz,
)
from resetloop.reset import hosidf


def test_linear_controller_has_zero_higher_harmonics(plant, suite):
    grid = log_grid(1.0, 2000.0, 20)
    vals = open_loop(suite["pid"], plant, grid, 3)
    assert np.all(vals == 0)


def test_first_harmonic_matches_lti_composition(plant, suite):
    grid = log_grid(1.0, 2000.0, 20)
    spec = suite["pid"]
    got = open_loop(spec, plant, grid, 1)
    ref = spec.kp * spec.linear_tf()(1j * grid) * plant(1j * grid)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_open_loop_magnitude_at_crossover(plant, suite):
    wc = hz(150.0)
    for name in ("cloc-2", "cloc-1", "cglp-pi"):
        v = open_loop(suite[name], plant, np.array([wc]), 1)[0]
        assert 20 * np.log10(abs(v)) == pytest.approx(0.0, abs=0.01)


def test_harmonic_propagation_rule(plant, suite):
    # the reset element's n-th harmonic rides through everything
    # downstream at n * omega
    grid = log_grid(5.0, 200.0, 10)
    spec = suite["cloc-1"]
    got = open_loop(spec, plant, grid, 3)
    h3 = hosidf(spec.reset_part, grid, 3).values
    ref = spec.kp * h3 * spec.linear_tf()(3j * grid) * plant(3j * grid)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_crossover_pm_pure_integrator_loop():
    w0 = hz(10.0)
    loop = TransferFunction((w0,), (1.0, 0.0))
    grid = log_grid(0.1, 1000.0, 40)

    from resetloop.analysis import OpenLoopView

    view = OpenLoopView(grid, loop(1j * grid), np.zeros(grid.size, complex), 1)
    wc, pm = crossover_pm(view)
    assert wc == pytest.approx(w0, rel=1e-4)
    assert pm == pytest.approx(90.0, abs=0.01)


def test_crossover_moves_up_with_gain(plant, suite):
    grid = log_grid(1.0, 2000.0, 50)
    view1 = open_loop_view(suite["pid"], plant, grid)
    spec2 = suite["pid"].with_kp(2 * suite["pid"].kp)
    view2 = open_loop_view(spec2, plant, grid)
    wc1, _ = crossover_pm(view1)
    wc2, _ = crossover_pm(view2)
    assert wc2 > wc1


def test_crossover_requires_a_crossing():
    grid = log_grid(1.0, 10.0, 20)
    from resetloop.analysis import OpenLoopView

    view = OpenLoopView(grid, np.full(grid.size, 0.5 + 0j),
                        np.zeros(grid.size, complex), 0)
    with pytest.raises(ValueError, match="crosses"):
        crossover_pm(view)


def test_crossover_with_an_undefined_phase_is_an_error():
    # a NaN below the crossing reaches every unwrapped phase after it
    grid = np.array([1.0, 2.0, 4.0, 8.0])
    mags = np.array([np.nan, 2.0, 0.5, 0.25])
    from resetloop.analysis import OpenLoopView

    view = OpenLoopView(grid, mags * np.exp(-1j * np.radians(100.0)),
                        np.zeros(4, complex), 0)
    with pytest.raises(ValueError, match="phase margin"):
        crossover_pm(view)


def test_multiple_crossings_warn():
    grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    mags = np.array([2.0, 0.5, 2.0, 0.5, 0.25])
    from resetloop.analysis import OpenLoopView

    view = OpenLoopView(grid, mags * np.exp(-1j * np.radians(100.0)),
                        np.zeros(5, complex), 0)
    with pytest.warns(UserWarning, match="crossings"):
        wc, _ = crossover_pm(view)
    assert wc < 2.0


def test_normalized_third_zero_for_linear(plant, suite):
    view = open_loop_view(suite["pid"], plant)
    omega, ratio = normalized_third(view)
    assert np.all(ratio == 0)


def test_normalized_third_invariant_to_loop_gain(plant, suite):
    grid = log_grid(5.0, 1000.0, 20)
    base_view = open_loop_view(suite["cglp-pi"], plant, grid)
    _, base_ratio = normalized_third(base_view)
    for factor in (0.5, 2.0, 10.0):
        spec = suite["cglp-pi"].with_kp(factor * suite["cglp-pi"].kp)
        _, ratio = normalized_third(open_loop_view(spec, plant, grid))
        assert np.max(np.abs(ratio - base_ratio)) < 1e-12 * np.max(base_ratio)


def test_normalized_third_guards_tiny_first_harmonic():
    grid = np.array([1.0, 2.0, 3.0])
    first = np.array([1.0, 1e-15, 1.0], dtype=complex)
    third = np.array([0.1, 0.1, 0.1], dtype=complex)
    from resetloop.analysis import OpenLoopView

    view = OpenLoopView(grid, first, third, 0)
    omega, ratio = normalized_third(view)
    assert omega.tolist() == [1.0, 3.0]


def test_frf_file_plant_path(plant, suite, tmp_path):
    grid = log_grid(1.0, 2000.0, 40)
    frf = freq_response(plant, grid)
    view = open_loop_view(suite["cglp-pid"], frf)
    wc, pm = crossover_pm(view)
    assert to_hz(wc) == pytest.approx(150.0, abs=1.0)
    # third harmonic beyond the measured span is dropped, not extrapolated
    omega, ratio = normalized_third(view)
    assert omega[-1] <= frf.omega[-1] / 3 * 1.0000001
    assert np.all(np.isfinite(ratio))


def test_csv_emitters(tmp_path, plant, suite):
    view = open_loop_view(suite["cloc-1"], plant, log_grid(1.0, 500.0, 10))
    p1 = tmp_path / "ol.csv"
    save_open_loop_csv(view, p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "freq_hz,harmonic,mag_db,phase_deg"
    assert any(",3," in ln for ln in lines[1:])
    p2 = tmp_path / "nt.csv"
    save_normalized_third_csv(view, p2)
    assert p2.read_text().splitlines()[0] == "freq_hz,ratio"


def test_pid_phase_margin_on_model(plant, suite):
    # the five stock designs share their phase at crossover, so on the
    # bundled model they land together well above the hardware's 30 deg
    view = open_loop_view(suite["pid"], plant)
    wc, pm = crossover_pm(view)
    assert to_hz(wc) == pytest.approx(150.0, abs=0.5)
    assert pm == pytest.approx(68.8, abs=0.5)


def test_five_designs_share_phase_margin(plant, suite):
    pms = []
    for spec in suite.values():
        _, pm = crossover_pm(open_loop_view(spec, plant))
        pms.append(pm)
    assert max(pms) - min(pms) < 6.0


def test_open_loop_view_takes_one_kernel_pass_per_design(plant, suite,
                                                         kernel_calls):
    grid = log_grid(1.0, 2000.0, 20)
    for name, spec in suite.items():
        kernel_calls.clear()
        view = open_loop_view(spec, plant, grid)
        assert kernel_calls == ([] if spec.reset_part is None else [(1, 3)]), name
        assert np.array_equal(view.first_harmonic, open_loop(spec, plant, grid, 1))
        assert np.array_equal(view.third_harmonic, open_loop(spec, plant, grid, 3))
