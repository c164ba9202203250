import numpy as np
import pytest

from conftest import random_stable_tf
from resetloop.lti import (
    FrequencyResponse,
    TransferFunction,
    first_order_lag,
    freq_response,
    hz,
    lead_lag,
    load_frf,
    log_grid,
    plant_values,
    save_frf,
    series,
    series_all,
    series_ss,
    stage_plant,
    tf_to_ss,
    to_hz,
)


def test_integrator_canonical_form():
    ss = tf_to_ss(TransferFunction((1.0,), (1.0, 0.0)))
    assert ss.A.tolist() == [[0.0]]
    assert ss.B.tolist() == [[1.0]]
    assert ss.C.tolist() == [[1.0]]
    assert ss.D == 0.0


def test_plant_dc_gain():
    ss = tf_to_ss(stage_plant())
    assert ss.order == 2
    assert ss(0.0 + 0.0j) == pytest.approx(1.429e8 / 1.361e6)
    assert ss(0.0 + 0.0j) == pytest.approx(105.0, rel=1e-3)


def test_pole_zero_cancellation_goes_to_feedthrough():
    ss = tf_to_ss(TransferFunction((1.0, 1.0), (1.0, 1.0)))
    assert ss.D == 1.0
    for w in (0.1, 1.0, 10.0):
        assert ss(1j * w) == pytest.approx(1.0, abs=1e-12)


def test_improper_tf_rejected():
    with pytest.raises(ValueError):
        tf_to_ss(TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0)))


def test_freq_response_integrator():
    fr = freq_response(TransferFunction((1.0,), (1.0, 0.0)), np.array([1.0]))
    assert abs(fr.values[0]) == pytest.approx(1.0)
    assert np.degrees(np.angle(fr.values[0])) == pytest.approx(-90.0)


def test_freq_response_plant_low_frequency_gain():
    fr = freq_response(stage_plant(), np.array([1e-3]))
    assert 20 * np.log10(abs(fr.values[0])) == pytest.approx(
        20 * np.log10(105.0), abs=0.01)


def test_first_order_lag_corner():
    w0 = hz(3.0)
    fr = freq_response(first_order_lag(w0), np.array([w0]))
    assert 20 * np.log10(abs(fr.values[0])) == pytest.approx(-3.0103, abs=1e-3)
    assert np.degrees(np.angle(fr.values[0])) == pytest.approx(-45.0, abs=1e-9)


def test_freq_response_flags_singular_sample():
    # pole pair on the imaginary axis at omega = 1
    tf = TransferFunction((1.0,), (1.0, 0.0, 1.0))
    with pytest.warns(UserWarning, match="singular"):
        fr = freq_response(tf, np.array([0.5, 1.0, 2.0]))
    assert np.isinf(fr.values[1])
    assert np.isfinite(fr.values[0]) and np.isfinite(fr.values[2])


def test_series_double_integrator():
    one_over_s = TransferFunction((1.0,), (1.0, 0.0))
    tf = series(one_over_s, one_over_s)
    assert tf.num == (1.0,)
    assert tf.den == (1.0, 0.0, 0.0)


def test_series_two_lags_at_corner():
    w0 = 10.0
    tf = series(first_order_lag(w0), first_order_lag(w0))
    v = tf(1j * w0)
    assert 20 * np.log10(abs(v)) == pytest.approx(-6.0206, abs=1e-3)
    assert np.degrees(np.angle(v)) == pytest.approx(-90.0)


def test_ladder_product_has_published_roots():
    poles_hz = [16.5, 76.6, 355.5]
    zeros_hz = [35.55, 165.0, 766.0]
    tf = series_all([lead_lag(hz(z), hz(p)) for z, p in zip(zeros_hz, poles_hz)])
    zr = sorted(-np.roots(tf.num) / (2 * np.pi))
    pr = sorted(-np.roots(tf.den) / (2 * np.pi))
    assert zr == pytest.approx(sorted(zeros_hz), rel=1e-9)
    assert pr == pytest.approx(sorted(poles_hz), rel=1e-9)


def test_series_response_is_pointwise_product():
    rng = np.random.default_rng(7)
    grid = log_grid(0.1, 100.0, 20)
    for _ in range(12):
        a = random_stable_tf(rng, 4)
        b = random_stable_tf(rng, 4)
        ab = freq_response(series(a, b), grid)
        ref = freq_response(a, grid).values * freq_response(b, grid).values
        assert np.max(np.abs(ab.values - ref) / np.abs(ref)) < 1e-10


def test_tf_to_ss_matches_rational_evaluation():
    rng = np.random.default_rng(11)
    grid = log_grid(0.05, 200.0, 15)
    for _ in range(20):
        tf = random_stable_tf(rng, 6)
        ss = tf_to_ss(tf)
        direct = tf(1j * grid)
        realized = freq_response(ss, grid).values
        assert np.max(np.abs(realized - direct) / np.abs(direct)) < 1e-9


def test_series_ss_matches_tf_series():
    rng = np.random.default_rng(3)
    grid = log_grid(0.1, 50.0, 12)
    a = random_stable_tf(rng, 3)
    b = random_stable_tf(rng, 3)
    ss = series_ss(tf_to_ss(a), tf_to_ss(b))
    ref = series(a, b)(1j * grid)
    got = freq_response(ss, grid).values
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_load_frf_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("freq_hz,real,imag\n1.0,1.0,0.0\n")
    fr = load_frf(path)
    assert fr.omega.tolist() == [2 * np.pi]
    assert fr.values.tolist() == [1 + 0j]


def test_frf_round_trip_is_exact(tmp_path):
    grid = log_grid(0.5, 500.0, 10)
    fr = freq_response(stage_plant(), grid)
    path = tmp_path / "plant.csv"
    save_frf(fr, path)
    back = load_frf(path)
    assert np.array_equal(back.omega, fr.omega) or np.max(
        np.abs(back.omega - fr.omega) / fr.omega) < 1e-15
    assert np.array_equal(back.values, fr.values)


def test_generated_frf_matches_model_within_tolerance(tmp_path):
    grid = log_grid(0.5, 500.0, 10)
    fr = freq_response(stage_plant(), grid)
    path = tmp_path / "plant.csv"
    save_frf(fr, path)
    back = load_frf(path)
    direct = stage_plant()(1j * back.omega)
    assert np.max(np.abs(back.values - direct) / np.abs(direct)) < 1e-12


@pytest.mark.parametrize("body,err", [
    ("freq_hz,real,imag\n2.0,1.0,0.0\n1.0,1.0,0.0\n", "increasing"),
    ("freq_hz,real,imag\n1.0,1.0\n", "columns"),
    ("freq_hz,real,imag\n", "no data"),
    ("wrong,header,here\n1.0,1.0,0.0\n", "header"),
])
def test_load_frf_rejects_malformed(tmp_path, body, err):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=err):
        load_frf(path)


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_frf_rejects_non_finite_values(tmp_path, column, token):
    row = ["1.0", "1.0", "0.0"]
    row[column] = token
    path = tmp_path / "bad.csv"
    path.write_text("freq_hz,real,imag\n0.5,1.0,0.0\n" + ",".join(row)
                    + "\n2.0,1.0,0.0\n")
    with pytest.raises(ValueError, match="bad.csv:3: non-finite value"):
        load_frf(path)


def test_log_grid_density_and_floor():
    g = log_grid(1.0, 100.0)
    assert len(g) == 101  # 50 per decade over two decades, inclusive
    assert np.all(np.diff(g) > 0)
    assert np.all(g >= 1e-3)


def test_hz_round_trip():
    assert to_hz(hz(150.0)) == pytest.approx(150.0, rel=1e-15)


def test_frequency_response_interpolation():
    grid = log_grid(1.0, 1000.0, 40)
    fr = freq_response(stage_plant(), grid)
    w = hz(150.0)
    assert fr.at(w) == pytest.approx(stage_plant()(1j * w), rel=1e-3)


def test_frequency_response_validation():
    with pytest.raises(ValueError):
        FrequencyResponse(np.array([2.0, 1.0]), np.array([1 + 0j, 1 + 0j]))
    with pytest.raises(ValueError):
        FrequencyResponse(np.array([-1.0, 1.0]), np.array([1 + 0j, 1 + 0j]))


def test_plant_values_agree_across_plant_forms():
    plant = stage_plant()
    grid = log_grid(1.0, 1000.0, 10)
    ref = plant(1j * grid)
    frf = freq_response(plant, log_grid(0.5, 2000.0, 200))
    for model, tol in ((plant, 0.0), (tf_to_ss(plant), 1e-12), (frf, 1e-3)):
        vals = plant_values(model, grid)
        assert vals.shape == grid.shape
        assert np.max(np.abs(vals - ref) / np.abs(ref)) <= tol
        scalar = plant_values(model, grid[3])
        assert np.ndim(scalar) == 0 and scalar == vals[3]


def test_plant_values_frf_undefined_outside_span():
    frf = freq_response(stage_plant(), log_grid(1.0, 100.0, 20))
    span = frf.omega[[0, -1]]
    vals = plant_values(frf, [0.5 * span[0], span[0], span[1], 1.5 * span[1]])
    assert np.isnan(vals[0]) and np.isnan(vals[3])
    assert np.all(np.isfinite(vals[1:3]))
    with pytest.raises(TypeError):
        plant_values(object(), hz(10.0))
