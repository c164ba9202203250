import numpy as np
import pytest

from resetloop.lti import (
    FrequencyResponse,
    first_order_lag,
    freq_response,
    hz,
    log_grid,
    to_hz,
)
from resetloop.reset import describing_function
from resetloop.synthesis import (
    ApproxBand,
    CLOC_LADDERS_HZ,
    ComplexOrder,
    CroneApprox,
    PHASE_SLOPE_PER_BETA,
    build_cglp,
    build_cglp_pid,
    build_cloc_from,
    build_pid,
    controller_harmonic,
    crone_place,
    fit_band,
    normalize_open_loop_gain,
    order_to_slopes,
    pi_stage,
    slope_estimate,
    split_reset,
    tune_arho,
    _refine_axis,
)
from resetloop.specfile import matched_sore_gamma

TABLE_SIGFIG_RTOL = 5e-4   # agreement at the third significant digit


def ladder_hz(variant):
    d = CLOC_LADDERS_HZ[variant]
    return d["poles"], d["zeros"], d["gamma"], d["band"]


# --- ladder placement -------------------------------------------------------

@pytest.mark.parametrize("variant", [1, 2])
def test_crone_place_reproduces_published_ladders(variant):
    poles_hz, zeros_hz, _, band_hz = ladder_hz(variant)
    band = ApproxBand(hz(band_hz[0]), hz(band_hz[1]), 3)
    crone = crone_place(-0.5, band)
    assert to_hz(np.array(crone.poles)) == pytest.approx(
        np.array(poles_hz), rel=TABLE_SIGFIG_RTOL)
    assert to_hz(np.array(crone.zeros)) == pytest.approx(
        np.array(zeros_hz), rel=TABLE_SIGFIG_RTOL)


def test_zero_order_ladder_collapses():
    crone = crone_place(0.0, ApproxBand(1.0, 100.0, 3))
    assert crone.zeros == pytest.approx(crone.poles)
    grid = log_grid(0.1, 100.0, 10)
    vals = crone.linear_tf()(1j * grid)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_ladder_ratio_invariants():
    band = ApproxBand(hz(11.24), hz(1124.0), 3)
    alpha = -0.5
    crone = crone_place(alpha, band)
    r = band.omega_h / band.omega_l
    ratios = np.array(crone.zeros) / np.array(crone.poles)
    assert np.max(np.abs(ratios / r ** (-alpha / 3) - 1)) < 1e-12
    pole_steps = np.diff(np.log(np.array(crone.poles)))
    assert np.max(np.abs(pole_steps - np.log(r) / 3)) < 1e-12


def _band_fit_objective(wl_hz, wh_hz, poles_hz, zeros_hz):
    band = ApproxBand(hz(wl_hz), hz(wh_hz), 3)
    crone = crone_place(-0.5, band)
    model = np.log(np.concatenate([to_hz(np.array(crone.poles)),
                                   to_hz(np.array(crone.zeros))]))
    table = np.log(np.concatenate([poles_hz, zeros_hz]))
    return float(np.sum((model - table) ** 2))


@pytest.mark.parametrize("variant,expected_band", [(1, (11.24, 1124.0)),
                                                   (2, (20.25, 640.3))])
def test_band_recovered_by_brute_force_fit(variant, expected_band):
    # independent oracle: nested grid search over the band against the
    # published ladder, no use of the closed-form inversion
    poles_hz, zeros_hz, _, _ = ladder_hz(variant)
    poles_hz = np.array(poles_hz)
    zeros_hz = np.array(zeros_hz)
    lo = np.logspace(np.log10(5.0), np.log10(40.0), 40)
    hi = np.logspace(np.log10(200.0), np.log10(4000.0), 40)
    best = None
    for window in (1.3, 1.04, 1.002):
        scores = [(_band_fit_objective(a, b, poles_hz, zeros_hz), a, b)
                  for a in lo for b in hi]
        best = min(scores)
        _, a, b = best
        lo = np.logspace(np.log10(a / window), np.log10(a * window), 25)
        hi = np.logspace(np.log10(b / window), np.log10(b * window), 25)
    _, wl, wh = best
    assert wl == pytest.approx(expected_band[0], rel=5e-3)
    assert wh == pytest.approx(expected_band[1], rel=5e-3)


# --- reset split -------------------------------------------------------------

def test_split_reset_carries_reset_map():
    poles_hz, zeros_hz, gamma, band_hz = ladder_hz(1)
    crone = CroneApprox(tuple(hz(np.array(zeros_hz))),
                        tuple(hz(np.array(poles_hz))))
    filt = split_reset(crone, gamma, omega_h=hz(band_hz[1]))
    assert np.allclose(np.diag(filt.c_r.reset_matrix()), gamma)
    assert filt.c_nr.is_proper


def test_split_reset_validates_inputs():
    crone = crone_place(-0.5, ApproxBand(1.0, 100.0, 3))
    with pytest.raises(ValueError, match="length"):
        split_reset(crone, [0.1, 0.2])
    with pytest.raises(ValueError, match="taming"):
        split_reset(crone, [0.1, 0.2, 0.3], taming_factor=5.0)
    with pytest.raises(ValueError, match="gamma"):
        split_reset(crone, [0.1, 0.2, 1.5])


def test_split_reset_linear_limit_matches_filter_response():
    crone = crone_place(-0.5, ApproxBand(hz(10.0), hz(1000.0), 3))
    filt = split_reset(crone, np.ones(3))
    grid = log_grid(1.0, 2000.0, 20)
    got = filt.response(grid)
    base = freq_response(filt.c_r.base, grid).values
    ref = base * filt.c_nr(1j * grid) * filt.gain
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_single_reset_pole_high_frequency_phase():
    crone = CroneApprox((hz(50.0),), (hz(5.0),))
    filt = split_reset(crone, [0.0], omega_h=hz(50.0))
    df = describing_function(filt.c_r, np.array([hz(5000.0)]))
    assert np.degrees(np.angle(df.values[0])) == pytest.approx(-38.15, abs=0.2)


# --- slopes ------------------------------------------------------------------

def test_slope_estimate_on_pure_half_order():
    grid = log_grid(0.1, 1000.0, 30)
    vals = (1j * grid) ** -0.5
    fit = slope_estimate(FrequencyResponse(grid, vals), (grid[0], grid[-1]))
    assert fit.gain_slope == pytest.approx(-10.0, abs=1e-6)
    assert fit.phase_slope == pytest.approx(0.0, abs=1e-6)
    assert fit.gain_residual < 1e-9


def test_slope_estimate_linear_ladder():
    poles_hz, zeros_hz, _, band_hz = ladder_hz(1)
    crone = CroneApprox(tuple(hz(np.array(zeros_hz))),
                        tuple(hz(np.array(poles_hz))))
    filt = split_reset(crone, np.ones(3), omega_h=hz(band_hz[1]))
    grid = log_grid(1.0, 5000.0, 50)
    resp = FrequencyResponse(grid, filt.response(grid))
    fit = slope_estimate(resp, fit_band(crone))
    assert fit.gain_slope == pytest.approx(-10.0, abs=1.0)
    assert abs(fit.phase_slope) < 5.0


def test_slope_estimate_needs_samples():
    grid = log_grid(0.1, 1000.0, 30)
    vals = (1j * grid) ** -0.5
    with pytest.raises(ValueError, match="samples"):
        slope_estimate(FrequencyResponse(grid, vals), (1e6, 1e7))


def test_order_to_slopes_published_pairs():
    g1, p1 = order_to_slopes(ComplexOrder(-0.5, 0.9475))
    assert g1 == pytest.approx(-10.0, rel=5e-4)
    assert p1 == pytest.approx(125.0, rel=5e-4)
    g2, p2 = order_to_slopes(ComplexOrder(-0.5, 1.1370))
    assert g2 == pytest.approx(-10.0, rel=5e-4)
    assert p2 == pytest.approx(150.0, rel=5e-4)


def test_order_to_slopes_real_order():
    g, p = order_to_slopes(ComplexOrder(-0.7, 0.0))
    assert g == pytest.approx(-14.0)
    assert p == 0.0


def test_phase_slope_constant():
    assert PHASE_SLOPE_PER_BETA == pytest.approx(131.93, abs=0.01)


# --- tuner -------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_skeleton():
    return crone_place(-0.5, ApproxBand(hz(10.0), hz(1000.0), 2))


def test_tuner_returns_identity_for_linear_target(small_skeleton):
    # target computed on the tuner's own fit grid so the optimum is exact
    lo, hi = fit_band(small_skeleton)
    npts = max(12, int(round(np.log10(hi / lo) * 50)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    filt = split_reset(small_skeleton, np.ones(2))
    resp = FrequencyResponse(grid, filt.response(grid))
    fit = slope_estimate(resp, (lo, hi))
    result = tune_arho(small_skeleton, (fit.gain_slope, fit.phase_slope),
                       delta=0.5, refine=False)
    assert result.gamma == (1.0, 1.0)
    assert result.objective < 1e-12


def test_tuner_exhaustive_optimality(small_skeleton):
    # independent re-evaluation of every grid point through the scalar path
    target = (-10.0, 60.0)
    result = tune_arho(small_skeleton, target, delta=0.25, refine=False)
    lo, hi = fit_band(small_skeleton)
    npts = max(12, int(round(np.log10(hi / lo) * 50)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    filt0 = split_reset(small_skeleton, np.zeros(2))
    lin = filt0.c_nr(1j * grid)
    vals = np.linspace(-1.0, 1.0, 9)
    best = np.inf
    for g1 in vals:
        for g2 in vals:
            df = describing_function(filt0.c_r.with_gamma([g1, g2]), grid)
            v = df.values * lin
            x = np.log10(grid)
            gs = np.polyfit(x, 20 * np.log10(np.abs(v)), 1)[0]
            ps = np.polyfit(x, np.degrees(np.unwrap(np.angle(v))), 1)[0]
            best = min(best, (gs - target[0]) ** 2 + 0.04 * (ps - target[1]) ** 2)
    assert result.objective <= best + 1e-12


def test_tuner_single_pole_flat_phase_target():
    crone = CroneApprox((hz(100.0),), (hz(10.0),))
    band = ApproxBand(hz(10.0), hz(100.0), 1)
    filt = split_reset(crone, [1.0], omega_h=band.omega_h)
    grid = log_grid(1.0, 500.0, 50)
    resp = FrequencyResponse(grid, filt.response(grid))
    fit = slope_estimate(resp, fit_band(crone))
    result = tune_arho(crone, (fit.gain_slope, fit.phase_slope), delta=0.1)
    assert result.gamma[0] == pytest.approx(1.0, abs=0.02)


def test_tuner_degenerate_delta(small_skeleton):
    result = tune_arho(small_skeleton, (-10.0, 60.0), delta=2.0, refine=False)
    assert all(g in (-1.0, 1.0) for g in result.gamma)


def test_tuner_is_deterministic(small_skeleton):
    a = tune_arho(small_skeleton, (-10.0, 80.0), delta=0.25)
    b = tune_arho(small_skeleton, (-10.0, 80.0), delta=0.25)
    assert a == b


def test_refine_windows_share_their_overlap_exactly():
    # windows around coarse values 0.5 and 0.4 (reached as
    # -1 + 0.1 * 14 = 0.40000000000000013) overlap on 0.40 .. 0.50
    a = _refine_axis(0.5, 0.01, 10)
    b = _refine_axis(-1.0 + 0.1 * 14, 0.01, 10)
    assert a.size == b.size == 21
    assert np.array_equal(a[:11], b[10:])
    # clipping keeps the window size, so the evaluated point count is fixed
    edge = _refine_axis(1.0, 0.01, 10)
    assert edge.size == 21 and edge.max() == 1.0 and np.sum(edge == 1.0) == 11


def test_tuner_rejects_bad_inputs(small_skeleton):
    with pytest.raises(ValueError, match="delta"):
        tune_arho(small_skeleton, (-10.0, 60.0), delta=3.0)
    with pytest.raises(ValueError, match="finite"):
        tune_arho(small_skeleton, (np.inf, 60.0))


# --- controller factories ----------------------------------------------------

def _lead_corners(spec):
    """(omega_d, omega_t) of a pid's lead, (s/omega_d + 1)/(s/omega_t + 1)."""
    lead = spec.linear_parts[1]
    assert lead.num[1] == lead.den[1] == 1.0
    return 1.0 / lead.num[0], 1.0 / lead.den[0]


def test_build_pid_published_corners():
    omega_d, omega_t = _lead_corners(build_pid(hz(150.0), 9.13, hz(15.0), hz(1500.0)))
    assert to_hz(omega_d) == pytest.approx(16.43, rel=5e-4)
    assert to_hz(omega_t) == pytest.approx(1369.3, rel=5e-4)


def test_build_pid_cglp_variant_corners():
    omega_d, omega_t = _lead_corners(build_pid(hz(150.0), 2.193, hz(15.0), hz(1500.0)))
    assert to_hz(omega_d) == pytest.approx(68.4, rel=5e-4)
    assert to_hz(omega_t) == pytest.approx(328.8, rel=5e-4)


def test_build_pid_unity_ratio_drops_lead():
    spec = build_pid(hz(150.0), 1.0, hz(15.0), hz(1500.0))
    assert spec.omega_c == hz(150.0)
    # integrator branch + low-pass only: the unit lead at omega_c is dropped
    assert spec.linear_parts == (pi_stage(hz(15.0)), first_order_lag(hz(1500.0)))


def test_build_pid_corner_symmetry():
    spec = build_pid(hz(150.0), 4.0, hz(15.0), hz(1500.0))
    omega_d, omega_t = _lead_corners(spec)
    assert spec.omega_c == hz(150.0)
    assert omega_d * omega_t == pytest.approx(spec.omega_c ** 2, rel=1e-12)


def test_build_pid_rejects_bad_ordering():
    with pytest.raises(ValueError):
        build_pid(hz(150.0), 0.5, hz(15.0), hz(1500.0))
    with pytest.raises(ValueError):
        build_pid(hz(150.0), 20.0, hz(15.0), hz(1500.0))  # omega_i > omega_c/a


def test_build_cglp_published_corners():
    stage = build_cglp(1, hz(50.0), hz(35.7), 1.0, hz(1500.0), 0.0)
    assert stage.reset_part.base.A[0, 0] == pytest.approx(-hz(35.7))
    stage2 = build_cglp(2, hz(78.9), hz(68.6138), 1.0, hz(1500.0), 0.2)
    assert stage2.reset_part.order == 2
    assert np.allclose(stage2.reset_part.gamma, [0.2, 0.2])


def test_build_cglp_cancellation_limit():
    # gamma = 1 and matched corners: reset lag times lead is just the
    # low-pass at omega_f
    wf = hz(1500.0)
    stage = build_cglp(1, hz(50.0), hz(50.0), 1.0, wf, 1.0)
    grid = log_grid(1.0, 2000.0, 15)
    lag = describing_function(stage.reset_part, grid).values
    combined = lag * stage.lead(1j * grid)
    ref = first_order_lag(wf)(1j * grid)
    assert np.max(np.abs(combined - ref) / np.abs(ref)) < 1e-9


def test_build_cglp_pid_rejects_lead_ratio_below_one():
    args = dict(omega_c=hz(150.0), omega_i=hz(15.0), omega_f=hz(1500.0),
                omega_r=hz(50.0), omega_r_alpha=hz(35.7), gamma=0.0)
    with pytest.raises(ValueError, match="lead ratio"):
        build_cglp_pid(a=0.0, **args)
    with pytest.raises(ValueError, match="lead ratio"):
        build_cglp_pid(a=0.5, **args)


def test_build_cglp_rejects_bad_ordering():
    with pytest.raises(ValueError):
        build_cglp(1, hz(50.0), hz(60.0), 1.0, hz(1500.0), 0.0)
    with pytest.raises(ValueError, match="filter_order"):
        build_cglp(3, hz(50.0), hz(35.7), 1.0, hz(1500.0), 0.0)


@pytest.mark.parametrize("variant", [1, 2])
def test_build_cloc_uses_published_values(suite, variant):
    spec = suite[f"cloc-{variant}"]
    poles_hz, zeros_hz, gamma, _ = ladder_hz(variant)
    # the resetting lag chain has its poles on the diagonal; the ladder's
    # zeros are the roots of the linear zero block
    poles = -np.diag(spec.reset_part.base.A)
    zeros = np.sort(-np.roots(spec.linear_parts[1].num).real)
    assert to_hz(poles) == pytest.approx(np.array(poles_hz))
    assert to_hz(zeros) == pytest.approx(np.array(zeros_hz))
    assert spec.reset_part.gamma == pytest.approx(gamma)
    assert spec.reset_part.n_r == 3
    assert spec.omega_c == hz(150.0)


def test_cloc_forced_linear_still_crosses_over(plant):
    d = CLOC_LADDERS_HZ[1]
    spec = build_cloc_from(
        poles=hz(np.array(d["poles"])), zeros=hz(np.array(d["zeros"])),
        gamma=(1.0, 1.0, 1.0), omega_i=hz(15.0), omega_f=hz(1500.0),
        omega_c=hz(150.0), omega_h=hz(d["band"][1]))
    kp = normalize_open_loop_gain(spec, plant, hz(150.0))
    spec = spec.with_kp(kp)
    ol = controller_harmonic(spec, np.array([hz(150.0)]))[0] * plant(1j * hz(150.0))
    assert abs(ol) == pytest.approx(1.0, abs=1e-6)


# --- loop gain normalization -------------------------------------------------

def test_normalization_puts_zero_db_at_crossover(plant, suite):
    wc = hz(150.0)
    for spec in suite.values():
        ol = controller_harmonic(spec, np.array([wc]))[0] * plant(1j * wc)
        assert 20 * np.log10(abs(ol)) == pytest.approx(0.0, abs=0.01)


def test_normalization_scales_inversely_with_plant_gain(plant):
    spec = build_pid(hz(150.0), 9.13, hz(15.0), hz(1500.0))
    kp1 = normalize_open_loop_gain(spec, plant, hz(150.0))
    kp2 = normalize_open_loop_gain(spec, plant.scaled(2.0), hz(150.0))
    assert kp2 == pytest.approx(kp1 / 2.0, rel=1e-12)


def test_normalization_outside_frf_span_is_rejected(plant, suite):
    frf = freq_response(plant, log_grid(1.0, 100.0, 30))
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize_open_loop_gain(suite["pid"], frf, hz(150.0))
    kp = normalize_open_loop_gain(suite["pid"], frf, hz(50.0))
    assert kp == pytest.approx(normalize_open_loop_gain(suite["pid"], plant,
                                                        hz(50.0)), rel=1e-3)


def test_pid_loop_gain_regression(plant):
    spec = build_pid(hz(150.0), 9.13, hz(15.0), hz(1500.0))
    kp = normalize_open_loop_gain(spec, plant, hz(150.0))
    # frozen from the first verified computation of this design
    assert kp == pytest.approx(0.11884651036630796, rel=1e-9)


def test_matched_sore_gamma_regression():
    # frozen: the reset depth that phase-matches the pid benchmark at
    # crossover with unit damping
    assert matched_sore_gamma() == pytest.approx(-0.0635741799787, abs=1e-9)


def test_suite_has_five_designs(suite):
    assert list(suite) == ["pid", "cglp-pid", "cglp-pi", "cloc-1", "cloc-2"]
    for spec in suite.values():
        assert spec.kp > 0


def test_suite_controller_phases_match_at_crossover(suite):
    # the reset designs replicate the benchmark's phase at crossover by
    # different mechanisms; the ladders come closest but carry their
    # published, heuristic reset maps
    wc = hz(150.0)
    phases = {name: np.degrees(np.angle(controller_harmonic(spec, [wc])[0]))
              for name, spec in suite.items()}
    ref = phases["pid"]
    assert phases["cglp-pid"] == pytest.approx(ref, abs=0.1)
    assert phases["cglp-pi"] == pytest.approx(ref, abs=0.01)
    assert phases["cloc-1"] == pytest.approx(ref, abs=3.5)
    assert phases["cloc-2"] == pytest.approx(ref, abs=3.5)
