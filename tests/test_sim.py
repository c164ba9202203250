import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import resetloop.sim
from conftest import random_stable_tf
from resetloop.lti import StateSpace, TransferFunction, hz, tf_to_ss
from resetloop.reset import (
    ResetSystem,
    clegg,
    describing_function,
    fore,
    hosidf,
    lag_chain,
    sore,
)
from resetloop.sim import (
    SimConfig,
    SimulationDiverged,
    generate_trajectory,
    make_feedforward,
    metrics,
    save_sim_csv,
    simulate_closed_loop,
    simulate_linear_closed_loop,
    steady_state_harmonics,
)
from resetloop.synthesis import (
    CLOC_LADDERS_HZ,
    ControllerSpec,
    build_pid,
    normalize_open_loop_gain,
    pi_stage,
)

CLEGG_MAG = np.sqrt(1 + 16 / np.pi**2)
CLEGG_PHASE = -np.degrees(np.arctan(np.pi / 4))


# --- trajectories ------------------------------------------------------------

def test_scan_trajectory_reaches_endpoint_exactly():
    traj = generate_trajectory("fourth_order_scan", 100e-6, 0.397)
    assert abs(traj.r[-1] - 100e-6) < 1e-12
    assert traj.r[0] == 0.0


def test_scan_trajectory_end_derivatives_vanish():
    dt = 1e-4
    traj = generate_trajectory("fourth_order_scan", 100e-6, 0.397, dt=dt)
    r = traj.r
    # one-sided differences at both ends, scaled against the peak motion
    v_scale = 100e-6 / 0.397
    for sl in (slice(0, 5), slice(-5, None)):
        seg = r[sl]
        v = np.diff(seg) / dt
        a = np.diff(v) / dt
        assert np.max(np.abs(v)) < 1e-5 * v_scale
        assert np.max(np.abs(a)) < 1e-2 * v_scale / 0.397


def test_scan_trajectory_matches_integration_oracle():
    # independently rebuild the profile by cumulative integration of the
    # snap switching pattern
    from resetloop.sim import _SNAP_PATTERN, _scan_segments

    d, T = 100e-6, 0.397
    traj = generate_trajectory("fourth_order_scan", d, T, dt=1e-4)
    tau = T / 15
    snap_unit = _scan_segments(_SNAP_PATTERN, tau)[-1][3]
    S = d / snap_unit
    # fine grid aligned with the 15 segments so the piecewise-constant
    # snap integrates exactly (left Riemann), then trapezoid upward
    per_seg = 2000
    n_fine = 15 * per_seg
    dtf = T / n_fine
    tf_ = np.arange(n_fine + 1) * dtf
    seg_idx = np.minimum((np.arange(n_fine) // per_seg), 14)
    snap_left = S * np.array(_SNAP_PATTERN, dtype=float)[seg_idx]
    jerk = np.concatenate([[0], np.cumsum(snap_left) * dtf])
    acc = np.concatenate([[0], np.cumsum((jerk[1:] + jerk[:-1]) / 2) * dtf])
    vel = np.concatenate([[0], np.cumsum((acc[1:] + acc[:-1]) / 2) * dtf])
    pos = np.concatenate([[0], np.cumsum((vel[1:] + vel[:-1]) / 2) * dtf])
    ref = np.interp(traj.t, tf_, pos)
    mask = traj.t <= T
    assert np.max(np.abs(traj.r[mask] - ref[mask])) < 1e-6 * d


def test_zero_distance_scan_is_identically_zero():
    traj = generate_trajectory("fourth_order_scan", 0.0, 0.1)
    assert np.all(traj.r == 0)


def test_halving_duration_scales_peak_snap_by_16():
    a = generate_trajectory("fourth_order_scan", 100e-6, 0.4)
    b = generate_trajectory("fourth_order_scan", 100e-6, 0.2)
    assert b.peak_snap / a.peak_snap == pytest.approx(16.0, rel=1e-12)


def test_step_and_hold():
    traj = generate_trajectory("step", 3e-6, 0.1, hold=0.05)
    assert traj.t[-1] == pytest.approx(0.15)
    assert np.all(traj.r == 3e-6)


def test_unknown_trajectory_kind():
    with pytest.raises(ValueError, match="kind"):
        generate_trajectory("ramp", 1.0, 1.0)


@pytest.mark.parametrize("kwargs,match", [
    (dict(duration=float("nan")), "duration"),
    (dict(duration=float("inf")), "duration"),
    (dict(duration=0.0), "duration"),
    (dict(duration=-0.1), "duration"),
    (dict(dt=0.0), "dt"),
    (dict(dt=-1e-4), "dt"),
    (dict(dt=float("nan")), "dt"),
    (dict(dt=float("inf")), "dt"),
    (dict(hold=-0.05), "hold"),
    (dict(hold=float("nan")), "hold"),
    (dict(hold=float("inf")), "hold"),
    (dict(duration=9e-4), "10 steps"),
    (dict(duration=0.5, dt=0.1), "10 steps"),
])
@pytest.mark.parametrize("kind", ["step", "fourth_order_scan"])
def test_generate_trajectory_rejects_bad_values(kind, kwargs, match):
    args = dict(duration=0.1, dt=1e-4, hold=0.0) | kwargs
    with pytest.raises(ValueError, match=match):
        generate_trajectory(kind, 100e-6, **args)


# --- feedforward -------------------------------------------------------------

def test_feedforward_structure_for_stage_plant(plant):
    ff = make_feedforward(plant, hz(15000.0))
    assert len(ff.num) - 1 == 2
    assert len(ff.den) - 1 == 3
    assert abs(ff(0j)) == pytest.approx(1 / 105.0, rel=1e-3)


def test_feedforward_static_plant():
    ff = make_feedforward(TransferFunction((5.0,), (1.0,)), 100.0)
    assert abs(ff(0j)) == pytest.approx(0.2)
    assert len(ff.den) - len(ff.num) == 1


def test_feedforward_rejects_nonminimum_phase():
    tf = TransferFunction((1.0, -2.0), (1.0, 3.0, 2.0))  # zero at +2
    with pytest.raises(ValueError, match="minimum-phase"):
        make_feedforward(tf, 100.0)


def test_feedforward_error_shrinks_with_relegation_frequency(plant):
    # the open-loop residual 1 - G*FF is the relegation-pole lag; it
    # shrinks monotonically with the relegation frequency at every
    # in-band frequency (the trajectory lives below ~100 Hz)
    from resetloop.lti import log_grid

    grid = log_grid(0.1, 100.0, 10)
    prev = None
    for mult in (10.0, 100.0, 1000.0):
        ff = make_feedforward(plant, mult * hz(150.0))
        resid = np.abs(1.0 - plant(1j * grid) * ff(1j * grid))
        if prev is not None:
            assert np.all(resid < prev)
        prev = resid


def _open_loop_tracking_error(plant, duration):
    """Peak |r - y| of the plant driven open loop by the feedforward
    command of a 100 um scan lasting `duration` s."""
    from resetloop.sim import _discretize, feedforward_signal

    traj = generate_trajectory("fourth_order_scan", 100e-6, duration, hold=0.1)
    plant_ss = tf_to_ss(plant)
    ff = make_feedforward(plant, 10.0 * hz(150.0))
    u_ff = feedforward_signal(ff, traj, 1e-4)
    Ap, Bp = _discretize(plant_ss, 1e-4)
    xp = np.zeros(plant_ss.order)
    err = 0.0
    for k in range(traj.t.size):
        y = float(plant_ss.C[0] @ xp)
        err = max(err, abs(traj.r[k] - y))
        xp = Ap @ xp + Bp * u_ff[k]
    return err


def test_feedforward_open_loop_tracking(plant):
    # time-domain check at the sampled rate: the inversion drive cuts the
    # open-loop tracking error by well over an order of magnitude
    assert _open_loop_tracking_error(plant, 0.397) < 0.01 * 100e-6


@pytest.mark.xfail(strict=True, reason=(
    "0.093 s puts snap switches on samples; snap_at(i * tau) rounds to "
    "segment i - 1, so the reference chain is driven with the previous "
    "snap level"))
def test_feedforward_open_loop_tracking_with_switches_on_samples(plant):
    # ref3: tau = 0.093 / 15 s is 62 samples, so every switch lands on one
    assert _open_loop_tracking_error(plant, 0.093) < 0.01 * 100e-6


def _held_reference_drive(ff, traj, dt):
    """The feedforward filter driven by the sampled reference, held over
    each sample."""
    from resetloop.sim import _discretize

    ffss = tf_to_ss(ff)
    Ad, Bd = _discretize(ffss, dt)
    u, x = np.empty(traj.t.size), np.zeros(ffss.order)
    for k, r in enumerate(traj.r):
        u[k] = float(ffss.C[0] @ x) + ffss.D * r
        x = Ad @ x + Bd * r
    return u


def test_step_feedforward_matches_the_held_reference_drive(plant, monkeypatch):
    # a step drives the scan's exact chain at zero snap, which must agree
    # with holding the step itself: on the signal and on the pid step3um run
    from resetloop.sim import feedforward_signal

    spec = _pid_spec(plant)
    ff = make_feedforward(plant, 100.0 * spec.omega_c)
    traj = generate_trajectory("step", 3e-6, 0.5)
    held = _held_reference_drive(ff, traj, 1e-4)
    got = feedforward_signal(ff, traj, 1e-4)
    assert np.max(np.abs(got - held)) <= 1e-12 * np.max(np.abs(held))
    runs = []
    for drive in (feedforward_signal, _held_reference_drive):
        monkeypatch.setattr(resetloop.sim, "feedforward_signal", drive)
        runs.append(simulate_closed_loop(tf_to_ss(plant), spec, traj, SimConfig(),
                                         feedforward=ff))
    for a, b in ((runs[0].u, runs[1].u), (runs[0].y, runs[1].y)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_feedforward_rejects_a_trajectory_it_cannot_drive(plant):
    from resetloop.sim import Trajectory, feedforward_signal

    t = np.arange(100) * 1e-4
    traj = Trajectory("sinusoid", t, 1e-6 * np.sin(2 * np.pi * 10.0 * t))
    with pytest.raises(ValueError, match="sinusoid"):
        feedforward_signal(make_feedforward(plant, hz(15000.0)), traj, 1e-4)


# --- harmonic oracle ---------------------------------------------------------

def test_oracle_reproduces_clegg_closed_forms():
    w = 2 * np.pi
    gains = steady_state_harmonics(clegg(), w, 3)
    assert abs(gains[0]) == pytest.approx(CLEGG_MAG / w, rel=0.02)
    assert np.degrees(np.angle(gains[0])) == pytest.approx(CLEGG_PHASE, abs=1.0)
    assert abs(gains[2]) == pytest.approx(4 / (3 * np.pi) / w, rel=0.02)
    assert abs(np.degrees(np.angle(gains[2]))) < 1.0


def test_oracle_linear_system_matches_frequency_response():
    rs = fore(hz(5.0), 1.0)
    w = hz(3.0)
    gains = steady_state_harmonics(rs, w, 4)
    ref = describing_function(rs, [w]).values[0]
    assert gains[0] == pytest.approx(ref, rel=1e-4)
    floor = 10 ** (-80 / 20) * abs(gains[0])
    assert all(abs(g) < floor for g in gains[1:])


def test_oracle_even_harmonics_are_negligible():
    rs = fore(hz(5.0), -0.5)
    gains = steady_state_harmonics(rs, hz(2.0), 4)
    floor = 10 ** (-80 / 20) * abs(gains[0])
    assert abs(gains[1]) < floor and abs(gains[3]) < floor


def test_oracle_validates_sampling():
    with pytest.raises(ValueError, match="samples per period"):
        steady_state_harmonics(clegg(), 1.0, 3, samples_per_period=50)


@pytest.mark.parametrize("kwargs,err", [
    (dict(omega=np.inf), "omega"),
    (dict(omega=np.nan), "omega"),
    (dict(omega=np.nan, dt=1e-4), "omega"),
    (dict(omega=1.0, samples_per_period=201), "even"),
    (dict(omega=1.0, n_periods=24.5), "n_periods"),
])
def test_oracle_rejects_bad_arguments(kwargs, err):
    with pytest.raises(ValueError, match=err):
        steady_state_harmonics(clegg(), n_max=3, **kwargs)


def _reference_harmonics(rs, omega, n_max, samples_per_period=1000,
                         n_periods=24, dt=None):
    """The oracle stepped one sample at a time: the blocked oracle must
    reproduce this loop's samples, jumps and divergence time."""
    if dt is not None:
        samples_per_period = 2 * max(1, int(round(np.pi / (omega * dt))))
    m = samples_per_period // 2
    n = rs.order
    A, B, C, D = rs.base.A, rs.base.B, rs.base.C, rs.base.D
    M = np.zeros((n + 2, n + 2))
    M[:n, :n] = A
    M[:n, n] = B[:, 0]
    M[n, n + 1] = omega
    M[n + 1, n] = -omega
    step = np.pi / omega / m
    Phi = scipy.linalg.expm(M * step)
    gam = rs.reset_matrix().diagonal()
    nsteps = 2 * m * n_periods
    z = np.zeros(n + 2)
    z[n + 1] = 1.0
    ys = np.zeros(nsteps + 1)
    settle_limit = 1e9 * (np.max(np.abs(B)) + 1.0)
    for k in range(1, nsteps + 1):
        z = Phi @ z
        if k % m == 0:
            y_pre = float(C[0] @ z[:n]) + D * z[n]
            z[:n] *= gam
            ys[k] = 0.5 * (y_pre + float(C[0] @ z[:n]) + D * z[n])
        else:
            ys[k] = float(C[0] @ z[:n]) + D * z[n]
        if not np.isfinite(ys[k]) or abs(ys[k]) > settle_limit:
            raise SimulationDiverged("not settling", time=k * step)
    start = m * n_periods
    tv = np.arange(start, nsteps) * step
    span = (nsteps - start) * step
    return [complex(1j * (2.0 / span) * step
                    * np.sum(ys[start:-1] * np.exp(-1j * nh * omega * tv)))
            for nh in range(1, n_max + 1)]


@pytest.mark.parametrize("kind,g", [
    *((kind, g) for kind in ("fore", "sore") for g in (-0.5, 0.0, 0.5)),
    ("cloc-1", None),
])
def test_blocked_oracle_matches_per_sample_loop(kind, g):
    if kind == "cloc-1":
        ladder = CLOC_LADDERS_HZ[1]
        rs = lag_chain(hz(np.array(ladder["poles"])), ladder["gamma"])
    else:
        rs = fore(hz(20.0), g) if kind == "fore" else sore(hz(20.0), 1.0, g)
    for w in (hz(0.7), hz(150.0)):
        got = steady_state_harmonics(rs, w, 5)
        ref = _reference_harmonics(rs, w, 5)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * abs(ref[0])


def test_blocked_oracle_matches_per_sample_loop_on_dt_path():
    rs = fore(hz(20.0), 0.5)
    w = hz(5.0)  # 2000 samples per period at dt = 1e-4
    got = steady_state_harmonics(rs, w, 5, dt=1e-4)
    ref = _reference_harmonics(rs, w, 5, dt=1e-4)
    assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * abs(ref[0])


def _integrator_chain(order):
    A = np.eye(order, k=-1)
    B = np.eye(order, 1)
    C = np.eye(1, order, order - 1)
    return ResetSystem(StateSpace(A, B, C, 0.0), 0, [], allow_marginal=True)


def test_blocked_oracle_diverges_at_the_per_sample_time():
    # the input's mean 1/omega drives a triple integrator into t^2 growth
    rs = _integrator_chain(3)
    with pytest.raises(SimulationDiverged) as ref:
        _reference_harmonics(rs, 1e-2, 3)
    with pytest.raises(SimulationDiverged, match="not settling") as got:
        steady_state_harmonics(rs, 1e-2, 3)
    assert got.value.time == ref.value.time
    assert got.value.time == pytest.approx(6325.28264873769, rel=1e-12)


def test_blown_up_block_raises_without_overflow_warnings():
    # powers of this ten-integrator step overflow within one half period,
    # while its very first sample is already over the limit
    rs = _integrator_chain(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationDiverged) as got:
            steady_state_harmonics(rs, 1e-30, 3)
    assert got.value.time == np.pi / 1e-30 / 500


def test_oracle_takes_one_expm_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(resetloop.sim, "expm",
                        lambda M: calls.append(M) or scipy.linalg.expm(M))
    steady_state_harmonics(fore(hz(20.0), 0.5), hz(3.0), 3)
    assert len(calls) == 1


@given(st.sampled_from(["fore", "sore"]), st.floats(-0.9, 0.9),
       st.floats(0.3, 1.5), st.floats(0.5, 200.0))
def test_oracle_matches_closed_form_at_random_frequencies(kind, g, zeta, f_hz):
    # criterion 2's tolerances at random omega.  The oracle runs finer and
    # longer than its defaults: at 200 Hz a sore with zeta = 0.3 and
    # gamma = 0.9 is still settling after 12 periods (7 % and -64 dB even
    # harmonics), and at 0.5 Hz with zeta = 0.5 the third harmonic sits
    # near -90 dB, where 1000 samples per period give a 4 degree phase
    # error.  Both converge on the closed form as the oracle is refined.
    rs = fore(hz(20.0), g) if kind == "fore" else sore(hz(20.0), zeta, g)
    w = hz(f_hz)
    gains = steady_state_harmonics(rs, w, 5, samples_per_period=4000,
                                   n_periods=64)
    for n in (1, 3, 5):
        pred = (describing_function(rs, [w]).values[0] if n == 1
                else hosidf(rs, [w], n).values[0])
        got = gains[n - 1]
        assert abs(abs(got) / abs(pred) - 1) < 0.02, n
        assert abs(np.degrees(np.angle(got / pred))) < 1.0, n
    even = max(abs(gains[1]), abs(gains[3])) / abs(gains[0])
    assert 20 * np.log10(even + 1e-300) < -80.0


# --- closed loop -------------------------------------------------------------

def _pid_spec(plant):
    spec = build_pid(hz(150.0), 9.13, hz(15.0), hz(1500.0))
    return spec.with_kp(normalize_open_loop_gain(spec, plant, hz(150.0)))


def _scores(res):
    """`metrics` over the whole run."""
    return metrics(res, (res.t[0], res.t[-1]))


def test_zero_reference_stays_at_zero(plant, suite):
    traj = generate_trajectory("step", 0.0, 0.05)
    cfg = SimConfig(quantization=0.0)
    plant_ss = tf_to_ss(plant)
    for spec in suite.values():
        res = simulate_closed_loop(plant_ss, spec, traj, cfg)
        assert np.all(res.e == 0)
        assert np.all(res.u == 0)


def test_pid_step_settles_within_quantization(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.5)
    cfg = SimConfig()
    res = simulate_closed_loop(tf_to_ss(plant), spec, traj, cfg)
    tail = res.e[res.t > 0.4]
    assert np.max(np.abs(tail)) <= cfg.quantization + 1e-12


def test_reset_fires_twice_per_period_in_steady_sinusoid(plant):
    # nearly open loop (tiny plant gain) so the error tracks the sinusoid
    tiny = TransferFunction((1e-9,), (1.0 / (2 * np.pi * 5000.0), 1.0))
    spec = ControllerSpec("pid", "fore-loop", (pi_stage(hz(15.0)),),
                          fore(hz(20.0), 0.0), 1.0, None)
    f0 = 10.0
    # stretch to 10 cycles
    t = np.arange(0, 1.0, 1e-4)
    r = 1e-6 * np.sin(2 * np.pi * f0 * t)
    from resetloop.sim import Trajectory

    traj = Trajectory("sinusoid", t, r, 1e-6, 1.0)
    cfg = SimConfig(quantization=0.0)
    res = simulate_closed_loop(tf_to_ss(tiny), spec, traj, cfg)
    # 10 cycles -> 20 crossings (the first may or may not register)
    assert abs(res.n_resets - 20) <= 1


def test_determinism_bit_identical(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.2)
    cfg = SimConfig(noise_amplitude=2e-6, noise_seed=42)
    a = simulate_closed_loop(tf_to_ss(plant), spec, traj, cfg)
    b = simulate_closed_loop(tf_to_ss(plant), spec, traj, cfg)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.u, b.u)
    assert _scores(a) == _scores(b)


def test_noise_seed_changes_output(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.2)
    a = simulate_closed_loop(tf_to_ss(plant), spec, traj,
                             SimConfig(noise_amplitude=2e-6, noise_seed=1))
    b = simulate_closed_loop(tf_to_ss(plant), spec, traj,
                             SimConfig(noise_amplitude=2e-6, noise_seed=2))
    assert not np.array_equal(a.y, b.y)


def test_hybrid_matches_monolithic_linear_path_randomized():
    rng = np.random.default_rng(5)
    cfg = SimConfig(dt=1e-3, quantization=0.0)
    traj = generate_trajectory("step", 1.0, 0.2, dt=1e-3)
    for _ in range(8):
        plant_tf = random_stable_tf(rng, 3, strictly_proper=True,
                                    pole_range=(0.5, 30.0))
        ctrl_tf = random_stable_tf(rng, 3, strictly_proper=True,
                                   pole_range=(0.5, 30.0))
        ss = tf_to_ss(ctrl_tf)
        n_r = int(rng.integers(1, ss.order + 1))
        spec = ControllerSpec("custom", "rand",
                              (TransferFunction((1.0,), (1.0,)),),
                              ResetSystem(ss, n_r, np.ones(n_r)), 0.3, None)
        plant_ss = tf_to_ss(plant_tf)
        hyb = simulate_closed_loop(plant_ss, spec, traj, cfg)
        lin = simulate_linear_closed_loop(plant_ss, spec, traj, cfg)
        scale = np.max(np.abs(lin.y)) + 1e-30
        assert np.max(np.abs(hyb.y - lin.y)) / scale < 1e-8


def test_linear_oracle_requires_clean_sensor(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.05)
    for cfg in (SimConfig(),
                SimConfig(quantization=0.0, noise_amplitude=1e-7)):
        with pytest.raises(ValueError, match="clean sensor"):
            simulate_linear_closed_loop(tf_to_ss(plant), spec, traj, cfg)


@pytest.mark.parametrize("simulate", [simulate_closed_loop,
                                      simulate_linear_closed_loop])
def test_simulators_reject_a_dt_that_disagrees_with_the_trajectory(plant,
                                                                   simulate):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.5, dt=1e-3)
    with pytest.raises(ValueError, match=r"cfg\.dt = 0\.0001 s .* 0\.001"):
        simulate(tf_to_ss(plant), spec, traj, SimConfig(quantization=0.0))


def test_quantization_floors_measurement(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.3)
    cfg = SimConfig(quantization=100e-9)
    res = simulate_closed_loop(tf_to_ss(plant), spec, traj, cfg)
    grid_residue = res.y / 100e-9 - np.round(res.y / 100e-9)
    assert np.max(np.abs(grid_residue)) < 1e-6


def test_divergence_reported_with_time(plant, suite):
    # the strongest reset designs destabilize the sampled loop on the
    # bundled model; the simulator must say when
    traj = generate_trajectory("step", 3e-6, 0.4)
    cfg = SimConfig()
    with pytest.raises(SimulationDiverged) as exc:
        simulate_closed_loop(tf_to_ss(plant), suite["cloc-2"], traj, cfg)
    assert exc.value.time is not None
    assert 0 < exc.value.time < 0.4


def test_non_finite_output_is_divergence(plant):
    # a NaN loop gain poisons the first control sample; the output turns
    # NaN one step later and must not be returned as a result
    spec = _pid_spec(plant).with_kp(float("nan"))
    cfg = SimConfig()
    traj = generate_trajectory("step", 3e-6, 0.05)
    with pytest.raises(SimulationDiverged) as exc:
        simulate_closed_loop(tf_to_ss(plant), spec, traj, cfg)
    assert exc.value.time == cfg.dt


@pytest.mark.parametrize("kwargs", [
    dict(dt=float("nan")), dict(dt=float("inf")),
    dict(quantization=-1.0), dict(quantization=float("nan")),
    dict(quantization=float("inf")),
    dict(noise_amplitude=-2e-6), dict(noise_amplitude=float("nan")),
])
def test_sim_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_feedforward_improves_tracking(plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("fourth_order_scan", 100e-6, 0.397, hold=0.1)
    plant_ss = tf_to_ss(plant)
    base = simulate_closed_loop(
        plant_ss, spec, traj, SimConfig(quantization=0.0))
    ff = make_feedforward(plant, 100.0 * hz(150.0))
    with_ff = simulate_closed_loop(
        plant_ss, spec, traj,
        SimConfig(quantization=0.0),
        feedforward=ff)
    assert _scores(with_ff)[0] < 0.2 * _scores(base)[0]


# --- metrics -----------------------------------------------------------------

def _fake_result(t, r, y):
    e = r - y
    from resetloop.sim import SimResult

    return SimResult(t, r, y, e, np.zeros_like(t))


def test_metrics_constant_error_in_table_units():
    t = np.linspace(0, 1, 101)
    res = _fake_result(t, np.full_like(t, 1e-6), np.full_like(t, 1e-6 - 100e-9))
    e_rms, e_max, _ = metrics(res, (0, 1))
    assert e_rms / 1e-7 == pytest.approx(1.0)
    assert e_max / 1e-7 == pytest.approx(1.0)


def test_metrics_zero_error():
    t = np.linspace(0, 1, 101)
    res = _fake_result(t, np.zeros_like(t), np.zeros_like(t))
    assert metrics(res, (0, 1)) == (0.0, 0.0, 0.0)


def test_metrics_empty_window():
    t = np.linspace(0, 1, 11)
    res = _fake_result(t, np.zeros_like(t), np.zeros_like(t))
    with pytest.raises(ValueError, match="window"):
        metrics(res, (5.0, 6.0))


def test_metrics_overshoot_fraction():
    t = np.linspace(0, 1, 101)
    r = np.full_like(t, 2.0)
    y = np.full_like(t, 2.0)
    y[50] = 2.5
    _, _, overshoot = metrics(_fake_result(t, r, y), (0, 1))
    assert overshoot == pytest.approx(0.25)


def test_sim_csv_format(tmp_path, plant):
    spec = _pid_spec(plant)
    traj = generate_trajectory("step", 3e-6, 0.01)
    res = simulate_closed_loop(tf_to_ss(plant), spec, traj,
                               SimConfig())
    path = tmp_path / "run.csv"
    save_sim_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,r_m,y_m,e_m,u"
    assert len(lines) == res.t.size + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] == 3e-6


def test_downsampling_robustness_on_tracking(plant):
    # halving dt moves the tracking rms by well under a percent for the
    # loops that complete
    spec = _pid_spec(plant)
    plant_ss = tf_to_ss(plant)
    vals = []
    for dt in (1e-4, 5e-5):
        traj = generate_trajectory("fourth_order_scan", 100e-6, 0.397,
                                   dt=dt, hold=0.1)
        cfg = SimConfig(dt=dt, quantization=0.0)
        res = simulate_closed_loop(plant_ss, spec, traj, cfg)
        vals.append(_scores(res)[0])
    assert abs(vals[1] / vals[0] - 1) < 0.01
