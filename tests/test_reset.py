from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import resetloop.reset
import resetloop.sim
from conftest import random_stable_tf
from resetloop.lti import (
    SingularFrequencyError,
    StateSpace,
    freq_response,
    hz,
    log_grid,
    tf_to_ss,
)
from resetloop.reset import (
    HarmonicResponse,
    ResetSystem,
    _expm_grid,
    _harmonics,
    clegg,
    describing_function,
    describing_function_gamma_batch,
    fore,
    harmonic_spectrum,
    hosidf,
    lag_chain,
    sore,
    theta_d,
)
from resetloop.synthesis import ApproxBand, crone_place

CLEGG_MAG = np.sqrt(1 + 16 / np.pi**2)      # |1 + 4j/pi|
CLEGG_PHASE = -np.degrees(np.arctan(np.pi / 4))   # -38.146 deg
CLEGG_H3 = 4 / (3 * np.pi)


def test_theta_d_clegg_closed_form():
    for w in (0.1, 1.0, 42.0):
        th = theta_d(clegg(), w)
        assert th.shape == (1, 1)
        assert th[0, 0] == pytest.approx(4 / np.pi, rel=1e-12)


def test_theta_d_vanishes_without_reset():
    rs = fore(hz(5.0), 1.0)
    th = theta_d(rs, hz(2.0))
    assert abs(th[0, 0]) < 1e-12


def test_theta_d_is_real():
    rs = sore(hz(10.0), 0.8, [-0.3, 0.4])
    th = theta_d(rs, hz(7.0))
    assert np.isrealobj(th)
    assert np.all(np.isfinite(th))


def test_clegg_describing_function_closed_form():
    grid = log_grid(0.01, 100.0)
    df = describing_function(clegg(), grid)
    mag = np.abs(df.values) * grid
    ph = np.degrees(np.angle(df.values))
    assert np.max(np.abs(mag / CLEGG_MAG - 1)) < 1e-3
    assert np.max(np.abs(ph - CLEGG_PHASE)) < 0.05


def test_fore_high_frequency_phase_lag():
    rs = fore(hz(1.0), 0.0)
    df = describing_function(rs, np.array([hz(2000.0)]))
    assert np.degrees(np.angle(df.values[0])) == pytest.approx(-38.15, abs=0.1)


def test_sore_high_frequency_phase_lag():
    rs = sore(hz(1.0), 1.0, 0.0)
    df = describing_function(rs, np.array([hz(2000.0)]))
    assert np.degrees(np.angle(df.values[0])) == pytest.approx(-51.85, abs=0.1)


def test_even_harmonics_are_exact_zeros():
    grid = log_grid(0.1, 10.0, 10)
    for rs in (clegg(), fore(hz(2.0), 0.3), sore(hz(2.0), 1.0, -0.5)):
        h4 = hosidf(rs, grid, 4)
        assert np.all(h4.values == 0)


def test_clegg_third_harmonic_closed_form():
    grid = log_grid(0.05, 50.0, 20)
    h3 = hosidf(clegg(), grid, 3)
    mag = np.abs(h3.values) * grid
    ph = np.degrees(np.angle(h3.values))
    assert np.max(np.abs(mag / CLEGG_H3 - 1)) < 1e-9
    assert np.max(np.abs(ph)) < 1e-6


def test_no_reset_limit_kills_harmonics():
    grid = log_grid(0.1, 10.0, 10)
    rs = sore(hz(3.0), 1.0, 1.0)
    h3 = hosidf(rs, grid, 3)
    assert np.all(h3.values == 0)


def test_clegg_spectrum_monotone_in_order():
    grid = np.array([hz(1.0), hz(10.0)])
    spectrum = harmonic_spectrum(clegg(), grid, 11)
    assert len(spectrum) == 6
    assert [hr.order for hr in spectrum] == [1, 3, 5, 7, 9, 11]
    mags = np.array([np.abs(hr.values) for hr in spectrum])
    assert np.all(np.diff(mags, axis=0) < 0)


def test_clegg_third_to_first_ratio_is_frequency_independent():
    grid = log_grid(0.1, 100.0, 10)
    first = describing_function(clegg(), grid)
    third = hosidf(clegg(), grid, 3)
    ratio = np.abs(third.values) / np.abs(first.values)
    expected = CLEGG_H3 / CLEGG_MAG    # ~0.2621 from the two closed forms
    assert np.max(np.abs(ratio - expected)) < 1e-9
    assert np.max(ratio) - np.min(ratio) < 1e-12


def test_linear_limit_matches_linear_response_randomized():
    rng = np.random.default_rng(23)
    grid = log_grid(0.1, 100.0, 10)
    for _ in range(20):
        tf = random_stable_tf(rng, 6, strictly_proper=True)
        ss = tf_to_ss(tf)
        n_r = int(rng.integers(1, ss.order + 1))
        rs = ResetSystem(ss, n_r, np.ones(n_r))
        df = describing_function(rs, grid)
        ref = freq_response(ss, grid).values
        assert np.max(np.abs(df.values - ref) / np.abs(ref)) < 1e-9
        for n in (3, 5):
            assert np.all(hosidf(rs, grid, n).values == 0)


def test_gamma_bounds_enforced():
    base = StateSpace([[-1.0]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="gamma"):
        ResetSystem(base, 1, [1.5])
    with pytest.raises(ValueError, match="length"):
        ResetSystem(base, 1, [0.1, 0.2])


def test_nan_gamma_rejected():
    base = StateSpace([[-1.0]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="gamma"):
        ResetSystem(base, 1, [float("nan")])


def test_marginal_base_needs_flag():
    base = StateSpace([[0.0]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="marginal"):
        ResetSystem(base, 1, [0.0])
    ResetSystem(base, 1, [0.0], allow_marginal=True)


def test_unstable_base_rejected():
    base = StateSpace([[0.5]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="right half plane"):
        ResetSystem(base, 1, [0.0], allow_marginal=True)


def test_reset_matrix_structure():
    rs = lag_chain([1.0, 2.0, 3.0], [0.21, -0.22, 0.1])
    ar = rs.reset_matrix()
    assert np.allclose(np.diag(ar), [0.21, -0.22, 0.1])
    assert np.count_nonzero(ar - np.diag(np.diag(ar))) == 0


def test_lag_chain_linear_limit_is_product_of_lags():
    poles = hz(np.array([5.0, 20.0]))
    rs = lag_chain(poles, [1.0, 1.0])
    grid = log_grid(0.5, 200.0, 15)
    got = describing_function(rs, grid).values
    ref = 1.0 / ((1j * grid / poles[0] + 1) * (1j * grid / poles[1] + 1))
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_gamma_batch_matches_scalar_path():
    rs = lag_chain(hz(np.array([5.0, 50.0])), [0.0, 0.0])
    grid = log_grid(1.0, 100.0, 8)
    gammas = np.array([[0.3, -0.4], [1.0, 1.0], [-1.0, 1.0]])
    batch = describing_function_gamma_batch(rs.base, 2, gammas, grid)
    for row, g in zip(batch, gammas):
        ref = describing_function(rs.with_gamma(g), grid).values
        assert np.max(np.abs(row - ref)) < 1e-12


@pytest.mark.parametrize("rs", [
    clegg().with_gamma([-1.0]),
    # double integrator, A not triangular: I - e^{(pi/omega) A} is singular
    ResetSystem(StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                           [[1.0, 0.0]], 0.0), 2, [-1.0, -1.0],
                allow_marginal=True),
])
def test_singular_resolvent_raises_on_both_entries(rs):
    grid = np.array([1.0, 2.0])
    gammas = [np.zeros(rs.n_r), rs.gamma]
    with pytest.raises(SingularFrequencyError, match="singular at omega = 1 ") as batch:
        describing_function_gamma_batch(rs.base, rs.n_r, gammas, grid)
    with pytest.raises(SingularFrequencyError, match="singular at omega = 1 ") as single:
        describing_function(rs, grid)
    assert batch.value.omega == single.value.omega == 1.0
    assert str(batch.value) == str(single.value)
    with pytest.raises(SingularFrequencyError):
        hosidf(rs, grid, 3)
    with pytest.raises(SingularFrequencyError):
        theta_d(rs, 1.0)


_poles = st.lists(st.floats(0.5, 500.0), min_size=1, max_size=5, unique=True)


@given(_poles, st.data())
def test_batch_kernel_matches_per_spec(poles, data):
    n = len(poles)
    gammas = np.array(data.draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        min_size=1, max_size=6)) + [[1.0] * n])   # plus the no-reset map
    rs = lag_chain(np.sort(poles), np.zeros(n))
    grid = log_grid(0.05, 200.0, 8)
    batch = describing_function_gamma_batch(rs.base, n, gammas, grid)
    high = _harmonics(rs.base, n, gammas, grid, (3, 5))
    for k, g in enumerate(gammas):
        one = rs.with_gamma(g)
        pairs = [(batch[k], describing_function(one, grid).values),
                 (high[0, k], hosidf(one, grid, 3).values),
                 (high[1, k], hosidf(one, grid, 5).values)]
        for got, ref in pairs:
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        # the matrix form of theta_d is a second route to the first harmonic
        A, B, C = rs.base.A, rs.base.B, rs.base.C
        for w, got in zip(grid, batch[k]):
            th = theta_d(one, w)
            x = np.linalg.solve(1j * w * np.eye(n) - A, (np.eye(n) + 1j * th) @ B)
            ref = (C @ x)[0, 0]
            assert abs(got - ref) <= 1e-9 * abs(ref)


@given(st.integers(0, 2**32 - 1))
def test_gamma_one_describing_function_is_freq_response(seed):
    rng = np.random.default_rng(seed)
    ss = tf_to_ss(random_stable_tf(rng, 6, strictly_proper=True))
    n_r = int(rng.integers(0, ss.order + 1))
    rs = ResetSystem(ss, n_r, np.ones(n_r))
    grid = log_grid(0.1, 100.0, 6)
    df = describing_function(rs, grid).values
    ref = freq_response(ss, grid).values
    assert np.max(np.abs(df - ref) / np.abs(ref)) < 1e-12
    assert np.all(hosidf(rs, grid, 3).values == 0)


def test_even_harmonic_response_type_rejects_nonzero():
    with pytest.raises(ValueError, match="even"):
        HarmonicResponse(np.array([1.0]), 2, np.array([1 + 0j]))


def test_hosidf_rejects_first_order():
    with pytest.raises(ValueError, match="n >= 2"):
        hosidf(clegg(), np.array([1.0]), 1)


def test_spectrum_rejects_even_n_max():
    with pytest.raises(ValueError, match="odd"):
        harmonic_spectrum(clegg(), np.array([1.0]), 4)


def test_save_harmonics_csv(tmp_path):
    from resetloop.reset import save_harmonics

    grid = np.array([hz(1.0), hz(10.0)])
    spectrum = harmonic_spectrum(clegg(), grid, 5)
    path = tmp_path / "harmonics.csv"
    save_harmonics(path, spectrum)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,order,mag_db,phase_deg"
    orders = {int(ln.split(",")[1]) for ln in lines[1:]}
    assert orders == {1, 3, 5}


def test_save_harmonics_writes_a_stub_for_zero_harmonics(tmp_path):
    from resetloop.reset import save_harmonics

    grid = np.array([hz(1.0), hz(10.0)])
    path = tmp_path / "h.csv"
    save_harmonics(path, [HarmonicResponse(grid, 2, np.zeros(2))])
    assert path.read_text().splitlines() == [
        "freq_hz,order,mag_db,phase_deg",
        "# even harmonics are exactly zero and not tabulated"]
    save_harmonics(path, [hosidf(clegg().with_gamma([1.0]), grid, 3)])
    assert path.read_text().splitlines() == [
        "freq_hz,order,mag_db,phase_deg",
        "# harmonic is exactly zero for this system"]


_rates = st.floats(0.5, 500.0)


@st.composite
def _chains(draw):
    poles = draw(st.lists(_rates, min_size=1, max_size=4))
    offsets = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
                            max_size=len(poles)))
    # repeated and near-repeated poles, in any order along the chain
    poles += [p * (1.0 + r) for p, r in zip(poles, offsets)]
    return lag_chain(draw(st.permutations(poles)), np.zeros(len(poles))).base.A


_STRUCTURED = {
    "lag chain": _chains(),
    "sore, damping < 1": st.builds(lambda w, z: sore(w, z).base.A,
                                   _rates, st.floats(0.05, 0.95)),
    "sore, damping 1": st.builds(lambda w: sore(w, 1.0).base.A, _rates),
    "sore, damping > 1": st.builds(lambda w, z: sore(w, z).base.A,
                                   _rates, st.floats(1.05, 3.0)),
    "fore": st.builds(lambda w: fore(w).base.A, _rates),
    "clegg": st.just(clegg().base.A),
}


@pytest.mark.parametrize("kind", list(_STRUCTURED))
@given(st.data())
def test_expm_grid_matches_scipy(kind, data):
    A = data.draw(_STRUCTURED[kind])
    # scipy's own error grows with t rho(A): against 40-digit mpmath it
    # reaches 1.1e-12 at t rho = 10 on a sore, so the steps stop at 4
    rho = np.max(np.abs(np.linalg.eigvals(A))) or 1.0
    t = np.logspace(-3.0, np.log10(4.0), 40) / rho
    # every structure the library builds takes a closed form, never scipy
    with mock.patch.object(resetloop.reset, "expm",
                           side_effect=AssertionError("scipy route taken")):
        E = _expm_grid(A, t)
    Q = np.eye(A.shape[0])
    if kind == "lag chain":
        # scipy's triangular fix-up loses up to 1e-5 on near-repeated
        # poles (seen on a chain with poles 1e-12 apart), so it gets an
        # orthogonally rotated copy, which it treats as a full matrix
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal(A.shape))[0]
    ref = Q.T @ scipy.linalg.expm(t[:, None, None] * (Q @ A @ Q.T)) @ Q
    err = np.linalg.norm(E - ref, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))


def test_expm_grid_leaves_other_structures_to_scipy():
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
    t = np.pi / log_grid(0.1, 5000.0, 10)
    with mock.patch.object(resetloop.reset, "expm",
                           wraps=scipy.linalg.expm) as scipy_expm:
        E = _expm_grid(A, t)
    scipy_expm.assert_called_once()
    assert np.array_equal(E, scipy.linalg.expm(t[:, None, None] * A))


def test_expm_grid_ladder_matches_mpmath():
    # the 5-pair s^-0.5 ladder on 5-2000 Hz over the 0.1 Hz - 5 kHz grid,
    # against the partial-fraction form E_ij = prod(A[k, k-1], k = j+1..i)
    # sum_k e^(t a_k) / prod_(m != k) (a_k - a_m) in 50-digit arithmetic
    crone = crone_place(-0.5, ApproxBand(hz(5.0), hz(2000.0), 5))
    A = lag_chain(crone.poles, np.zeros(5)).base.A
    t = np.pi / log_grid(0.1, 5000.0, 100)
    E = _expm_grid(A, t)
    worst, n = 0.0, A.shape[0]
    with mpmath.workdps(50):
        a = [mpmath.mpf(v) for v in np.diag(A)]
        b = [mpmath.mpf(v) for v in np.diag(A, -1)]
        window = [(i, j, range(j, i + 1)) for j in range(n) for i in range(j, n)]
        coef = {(i, j, k): mpmath.fprod(b[j:i])
                / mpmath.fprod(a[k] - a[m] for m in ks if m != k)
                for i, j, ks in window for k in ks}
        for f, tf in enumerate(t):
            ex = [mpmath.exp(mpmath.mpf(tf) * ak) for ak in a]
            for i, j, ks in window:
                ref = mpmath.fsum(coef[i, j, k] * ex[k] for k in ks)
                if abs(ref) > 1e-300:
                    worst = max(worst, float(abs((E[f, i, j] - ref) / ref)))
    assert np.all(np.triu(E, 1) == 0)
    assert worst <= 1e-13


def test_expm_grid_sore_matches_mpmath():
    # the stock sore (20 Hz, damping 1: a double pole, d = 0) over the
    # 0.1 Hz - 5 kHz grid, where t omega_r reaches 628; against 50-digit
    # mpmath scipy's expm is off by up to 1e-10 here, the closed form 1.9e-12
    A = sore(hz(20.0), 1.0).base.A
    t = np.pi / log_grid(0.1, 5000.0, 10)
    E = _expm_grid(A, t)
    with mpmath.workdps(50):
        for tk, Ek in zip(t, E):
            ref = np.array(mpmath.expm(mpmath.matrix(A.tolist()) * mpmath.mpf(tk))
                           .tolist(), dtype=float)
            assert np.abs(Ek - ref).max() <= 5e-12 * np.abs(ref).max()


def test_time_domain_oracle_keeps_scipy_expm():
    # the simulator is the independent check on the closed form, so it
    # must not share the structured exponential
    assert resetloop.sim.expm is scipy.linalg.expm
