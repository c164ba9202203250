import dataclasses
import itertools
import warnings
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
    _check_resolvent,
    _eigen_real_parts,
    _expm_grid,
    _frequency_matrices,
    _frobenius_bound,
    _harmonics,
    clegg,
    describing_function,
    describing_function_gamma_batch,
    fore,
    harmonics,
    hosidf,
    lag_chain,
    sore,
)
from resetloop.specfile import builtin_specs, build_controller
from resetloop.synthesis import ApproxBand, crone_place

CLEGG_MAG = np.sqrt(1 + 16 / np.pi**2)      # |1 + 4j/pi|
CLEGG_PHASE = -np.degrees(np.arctan(np.pi / 4))   # -38.146 deg
CLEGG_H3 = 4 / (3 * np.pi)


def theta_d(rs: ResetSystem, omega) -> np.ndarray:
    """Jump-induced correction matrix entering the first-harmonic gain: the
    matrix form of Guo, Wang and Xie (IEEE TCST 2009), an independent route
    to the first harmonic that the kernel is checked against.

    Real n x n matrix; identically zero when the jump map is the identity
    (all gamma_i = 1).  Raises SingularFrequencyError when the resolvent
    of the jump recursion, I + A_R e^{(pi/omega)A}, is singular at omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if rs.n_r == 0 or bool(np.all(rs.gamma == 1.0)):
        # identity jump map: the resolvent collapses and the correction is
        # exactly zero, so skip the (possibly ill-conditioned) formula
        return np.zeros((rs.order, rs.order))
    eye, AR, grid = np.eye(rs.order), rs.reset_matrix(), np.array([float(omega)])
    E, lam = _frequency_matrices(rs.base.A, grid)
    # one matrix: an infinite bound sends it straight to the exact cond_2
    _check_resolvent(E, list(np.diag(AR)[:, None]), np.full((1, 1), np.inf), grid)
    delta, lam_inv = eye + E[0], np.linalg.solve(lam[0], eye)
    gamma_r = np.linalg.solve(eye + AR @ E[0], AR @ delta @ lam_inv)
    return -(2.0 * omega**2 / np.pi) * delta @ (gamma_r - lam_inv)


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
    spectrum = harmonics(clegg(), grid, range(1, 12, 2))
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


@pytest.mark.parametrize("gammas", [[[np.nan, 0.5]], [[2.0, -3.0]]])
def test_gamma_batch_applies_the_reset_system_rule(gammas):
    base = lag_chain([1.0, 10.0], [0.0, 0.0]).base
    with pytest.raises(ValueError, match="gamma"):
        ResetSystem(base, 2, gammas[0])
    with pytest.raises(ValueError, match="gamma"):
        describing_function_gamma_batch(base, 2, gammas, np.array([1.0, 2.0]))


def test_marginal_base_needs_flag():
    base = StateSpace([[0.0]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="marginal"):
        ResetSystem(base, 1, [0.0])
    ResetSystem(base, 1, [0.0], allow_marginal=True)


def test_unstable_base_rejected():
    base = StateSpace([[0.5]], [[1.0]], [[1.0]], 0.0)
    with pytest.raises(ValueError, match="right half plane"):
        ResetSystem(base, 1, [0.0], allow_marginal=True)


def _stability(re):
    tol = resetloop.reset._HURWITZ_TOL
    if np.any(re > tol):
        return "unstable"
    return "marginal" if np.any(np.abs(re) <= tol) else "stable"


def test_structured_eigenvalues_classify_as_lapack_does():
    # every 2x2 matrix over a small set of entries, and random triangular
    # ones of orders 1-5 with eigenvalues on and near the tolerance: the
    # closed forms must call each stable, marginal or unstable exactly as
    # LAPACK's eigenvalues do, without calling LAPACK
    vals = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
    mats = [np.reshape(e, (2, 2)) for e in itertools.product(vals, repeat=4)]
    rng = np.random.default_rng(26)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        d = rng.choice([-2.0, -1.0, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 1.0], size=n)
        A = np.tril(rng.integers(-3, 4, (n, n)).astype(float), -1) + np.diag(d)
        mats.append(A.T if rng.random() < 0.5 else A)
    with mock.patch.object(np.linalg, "eigvals",
                           side_effect=AssertionError("LAPACK route taken")):
        got = [_stability(_eigen_real_parts(A)) for A in mats]
    want = [_stability(np.real(np.linalg.eigvals(A))) for A in mats]
    assert got == want
    assert set(got) == {"stable", "marginal", "unstable"}
    # a non-finite A, or a 2x2 whose roots overflow, is LAPACK's to judge
    for A in ([[np.nan]], [[-1.0, 0.0], [np.inf, -1.0]], [[1e200, 1e200], [1e200, 1e200]]):
        with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as spy:
            try:
                _eigen_real_parts(np.array(A))
            except np.linalg.LinAlgError:
                pass
        assert spy.called
    with pytest.raises(ValueError):
        ResetSystem(StateSpace([[np.nan]], [[1.0]], [[1.0]], 0.0), 1, [0.0])


def test_with_gamma_checks_only_the_new_gamma():
    rs = lag_chain([1.0, 10.0], [0.0, 0.0])
    checks = mock.patch.object(resetloop.reset, "_eigen_real_parts",
                               wraps=_eigen_real_parts)
    with checks as spy:
        new = rs.with_gamma([0.5, -0.5])
        for bad in ([0.5], [1.5, 0.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="gamma"):
                rs.with_gamma(bad)
    assert not spy.called
    assert new.base is rs.base and new.n_r == 2 and not new.allow_marginal
    assert new.gamma.tolist() == [0.5, -0.5] and not new.gamma.flags.writeable
    assert rs.gamma.tolist() == [0.0, 0.0]
    assert clegg().with_gamma([-1.0]).allow_marginal
    # a cloc build checks its ladder's base once, in lag_chain
    with checks as spy:
        build_controller(builtin_specs()["cloc-1"])
    assert spy.call_count == 1


def test_reset_system_and_state_space_reject_attribute_assignment():
    # a rebound gamma of 5 would skip the [-1, 1] check and still give a number
    rs = fore(10.0)
    for obj, names in ((rs, ("gamma", "n_r", "base", "allow_marginal", "extra")),
                       (rs.base, ("A", "B", "C", "D", "extra"))):
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, np.array([5.0]))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
    assert rs.gamma.tolist() == [0.0] and rs.base.D == 0.0
    assert rs.with_gamma([0.5]).gamma.tolist() == [0.5]
    with pytest.raises(ValueError, match="gamma"):
        rs.with_gamma([5.0])


@pytest.mark.parametrize("poles,gammas,err", [
    ([0.0], [0.0], "pole frequencies must be positive"),
    ([2.0, -1.0], [0.0, 0.0], "pole frequencies must be positive"),
    ([], [], "pole frequencies must be positive"),
    ([[1.0, 2.0]], [[0.0, 0.0]], "pole frequencies must be positive"),
    ([1.0, 2.0], [0.0], "gamma length must match the pole count"),
    ([1.0], [0.0, 0.0], "gamma length must match the pole count"),
])
def test_lag_chain_rejects_bad_poles_and_gammas(poles, gammas, err):
    with pytest.raises(ValueError, match=err):
        lag_chain(poles, gammas)


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
    high = _harmonics(rs.base, list(gammas.T), grid, (3, 5))
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


def _outcome(call):
    """The bytes of a kernel output, or the message of the singular error."""
    try:
        return call().tobytes()
    except SingularFrequencyError as err:
        return str(err)


@st.composite
def _clipped_axes(draw, count):
    """``count`` refine-style axes, each a window of steps about a centre
    clipped to [-1, 1] (so repeats at its ends), ending in the factor 1."""
    axes = []
    for _ in range(count):
        centre = draw(st.sampled_from([-1.0, -0.99, 0.0, 0.995, 1.0]) | st.floats(-1.0, 1.0))
        step = draw(st.sampled_from([0.01, 0.1, 0.5]))
        half = draw(st.integers(0, 2))
        window = np.clip(centre + step * np.arange(-half, half + 1), -1.0, 1.0)
        axes.append(np.append(window, 1.0))
    return axes


@given(st.lists(st.floats(0.5, 500.0), min_size=2, max_size=5, unique=True), st.data())
def test_product_grid_path_matches_the_column_path(poles, data):
    # the axes of a product grid, handed to the kernel as factors, are
    # solved per prefix; the grid's flat columns take the column path and
    # must give the same bits, or the same error.  The grid holds the
    # identity map, and the chain's last state does not reset
    n_r = len(poles) - 1
    axes = data.draw(_clipped_axes(n_r))
    factors = [a.reshape([-1 if j == i else 1 for j in range(n_r)])
               for i, a in enumerate(axes)]
    columns = list(np.array(list(itertools.product(*axes))).T)
    base = lag_chain(np.sort(poles), np.zeros(len(poles))).base
    grid = log_grid(0.05, 200.0, 8)
    product = _outcome(lambda: _harmonics(base, factors, grid, (1, 3, 5)))
    assert product == _outcome(lambda: _harmonics(base, columns, grid, (1, 3, 5)))


def test_product_grid_raises_the_per_spec_singular_error():
    # an integrator ahead of a lag: gamma_1 = -1 makes I + diag(g) E singular
    base = StateSpace([[0.0, 0.0], [1.0, -1.0]], [[1.0], [0.0]], [[0.0, 1.0]], 0.0)
    factors = [np.array([[-1.0], [0.0], [0.5]]), np.array([[0.0, 1.0]])]
    grid = np.array([1.0, 2.0])
    with pytest.raises(SingularFrequencyError, match="singular at omega = 1 ") as batch:
        _harmonics(base, factors, grid, (1,))
    with pytest.raises(SingularFrequencyError) as single:
        describing_function(ResetSystem(base, 2, [-1.0, 0.0], allow_marginal=True), grid)
    assert batch.value.omega == single.value.omega == 1.0
    assert str(batch.value) == str(single.value)


def test_one_resolvent_screen_covers_every_frequency_block(monkeypatch):
    # one frequency per block; at 1e17 rad/s e_11 rounds to 1, so the maps
    # with gamma_1 = -1 are singular there and nowhere before it
    base = lag_chain([1.0, 10.0], [0.0, 0.0]).base
    gammas = np.array(list(itertools.product([-1.0, 0.0, 0.5], [0.0, 1.0])))
    grid = np.array([1.0, 2.0, 4.0, 1e17, 2e17])
    fine = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    default = describing_function_gamma_batch(base, 2, gammas, fine)
    monkeypatch.setattr(resetloop.reset, "_BLOCK_POINTS", len(gammas))
    with pytest.raises(SingularFrequencyError, match="singular at omega = 1e[+]17 ") as batch:
        describing_function_gamma_batch(base, 2, gammas, grid)
    with pytest.raises(SingularFrequencyError) as single:
        describing_function(ResetSystem(base, 2, gammas[0]), grid)
    assert batch.value.omega == single.value.omega == 1e17
    assert str(batch.value) == str(single.value)
    assert np.array_equal(describing_function_gamma_batch(base, 2, gammas, fine), default)


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


def test_save_harmonics_csv(tmp_path):
    from resetloop.reset import save_harmonics

    grid = np.array([hz(1.0), hz(10.0)])
    spectrum = harmonics(clegg(), grid, (1, 3, 5))
    path = tmp_path / "harmonics.csv"
    save_harmonics(spectrum, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,order,mag_db,phase_deg"
    orders = {int(ln.split(",")[1]) for ln in lines[1:]}
    assert orders == {1, 3, 5}


def test_save_harmonics_writes_a_stub_for_zero_harmonics(tmp_path):
    from resetloop.reset import save_harmonics

    grid = np.array([hz(1.0), hz(10.0)])
    path = tmp_path / "h.csv"
    save_harmonics([HarmonicResponse(grid, 2, np.zeros(2))], path)
    assert path.read_text().splitlines() == [
        "freq_hz,order,mag_db,phase_deg",
        "# even harmonics are exactly zero and not tabulated"]
    save_harmonics([hosidf(clegg().with_gamma([1.0]), grid, 3)], path)
    assert path.read_text().splitlines() == [
        "freq_hz,order,mag_db,phase_deg",
        "# harmonic is exactly zero for this system"]


def test_save_harmonics_writes_a_numpy_order_as_its_digits(tmp_path):
    from resetloop.reset import save_harmonics

    third = hosidf(clegg(), np.array([hz(1.0), hz(10.0)]), 3)
    path = tmp_path / "h.csv"
    save_harmonics([HarmonicResponse(third.omega, np.int64(3), third.values)], path)
    assert [ln.split(",")[1] for ln in path.read_text().splitlines()[1:]] == ["3", "3"]


#: every builtin spec that has a reset element
RESET_BUILTINS = sorted(name for name, d in builtin_specs().items()
                        if build_controller(d).reset_part is not None)


@given(st.sampled_from(RESET_BUILTINS),
       st.lists(st.integers(1, 12), unique=True, min_size=1, max_size=12))
def test_harmonics_equal_the_one_order_entry_points(name, orders):
    rs = build_controller(builtin_specs()[name]).reset_part
    grid = log_grid(0.05, 2000.0, 10)
    with mock.patch.object(resetloop.reset, "_harmonics",
                           wraps=resetloop.reset._harmonics) as kernel:
        got = harmonics(rs, grid, orders)
    odd = tuple(n for n in orders if n % 2)
    # all odd orders in one kernel pass; even orders never reach it
    assert [call.args[-1] for call in kernel.call_args_list] == ([odd] if odd else [])
    assert [h.order for h in got] == orders
    for h in got:
        ref = describing_function(rs, grid) if h.order == 1 else hosidf(rs, grid, h.order)
        assert np.array_equal(h.omega, grid)
        assert np.array_equal(h.values, ref.values), h.order
        if h.order % 2 == 0:
            assert not h.values.any()
    with pytest.raises(ValueError, match="orders must be >= 1"):
        harmonics(rs, grid, [*orders, 0])


def test_harmonic_responses_leave_the_callers_grid_writeable():
    grid = log_grid(1.0, 10.0, 5)
    describing_function(clegg(), grid)
    harmonics(fore(hz(3.0)), grid, (1, 2, 3))
    assert grid.flags.writeable


_rates = st.floats(0.5, 500.0)


@st.composite
def _chains(draw):
    poles = draw(st.lists(_rates, min_size=1, max_size=4))
    offsets = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
                            max_size=len(poles)))
    # repeated and near-repeated poles, in any order along the chain
    poles += [p * (1.0 + r) for p, r in zip(poles, offsets)]
    return lag_chain(draw(st.permutations(poles)), np.zeros(len(poles))).base.A


# a short lag chain with its couplings scaled up to 30-fold, so entries of
# E reach into the hundreds while the resolvents stay well enough
# conditioned for np.linalg.cond to be accurate to 1e-9
def _coupled(poles, k):
    A = lag_chain(poles, np.zeros(len(poles))).base.A
    return A + (k - 1.0) * np.tril(A, -1)


_coupled_chains = st.builds(_coupled, st.lists(_rates, min_size=2, max_size=3),
                            st.floats(1.0, 30.0))

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


@pytest.mark.parametrize("kind", ["lag chain", "coupled lag chain", "fore", "clegg"])
@given(st.data())
def test_lower_screen_bounds_every_condition_number(kind, data):
    # the triangular path screens a whole batch with one bound per
    # frequency; it must cover the exact cond_2 of every map it lets pass
    A = data.draw(_coupled_chains if kind == "coupled lag chain" else _STRUCTURED[kind])
    n = A.shape[0]
    # near -1 with a slow pole at high omega, 1 + g_i e_ii nearly vanishes
    # and W^-1 is far from diagonal; every batch holds one such map
    factor = st.sampled_from([-1.0, -0.999, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    gammas = np.array(data.draw(st.lists(
        st.lists(factor, min_size=n, max_size=n), max_size=5)) + [[-0.999] * n])
    base = StateSpace(A, np.ones((n, 1)), np.ones((1, n)), 0.0)
    grid = log_grid(0.05, 2e4, 8)
    check = resetloop.reset._check_resolvent
    with mock.patch.object(resetloop.reset, "_check_resolvent", wraps=check) as spy:
        try:
            describing_function_gamma_batch(base, n, gammas, grid)
        except SingularFrequencyError:
            pass   # a failed screen went to the exact check, which raised
    assert spy.called
    for (E, factors, bound, _), _ in spy.call_args_list:
        g = np.stack(np.broadcast_arrays(*factors), axis=-1).reshape(-1, n)
        cond = np.linalg.cond(np.eye(n) + g[None, :, :, None] * E[:, None])
        assert np.all(~(bound <= 1e14) | (bound >= (1 - 1e-9) * cond))


@st.composite
def _general_stable(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tf_to_ss(random_stable_tf(rng)).A


@pytest.mark.parametrize("kind", [*_STRUCTURED, "coupled lag chain", "general"])
@given(st.data())
def test_lambda_screen_bounds_every_condition_number(kind, data):
    # Lambda = omega^2 I + A^2 is screened by ||.||_F ||.^-1||_F: wherever the
    # screen passes it must cover the exact cond_2, and the error raised must
    # be the one the exact cond_2 of every point gives; the grid also drives
    # A at each of its eigenfrequencies, where Lambda is nearest singular
    A = data.draw({**_STRUCTURED, "coupled lag chain": _coupled_chains,
                   "general": _general_stable()}[kind])
    n = A.shape[0]
    poles = np.abs(np.linalg.eigvals(A))
    grid = np.sort(np.concatenate([log_grid(0.05, 2e4, 8), poles[poles > 0]]))
    lam = (grid**2)[:, None, None] * np.eye(n) + A @ A
    bound, cond = _frobenius_bound(lam), np.linalg.cond(lam)
    # the 2x2 bound is cond + 1/cond, tighter than cond is computed
    slack = 1e-9 + n * np.finfo(float).eps * cond
    assert np.all(~(bound <= 5e13) | (bound >= (1 - slack) * cond))
    _assert_lambda_guard(A, grid, cond)


def _assert_lambda_guard(A, grid, cond):
    """_frequency_matrices raises at the first point whose exact cond_2 of
    Lambda exceeds the limit, with that cond_2, and only then."""
    bad = np.flatnonzero(cond > 1e14)
    if not bad.size:
        _frequency_matrices(A, grid)
        return
    with pytest.raises(SingularFrequencyError, match="Lambda") as err:
        _frequency_matrices(A, grid)
    assert (err.value.omega, err.value.cond) == (grid[bad[0]], cond[bad[0]])


@pytest.mark.parametrize("omega_r", [1e7, 3e8])
def test_lambda_guard_raises_for_a_lightly_damped_sore_at_its_pole(omega_r):
    # at the pole Lambda's cond_2 is omega_r^2 whatever the damping, so
    # 1e7 puts it at the limit itself: the screen fails there, and the
    # exact cond_2 decides, at the pole alone
    A = sore(omega_r, 1e-12).base.A
    grid = omega_r * np.array([0.5, 1.0, 2.0])
    lam = (grid**2)[:, None, None] * np.eye(2) + A @ A
    cond = np.linalg.cond(lam)
    assert cond[1] == pytest.approx(omega_r**2, rel=1e-6)
    assert np.all(cond[[0, 2]] < 1e3) and _frobenius_bound(lam)[1] > 5e13
    _assert_lambda_guard(A, grid, cond)
    if cond[1] > 1e14:
        with pytest.raises(SingularFrequencyError, match="Lambda"):
            describing_function(sore(omega_r, 1e-12), grid)


@pytest.mark.parametrize("rs", [clegg(), fore(1.0)])
@pytest.mark.parametrize("omega", [1e-170, 1e200])
def test_a_scalar_lambda_that_under_or_overflows_still_raises(rs, omega):
    # a 1x1 Lambda skips LAPACK, but where it under- or overflows to 0 or
    # inf (all but fore at 1e-170 rad/s) it is still singular
    A, grid = rs.base.A, np.array([1.0, omega])
    with np.errstate(over="ignore"):
        lam = (grid**2)[:, None, None] + A @ A
        _assert_lambda_guard(A, grid, np.linalg.cond(lam))


@pytest.mark.parametrize("rs", [fore(1.0), sore(1.0, 0.5), lag_chain([1.0, 2.0], [0.0, 0.0])])
def test_an_overflowing_lambda_is_singular_without_a_warning(rs):
    # omega^2 overflows, and inf * 0 would put NaN into a 2x2 Lambda: a
    # non-finite Lambda is singular at that omega, as a 1x1 one is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrequencyError, match="Lambda") as err:
            describing_function(rs, [1.0, 1e154, 1e200])
    assert (err.value.omega, err.value.cond) == (1e200, np.inf)


def test_a_resolvent_bound_near_the_limit_goes_to_the_exact_check():
    # a bound in (limit / 2, limit] is too close to the limit to trust, as
    # on Lambda: the exact cond_2 decides
    E, factors, grid = np.full((1, 1, 1), 0.5), [np.array([0.0])], np.array([1.0])
    for bound in (7e13, 1e14):
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            _check_resolvent(E, factors, np.array([[bound]]), grid)
        assert cond.call_count == 1
    with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
        _check_resolvent(E, factors, np.array([[5e13]]), grid)
    assert not cond.called


def test_time_domain_oracle_shares_no_exponential_with_the_closed_form():
    # the simulator is the independent check on the closed form, so it
    # must not share the structured exponential or its scipy fallback
    assert resetloop.sim.expm is not resetloop.reset.expm
    assert resetloop.sim.expm is not resetloop.reset._expm_grid
    taken = AssertionError("closed-form exponential taken")
    with (mock.patch.object(resetloop.reset, "expm", side_effect=taken),
          mock.patch.object(resetloop.reset, "_expm_grid", side_effect=taken)):
        gains = resetloop.sim.steady_state_harmonics(sore(hz(20.0), 0.7, 0.2),
                                                     hz(30.0), 3)
    assert np.all(np.isfinite(gains))
