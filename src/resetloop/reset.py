"""Reset elements and their sinusoidal-input frequency-domain engine.

A reset element is a linear filter whose leading ("resetting") states are
multiplied by per-state factors gamma_i whenever the driving error signal
crosses zero.  The jump injects nonlinearity: under a unit sinusoid the
steady-state output contains the excitation frequency plus odd harmonics.
``describing_function`` (first harmonic), ``hosidf`` (n-th harmonic, exactly
zero for even n), ``harmonic_spectrum`` (n = 1, 3, 5, ...) and
``describing_function_gamma_batch`` (first harmonic for many reset maps)
compute those gains in closed form through one kernel.

With E = e^{(pi/omega) A}, Delta = I + E and Lambda = omega^2 I + A^2, the
jump enters every harmonic only through v(omega, gamma) = Delta (x -
Lambda^-1 B), where x solves (I + diag(gamma) E) x = diag(gamma) Delta
Lambda^-1 B.  The first harmonic is C (jwI - A)^-1 (B - j (2w^2/pi) v) + D
and harmonic n >= 3 is -j (2w^2/pi) C (jnwI - A)^-1 v.  The kernel computes
the frequency-only pieces once per call, E in closed form (divided
differences of the exponential for a lower-bidiagonal A: every lag chain,
clegg, fore; cosh and sinh for the 2x2 sore; scipy's ``expm`` otherwise),
and solves for x in blocks of (omega, gamma) points: by forward
substitution when A is lower triangular, by batched LAPACK otherwise.
The simulator keeps scipy's ``expm`` for every A, so the time-domain
oracle shares no exponential code with the closed form.
Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lti import SingularFrequencyError, StateSpace, to_hz

_HURWITZ_TOL = 1e-9
_COND_LIMIT = 1e14
#: (omega, gamma) points per resolvent block: bounds the kernel's working memory
_BLOCK_POINTS = 1 << 15
#: terms of the divided-difference Taylor series (see _dd_taylor)
_TAYLOR_TERMS = 18


class ResetSystem:
    """State-space filter with a diagonal reset map on its leading states.

    The base flow is ``xdot = A x + B e``, ``y = C x + D e``; whenever the
    input e crosses zero the first ``n_r`` states jump to ``gamma_i * x_i``
    while the remaining states are untouched.  ``gamma_i = 1`` means no
    reset, ``gamma_i = 0`` a full reset to zero.

    The base A must be Hurwitz unless ``allow_marginal`` is set (the
    resetting integrator has A = 0; the jumps themselves keep it bounded).
    """

    def __init__(self, base: StateSpace, n_r: int, gamma, allow_marginal=False):
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        if not (0 <= n_r <= base.order):
            raise ValueError(f"n_r must lie in [0, {base.order}], got {n_r}")
        if gamma.shape != (n_r,):
            raise ValueError(f"gamma must have length n_r = {n_r}")
        if not np.all(np.abs(gamma) <= 1.0):
            raise ValueError("each gamma_i must lie in [-1, 1]")
        re = np.real(np.linalg.eigvals(base.A)) if base.order else np.array([])
        if np.any(re > _HURWITZ_TOL):
            raise ValueError("base A has eigenvalues in the open right half plane")
        if np.any(np.abs(re) <= _HURWITZ_TOL) and not allow_marginal:
            raise ValueError("base A is marginal; pass allow_marginal=True if intended")
        gamma.setflags(write=False)
        self.base = base
        self.n_r = int(n_r)
        self.gamma = gamma
        self.allow_marginal = bool(allow_marginal)

    @property
    def order(self):
        return self.base.order

    @property
    def is_linear(self):
        return self.n_r == 0 or bool(np.all(self.gamma == 1.0))

    def reset_matrix(self):
        """Full jump map: blockdiag(diag(gamma), I)."""
        d = np.ones(self.order)
        d[: self.n_r] = self.gamma
        return np.diag(d)

    def with_gamma(self, gamma):
        return ResetSystem(self.base, self.n_r, gamma, allow_marginal=self.allow_marginal)

    def __repr__(self):
        return (f"ResetSystem(order={self.order}, n_r={self.n_r}, "
                f"gamma={np.array2string(self.gamma, separator=', ')})")


def clegg() -> ResetSystem:
    """Resetting integrator: 1/s with its single state zeroed at input
    zero crossings."""
    base = StateSpace([[0.0]], [[1.0]], [[1.0]], 0.0)
    return ResetSystem(base, 1, [0.0], allow_marginal=True)


def fore(omega_r, gamma=0.0) -> ResetSystem:
    """First-order reset lag 1/(s/omega_r + 1) with resetting state."""
    if omega_r <= 0:
        raise ValueError("omega_r must be positive")
    base = StateSpace([[-omega_r]], [[omega_r]], [[1.0]], 0.0)
    return ResetSystem(base, 1, [float(gamma)])


def sore(omega_r, damping=1.0, gamma=0.0) -> ResetSystem:
    """Second-order reset lag 1/((s/omega_r)^2 + 2*damping*s/omega_r + 1)
    with both states resetting.  ``gamma`` may be a scalar (applied to both
    states) or a pair."""
    if omega_r <= 0:
        raise ValueError("omega_r must be positive")
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if g.size == 1:
        g = np.repeat(g, 2)
    A = np.array([[0.0, 1.0], [-omega_r**2, -2.0 * damping * omega_r]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[omega_r**2, 0.0]])
    return ResetSystem(StateSpace(A, B, C, 0.0), 2, g)


def lag_chain(pole_omegas, gammas) -> ResetSystem:
    """Cascade of unity-DC first-order lags 1/(s/w_p + 1), one resetting
    state per pole.  State i is the output of section i, so the jump map
    diag(gamma) scales each pole's section independently."""
    p = np.asarray(pole_omegas, dtype=float)
    g = np.asarray(gammas, dtype=float)
    if p.ndim != 1 or p.size == 0 or np.any(p <= 0):
        raise ValueError("pole frequencies must be positive")
    if g.shape != p.shape:
        raise ValueError("gamma length must match the pole count")
    n = p.size
    A = np.diag(-p)
    for i in range(1, n):
        A[i, i - 1] = p[i]
    B = np.zeros((n, 1))
    B[0, 0] = p[0]
    C = np.zeros((1, n))
    C[0, -1] = 1.0
    return ResetSystem(StateSpace(A, B, C, 0.0), n, g)


@dataclass(frozen=True)
class HarmonicResponse:
    """Complex gain of one output harmonic over a frequency grid.

    ``order`` is the harmonic index n >= 1 of the response component at
    n*omega under unit-sinusoid excitation at omega.  Even orders exist
    only as exact zeros.
    """

    omega: np.ndarray
    order: int
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if omega.shape != values.shape or omega.ndim != 1:
            raise ValueError("omega and values must be 1-D and the same length")
        if self.order < 1:
            raise ValueError("harmonic order must be >= 1")
        if self.order % 2 == 0 and np.any(values != 0):
            raise ValueError("even harmonics are exactly zero for reset elements")
        omega.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    def mag_db(self):
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    def phase_deg(self):
        return np.degrees(np.unwrap(np.angle(self.values)))


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("grid must be positive")
    return grid


def _guard(cond, omega, what):
    """Raise SingularFrequencyError at the first point whose condition
    number exceeds the limit."""
    bad = np.flatnonzero(cond > _COND_LIMIT)
    if bad.size:
        w, c = omega[bad[0]], cond[bad[0]]
        raise SingularFrequencyError(f"{what} singular at omega = {w:g} rad/s "
                                     f"(condition estimate {c:.3g})", omega=w, cond=c)


def _expm_grid(A, t):
    """e^{t_k A} stacked over the positive steps t (F,): an (F, n, n)
    array, in closed form for a lower-bidiagonal or a 2x2 A, by scipy
    otherwise."""
    if not (np.triu(A, 1).any() or np.tril(A, -2).any()):
        return _expm_bidiagonal(A, t)
    if A.shape[0] == 2:
        return _expm_2x2(A, t)
    return expm(t[:, None, None] * A)


def _expm_bidiagonal(A, t):
    """Lower-bidiagonal A: E_ij = t^(i-j) prod(A[k, k-1], k = j+1..i)
    exp[x_j..x_i] with x = t diag(A) (Opitz).  Each divided difference
    exp[S] is carried as exp[S] e^(-max x_S), which cannot overflow;
    e^(max x_S) is applied last.  Where the points of S spread by more
    than 1 it comes from the recurrence that drops the smallest or the
    largest point, elsewhere from its Taylor series about the largest
    point (McCurdy, Ng and Parlett, Math. Comp. 1984).  Sorting S makes
    the recurrence divide by the spread itself, whatever the pole order."""
    a, b = np.diag(A), np.diag(A, -1)
    x = t[:, None] * a
    scaled = {}

    def dd(S):   # S: indices sorted by a, so by x at every t > 0
        if S not in scaled:
            top = x[:, S[-1]]
            spread = top - x[:, S[0]]
            near = spread <= 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (dd(S[1:]) - dd(S[:-1]) * np.exp(x[:, S[-2]] - top)) / spread
            y = x[near][:, S[:-1]] - top[near, None]
            val[near] = _dd_taylor(y)
            scaled[S] = val
        return scaled[S]

    n = a.size
    for k in range(n):
        scaled[(k,)] = np.ones_like(t)
    E = np.zeros((t.size, n, n))
    for j in range(n):
        for i in range(j, n):
            S = tuple(sorted(range(j, i + 1), key=lambda k: a[k]))
            coef = np.prod(b[j:i]) * t ** (i - j)
            E[:, i, j] = coef * dd(S) * np.exp(x[:, S[-1]])
    return E


def _dd_taylor(y):
    """exp[y_1..y_p, 0] = sum_m h_m(y) / (m + p)! for points y (F, p) in
    [-1, 0], h_m the complete homogeneous symmetric polynomials.  Term m is
    at most 1 / (m! p!) and the sum at least e^-1 / p!, so
    ``_TAYLOR_TERMS`` terms leave a relative truncation below 3e-17."""
    p = y.shape[1]
    h = [np.ones(y.shape[0])] + [np.zeros(y.shape[0])] * _TAYLOR_TERMS
    for k in range(p):   # h_m(y_1..y_k) = h_m(y_1..y_k-1) + y_k h_m-1(y_1..y_k)
        for m in range(1, _TAYLOR_TERMS + 1):
            h[m] = h[m] + y[:, k] * h[m - 1]
    return sum(hm / math.factorial(m + p) for m, hm in enumerate(h))


def _expm_2x2(A, t):
    """e^{tA} = e^{mu t} (cosh(d t) I + sinh(d t)/d (A - mu I)) with
    mu = tr(A) / 2 and d^2 = ((a11 - a22) / 2)^2 + a12 a21, exact at d = 0.
    A real pair is written with e^{(mu + d) t} and e^{(mu - d) t}, which
    cannot meet 0 * inf as e^{mu t} cosh(d t) can."""
    mu = 0.5 * (A[0, 0] + A[1, 1])
    d2 = (0.5 * (A[0, 0] - A[1, 1])) ** 2 + A[0, 1] * A[1, 0]
    if d2 < 0:   # complex pair mu +- j w
        w, e = np.sqrt(-d2), np.exp(mu * t)
        c, s = e * np.cos(w * t), e * np.sin(w * t) / w
    else:
        d = np.sqrt(d2)
        hi, lo = np.exp((mu + d) * t), np.exp((mu - d) * t)
        c = 0.5 * (hi + lo)
        s = hi * t if d == 0 else -hi * np.expm1(-2.0 * d * t) / (2.0 * d)
    return c[:, None, None] * np.eye(2) + s[:, None, None] * (A - mu * np.eye(2))


def _frequency_matrices(A, grid):
    """E = e^{(pi/omega) A} and Lambda = omega^2 I + A^2 stacked over the
    grid, (F, n, n) each."""
    E = _expm_grid(A, np.pi / grid)
    lam = (grid**2)[:, None, None] * np.eye(A.shape[0]) + A @ A
    _guard(np.linalg.cond(lam), grid, "Lambda(omega)")
    return E, lam


def _check_resolvent(E, g, bound, grid):
    """Guard the jump resolvent I + diag(g) E.  ``bound`` (F, G) bounds its
    cond_2 from above at each point; the exact value is computed only where
    the bound fails (or is NaN)."""
    f, k = np.nonzero(~(bound <= _COND_LIMIT))
    M = np.eye(E.shape[-1]) + g[k][:, :, None] * E[f]
    _guard(np.linalg.cond(M), grid[f], "I + A_R e^(pi A/omega)")


def _solve_lower(E, g, m, grid):
    """Solve (I + diag(g) E) x = diag(g) m for lower-triangular E by forward
    substitution over the n states, every step elementwise on (F, G)
    arrays; returns x as n such arrays."""
    n = E.shape[-1]
    e = E[..., None]   # e[:, i, j] is (F, 1) and broadcasts over G
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_diag = [1.0 / (1.0 + g[:, i] * e[:, i, i]) for i in range(n)]
        scale = [g[:, i] * d for i, d in enumerate(inv_diag)]
        x = []
        for i in range(n):
            x.append(scale[i] * (m[:, i, None] - sum(e[:, i, j] * x[j] for j in range(i))))
        # M^-1 column by column, for the bound ||M||_F ||M^-1||_F >= cond_2(M)
        norm_inv = 0.0
        for k in range(n):
            col = [inv_diag[k]]
            for i in range(k + 1, n):
                col.append(-scale[i] * sum(e[:, i, j] * c for j, c in enumerate(col, k)))
            norm_inv = norm_inv + sum(c * c for c in col)
        norm_m = sum((float(i == j) + g[:, i] * e[:, i, j]) ** 2
                     for i in range(n) for j in range(i + 1))
        bound = np.sqrt(norm_m * norm_inv)
    _check_resolvent(E, g, bound, grid)
    return x


def _solve_general(E, g, m, grid):
    """The same solve for any E, batched over (F, G) points; x is (n, F, G)."""
    M = np.eye(E.shape[-1]) + g[None, :, :, None] * E[:, None, :, :]
    try:
        bound = (np.linalg.norm(M, axis=(2, 3))
                 * np.linalg.norm(np.linalg.inv(M), axis=(2, 3)))
    except np.linalg.LinAlgError:
        bound = np.full(M.shape[:2], np.inf)
    _check_resolvent(E, g, bound, grid)
    rhs = g[None, :, :, None] * m[:, None, :, None]
    return np.moveaxis(np.linalg.solve(M, rhs)[..., 0], -1, 0)


def _shifted_solve(A, s, rhs):
    """(s_k I - A)^-1 rhs at each s_k = j n omega_k, (F, n) complex."""
    M = s[:, None, None] * np.eye(A.shape[0]) - A
    try:
        return np.linalg.solve(M, np.broadcast_to(rhs, (s.size,) + rhs.shape))[..., 0]
    except np.linalg.LinAlgError:
        _guard(np.linalg.cond(M), np.abs(s), "j omega I - A")
        raise


def _harmonics(base: StateSpace, n_r, gammas, grid, orders) -> np.ndarray:
    """Gains of the odd harmonics ``orders`` for each reset map in
    ``gammas`` (G, n_r) on the grid: a (len(orders), G, F) array.  See the
    module docstring for the formula."""
    A, n, F, G = base.A, base.order, grid.size, gammas.shape[0]
    # output rows C (jnwI - A)^-1, solved against C^T
    rows = [_shifted_solve(A.T, 1j * order * grid, base.C.T) for order in orders]
    # laid out (order, F, G) so each frequency block is contiguous
    out = np.empty((len(orders), F, G), dtype=complex)
    for k, order in enumerate(orders):
        # the linear part solves against B, the same route as StateSpace(s)
        out[k] = (base.C @ _shifted_solve(A, 1j * grid, base.B)[..., None]
                  + base.D)[:, 0] if order == 1 else 0.0
    identity = np.all(gammas == 1.0, axis=1)   # no jump: v = 0 exactly
    if n_r == 0 or identity.all():
        return out.transpose(0, 2, 1)
    E, lam = _frequency_matrices(A, grid)
    delta = np.eye(n) + E
    lam_b = np.linalg.solve(lam, np.broadcast_to(base.B, (F, n, 1)))[..., 0]
    m = (delta @ lam_b[..., None])[..., 0]
    # fold -j (2w^2/pi) Delta into each row, so harmonic += q . (x - lam_b)
    jump = (-2j * grid**2 / np.pi)[:, None]
    qs = [jump * (row[:, None, :] @ delta)[:, 0] for row in rows]
    g = np.ones((G, n))
    g[:, :n_r] = gammas
    solve = _solve_general if np.triu(A, 1).any() else _solve_lower
    step = max(1, _BLOCK_POINTS // G)
    for fs in (slice(f0, f0 + step) for f0 in range(0, F, step)):
        x = solve(E[fs], g, m[fs], grid[fs])
        y = [np.where(identity, 0.0, x[i] - lam_b[fs, i, None]) for i in range(n)]
        for k, q in enumerate(qs):
            out[k, fs] += sum(q[fs, i, None] * y[i] for i in range(n))
    return out.transpose(0, 2, 1)


def theta_d(rs: ResetSystem, omega) -> np.ndarray:
    """Jump-induced correction matrix entering the first-harmonic gain.

    Real n x n matrix; identically zero when the jump map is the identity
    (all gamma_i = 1).  Raises SingularFrequencyError when the resolvent
    of the jump recursion, I + A_R e^{(pi/omega)A}, is singular at omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if rs.is_linear:
        # identity jump map: the resolvent collapses and the correction is
        # exactly zero, so skip the (possibly ill-conditioned) formula
        return np.zeros((rs.order, rs.order))
    eye, AR, grid = np.eye(rs.order), rs.reset_matrix(), np.array([float(omega)])
    E, lam = _frequency_matrices(rs.base.A, grid)
    # one matrix: an infinite bound sends it straight to the exact cond_2
    _check_resolvent(E, np.diag(AR)[None, :], np.full((1, 1), np.inf), grid)
    delta, lam_inv = eye + E[0], np.linalg.solve(lam[0], eye)
    gamma_r = np.linalg.solve(eye + AR @ E[0], AR @ delta @ lam_inv)
    return -(2.0 * omega**2 / np.pi) * delta @ (gamma_r - lam_inv)


def describing_function(rs: ResetSystem, grid) -> HarmonicResponse:
    """First-harmonic complex gain of the reset element on a grid.

    Reduces exactly to the linear frequency response of the base when all
    gamma_i = 1.
    """
    grid = _check_grid(grid)
    vals = _harmonics(rs.base, rs.n_r, rs.gamma[None, :], grid, (1,))
    return HarmonicResponse(grid, 1, vals[0, 0])


def hosidf(rs: ResetSystem, grid, n: int) -> HarmonicResponse:
    """Complex gain of the n-th output harmonic (n >= 2) under unit
    sinusoidal excitation.

    Even orders are exact zeros by construction (they are not evaluated,
    which avoids spurious numerical residue).  The same short circuit
    applies in the no-reset limit gamma = 1, where every harmonic above
    the first vanishes identically.
    """
    if n < 2:
        raise ValueError("hosidf() covers n >= 2; use describing_function for n = 1")
    grid = _check_grid(grid)
    if n % 2 == 0:
        return HarmonicResponse(grid, n, np.zeros(grid.shape, dtype=complex))
    vals = _harmonics(rs.base, rs.n_r, rs.gamma[None, :], grid, (n,))
    return HarmonicResponse(grid, n, vals[0, 0])


def harmonic_spectrum(rs: ResetSystem, grid, n_max: int):
    """Orders 1, 3, 5, ..., n_max of the harmonic response (list of
    HarmonicResponse)."""
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be odd and >= 1")
    grid, orders = _check_grid(grid), tuple(range(1, n_max + 1, 2))
    vals = _harmonics(rs.base, rs.n_r, rs.gamma[None, :], grid, orders)
    return [HarmonicResponse(grid, n, v[0]) for n, v in zip(orders, vals)]


def describing_function_gamma_batch(base: StateSpace, n_r, gammas, grid) -> np.ndarray:
    """First-harmonic gains for many gamma vectors at once.

    ``gammas`` is (G, n_r); returns a (G, len(grid)) complex array.  The
    frequency-only work is shared by the whole batch, which is what makes
    exhaustive reset-map tuning affordable.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 2 or gammas.shape[1] != n_r:
        raise ValueError("gammas must be (G, n_r)")
    return _harmonics(base, n_r, gammas, _check_grid(grid), (1,))[0]


def save_harmonics(path, responses):
    """Harmonic CSV, one row per frequency and order: Hz, order, gain in
    dB, unwrapped phase in degrees.  An even order and an all-zero
    harmonic have no rows (their gain is exactly zero); each leaves a
    comment line instead."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,order,mag_db,phase_deg\n")
        for hr in responses:
            if hr.order % 2 == 0:
                fh.write("# even harmonics are exactly zero and not tabulated\n")
                continue
            if not np.any(hr.values):
                fh.write("# harmonic is exactly zero for this system\n")
                continue
            mag = hr.mag_db()
            ph = hr.phase_deg()
            for w, m, p in zip(hr.omega, mag, ph):
                fh.write(f"{float(to_hz(w))!r},{hr.order},{float(m)!r},{float(p)!r}\n")
