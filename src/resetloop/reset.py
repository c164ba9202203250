"""Reset elements and their sinusoidal-input frequency-domain engine.

A reset element is a linear filter whose leading ("resetting") states are
multiplied by per-state factors gamma_i whenever the driving error signal
crosses zero.  The jump injects nonlinearity: under a unit sinusoid the
steady-state output contains the excitation frequency plus odd harmonics.
``harmonics`` gives one element's gains at any harmonic orders (exactly zero
for even n), the odd ones from one kernel pass; ``describing_function``
(first harmonic) and ``hosidf`` (n-th harmonic) are its one-order cases, and
``describing_function_gamma_batch`` (first harmonic for many reset maps)
calls the same kernel.  The tuner reads the kernel's frequency blocks as
they are made, so it never holds the (frequency, map) output.

With E = e^{(pi/omega) A}, Delta = I + E and Lambda = omega^2 I + A^2, the
jump enters every harmonic only through v(omega, gamma) = Delta (x -
Lambda^-1 B), where x solves (I + diag(gamma) E) x = diag(gamma) Delta
Lambda^-1 B.  The first harmonic is C (jwI - A)^-1 (B - j (2w^2/pi) v) + D
and harmonic n >= 3 is -j (2w^2/pi) C (jnwI - A)^-1 v.  The kernel computes
the frequency-only pieces once per call, E in closed form (divided
differences of the exponential for a lower-bidiagonal A: every lag chain,
clegg, fore; cosh and sinh for the 2x2 sore; otherwise scipy's ``expm``,
imported on first use), and solves for x in blocks of at most
_BLOCK_POINTS (omega, gamma) points, for maps given as one array of
factors per reset state (a batch's columns, or a product grid's axes): by
forward substitution when A is lower triangular (elementwise, so on a
product grid once per prefix gamma_1..gamma_i for state i, and only the
last reset state costs a pass per map), by batched LAPACK otherwise.  The
triangular path screens the jump resolvents' conditioning once per
frequency for the whole batch, the other path once per point, and Lambda
once per frequency; where a screen reads over half the limit, the exact
cond_2 of each matrix decides, and a non-finite matrix is singular.
``ResetSystem`` reads the stability of a triangular or 2x2 base from its
structure.  So every element this module builds, and every set-up from
them, reaches neither LAPACK's general eigensolver nor its SVD; a base of
any other shape (the simulator's realized chains) and the exact fallbacks
still do.  Each kernel block is written in place into one reused buffer.
The simulator has its own scaling-and-squaring ``expm`` for every A, so the
time-domain oracle shares no exponential code with the closed form.
Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .lti import SingularFrequencyError, StateSpace, frozen_array, to_hz, write_rows

_HURWITZ_TOL = 1e-9
_COND_LIMIT = 1e14
#: (omega, gamma) points per resolvent block: bounds the kernel's working
#: memory, and the tuner's, which reduces each block as it is made
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

    __setattr__ = __delattr__ = StateSpace.__setattr__   # frozen, as StateSpace is

    def __init__(self, base: StateSpace, n_r: int, gamma, allow_marginal=False):
        if not (0 <= n_r <= base.order):
            raise ValueError(f"n_r must lie in [0, {base.order}], got {n_r}")
        gamma = _checked_gamma(gamma, n_r)
        re = _eigen_real_parts(base.A)
        if np.any(re > _HURWITZ_TOL):
            raise ValueError("base A has eigenvalues in the open right half plane")
        if np.any(np.abs(re) <= _HURWITZ_TOL) and not allow_marginal:
            raise ValueError("base A is marginal; pass allow_marginal=True if intended")
        vars(self).update(base=base, n_r=int(n_r), gamma=gamma,
                          allow_marginal=bool(allow_marginal))

    @property
    def order(self):
        return self.base.order

    def reset_matrix(self):
        """Full jump map: blockdiag(diag(gamma), I)."""
        d = np.ones(self.order)
        d[: self.n_r] = self.gamma
        return np.diag(d)

    def with_gamma(self, gamma):
        """The same element with reset factors ``gamma``; only gamma is
        checked, the base having passed when this element was built."""
        rs = copy.copy(self)
        vars(rs)["gamma"] = _checked_gamma(gamma, self.n_r)
        return rs

    def __repr__(self):
        return (f"ResetSystem(order={self.order}, n_r={self.n_r}, "
                f"gamma={np.array2string(self.gamma, separator=', ')})")


def _checked_gamma(gamma, n_r):
    """gamma as a read-only float array of n_r factors, each in [-1, 1]."""
    gamma = np.atleast_1d(frozen_array(gamma))
    if gamma.shape != (n_r,):
        raise ValueError(f"gamma must have length n_r = {n_r}")
    if not np.all(np.abs(gamma) <= 1.0):
        raise ValueError("each gamma_i must lie in [-1, 1]")
    return gamma


def _eigen_real_parts(A):
    """Real parts of the eigenvalues of A: the diagonal of a triangular A,
    the roots of the characteristic polynomial of a 2x2 one, and LAPACK's
    general eigensolver for any other A, for a non-finite A (which LAPACK
    rejects) and for a 2x2 whose roots overflow."""
    if np.isfinite(A).all():
        if not (np.triu(A, 1).any() and np.tril(A, -1).any()):
            return np.diag(A)
        if A.shape[0] == 2:
            with np.errstate(over="ignore", invalid="ignore"):
                mu, d2 = _pair(A)
                if d2 <= 0:   # a complex or double pair mu +- j sqrt(-d2)
                    re = np.array([mu, mu])
                else:   # the larger root, then det / root: no cancellation
                    r = mu + math.copysign(math.sqrt(d2), mu)
                    re = np.array([r, (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / r])
            if np.isfinite(re).all():
                return re
    return np.real(np.linalg.eigvals(A))


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
        omega = frozen_array(self.omega)
        values = frozen_array(self.values, complex)
        if omega.shape != values.shape or omega.ndim != 1:
            raise ValueError("omega and values must be 1-D and the same length")
        if self.order < 1:
            raise ValueError("harmonic order must be >= 1")
        if self.order % 2 == 0 and np.any(values != 0):
            raise ValueError("even harmonics are exactly zero for reset elements")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    def mag_db(self):
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    def phase_deg(self):
        return np.degrees(np.unwrap(np.angle(self.values)))


def check_grid(grid):
    """A harmonic grid as a float array: one axis of positive omega."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(grid <= 0):
        raise ValueError("grid must be positive and 1-D")
    return grid


def _guard(bound, omega, matrices, what, shape=None):
    """Raise SingularFrequencyError at the first point (C order of
    ``shape``, by default bound's) whose cond_2 exceeds the limit, omega
    being the frequency along its first axis.  ``bound``, broadcast to
    shape, bounds each cond_2 from above; the exact cond_2 of
    matrices(*index) decides only where it exceeds half the limit or is NaN
    (near the limit both are good to a few per cent), in blocks of
    _BLOCK_POINTS.  A non-finite matrix counts as singular."""
    fail = ~(bound <= 0.5 * _COND_LIMIT)
    if not fail.any():
        return
    fail = np.nonzero(np.broadcast_to(fail, shape or fail.shape))
    for p in range(0, fail[0].size, _BLOCK_POINTS):
        at = tuple(i[p:p + _BLOCK_POINTS] for i in fail)
        M = matrices(*at)
        finite = np.isfinite(M).all(axis=(-2, -1))
        cond = np.full(finite.shape, np.inf)
        cond[finite] = np.linalg.cond(M[finite])
        bad = np.flatnonzero(cond > _COND_LIMIT)
        if bad.size:
            w, c = omega[at[0][bad[0]]], cond[bad[0]]
            raise SingularFrequencyError(f"{what} singular at omega = {w:g} rad/s "
                                         f"(condition estimate {c:.3g})", omega=w, cond=c)


def expm(M):
    """scipy's matrix exponential, imported on the first call: only the
    fallback of `_expm_grid` needs it, so no other route loads scipy."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(M)


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
            if near.any():
                val[near] = _dd_taylor(x[near][:, S[:-1]] - top[near, None])
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
    del dd   # dd refers to itself: free its arrays now, not at the next gc pass
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
    mu, d2 = _pair(A)
    if d2 < 0:   # complex pair mu +- j w
        w, e = np.sqrt(-d2), np.exp(mu * t)
        c, s = e * np.cos(w * t), e * np.sin(w * t) / w
    else:
        d = np.sqrt(d2)
        hi, lo = np.exp((mu + d) * t), np.exp((mu - d) * t)
        c = 0.5 * (hi + lo)
        s = hi * t if d == 0 else -hi * np.expm1(-2.0 * d * t) / (2.0 * d)
    return c[:, None, None] * np.eye(2) + s[:, None, None] * (A - mu * np.eye(2))


def _pair(A):
    """mu = tr(A) / 2 and d^2 = ((a11 - a22) / 2)^2 + a12 a21 of a 2x2 A,
    whose eigenvalues are mu +- d."""
    mu = 0.5 * (A[0, 0] + A[1, 1])
    return mu, (0.5 * (A[0, 0] - A[1, 1])) ** 2 + A[0, 1] * A[1, 0]


def _frobenius_bound(M):
    """||M||_F ||M^-1||_F over a stack of matrices (..., n, n): an upper
    bound on each cond_2, infinite for the whole stack when one matrix is
    exactly singular.  A 1x1 matrix has cond_2 = 1 unless it is 0, infinite
    or NaN, where the bound is infinite."""
    if M.shape[-1] == 1:
        m = np.abs(M[..., 0, 0])
        return np.where((m > 0) & (m < np.inf), 1.0, np.inf)
    try:
        return (np.linalg.norm(M, axis=(-2, -1))
                * np.linalg.norm(np.linalg.inv(M), axis=(-2, -1)))
    except np.linalg.LinAlgError:
        return np.full(M.shape[:-2], np.inf)


def _frequency_matrices(A, grid):
    """E = e^{(pi/omega) A} and Lambda = omega^2 I + A^2 stacked over the
    grid, (F, n, n) each, with Lambda screened by _frobenius_bound (see
    _guard).  Where omega^2 overflows, Lambda is not finite and singular."""
    E = _expm_grid(A, np.pi / grid)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (grid**2)[:, None, None] * np.eye(A.shape[0]) + A @ A
        bound = _frobenius_bound(lam)
    _guard(bound, grid, lambda f: lam[f], "Lambda(omega)")
    return E, lam


def _map_rows(factors):
    """The reset maps of the factors as flat (G, n) rows, in C order."""
    return np.stack(np.broadcast_arrays(*factors), axis=-1).reshape(-1, len(factors))


def _check_resolvent(E, factors, bound, grid):
    """Guard the jump resolvent I + diag(g) E for each map g of the padded
    ``factors``, whose cond_2 ``bound`` (F, G), or (F, 1) for one per
    frequency, bounds at each (omega, map) point; see _guard."""
    eye = np.eye(E.shape[-1])
    _guard(bound, grid, lambda f, k: eye + _map_rows(factors)[k, :, None] * E[f],
           "I + A_R e^(pi A/omega)", (E.shape[0], np.broadcast(*factors).size))


def _resolvent_bound(E, factors):
    """Upper bounds (F,) on cond_2 of the jump resolvent I + diag(g) E, one
    per frequency covering every map of the padded ``factors``
    (lower-triangular E).  With c_i = max |g_i| and
    d_i = min |1 + g_i e_ii| over the batch, every map M has |M^-1| <= W^-1
    for W = diag(d) - diag(c) |tril(E, -1)| (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 8.3) and |M| <= I + diag(c) |E|:
    cond_2(M) <= ||I + diag(c)|E| ||_F ||W^-1||_F."""
    n = E.shape[-1]
    a = np.array([np.abs(f).max() for f in factors])[:, None] * np.abs(E)   # diag(c) |E|
    with np.errstate(divide="ignore", invalid="ignore"):
        d = [np.abs(1.0 + f.ravel() * E[:, i, i, None]).min(axis=1)
             for i, f in enumerate(factors)]
        # W^-1 column by column, elementwise on (F,) arrays
        norm_inv = 0.0
        for k in range(n):
            col = [1.0 / d[k]]
            for i in range(k + 1, n):
                col.append(sum(a[:, i, j] * y for j, y in enumerate(col, k)) / d[i])
            norm_inv = norm_inv + sum(y * y for y in col)
        norm_m = sum((float(i == j) + a[:, i, j]) ** 2
                     for i in range(n) for j in range(i + 1))
        return np.sqrt(norm_m * norm_inv)


def _solve_lower(E, factors, m):
    """Solve (I + diag(g) E) x = diag(g) m for lower-triangular E by forward
    substitution, elementwise on (F, *shape) arrays for the padded
    ``factors`` of broadcast shape ``shape``; returns x as n such arrays,
    x_i shaped by factors 1..i.  The caller screens the resolvent
    (_resolvent_bound)."""
    n, pad = E.shape[-1], (1,) * np.broadcast(*factors).ndim
    e = E.reshape(E.shape + pad)   # e[:, i, j] is (F, 1, ..) and broadcasts
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = [f * (1.0 / (1.0 + f * e[:, i, i])) for i, f in enumerate(factors)]
        x = []
        for i in range(n):
            x.append(scale[i] * (m[:, i].reshape(-1, *pad)
                                 - sum(e[:, i, j] * x[j] for j in range(i))))
    return x


def _solve_general(E, factors, m, grid):
    """The same solve for any E, batched over (F, G) points; x is (n, F, G)."""
    g = _map_rows(factors)
    M = np.eye(E.shape[-1]) + g[None, :, :, None] * E[:, None, :, :]
    _check_resolvent(E, factors, _frobenius_bound(M), grid)
    rhs = g[None, :, :, None] * m[:, None, :, None]
    return np.moveaxis(np.linalg.solve(M, rhs)[..., 0], -1, 0)


def _shifted_solve(A, s, rhs):
    """(s_k I - A)^-1 rhs at each s_k = j n omega_k, (F, n) complex."""
    M = s[:, None, None] * np.eye(A.shape[0]) - A
    try:
        return np.linalg.solve(M, np.broadcast_to(rhs, (s.size,) + rhs.shape))[..., 0]
    except np.linalg.LinAlgError:
        _guard(np.full(s.size, np.inf), np.abs(s), lambda f: M[f], "j omega I - A")
        raise


def _harmonic_blocks(base: StateSpace, factors, grid, orders):
    """Gains of the odd harmonics ``orders`` on the grid, one block of
    frequencies at a time, for the G reset maps of ``factors``: one array
    per reset state (n_r = len(factors)), broadcast together, the maps
    running in C order of the broadcast shape (G maps' columns are arrays
    (G,); a product grid's axis i is shaped (1, .., L_i, .., 1)).  Yields
    (fs, gains), gains the (len(orders), nf, G) array at the nf frequencies
    grid[fs], in order.  A block holds at most _BLOCK_POINTS (omega, map)
    points, or one frequency when G is larger, and an empty grid is one
    empty block.  Every block is written into one buffer, which the next
    block overwrites; when the grid fits one block, that buffer is the
    whole (len(orders), F, G) output.  See the module docstring for the
    formula."""
    shape = np.broadcast(*factors).shape
    A, n, F, G = base.A, base.order, grid.size, math.prod(shape)
    # the states past n_r do not reset: factor 1
    factors = [*factors, *[np.ones((1,) * len(shape))] * (n - len(factors))]
    # output rows C (jnwI - A)^-1, solved against C^T
    rows = [_shifted_solve(A.T, 1j * order * grid, base.C.T) for order in orders]
    step = max(1, _BLOCK_POINTS // max(G, 1))
    buf = np.empty((len(orders), min(step, F), G), dtype=complex)
    # the linear part solves against B, the same route as StateSpace(s)
    linear = ((base.C @ _shifted_solve(A, 1j * grid, base.B)[..., None] + base.D)[:, 0]
              if 1 in orders else None)
    identity = np.flatnonzero(np.all([np.broadcast_to(f == 1.0, shape) for f in factors],
                                     axis=0))
    jumps = identity.size < G
    if jumps:
        E, lam = _frequency_matrices(A, grid)
        delta = np.eye(n) + E
        lam_b = np.linalg.solve(lam, np.broadcast_to(base.B, (F, n, 1)))[..., 0]
        m = (delta @ lam_b[..., None])[..., 0]
        # fold -j (2w^2/pi) Delta into each row, so harmonic += q . (x - lam_b)
        jump = (-2j * grid**2 / np.pi)[:, None]
        qs = [jump * (row[:, None, :] @ delta)[:, 0] for row in rows]
        lower = not np.triu(A, 1).any()
        if lower:   # one screen for the whole call: the bound is per frequency
            _check_resolvent(E, factors, _resolvent_bound(E, factors)[:, None], grid)
        pad = (1,) * (len(shape) if lower else 1)
    for fs in (slice(f0, min(f0 + step, F)) for f0 in range(0, max(F, 1), step)):
        gains = buf[:, :fs.stop - fs.start]
        if jumps:
            x = (_solve_lower(E[fs], factors, m[fs]) if lower
                 else _solve_general(E[fs], factors, m[fs], grid[fs]))
            for i in range(n):   # x - Lambda^-1 B, in place
                x[i] -= lam_b[fs, i].reshape(-1, *pad)
            for k, (q, order) in enumerate(zip(qs, orders)):
                # written in place: the last state's term, which has the
                # block's full shape, then the other states' sum, then the
                # linear part (0.0 above the first order, which turns a -0.0
                # to +0.0 as a zero start would); addition commutes, so the
                # bits are those of linear + the sum in state order
                term = gains[k].reshape(-1, *x[n - 1].shape[1:])
                np.multiply(q[fs, n - 1].reshape(-1, *pad), x[n - 1], out=term)
                term += sum(q[fs, i].reshape(-1, *pad) * x[i] for i in range(n - 1))
                gains[k][:, identity] = 0.0   # no jump: v = 0 exactly
                gains[k] += linear[fs] if order == 1 else 0.0
        else:
            for k, order in enumerate(orders):
                gains[k] = linear[fs] if order == 1 else 0.0
        yield fs, gains


def _harmonics(base: StateSpace, factors, grid, orders) -> np.ndarray:
    """The `_harmonic_blocks` gains on the whole grid: a (len(orders), G, F)
    array."""
    blocks = _harmonic_blocks(base, factors, grid, orders)
    fs, gains = next(blocks)
    if fs.stop == grid.size:   # the one block's buffer is the output: no copy
        return gains.transpose(0, 2, 1)
    out = np.empty((len(orders), grid.size, gains.shape[-1]), dtype=complex)
    out[:, fs] = gains
    for fs, gains in blocks:
        out[:, fs] = gains
    return out.transpose(0, 2, 1)


def harmonics(rs: ResetSystem, grid, orders) -> list:
    """Harmonic responses of the reset element, one per order in ``orders``
    (each >= 1, in the order given).  Even orders are exact zeros and never
    reach the kernel; the odd ones share one kernel pass, so the
    frequency-only set-up is computed once whatever the number of orders.
    In the no-reset limit gamma = 1 every order above the first is exactly
    zero."""
    orders = tuple(orders)
    if any(n < 1 for n in orders):
        raise ValueError(f"harmonic orders must be >= 1, got {orders}")
    grid = check_grid(grid)
    odd = tuple(n for n in orders if n % 2)
    vals = _harmonics(rs.base, list(rs.gamma[:, None]), grid, odd)[:, 0] if odd else ()
    gains = dict(zip(odd, vals))
    return [HarmonicResponse(grid, n, gains[n] if n in gains
                             else np.zeros(grid.shape, dtype=complex)) for n in orders]


def describing_function(rs: ResetSystem, grid) -> HarmonicResponse:
    """First-harmonic complex gain of the reset element on a grid.

    Reduces exactly to the linear frequency response of the base when all
    gamma_i = 1.
    """
    return harmonics(rs, grid, (1,))[0]


def hosidf(rs: ResetSystem, grid, n: int) -> HarmonicResponse:
    """Complex gain of the n-th output harmonic (n >= 2) under unit
    sinusoidal excitation; see `harmonics`."""
    if n < 2:
        raise ValueError("hosidf() covers n >= 2; use describing_function for n = 1")
    return harmonics(rs, grid, (n,))[0]


def describing_function_gamma_batch(base: StateSpace, n_r, gammas, grid) -> np.ndarray:
    """First-harmonic gains for many gamma vectors at once.

    ``gammas`` is (G, n_r); returns a (G, len(grid)) complex array.  The
    frequency-only work is shared by the whole batch, which is what makes
    exhaustive reset-map tuning affordable.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 2 or gammas.shape[1] != n_r:
        raise ValueError("gammas must be (G, n_r)")
    if not np.all(np.abs(gammas) <= 1.0):
        raise ValueError("each gamma_i must lie in [-1, 1]")
    gains = _harmonics(base, list(gammas.T), check_grid(grid), (1,))[0]
    # with no reset state there are no columns, and every map is the same
    return gains if n_r else np.repeat(gains, len(gammas), axis=0)


def save_harmonics(responses, path):
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
            write_rows(fh, to_hz(hr.omega).tolist(), repeat(int(hr.order)),
                       hr.mag_db().tolist(), hr.phase_deg().tolist())
