"""Time-domain truth.

Fixed-step hybrid simulation of the closed loop with reset jumps, reference
trajectory generation, the brute-force Fourier oracle that validates the
frequency-domain engine, plant-inversion feedforward, sensor quantization,
seeded noise injection, and tracking metrics.

Discretization everywhere is the exact matrix-exponential step with the
input held over each sample (the controller runs sampled, like the real
hardware it models), so the only approximations in a run are the sampling
of the reset instant to the grid and the sensor model itself.  The
exponential is this module's own `expm` (scaling and squaring, numpy
only), so the simulator neither loads scipy nor shares code with the
closed form's exponential in `reset`.  The feedforward drive and the
oracle read their outputs in blocks: the rows c Phi^k come from repeated
squaring, so a block of samples is one product with its start state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .lti import StateSpace, TransferFunction, frozen_array, series_ss, tf_to_ss
from .reset import ResetSystem
from .synthesis import ControllerSpec


class SimulationDiverged(ArithmeticError):
    """The loop state blew up; doubles as the practical instability
    detector."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class SimConfig:
    """Sampler and sensor settings; the trajectory sets the run.  Defaults
    model the 10 kHz loop with a 100 nm position encoder and a clean sensor."""

    dt: float = 1e-4
    quantization: float = 100e-9
    noise_amplitude: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        for name in ("quantization", "noise_amplitude"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.noise_amplitude > 0 and self.noise_seed < 0:
            raise ValueError("noise_seed must be >= 0 when noise_amplitude > 0, "
                             f"got {self.noise_seed!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled reference r(t) with its generation metadata."""

    kind: str
    t: np.ndarray
    r: np.ndarray
    distance: float = 0.0
    duration: float = 0.0
    peak_snap: float = 0.0

    def __post_init__(self):
        t, r = frozen_array(self.t), frozen_array(self.r)
        if t.shape != r.shape or t.ndim != 1:
            raise ValueError("t and r must be 1-D and the same length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)


# Snap switching pattern of the point-to-point scan: fifteen equal phases
# with snap in {+S, 0, -S}.  The first seven shape the acceleration pulse,
# the eighth cruises, the last seven mirror the first with opposite sign,
# which zeroes velocity, acceleration, and jerk at both ends.
_SNAP_PATTERN = (1, 0, -1, 0, -1, 0, 1, 0, -1, 0, 1, 0, 1, 0, -1)


def _scan_segments(snap, tau):
    """Per-segment boundary states (jerk, acc, vel, pos) under piecewise
    constant snap, integrated exactly."""
    j = a = v = x = 0.0
    bounds = [(j, a, v, x)]
    for s in snap:
        x = x + v * tau + a * tau**2 / 2 + j * tau**3 / 6 + s * tau**4 / 24
        v = v + a * tau + j * tau**2 / 2 + s * tau**3 / 6
        a = a + j * tau + s * tau**2 / 2
        j = j + s * tau
        bounds.append((j, a, v, x))
    return bounds


def _scan_profile(distance, duration):
    """(tau, unit-snap boundary states, snap level) of a scan profile."""
    tau = duration / len(_SNAP_PATTERN)
    unit = _scan_segments(_SNAP_PATTERN, tau)
    if unit[-1][3] == 0.0:
        raise ValueError("degenerate snap pattern")
    return tau, unit, distance / unit[-1][3]


def _segment(t, tau):
    """Snap segment index of each time t >= 0; the last segment holds every later t."""
    return np.minimum((np.asarray(t) / tau).astype(int), len(_SNAP_PATTERN) - 1)


def generate_trajectory(kind, distance, duration, dt=1e-4, hold=0.0) -> Trajectory:
    """Reference generator.

    * ``step``: r jumps to `distance` at t = 0 and holds.
    * ``fourth_order_scan``: symmetric bang-off-bang snap profile moving
      `distance` in `duration` with continuous r, velocity, acceleration,
      and jerk; snap is piecewise constant.

    Samples run from 0 to `duration + hold` inclusive at step dt, at least
    10 steps; during the hold the reference stays at its final value.
    """
    for name, value in (("duration", duration), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not (np.isfinite(hold) and hold >= 0):
        raise ValueError(f"hold must be finite and >= 0, got {hold!r}")
    n = int(round((duration + hold) / dt))
    if n < 10:
        raise ValueError(f"the run must cover at least 10 steps of dt = {dt!r}")
    t = np.arange(n + 1) * dt
    if kind not in ("step", "fourth_order_scan"):
        raise ValueError(f"unknown trajectory kind {kind!r}")
    if kind == "step" or distance == 0.0:
        r = np.full(t.shape, float(distance))
        return Trajectory(kind, t, r, float(distance), float(duration))
    tau, unit, snap = _scan_profile(distance, duration)
    # the tail is clamped exactly on the commanded endpoint
    r = np.full(t.shape, snap * unit[-1][3])
    tm = t[t < duration]
    seg = _segment(tm, tau)
    j, a, v, x = (snap * np.array(unit)[seg]).T
    s = snap * np.array(_SNAP_PATTERN, dtype=float)[seg]
    d = tm - seg * tau
    # libm pow, as a scalar d**p takes it (numpy's power rounds apart)
    d2, d3, d4 = (np.fromiter(map(math.pow, memoryview(d), repeat(p)), float,
                              d.size) for p in (2, 3, 4))
    r[:tm.size] = x + v * d + a * d2 / 2 + j * d3 / 6 + s * d4 / 24
    return Trajectory(kind, t, r, float(distance), float(duration), abs(snap))


def make_feedforward(plant: TransferFunction, relegation_omega) -> TransferFunction:
    """Inverse of a minimum-phase plant made strictly proper by stacking
    unity-gain poles at relegation_omega."""
    num = np.asarray(plant.num, dtype=float)
    if len(num) > 1:
        zeros = np.roots(num)
        if np.any(np.real(zeros) > 0):
            raise ValueError("plant is non-minimum-phase; cannot invert for "
                             "feedforward")
    ff_num = np.asarray(plant.den, dtype=float)
    ff_den = num.copy()
    while len(ff_den) <= len(ff_num):
        ff_den = np.polymul(ff_den, (1.0 / relegation_omega, 1.0))
    return TransferFunction(tuple(ff_num), tuple(ff_den))


# Largest scaled norm at which the degree-m Pade approximant of e^x is accurate
# to unit roundoff (Al-Mohy & Higham, "A new scaling and squaring algorithm for
# the matrix exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009); theta_13 is
# scipy's 4.25, not 5.37, which gives the simulator's matrices scipy's scaling.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}


def _pade(m):
    """Weights of the degree-m approximant over the even powers of A, highest
    first, and 1/|c_2m+1| of its error series e^x - r_m(x)."""
    f = math.factorial
    b = [f(2 * m - k) // (f(k) * f(m - k)) for k in range(m + 1)]
    rows = ([[0, *b[9::2]], b[1:9:2], [0, *b[8::2]], b[0:8:2]] if m == 13
            else [b[1::2], b[0::2]])
    return np.array(rows, dtype=float)[:, ::-1], f(2 * m) * f(2 * m + 1) / f(m) ** 2


_PADE = {m: _pade(m) for m in _THETA}


def expm(M):
    """e^M of a real square matrix by scaling and squaring, the Pade degree and
    scaling chosen from exact 1-norms of powers of M (Al-Mohy & Higham 2009).
    A non-finite M, or one whose powers overflow, gives all NaN."""
    A = np.asarray(M, dtype=float)
    n, absA = len(A), np.abs(A)
    norm = absA.sum(axis=0).max()
    if not math.isfinite(norm):
        return np.full((n, n), np.nan)

    def ell(m, scale=1.0):
        """Squarings degree m adds for scale * A, from ||(scale |A|)^(2m+1)||_1."""
        top = np.linalg.matrix_power(absA * scale, 2 * m + 1).sum(axis=0).max()
        if not top:
            return 0
        alpha = min(top / (norm * scale) / _PADE[m][1] * 2.0**53, 2.0**1000)
        return math.ceil(math.log2(alpha) / (2 * m)) if alpha > 1 else 0

    I = np.eye(n)
    # reach[i, j]: a path j -> ... -> i of nonzero off-diagonal entries.  With
    # none e^M[i, j] = 0, and on no cycle e^M[i, i] = e^(M[i, i]); imposing both,
    # as Al-Mohy & Higham do for a triangular M, leaves no rounding of the
    # pivoted solve there for the squarings to blow up.
    reach = (A != 0) > I
    for _ in range((n - 1).bit_length()):
        reach |= reach @ reach
    loose = np.flatnonzero(~reach.diagonal())
    diag = A.diagonal()[loose]
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        A2 = A @ A
        A4 = A2 @ A2
        A6, A8 = A2 @ A4, A4 @ A4
        d4, d6, d8, d10 = (np.abs([A4, A6, A8, A4 @ A6]).sum(axis=1).max(axis=1)
                           ** [1 / 4, 1 / 6, 1 / 8, 1 / 10])
    if not math.isfinite(d4 + d6 + d8):
        return np.full((n, n), np.nan)
    s = 0
    for m, eta in ((3, max(d4, d6)), (5, max(d4, d6)), (7, max(d6, d8)), (9, max(d6, d8))):
        if eta <= _THETA[m] and ell(m) == 0:
            break
    else:
        m = 13
        eta = min(max(d6, d8), max(d8, d10))
        s = math.ceil(math.log2(eta / _THETA[13])) if eta > _THETA[13] else 0
        s += ell(13, 2.0**-s)
        A, A2, A4, A6 = (X * 2.0**(-k * s) for X, k in ((A, 1), (A2, 2), (A4, 4), (A6, 6)))
    w = _PADE[m][0]
    terms = w.shape[1]
    W = (w @ np.reshape([I, A2, A4, A6, A8][terms - 1::-1], (terms, -1))).reshape(-1, n, n)
    U, V = (A @ W[0], W[1]) if m < 13 else (A @ (A6 @ W[0] + W[1]), A6 @ W[2] + W[3])
    # r_m = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U, solved transposed, which
    # keeps the small entries of a badly scaled M accurate
    X = np.linalg.solve((V - U).T, 2 * U.T).T + I
    X[~reach > I] = 0.0
    X.flat[loose * (n + 1)] = np.exp(diag * 2.0**-s)
    for _ in range(s):
        X = X @ X
    X.flat[loose * (n + 1)] = np.exp(diag)
    return X


def _discretize(ss: StateSpace, dt):
    """Exact zero-order-hold step matrices (Ad, Bd)."""
    n = ss.order
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = ss.B[:, 0]
    Phi = expm(M * dt)
    return Phi[:n, :n], Phi[:n, n]


def _power_rows(row, P, count):
    """The rows row @ P^j for j = 0..count-1, filled by repeated squaring:
    each product doubles the filled rows, then P is squared."""
    rows = np.empty((count, row.size))
    rows[0], filled = row, 1
    while filled < count:
        take = min(filled, count - filled)
        rows[filled:filled + take] = rows[:take] @ P
        P, filled = P @ P, filled + take
    return rows


def feedforward_signal(ff: TransferFunction, traj: Trajectory, dt) -> np.ndarray:
    """Feedforward command at the sample instants.

    A plant-inversion filter differentiates its input, so feeding it the
    sampled reference as a staircase poisons the command with hold
    artifacts.  For the scan profile the reference is piecewise polynomial,
    so the filter is driven by the continuous trajectory instead: the
    position/velocity/acceleration/jerk chain rides along as exact extra
    states and only the piecewise-constant snap enters as a held input.
    A step (or a zero-distance scan) is the same chain with zero snap and
    no switching instants.
    """
    if traj.kind not in ("step", "fourth_order_scan"):
        raise ValueError(f"no feedforward drive for a {traj.kind!r} trajectory")
    ffss = tf_to_ss(ff)
    n = ffss.order
    K = traj.t.size
    tau, snap, boundaries = traj.duration, 0.0, []   # a held reference
    if traj.kind == "fourth_order_scan" and traj.distance != 0.0:
        tau, _, snap = _scan_profile(traj.distance, traj.duration)
        # snap switching instants; a sample interval spanning one is split
        # there so the reference chain is exact and never needs a
        # discontinuous correction
        boundaries = [i * tau for i in range(1, len(_SNAP_PATTERN) + 1)]
    # states: [x_ff, r, v, a, j], then the held snap input
    m = n + 4
    M = np.zeros((m + 1, m + 1))
    M[:n, :n] = ffss.A
    M[:n, n] = ffss.B[:, 0]          # filter driven by r
    M[n, n + 1] = 1.0                # r' = v
    M[n + 1, n + 2] = 1.0            # v' = a
    M[n + 2, n + 3] = 1.0            # a' = j
    M[n + 3, m] = 1.0                # j' = snap (held input)
    Phi = expm(M * dt)

    def snap_at(t):
        if t >= traj.duration:
            return 0.0
        return snap * _SNAP_PATTERN[_segment(t, tau)]

    def flow(z, t0, h):
        """z advanced by h from t0 at the snap level of t0."""
        if h <= 1e-15:
            return z
        z[m] = snap_at(t0)
        return (Phi if h >= dt * (1 - 1e-12) else expm(M * h)) @ z

    # Each sample takes one full step at the snap level of its instant,
    # except a step that crosses a switch (or falls short of dt), which is
    # split and stepped alone.  A run of full steps at one level is one
    # block: row j of `rows` is c Phi^j, so the run's outputs are rows @ z.
    t = traj.t
    split = (t + dt) - t < dt * (1 - 1e-12)
    crossing = np.searchsorted(t + dt - 1e-15, boundaries, side="right")
    split[crossing[crossing < K]] = True
    level = np.zeros(K)
    live = t < traj.duration
    level[live] = snap * np.array(_SNAP_PATTERN, dtype=float)[_segment(t[live], tau)]
    cuts = np.flatnonzero(split[1:] | split[:-1] | (level[1:] != level[:-1]))
    edges = [0, *(cuts + 1).tolist(), K]
    row = np.zeros(m + 1)
    row[:n], row[n] = ffss.C[0], ffss.D
    rows = _power_rows(row, Phi, max(np.diff(edges)))

    z = np.zeros(m + 1)
    z[n] = traj.r[0]
    u = np.empty(K)
    b = 0
    for k, k1 in zip(edges[:-1], edges[1:]):
        z[m] = level[k]
        u[k:k1] = rows[:k1 - k] @ z
        if not split[k]:
            z = np.linalg.matrix_power(Phi, k1 - k) @ z
            continue
        t0 = t[k]
        t1 = t0 + dt
        while b < len(boundaries) and boundaries[b] < t1 - 1e-15:
            z = flow(z, t0, boundaries[b] - t0)
            t0 = boundaries[b]
            b += 1
        z = flow(z, t0, t1 - t0)
    return u


def realize_controller(spec: ControllerSpec) -> ResetSystem:
    """One state-space chain for the whole controller, resetting block
    first so its input is the loop error, matching the premise of the
    harmonic formulas.  kp is folded into the linear stages."""
    lin = tf_to_ss(spec.linear_tf().scaled(spec.kp))
    if spec.reset_part is None:
        return ResetSystem(lin, 0, [], allow_marginal=True)
    chain = series_ss(spec.reset_part.base, lin)
    return ResetSystem(chain, spec.reset_part.n_r, spec.reset_part.gamma,
                       allow_marginal=True)


@dataclass(frozen=True)
class SimResult:
    """Closed-loop run record: ``y`` is the measured output (noise plus
    quantization applied) and ``e = r - y``; `metrics` scores it."""

    t: np.ndarray
    r: np.ndarray
    y: np.ndarray
    e: np.ndarray
    u: np.ndarray
    n_resets: int = 0


@dataclass(frozen=True)
class SampledLoop:
    """A strictly proper plant and a controller sampled at ``dt``: the
    realized controller chain and the exact held-input steps (Ac, Bc) and
    (Ap, Bp) of controller and plant.  Build it once with `build` and run
    it on any trajectory sampled at ``dt``; `with_controller` swaps the
    controller and keeps the plant's step."""

    plant: StateSpace
    chain: ResetSystem
    dt: float
    Ac: np.ndarray
    Bc: np.ndarray
    Ap: np.ndarray
    Bp: np.ndarray

    @classmethod
    def build(cls, plant: StateSpace, controller: ControllerSpec, dt) -> SampledLoop:
        if plant.D != 0.0:
            raise ValueError("plant must be strictly proper (no direct feedthrough)")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        chain = realize_controller(controller)
        return cls(plant, chain, dt, *_discretize(chain.base, dt),
                   *_discretize(plant, dt))

    def with_controller(self, controller: ControllerSpec) -> SampledLoop:
        chain = realize_controller(controller)
        Ac, Bc = _discretize(chain.base, self.dt)
        return replace(self, chain=chain, Ac=Ac, Bc=Bc)


def _checked_drive(loop: SampledLoop, traj: Trajectory, cfg: SimConfig, u_ff):
    """The feedforward command as an array over the run (zeros when off),
    after checking that loop, trajectory and cfg share one sample step."""
    if cfg.dt != loop.dt:
        raise ValueError(f"cfg.dt = {cfg.dt!r} s does not equal the loop's "
                         f"dt = {loop.dt!r} s")
    steps = np.diff(traj.t)
    off = np.abs(steps - cfg.dt) > 1e-9 * cfg.dt
    if off.any():
        raise ValueError(f"cfg.dt = {cfg.dt!r} s does not match the "
                         f"trajectory's sample step {float(steps[off][0])!r} s")
    if u_ff is None:
        return np.zeros(traj.t.size)
    u_ff = np.asarray(u_ff, dtype=float)
    if u_ff.shape != traj.t.shape:
        raise ValueError(f"u_ff has shape {u_ff.shape}, the trajectory "
                         f"{traj.t.shape}")
    return u_ff


def simulate_closed_loop(loop: SampledLoop, traj: Trajectory, cfg: SimConfig,
                         u_ff=None) -> SimResult:
    """Fixed-step hybrid simulation of the unity-feedback loop, with the
    feedforward command ``u_ff`` (`feedforward_signal` at the samples of
    ``traj``) added to the control when given.

    Per sample: measure (noise, then quantization), form the error, fire
    the reset once when the error changed sign since the previous sample
    or just reached zero (re-triggering while the error holds zero is
    suppressed), emit the control, then advance all states by their exact
    held-input step.  A non-finite or blown-up output raises
    SimulationDiverged with the failure time, which doubles as the
    practical instability check.
    """
    u_ff = _checked_drive(loop, traj, cfg, u_ff)
    plant, rs = loop.plant, loop.chain
    Ac, Bc, Ap, Bp = loop.Ac, loop.Bc, loop.Ap, loop.Bp
    Cc, Dc = rs.base.C[0], float(rs.base.D)
    t = traj.t
    K = t.size
    nc, n_r = rs.order, rs.n_r
    N = nc + plant.order
    # one product per sample: [xc, xp, e, u] -> [xc+, xp+, Cp xp+, Cc xc+]
    W = np.zeros((N + 2, N + 2))
    W[:nc, :nc], W[:nc, N] = Ac, Bc
    W[nc:N, nc:N], W[nc:N, N + 1] = Ap, Bp
    W[N] = plant.C[0] @ W[nc:N]
    W[N + 1] = Cc @ W[:nc]
    z, z_next = np.zeros(N + 2), np.empty(N + 2)
    z[N], z[N + 1] = plant.C[0] @ z[nc:N], Cc @ z[:nc]
    zv, zv_next = memoryview(z), memoryview(z_next)

    if cfg.noise_amplitude > 0:
        rng = np.random.default_rng(cfg.noise_seed)
        noise = rng.uniform(-cfg.noise_amplitude, cfg.noise_amplitude, size=K)
    else:
        noise = np.zeros(K)
    q = cfg.quantization
    y, e, u = np.empty(K), np.empty(K), np.empty(K)
    # memoryviews read and write the arrays as Python floats
    r, ff, noise, yv, ev, uv = map(memoryview, (traj.r, u_ff, noise, y, e, u))
    e_prev = 0.0
    n_resets = 0
    blow = 1e3 * (float(np.max(np.abs(traj.r))) + 1e-6)

    for k in range(K):
        yk = zv[N] + noise[k]
        if q > 0:
            x = yk / q
            yk = (math.floor(x) if math.isfinite(x) else x) * q
        if not math.isfinite(yk) or abs(yk) > blow:
            raise SimulationDiverged(
                f"output blew up at t = {t[k]:.4f} s (|y| = {abs(yk):.3g})",
                time=float(t[k]))
        ek = r[k] - yk
        if n_r and (e_prev * ek < 0.0 or (ek == 0.0 and e_prev != 0.0)):
            z[:n_r] *= rs.gamma
            zv[N + 1] = float(Cc @ z[:nc])
            n_resets += 1
        uk = zv[N + 1] + Dc * ek + ff[k]
        yv[k], ev[k], uv[k] = yk, ek, uk
        zv[N], zv[N + 1] = ek, uk
        W.dot(z, out=z_next)
        z, z_next, zv, zv_next = z_next, z, zv_next, zv
        e_prev = ek

    return SimResult(t, traj.r, y, e, u, n_resets)


def simulate_linear_closed_loop(loop: SampledLoop, traj: Trajectory,
                                cfg: SimConfig, u_ff=None) -> SimResult:
    """Clean-sensor oracle for the no-reset limit of the hybrid simulator.

    The same sampled loop with no jump logic, collapsed to one precomputed
    closed-loop state update: a deliberately different arithmetic route.
    The sensor must be clean: a cfg with quantization or noise raises
    ValueError.
    """
    if cfg.quantization != 0 or cfg.noise_amplitude != 0:
        raise ValueError("the linear oracle needs a clean sensor "
                         "(quantization = 0, noise_amplitude = 0)")
    u_ff = _checked_drive(loop, traj, cfg, u_ff)
    plant, rs = loop.plant, loop.chain
    Ac, Bc, Ap, Bp = loop.Ac, loop.Bc, loop.Ap, loop.Bp
    Cc, Dc = rs.base.C[0], rs.base.D
    Cp = plant.C[0]
    t, r = traj.t, traj.r
    K = t.size
    nc, npl = rs.order, plant.order
    # one-shot closed-loop update z+ = F z + G r + H u_ff, y = Cp xp
    F = np.zeros((nc + npl, nc + npl))
    G = np.zeros(nc + npl)
    H = np.zeros(nc + npl)
    F[:nc, :nc] = Ac
    F[:nc, nc:] = -np.outer(Bc, Cp)
    G[:nc] = Bc
    F[nc:, :nc] = np.outer(Bp, Cc)
    F[nc:, nc:] = Ap - Dc * np.outer(Bp, Cp)
    G[nc:] = Bp * Dc
    H[nc:] = Bp
    z = np.zeros(nc + npl)
    y = np.empty(K)
    e = np.empty(K)
    u = np.empty(K)
    for k in range(K):
        yk = float(Cp @ z[nc:])
        ek = r[k] - yk
        y[k], e[k] = yk, ek
        u[k] = float(Cc @ z[:nc]) + Dc * ek + u_ff[k]
        z = F @ z + G * r[k] + H * u_ff[k]
    return SimResult(t, r, y, e, u, 0)


def _whole(value, name):
    """`value` as an int; a float or any other non-integer is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def steady_state_harmonics(rs: ResetSystem, omega, n_max,
                           samples_per_period=1000, n_periods=24,
                           discard_periods=None, dt=None):
    """Brute-force harmonic gains of a reset element driven open loop by
    sin(omega t).

    The sinusoid is carried as two extra oscillator states so each step is
    an exact matrix-exponential flow Phi; resets land exactly on the
    input's zero crossings (every half period).  The run is computed in
    blocks, one per half period: the start states follow from the jump
    recursion z <- R Phi^m z (R the reset map, m the samples per half
    period), and the rows c Phi^k (k = 1..m, c the output row, built by
    repeated squaring) turn all start states into all output samples in
    one product.  After discarding the transient half of the run, the kept
    periods, which start on a whole period and so share one period's
    sample phases, are averaged per phase and that mean period is
    projected onto e^{j n omega t}; output samples at the jump instants
    use the mid-jump value, which keeps the quadrature second order.

    Returns a list of complex gains for n = 1..n_max (even entries are
    quadrature noise, bounded far below the first harmonic).
    """
    omega = float(omega)
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    n_max = _whole(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if dt is not None:
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        samples_per_period = 2 * max(1, int(round(np.pi / (omega * dt))))
    samples_per_period = _whole(samples_per_period, "samples_per_period")
    n_periods = _whole(n_periods, "n_periods")
    if samples_per_period < 200:
        raise ValueError("need at least 200 samples per period")
    if samples_per_period % 2:
        raise ValueError("samples_per_period must be even (resets fall on "
                         f"half periods), got {samples_per_period}")
    if discard_periods is None:
        discard_periods = n_periods // 2
    discard_periods = _whole(discard_periods, "discard_periods")
    if not (0 < discard_periods < n_periods):
        raise ValueError("discard_periods must lie in (0, n_periods)")
    m = samples_per_period // 2
    n = rs.order
    A, B, C, D = rs.base.A, rs.base.B, rs.base.C, rs.base.D
    M = np.zeros((n + 2, n + 2))
    M[:n, :n] = A
    M[:n, n] = B[:, 0]
    M[n, n + 1] = omega
    M[n + 1, n] = -omega
    step = np.pi / omega / m
    Phi = expm(M * step)
    gam = rs.reset_matrix().diagonal().copy()

    c = np.concatenate([C[0], [D, 0.0]])
    nb = 2 * n_periods                 # half periods, one block each
    nsteps = nb * m
    Z = np.zeros((nb + 1, n + 2))      # Z[j]: state at the start of block j
    Z[0, n + 1] = 1.0
    ys = np.empty(nsteps + 1)
    ys[0] = c @ Z[0]
    settle_limit = 1e9 * (np.max(np.abs(B)) + 1.0)
    # a blown-up run overflows in these products; the limit check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _power_rows(c @ Phi, Phi, m)    # rows[k - 1] = c Phi^k
        Phi_m = np.linalg.matrix_power(Phi, m)
        for j in range(nb):
            Z[j + 1] = Phi_m @ Z[j]
            Z[j + 1, :n] *= gam
        Y = np.matmul(Z[:-1], rows.T, out=ys[1:].reshape(nb, m))
        Y[:, -1] = 0.5 * (Y[:, -1] + Z[1:] @ c)
        bad = np.flatnonzero(~(np.abs(ys[1:]) <= settle_limit))
    if bad.size:
        k = 1 + int(bad[0])
        raise SimulationDiverged(
            f"open-loop response is not settling at omega = {omega:g}",
            time=k * step)

    period = ys[2 * m * discard_periods:-1].reshape(-1, 2 * m).mean(axis=0)
    rot = np.exp(-1j * omega * step * np.arange(2 * m))  # order n weighs by rot**n
    weighted, gains = period, []
    for _ in range(n_max):
        weighted = weighted * rot
        gains.append(complex(2j * np.mean(weighted)))
    return gains


def metrics(res: SimResult, window):
    """(e_rms, e_max, overshoot) of a run over [window[0], window[1]]
    seconds.  Overshoot is relative to the final reference value and only
    meaningful for step references."""
    lo, hi = float(window[0]), float(window[1])
    mask = (res.t >= lo) & (res.t <= hi)
    if not np.any(mask):
        raise ValueError(f"window [{lo}, {hi}] s contains no samples")
    ew = res.e[mask]
    e_rms = float(np.sqrt(np.mean(ew**2)))
    e_max = float(np.max(np.abs(ew)))
    target = res.r[-1]
    size = abs(res.r[-1] - res.r[0]) or abs(res.r[-1])
    if size > 0:
        overshoot = max(0.0, float((np.max(res.y[mask]) - target) / size))
    else:
        overshoot = 0.0
    return e_rms, e_max, overshoot


# rows per block of the simulation CSV writer.  Its temporaries stay in the
# heap after a write, so a larger block raises the peak resident memory of
# a run (by about 0.8 MB at 1 024 rows in `reproduce`).
_CSV_BLOCK_ROWS = 128


def save_sim_csv(res: SimResult, path):
    """SimResult CSV: `t_s,r_m,y_m,e_m,u`, each value as its float repr.

    Written a block of rows at a time.  Within a block, a column's value
    is formatted once per run of equal bit patterns (so -0.0 stays apart
    from 0.0): held references, quantized outputs and their errors repeat
    from sample to sample.  Runs need no sort; a per-block sort of all
    values finds a few more repeats, but numpy's 64-bit sort alone adds
    about 0.4 MB to the resident memory of a run.  Each row is its own
    format (one format string for a whole block leaves about 0.5 MB more
    in the heap)."""
    cols = (res.t, res.r, res.y, res.e, res.u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,r_m,y_m,e_m,u\n")
        for k in range(0, res.t.size, _CSV_BLOCK_ROWS):
            # bits[j]: column j of the block, as the doubles' bit patterns
            bits = np.stack([c[k:k + _CSV_BLOCK_ROWS] for c in cols],
                            dtype=float).view(np.uint64)
            starts = np.ones(bits.shape, dtype=bool)
            np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
            text = list(map(repr, bits[starts].view(float).tolist()))
            # each cell's run, in row order
            at = (np.cumsum(starts) - 1).reshape(bits.shape).T
            cells = map(text.__getitem__, at.ravel().tolist())
            fh.write("".join(map("%s,%s,%s,%s,%s\n".__mod__, zip(*[cells] * 5))))
