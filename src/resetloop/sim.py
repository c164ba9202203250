"""Time-domain truth.

Fixed-step hybrid simulation of the closed loop with reset jumps, reference
trajectory generation, the brute-force Fourier oracle that validates the
frequency-domain engine, plant-inversion feedforward, sensor quantization,
seeded noise injection, and tracking metrics.

Discretization everywhere is the exact matrix-exponential step with the
input held over each sample (the controller runs sampled, like the real
hardware it models), so the only approximations in a run are the sampling
of the reset instant to the grid and the sensor model itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lti import StateSpace, TransferFunction, series_ss, tf_to_ss
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
        t = np.asarray(self.t, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if t.shape != r.shape or t.ndim != 1:
            raise ValueError("t and r must be 1-D and the same length")
        t.setflags(write=False)
        r.setflags(write=False)
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
    r = np.empty(t.shape)
    for i, ti in enumerate(t):
        seg = min(int(ti / tau), len(_SNAP_PATTERN) - 1)
        j, a, v, x = (snap * q for q in unit[seg])
        s = snap * _SNAP_PATTERN[seg]
        d = ti - seg * tau
        r[i] = x + v * d + a * d**2 / 2 + j * d**3 / 6 + s * d**4 / 24
    # clamp the tail exactly on the commanded endpoint
    r[t >= duration] = snap * unit[-1][3]
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


def _discretize(ss: StateSpace, dt):
    """Exact zero-order-hold step matrices (Ad, Bd)."""
    n = ss.order
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = ss.B[:, 0]
    Phi = expm(M * dt)
    return Phi[:n, :n], Phi[:n, n]


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
    # states: [x_ff, r, v, a, j], input: snap
    m = n + 4
    M = np.zeros((m + 1, m + 1))
    M[:n, :n] = ffss.A
    M[:n, n] = ffss.B[:, 0]          # filter driven by r
    M[n, n + 1] = 1.0                # r' = v
    M[n + 1, n + 2] = 1.0            # v' = a
    M[n + 2, n + 3] = 1.0            # a' = j
    M[n + 3, m] = 1.0                # j' = snap (held input)
    Phi = expm(M * dt)
    Ad, Bd = Phi[:m, :m], Phi[:m, m]

    def snap_at(t):
        if t >= traj.duration:
            return 0.0
        return snap * _SNAP_PATTERN[min(int(t / tau), 14)]

    z = np.zeros(m)
    z[n] = traj.r[0]
    u = np.empty(K)
    b = 0
    for k in range(K):
        u[k] = float(ffss.C[0] @ z[:n]) + ffss.D * z[n]
        t0 = traj.t[k]
        t1 = t0 + dt
        while b < len(boundaries) and boundaries[b] < t1 - 1e-15:
            frac = boundaries[b] - t0
            if frac > 1e-15:
                P = expm(M * frac)
                z = P[:m, :m] @ z + P[:m, m] * snap_at(t0)
            t0 = boundaries[b]
            b += 1
        if t1 - t0 > 1e-15:
            if t1 - t0 >= dt * (1 - 1e-12):
                z = Ad @ z + Bd * snap_at(t0)
            else:
                P = expm(M * (t1 - t0))
                z = P[:m, :m] @ z + P[:m, m] * snap_at(t0)
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


def _sampled_loop(plant: StateSpace, controller: ControllerSpec,
                  traj: Trajectory, cfg: SimConfig, feedforward):
    """Set-up shared by both loop simulators: the controller chain, the
    exact held-input steps (Ac, Bc) and (Ap, Bp) of controller and plant,
    and the feedforward command at the sample instants (zeros when off)."""
    if plant.D != 0.0:
        raise ValueError("plant must be strictly proper (no direct feedthrough)")
    steps = np.diff(traj.t)
    off = np.abs(steps - cfg.dt) > 1e-9 * cfg.dt
    if off.any():
        raise ValueError(f"cfg.dt = {cfg.dt!r} s does not match the "
                         f"trajectory's sample step {float(steps[off][0])!r} s")
    rs = realize_controller(controller)
    Ac, Bc = _discretize(rs.base, cfg.dt)
    Ap, Bp = _discretize(plant, cfg.dt)
    if feedforward is None:
        u_ff = np.zeros(traj.t.size)
    else:
        u_ff = feedforward_signal(feedforward, traj, cfg.dt)
    return rs, Ac, Bc, Ap, Bp, u_ff


def simulate_closed_loop(plant: StateSpace, controller: ControllerSpec,
                         traj: Trajectory, cfg: SimConfig,
                         feedforward: TransferFunction | None = None) -> SimResult:
    """Fixed-step hybrid simulation of the unity-feedback loop.

    Per sample: measure (noise, then quantization), form the error, fire
    the reset once when the error changed sign since the previous sample
    or just reached zero (re-triggering while the error holds zero is
    suppressed), emit the control, then advance all states by their exact
    held-input step.  A non-finite or blown-up output raises
    SimulationDiverged with the failure time, which doubles as the
    practical instability check.
    """
    rs, Ac, Bc, Ap, Bp, u_ff = _sampled_loop(plant, controller, traj, cfg,
                                             feedforward)
    Cc, Dc = rs.base.C[0], rs.base.D
    Cp = plant.C[0]
    t = traj.t
    r = traj.r
    K = t.size
    xc = np.zeros(rs.order)
    xp = np.zeros(plant.order)
    n_r = rs.n_r

    if cfg.noise_amplitude > 0:
        rng = np.random.default_rng(cfg.noise_seed)
        noise = rng.uniform(-cfg.noise_amplitude, cfg.noise_amplitude, size=K)
    else:
        noise = np.zeros(K)
    q = cfg.quantization

    y = np.empty(K)
    e = np.empty(K)
    u = np.empty(K)
    e_prev = None
    n_resets = 0
    blow = 1e3 * (np.max(np.abs(r)) + 1e-6)

    for k in range(K):
        yk = float(Cp @ xp) + noise[k]
        if q > 0:
            yk = np.floor(yk / q) * q
        ek = r[k] - yk
        if n_r and e_prev is not None:
            if (e_prev * ek < 0.0) or (ek == 0.0 and e_prev != 0.0):
                xc[:n_r] *= rs.gamma
                n_resets += 1
        uk_total = float(Cc @ xc) + Dc * ek + u_ff[k]
        y[k] = yk
        e[k] = ek
        u[k] = uk_total
        xc = Ac @ xc + Bc * ek
        xp = Ap @ xp + Bp * uk_total
        e_prev = ek
        if not np.isfinite(yk) or abs(yk) > blow:
            raise SimulationDiverged(
                f"output blew up at t = {t[k]:.4f} s (|y| = {abs(yk):.3g})",
                time=float(t[k]))

    return SimResult(t, r, y, e, u, n_resets)


def simulate_linear_closed_loop(plant: StateSpace, controller: ControllerSpec,
                                traj: Trajectory, cfg: SimConfig,
                                feedforward: TransferFunction | None = None) -> SimResult:
    """Clean-sensor oracle for the no-reset limit of the hybrid simulator.

    The same sampled loop with no jump logic, collapsed to one precomputed
    closed-loop state update: a deliberately different arithmetic route.
    The sensor must be clean: a cfg with quantization or noise raises
    ValueError.
    """
    if cfg.quantization != 0 or cfg.noise_amplitude != 0:
        raise ValueError("the linear oracle needs a clean sensor "
                         "(quantization = 0, noise_amplitude = 0)")
    rs, Ac, Bc, Ap, Bp, u_ff = _sampled_loop(plant, controller, traj, cfg,
                                             feedforward)
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
    input's zero crossings (every half period).  The run advances one half
    period at a time: the rows c Phi^k (k = 1..m, c the output row, m the
    samples per half period) give the whole block of output samples from
    its start state in one product, Phi^m gives the state at the jump, and
    the reset is applied there.  After discarding the transient half of
    the run, the output is projected onto e^{j n omega t} over an integer
    number of periods; output samples at the jump instants use the
    mid-jump value, which keeps the quadrature second order.

    Returns a list of complex gains for n = 1..n_max (even entries are
    quadrature noise, bounded far below the first harmonic).
    """
    omega = float(omega)
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
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
    nsteps = 2 * m * n_periods
    z = np.zeros(n + 2)
    z[n + 1] = 1.0
    ys = np.empty(nsteps + 1)
    ys[0] = c @ z
    settle_limit = 1e9 * (np.max(np.abs(B)) + 1.0)
    rows = np.empty((m, n + 2))    # rows[k - 1] = c Phi^k
    Phi_m = np.eye(n + 2)
    # a blown-up run overflows in these products; the limit check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            Phi_m = Phi_m @ Phi
            rows[k] = c @ Phi_m
        for j in range(2 * n_periods):
            block = ys[j * m + 1:(j + 1) * m + 1]
            block[:] = rows @ z
            z = Phi_m @ z
            z[:n] *= gam
            block[-1] = 0.5 * (block[-1] + c @ z)
            settled = np.abs(block) <= settle_limit
            if not settled.all():
                k = j * m + 1 + int(np.argmin(settled))
                raise SimulationDiverged(
                    f"open-loop response is not settling at omega = {omega:g}",
                    time=k * step)

    start = 2 * m * discard_periods
    yv = ys[start:-1]
    tv = np.arange(start, nsteps) * step
    span = (nsteps - start) * step
    rot = np.exp(-1j * omega * tv)   # order n weighs the samples by rot**n
    weighted, gains = yv, []
    for _ in range(n_max):
        weighted = weighted * rot
        gains.append(complex(1j * (2.0 / span) * np.sum(weighted) * step))
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


def save_sim_csv(res: SimResult, path):
    """SimResult CSV: `t_s,r_m,y_m,e_m,u`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,r_m,y_m,e_m,u\n")
        for row in zip(res.t, res.r, res.y, res.e, res.u):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
