"""Controller construction.

Interlaced real pole/zero ladders approximating non-integer-order
derivatives, the reset split that turns such a ladder into a complex-order
filter, reset-map tuning by exhaustive grid search, and factories for the
loop controllers.  The five stock designs (pid, cglp-pid, cglp-pi, cloc-1,
cloc-2) are defined once, by specfile's builtin table over the constants here.
A factory returns the built stages and the crossover omega_c, not a second
copy of the design it was given.

All frequencies in this module are rad/s; the stock design constants are
written in Hz and converted where they are used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .lti import (
    FrequencyResponse,
    TransferFunction,
    first_order_lag,
    lead_lag,
    plant_values,
    series_all,
)
from .reset import (
    HarmonicResponse,
    ResetSystem,
    describing_function,
    describing_function_gamma_batch,
    fore,
    hosidf,
    lag_chain,
    sore,
)

#: deg/decade of phase slope contributed by a unit imaginary order:
#: |(j w)^(j b)| is constant while arg grows as b*ln(w), so one decade adds
#: b * ln(10) rad of phase.
PHASE_SLOPE_PER_BETA = np.degrees(np.log(10.0))

#: taming poles sit at taming_factor * omega_h; 20x keeps the added lag at
#: omega_h below ~3 degrees per pole
DEFAULT_TAMING_FACTOR = 20.0

#: slope fits run on [omega_p1 * FIT_TRIM, omega_zN / FIT_TRIM]; the ladder
#: is flat only interior to its band
FIT_TRIM = 1.5

#: tuner objective weights (gain, phase): 1 per (dB/dec)^2 and 0.04 per
#: (deg/dec)^2, equalizing the -10 dB/dec vs 125 deg/dec scales
TUNE_WEIGHTS = (1.0, 0.04)

#: tuner grid density, and the refine pass's gamma step and coarse seed count
TUNE_POINTS_PER_DECADE = 50
TUNE_REFINE_DELTA = 0.01
TUNE_TOP_K = 3


@dataclass(frozen=True)
class ComplexOrder:
    """Order alpha + j*beta of a frequency-domain derivative.  The designs
    in this package target alpha < 0 with beta > 0 (falling gain with
    rising phase); beta = 0 describes a plain real order."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class ApproxBand:
    """Approximation band [omega_l, omega_h] (rad/s) with N pole/zero
    pairs."""

    omega_l: float
    omega_h: float
    n_pairs: int

    def __post_init__(self):
        if not (0 < self.omega_l < self.omega_h):
            raise ValueError("need 0 < omega_l < omega_h")
        if self.n_pairs < 1:
            raise ValueError("need at least one pole/zero pair")


@dataclass(frozen=True)
class CroneApprox:
    """Interlaced ladder: N zeros over N poles (rad/s, increasing) with a
    scalar gain."""

    zeros: tuple
    poles: tuple
    gain: float = 1.0

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        p = np.asarray(self.poles, dtype=float)
        if z.size != p.size or z.size == 0:
            raise ValueError("zeros and poles must be equally long and nonempty")
        for arr, name in ((z, "zeros"), (p, "poles")):
            if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} must be positive and strictly increasing")
        object.__setattr__(self, "zeros", tuple(z))
        object.__setattr__(self, "poles", tuple(p))

    @property
    def n_pairs(self):
        return len(self.poles)

    def linear_tf(self) -> TransferFunction:
        parts = [lead_lag(z, p) for z, p in zip(self.zeros, self.poles)]
        return series_all(parts).scaled(self.gain)


@dataclass(frozen=True)
class ComplexOrderFilter:
    """Ladder split into a resetting pole block and a linear zero/taming
    block."""

    c_r: ResetSystem
    c_nr: TransferFunction
    gain: float = 1.0

    def response(self, grid, harmonic=1) -> np.ndarray:
        """Complex gain of the chosen harmonic: reset block harmonics pass
        through the linear block at n * omega."""
        spec = ControllerSpec("filter", "filter", (self.c_nr,), self.c_r,
                              self.gain, None)
        return controller_harmonic(spec, grid, harmonic)


def crone_place(order_real: float, band: ApproxBand) -> CroneApprox:
    """Place the interlaced zero/pole ladder approximating s^order_real on
    the band.

    Zero m sits at omega_l * (omega_h/omega_l)^((2m-1-alpha)/(2N)) and pole
    m at the same expression with +alpha; the gain is left at 1 pending
    loop normalization.  With alpha = 0 zeros and poles coincide pairwise.
    """
    a = float(order_real)
    r = band.omega_h / band.omega_l
    n = band.n_pairs
    m = np.arange(1, n + 1)
    zeros = band.omega_l * r ** ((2 * m - 1 - a) / (2 * n))
    poles = band.omega_l * r ** ((2 * m - 1 + a) / (2 * n))
    return CroneApprox(tuple(zeros), tuple(poles), 1.0)


def split_reset(crone: CroneApprox, gamma, taming_factor=DEFAULT_TAMING_FACTOR,
                omega_h=None) -> ComplexOrderFilter:
    """Split the ladder into a resetting pole cascade and a linear block of
    zeros over taming poles.

    Each pole becomes one first-order section with its own reset factor;
    sections cascade in ascending pole order.  Taming poles land at
    taming_factor times the top of the band (omega_h defaults to the
    highest zero) so they contribute next to nothing in band.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (crone.n_pairs,):
        raise ValueError(f"gamma must have length {crone.n_pairs}")
    if np.any(np.abs(gamma) > 1.0):
        raise ValueError("each gamma_i must lie in [-1, 1]")
    if taming_factor < 10.0:
        raise ValueError("taming_factor below 10 would disturb the band")
    top = float(omega_h) if omega_h is not None else max(crone.zeros)
    taming = taming_factor * top
    c_r = lag_chain(crone.poles, gamma)
    c_nr = series_all([lead_lag(z, taming) for z in crone.zeros])
    return ComplexOrderFilter(c_r, c_nr, crone.gain)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line fits of dB magnitude and unwrapped phase against
    log10(omega)."""

    gain_slope: float       # dB/decade
    phase_slope: float      # deg/decade
    gain_residual: float    # rms dB about the fit
    phase_residual: float   # rms deg about the fit


def slope_estimate(resp, band) -> SlopeFit:
    """Fit gain and phase slopes of a response over [band[0], band[1]]
    rad/s.  Requires at least 10 samples inside the band; the phase is
    unwrapped over the full grid before slicing."""
    if isinstance(resp, (HarmonicResponse, FrequencyResponse)):
        omega = resp.omega
        values = resp.values
    else:
        raise TypeError("resp must be a HarmonicResponse or FrequencyResponse")
    lo, hi = float(band[0]), float(band[1])
    mag = 20.0 * np.log10(np.abs(values))
    ph = np.degrees(np.unwrap(np.angle(values)))
    # tolerant endpoints: a sample one ulp outside the band still counts
    mask = (omega >= lo * (1 - 1e-12)) & (omega <= hi * (1 + 1e-12))
    if np.count_nonzero(mask) < 10:
        raise ValueError(f"need >= 10 samples inside [{lo}, {hi}] rad/s, "
                         f"got {np.count_nonzero(mask)}")
    x = np.log10(omega[mask])
    gs, g0 = np.polyfit(x, mag[mask], 1)
    ps, p0 = np.polyfit(x, ph[mask], 1)
    gres = float(np.sqrt(np.mean((mag[mask] - (gs * x + g0)) ** 2)))
    pres = float(np.sqrt(np.mean((ph[mask] - (ps * x + p0)) ** 2)))
    return SlopeFit(float(gs), float(ps), gres, pres)


def order_to_slopes(order: ComplexOrder):
    """Map a complex order to (gain slope dB/decade, phase slope
    deg/decade): (20 alpha, beta * ln(10) * 180/pi)."""
    return 20.0 * order.alpha, PHASE_SLOPE_PER_BETA * order.beta


def fit_band(crone: CroneApprox):
    """Interior slope-fit band [omega_p1 * FIT_TRIM, omega_zN / FIT_TRIM]."""
    return crone.poles[0] * FIT_TRIM, crone.zeros[-1] / FIT_TRIM


@dataclass(frozen=True)
class TuneResult:
    gamma: tuple
    gain_slope: float
    phase_slope: float
    objective: float
    top: tuple = field(default=())   # ((gamma, objective), ...) best grid points


def _gamma_grid_values(delta):
    if not (0 < delta <= 2.0):
        raise ValueError("delta must lie in (0, 2]")
    k = int(np.floor(2.0 / delta + 1e-9))
    vals = -1.0 + delta * np.arange(k + 1)
    return np.minimum(vals, 1.0)


def _refine_axis(center, refine_delta, steps):
    """The 2 steps + 1 points of the refine_delta grid nearest `center`,
    clipped to [-1, 1].  Each value is refine_delta times an integer index,
    so overlapping windows reach a shared point as the same double."""
    index = round(center / refine_delta) + np.arange(-steps, steps + 1)
    return np.clip(refine_delta * index, -1.0, 1.0)


def tune_arho(crone: CroneApprox, target, delta=0.1, refine=True) -> TuneResult:
    """Pick the reset factors that best hit a (gain slope, phase slope)
    target.

    Every combination gamma_i in -1:delta:1 is scored by the weighted
    squared slope error of the filter's first-harmonic response over the
    trimmed band; with ``refine``, a local grid at TUNE_REFINE_DELTA around
    the best TUNE_TOP_K coarse candidates sharpens the answer.  The
    returned objective is the minimum over every evaluated point, and ties
    break toward the lexicographically smallest gamma vector, so the result
    is deterministic no matter how the evaluations are ordered.
    """
    tg, tp = float(target[0]), float(target[1])
    if not (np.isfinite(tg) and np.isfinite(tp)):
        raise ValueError("target slopes must be finite")
    wg, wp = TUNE_WEIGHTS
    lo, hi = fit_band(crone)
    if hi <= lo:
        raise ValueError("empty fit band; widen the ladder")
    npts = max(12, int(round(np.log10(hi / lo) * TUNE_POINTS_PER_DECADE)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)

    n = crone.n_pairs
    # the linear block and the reset block's flow do not depend on gamma
    linear = split_reset(crone, np.ones(n))
    lin_vals = linear.c_nr(1j * grid)

    x = np.log10(grid)
    X = np.vstack([x, np.ones_like(x)]).T
    pinv_row = np.linalg.pinv(X)[0]

    coarse = np.array(list(itertools.product(_gamma_grid_values(delta), repeat=n)))

    def evaluate(gammas):
        vals = (describing_function_gamma_batch(linear.c_r.base, n, gammas, grid)
                * lin_vals[None, :])
        gs = 20.0 * np.log10(np.abs(vals)) @ pinv_row
        ps = np.degrees(np.unwrap(np.angle(vals), axis=1)) @ pinv_row
        return gammas, wg * (gs - tg) ** 2 + wp * (ps - tp) ** 2, gs, ps

    evaluated = [evaluate(coarse)]
    obj = evaluated[0][1]

    order = np.lexsort(tuple(coarse[:, i] for i in reversed(range(n))) + (obj,))
    ranked = order[np.argsort(obj[order], kind="stable")]
    top_points = tuple((tuple(float(v) for v in coarse[i]), float(obj[i]))
                       for i in ranked[:10])

    if refine and TUNE_REFINE_DELTA < delta:
        # local polish only: the window never exceeds one coarse cell and
        # is capped so huge coarse deltas stay cheap
        window = min(delta, 10.0 * TUNE_REFINE_DELTA)
        steps = int(round(window / TUNE_REFINE_DELTA))
        for idx in ranked[:TUNE_TOP_K]:   # coarse grid points are distinct
            axes = [_refine_axis(c, TUNE_REFINE_DELTA, steps) for c in coarse[idx]]
            evaluated.append(evaluate(np.array(list(itertools.product(*axes)))))

    g_all, o_all, gs_all, ps_all = (np.concatenate(c) for c in zip(*evaluated))
    best_set = np.flatnonzero(o_all == o_all.min())
    # lexicographically smallest gamma among exact ties
    best = best_set[np.lexsort(tuple(g_all[best_set, i] for i in reversed(range(n))))[0]]
    return TuneResult(tuple(float(v) for v in g_all[best]), float(gs_all[best]),
                      float(ps_all[best]), float(o_all[best]), top_points)


# --- controller assembly ----------------------------------------------------

@dataclass
class ControllerSpec:
    """A series controller: optional reset element followed by linear
    stages, scaled by the loop gain kp.

    ``omega_c`` is the crossover (rad/s) a loop controller is designed for,
    where its kp is normalized against a plant; it is None for a bare reset
    element or a constant-gain lead stage.  The design itself lives in the
    spec dict the controller was built from (see specfile).
    """

    kind: str
    label: str
    linear_parts: tuple
    reset_part: ResetSystem | None
    kp: float
    omega_c: float | None

    def linear_tf(self) -> TransferFunction:
        return series_all(self.linear_parts)

    def with_kp(self, kp) -> "ControllerSpec":
        return replace(self, kp=float(kp))

    @property
    def n_integrators(self):
        den = np.asarray(self.linear_tf().den)
        k = 0
        while k < den.size and den[-1 - k] == 0.0:
            k += 1
        return k


def controller_harmonic(spec: ControllerSpec, grid, n=1) -> np.ndarray:
    """Harmonic gain of the whole controller: reset-element harmonic at the
    excitation frequency times the linear stages evaluated at n * omega.
    Controllers without a reset element have exact zeros above n = 1."""
    grid = np.asarray(grid, dtype=float)
    lin = spec.linear_tf()(1j * n * grid)
    if spec.reset_part is None:
        if n == 1:
            return spec.kp * lin
        return np.zeros(grid.shape, dtype=complex)
    if n == 1:
        res = describing_function(spec.reset_part, grid).values
    else:
        res = hosidf(spec.reset_part, grid, n).values
    return spec.kp * res * lin


def pi_stage(omega_i) -> TransferFunction:
    """(s + omega_i)/s, the integrator branch shared by every design."""
    return TransferFunction((1.0, omega_i), (1.0, 0.0))


def build_pid(omega_c, a, omega_i, omega_f) -> ControllerSpec:
    """Proportional-integral-derivative controller with a symmetric lead:
    omega_d = omega_c / a and omega_t = a * omega_c so the lead's phase
    peak sits on the intended crossover.  With a = 1 the lead degenerates
    to unity and only the PI and low-pass stages remain.  kp starts at 1
    and is set later against the open loop.
    """
    if a < 1.0:
        raise ValueError("lead ratio a must be >= 1")
    omega_d = omega_c / a
    omega_t = a * omega_c
    if not (omega_i < omega_d <= omega_t < omega_f):
        raise ValueError(
            f"need omega_i < omega_d <= omega_t < omega_f, got "
            f"{omega_i:g} / {omega_d:g} / {omega_t:g} / {omega_f:g}")
    parts = [pi_stage(omega_i)]
    if a > 1.0:
        parts.append(lead_lag(omega_d, omega_t))
    parts.append(first_order_lag(omega_f))
    return ControllerSpec("pid", "pid", tuple(parts), None, 1.0, omega_c)


@dataclass(frozen=True)
class CgLpStage:
    """Reset lag plus matching linear lead; the describing-function gains
    cancel, leaving phase lead at roughly constant gain."""

    reset_part: ResetSystem
    lead: TransferFunction


def build_cglp(filter_order, omega_r, omega_r_alpha, beta_r, omega_f,
               gamma) -> CgLpStage:
    """Reset lag at omega_r_alpha paired with a linear lead at omega_r.

    The lag corner is specified separately from the lead zero because the
    reset shifts the element's effective corner; callers supply the
    corrected omega_r_alpha directly.  The lead's taming at omega_f doubles
    as the controller's noise low-pass (first order for filter_order 1,
    second order for 2).
    """
    if not (0 < omega_r_alpha <= omega_r < omega_f):
        raise ValueError("need 0 < omega_r_alpha <= omega_r < omega_f")
    if filter_order == 1:
        reset_part = fore(omega_r_alpha, gamma)
        lead = lead_lag(omega_r, omega_f)
    elif filter_order == 2:
        reset_part = sore(omega_r_alpha, beta_r, gamma)
        num = (1.0 / omega_r**2, 2.0 * beta_r / omega_r, 1.0)
        den = (1.0 / omega_f**2, 2.0 / omega_f, 1.0)
        lead = TransferFunction(num, den)
    else:
        raise ValueError("filter_order must be 1 or 2")
    return CgLpStage(reset_part, lead)


# --- stock designs ----------------------------------------------------------
#
# Five controllers over the bundled stage model, all aiming at a 150 Hz
# crossover with the integrator corner at 15 Hz and noise filtering at
# 1500 Hz.  The reset designs provide the same phase at crossover as the
# pid benchmark, each by a different mechanism.

CROSSOVER_HZ = 150.0
INTEGRATOR_HZ = 15.0
LOWPASS_HZ = 1500.0           # 10x crossover

PID_LEAD_RATIO = 9.13
CGLP_PID_LEAD_RATIO = 2.193
CGLP_FORE_HZ = (50.0, 35.7)          # lead zero, reset-lag corner
CGLP_SORE_HZ = (78.9, 68.6138)
CGLP_SORE_DAMPING = 1.0
GFORE_GAMMA = 0.0

CLOC_LADDERS_HZ = {
    1: dict(poles=(16.5, 76.6, 355.5), zeros=(35.55, 165.0, 766.0),
            gamma=(0.21, -0.22, 0.1), band=(11.24, 1124.0)),
    2: dict(poles=(27.0, 85.4, 270.0), zeros=(48.0, 151.8, 480.3),
            gamma=(0.29, -0.26, 0.3), band=(20.25, 640.3)),
}


def build_cglp_pid(omega_c, a, omega_i, omega_f, omega_r, omega_r_alpha,
                   gamma) -> ControllerSpec:
    """First-order-reset constant-gain-lead design plus a linear lead: the
    reset stage cannot deliver all the phase on its own, so the pid's lead
    tops it up.  The stage's lead takes the place of the pid's low-pass."""
    pid = build_pid(omega_c, a, omega_i, omega_f)
    stage = build_cglp(1, omega_r, omega_r_alpha, 1.0, omega_f, gamma)
    parts = (*pid.linear_parts[:-1], stage.lead)
    return ControllerSpec("cglp-pid", "cglp-pid", parts, stage.reset_part, 1.0,
                          omega_c)


def build_cglp_pi(omega_c, omega_i, omega_f, omega_r, omega_r_alpha, beta_r,
                  gamma) -> ControllerSpec:
    """Second-order-reset constant-gain-lead design with no linear lead
    (the reset stage supplies all the phase, so the lead ratio collapses
    to a = 1)."""
    stage = build_cglp(2, omega_r, omega_r_alpha, beta_r, omega_f, gamma)
    parts = (pi_stage(omega_i), stage.lead)
    return ControllerSpec("cglp-pi", "cglp-pi", parts, stage.reset_part, 1.0,
                          omega_c)


def build_cloc_from(poles, zeros, gamma, omega_i, omega_f, omega_c, omega_h=None,
                    taming_factor=DEFAULT_TAMING_FACTOR) -> ControllerSpec:
    """Complex-order controller from explicit ladder frequencies: the
    resetting ladder in series with the PI stage and the noise low-pass,
    no linear lead.  The taming poles sit at taming_factor * omega_h
    (omega_h defaults to the top zero).  The ladder gain is normalized so
    the no-reset limit of the whole controller path has unit gain at
    crossover, leaving kp as the single loop-gain knob."""
    crone = CroneApprox(tuple(zeros), tuple(poles), 1.0)
    filt = split_reset(crone, gamma, taming_factor, omega_h)
    lpf = first_order_lag(omega_f)
    pi = pi_stage(omega_i)
    lin_ladder = describing_function(filt.c_r.with_gamma(np.ones(crone.n_pairs)),
                                     np.array([omega_c])).values[0]
    linear_path = abs(pi(1j * omega_c) * lin_ladder * filt.c_nr(1j * omega_c)
                      * lpf(1j * omega_c))
    gain = 1.0 / linear_path
    parts = (pi, filt.c_nr.scaled(gain), lpf)
    return ControllerSpec("cloc", "cloc", parts, filt.c_r, 1.0, float(omega_c))


def normalize_open_loop_gain(spec: ControllerSpec, plant, omega_c) -> float:
    """Loop gain kp putting the first-harmonic open loop at 0 dB at
    omega_c.  ``plant`` may be a TransferFunction, StateSpace, or measured
    FrequencyResponse (interpolated; omega_c must lie inside its span)."""
    ctrl = controller_harmonic(spec.with_kp(1.0), np.array([float(omega_c)]))[0]
    mag = abs(ctrl * plant_values(plant, float(omega_c)))
    if not np.isfinite(mag) or mag == 0.0:
        raise ValueError(f"open-loop magnitude at omega_c = {omega_c:g} rad/s "
                         "is zero or undefined; cannot normalize")
    return 1.0 / mag


def build_benchmark_suite(plant=None):
    """The five stock designs, in progression order, built from the
    builtin spec table.  With a plant given, each kp is normalized for
    crossover at the design's omega_c."""
    # specfile builds on this module, so it can only be imported at call time
    from .specfile import SUITE, _builtin_specs, build_controller
    table = _builtin_specs()
    specs = {name: build_controller(table[name]) for name in SUITE}
    if plant is not None:
        specs = {k: v.with_kp(normalize_open_loop_gain(v, plant, v.omega_c))
                 for k, v in specs.items()}
    return specs
