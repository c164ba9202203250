"""Linear time-invariant building blocks.

Transfer functions, state-space realizations, frequency responses, series
composition, and FRF file I/O. Everything here is immutable after
construction and every operation is a pure function, so evaluation is safe
from any thread.

Conventions:

* polynomial coefficients are real, in descending powers of s;
* all angular frequencies are rad/s internally, files and the CLI speak Hz;
* system orders in this package stay around 10, where plain coefficient
  arithmetic is well conditioned (do not push this module past ~order 15).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: default density of logarithmic frequency grids (points per decade)
POINTS_PER_DECADE = 50

#: default floor for angular frequency grids (rad/s); below this the
#: half-period matrix exponentials used by the reset engine grow unboundedly
OMEGA_FLOOR = 1e-3


class SingularFrequencyError(ArithmeticError):
    """A frequency-domain formula hit a singular matrix at some omega."""

    def __init__(self, message, omega=None, cond=None):
        super().__init__(message)
        self.omega = omega
        self.cond = cond


def hz(f):
    """Convert Hz to rad/s (scalar or array)."""
    return TWO_PI * np.asarray(f, dtype=float) if np.ndim(f) else TWO_PI * float(f)


def to_hz(omega):
    """Convert rad/s to Hz (scalar or array)."""
    return np.asarray(omega, dtype=float) / TWO_PI if np.ndim(omega) else float(omega) / TWO_PI


def log_grid(fmin_hz, fmax_hz, points_per_decade=POINTS_PER_DECADE):
    """Logarithmic angular-frequency grid covering [fmin_hz, fmax_hz].

    Returns rad/s values, strictly increasing, floored at OMEGA_FLOOR.
    """
    if not (0 < fmin_hz < fmax_hz < np.inf):
        raise ValueError(f"need 0 < fmin_hz < fmax_hz < inf, got {fmin_hz}, {fmax_hz}")
    if not points_per_decade >= 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade}")
    lo, hi = np.log10(hz(fmin_hz)), np.log10(hz(fmax_hz))
    n = max(2, int(round((hi - lo) * points_per_decade)) + 1)
    grid = np.logspace(lo, hi, n)
    return grid[grid >= OMEGA_FLOOR]


def _trim_leading_zeros(coeffs):
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return np.zeros(1)
    return c[nz[0]:]


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function num(s)/den(s), real coefficients,
    descending powers of s."""

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _trim_leading_zeros(self.num)
        den = _trim_leading_zeros(self.den)
        if den[0] == 0.0 or not np.any(den):
            raise ValueError("denominator must have a nonzero leading coefficient")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @property
    def is_proper(self):
        return len(self.num) <= len(self.den)

    def __call__(self, s):
        """Evaluate at complex s (scalar or array)."""
        s = np.asarray(s, dtype=complex)
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def scaled(self, k):
        return TransferFunction(tuple(k * c for c in self.num), self.den)


def unity_tf():
    return TransferFunction((1.0,), (1.0,))


def first_order_lag(omega0):
    """1 / (s/omega0 + 1)"""
    if omega0 <= 0:
        raise ValueError("corner frequency must be positive")
    return TransferFunction((1.0,), (1.0 / omega0, 1.0))


def lead_lag(omega_z, omega_p):
    """(s/omega_z + 1) / (s/omega_p + 1)"""
    if omega_z <= 0 or omega_p <= 0:
        raise ValueError("corner frequencies must be positive")
    return TransferFunction((1.0 / omega_z, 1.0), (1.0 / omega_p, 1.0))


def series(a: TransferFunction, b: TransferFunction) -> TransferFunction:
    """Series (cascade) connection: polynomial products of num and den."""
    if not (a.is_proper and b.is_proper):
        raise ValueError("series() requires proper transfer functions")
    num = np.polymul(a.num, b.num)
    den = np.polymul(a.den, b.den)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise OverflowError("coefficient overflow in series()")
    return TransferFunction(tuple(num), tuple(den))


def series_all(parts) -> TransferFunction:
    out = unity_tf()
    for p in parts:
        out = series(out, p)
    return out


class StateSpace:
    """SISO state-space realization (A, B, C, D); arrays are frozen."""

    def __init__(self, A, B, C, D=0.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.asarray(B, dtype=float).reshape(-1, 1)
        C = np.asarray(C, dtype=float).reshape(1, -1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape != (n, 1) or C.shape != (1, n):
            raise ValueError("B must be n x 1 and C must be 1 x n")
        for m in (A, B, C):
            m.setflags(write=False)
        self.A, self.B, self.C = A, B, C
        self.D = float(np.asarray(D).reshape(()))

    @property
    def order(self):
        return self.A.shape[0]

    def __call__(self, s):
        """C (sI - A)^-1 B + D at complex s (scalar)."""
        n = self.order
        M = s * np.eye(n) - self.A
        try:
            x = np.linalg.solve(M, self.B)
        except np.linalg.LinAlgError as exc:
            raise SingularFrequencyError(
                f"sI - A singular at s = {s}", omega=abs(s)) from exc
        return complex((self.C @ x)[0, 0] + self.D)

    def __repr__(self):
        return f"StateSpace(order={self.order})"


def tf_to_ss(tf: TransferFunction) -> StateSpace:
    """Controllable-canonical realization of a proper transfer function.

    State dimension equals degree(den); an exact pole-zero cancellation such
    as (s+1)/(s+1) keeps the (zero-contribution) state and puts the gain in D.
    """
    if not tf.is_proper:
        raise ValueError("cannot realize an improper transfer function")
    den = np.asarray(tf.den, dtype=float)
    num = np.asarray(tf.num, dtype=float)
    den = den / den[0]
    num = num / np.asarray(tf.den, dtype=float)[0]
    n = len(den) - 1
    if n == 0:
        # static gain: one dead state so downstream code never sees order 0
        return StateSpace([[-1.0]], [[0.0]], [[0.0]], num[0])
    b = np.concatenate([np.zeros(n + 1 - len(num)), num])
    a = den
    A = np.zeros((n, n))
    if n > 1:
        A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[1:][::-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    D = b[0]
    C = (b[1:][::-1] - D * a[1:][::-1]).reshape(1, n)
    return StateSpace(A, B, C, D)


def series_ss(first: StateSpace, second: StateSpace) -> StateSpace:
    """Cascade two realizations; states of `first` come first in the stack."""
    n1, n2 = first.order, second.order
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = first.A
    A[n1:, n1:] = second.A
    A[n1:, :n1] = second.B @ first.C
    B = np.vstack([first.B, second.B * first.D])
    C = np.hstack([second.D * first.C, second.C])
    D = second.D * first.D
    return StateSpace(A, B, C, D)


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex gains sampled on a strictly increasing rad/s grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if omega.ndim != 1 or values.shape != omega.shape:
            raise ValueError("omega and values must be 1-D and the same length")
        if omega.size and (np.any(omega <= 0) or np.any(np.diff(omega) <= 0)):
            raise ValueError("omega must be strictly increasing and positive")
        omega.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    def mag_db(self):
        return 20.0 * np.log10(np.abs(self.values))

    def phase_deg(self):
        return np.degrees(np.unwrap(np.angle(self.values)))

    def at(self, omega):
        """Log-frequency linear interpolation of dB magnitude and degrees."""
        x = np.log10(self.omega)
        xq = np.log10(np.asarray(omega, dtype=float))
        mag = np.interp(xq, x, self.mag_db())
        ph = np.interp(xq, x, self.phase_deg())
        return 10.0 ** (mag / 20.0) * np.exp(1j * np.radians(ph))


def freq_response(sys, grid) -> FrequencyResponse:
    """Frequency response of a TransferFunction or StateSpace on a grid.

    Grid points that land on an imaginary-axis pole are flagged with a
    warning and reported as infinite gain rather than raising.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be positive and strictly increasing")
    if isinstance(sys, TransferFunction):
        s = 1j * grid
        numv = np.polyval(sys.num, s)
        denv = np.polyval(sys.den, s)
        bad = np.abs(denv) == 0.0
        if np.any(bad):
            warnings.warn("singular sample(s) on the grid (imaginary-axis pole)")
            denv = np.where(bad, np.nan, denv)
        with np.errstate(invalid="ignore"):
            vals = numv / denv
        vals = np.where(bad, np.inf + 0j, vals)
        return FrequencyResponse(grid, vals)
    if isinstance(sys, StateSpace):
        vals = np.empty(grid.shape, dtype=complex)
        for i, w in enumerate(grid):
            try:
                vals[i] = sys(1j * w)
            except SingularFrequencyError:
                warnings.warn(f"singular sample at omega = {w} rad/s")
                vals[i] = np.inf
        return FrequencyResponse(grid, vals)
    raise TypeError(f"unsupported system type: {type(sys).__name__}")


def plant_values(plant, omega):
    """Plant gain at rad/s points, scalar or array: transfer functions
    vectorised, state-space models point by point, measured FRFs
    log-frequency interpolated and NaN outside their span."""
    omega = np.asarray(omega, dtype=float)
    if isinstance(plant, TransferFunction):
        return plant(1j * omega)
    if isinstance(plant, StateSpace):
        vals = [plant(1j * w) for w in omega.ravel()]
        return np.array(vals, dtype=complex).reshape(omega.shape)
    if isinstance(plant, FrequencyResponse):
        outside = (omega < plant.omega[0]) | (omega > plant.omega[-1])
        return np.where(outside, np.nan + 0j, plant.at(omega))
    raise TypeError("plant must be a TransferFunction, StateSpace, or "
                    "FrequencyResponse")


def stage_plant() -> TransferFunction:
    """Second-order model of the flexure-guided positioning stage used by
    the bundled controller designs (collocated mass-spring-damper, DC gain
    105, resonance near 14 Hz)."""
    return TransferFunction((1.429e8,), (175.9, 7738.0, 1.361e6))


# --- FRF file I/O ---------------------------------------------------------
#
# FRF CSV: header `freq_hz,real,imag`, decimal floats, '#' comment lines.
# Response CSV: header `freq_hz,mag_db,phase_deg`, phase unwrapped.

def load_frf(path) -> FrequencyResponse:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                if header != ["freq_hz", "real", "imag"]:
                    raise ValueError(f"{path}: expected header freq_hz,real,imag")
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns")
            try:
                row = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {line!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    f = np.array([r[0] for r in rows])
    if np.any(np.diff(f) <= 0):
        raise ValueError(f"{path}: freq_hz must be strictly increasing")
    vals = np.array([complex(r[1], r[2]) for r in rows])
    return FrequencyResponse(hz(f), vals)


def save_frf(resp: FrequencyResponse, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,real,imag\n")
        for w, v in zip(resp.omega, resp.values):
            fh.write(f"{float(to_hz(w))!r},{float(v.real)!r},{float(v.imag)!r}\n")


def save_response(resp: FrequencyResponse, path):
    mag = resp.mag_db()
    ph = resp.phase_deg()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,mag_db,phase_deg\n")
        for w, m, p in zip(resp.omega, mag, ph):
            fh.write(f"{float(to_hz(w))!r},{float(m)!r},{float(p)!r}\n")
