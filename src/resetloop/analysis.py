"""Loop-shaping analytics.

Composes the controller's harmonic gains with a plant (model or measured
FRF) into open-loop views, extracts crossover and phase margin from the
first harmonic, and forms the normalized third-harmonic diagnostic that
flags where the first-harmonic picture stops being trustworthy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .lti import FrequencyResponse, log_grid, plant_values, to_hz, write_rows
from .synthesis import ControllerSpec, controller_harmonics


def open_loop(controller: ControllerSpec, plant, grid, n=1) -> np.ndarray:
    """Open-loop harmonic gains on the grid.

    The first harmonic is the product of the reset element's first-harmonic
    gain, the linear stages, and the plant.  Higher harmonics originate in
    the reset element at the excitation frequency and then travel through
    everything downstream at n * omega.  Controllers with no reset element
    return exact zeros for n >= 2.
    """
    return _open_loop(controller, plant, grid, (n,))[0]


def _open_loop(controller, plant, grid, orders):
    """`open_loop` for each of ``orders``, from one controller_harmonics
    call."""
    for n in orders:
        if n < 1 or n % 2 == 0:
            raise ValueError("harmonic n must be odd (1, 3, 5, ...)")
    grid = np.asarray(grid, dtype=float)
    ctrls = controller_harmonics(controller, grid, orders)
    # a reset-free controller's higher harmonics are exact zeros: no plant lookup
    return [ctrl if controller.reset_part is None and n > 1
            else ctrl * plant_values(plant, n * grid)
            for n, ctrl in zip(orders, ctrls)]


@dataclass(frozen=True)
class OpenLoopView:
    """First and third open-loop harmonics of one controller on a shared
    grid."""

    grid: np.ndarray
    first_harmonic: np.ndarray
    third_harmonic: np.ndarray
    n_integrators: int = 1


def open_loop_view(controller: ControllerSpec, plant, grid=None) -> OpenLoopView:
    if grid is None:
        if isinstance(plant, FrequencyResponse):
            grid = plant.omega
        else:
            grid = log_grid(1.0, 2000.0)
    grid = np.asarray(grid, dtype=float)
    first, third = _open_loop(controller, plant, grid, (1, 3))
    return OpenLoopView(
        grid=grid,
        first_harmonic=first,
        third_harmonic=third,
        n_integrators=controller.n_integrators,
    )


def _anchored_phase_deg(values, n_integrators):
    """Unwrapped phase anchored so the lowest-frequency sample starts at
    -90 degrees per integrator."""
    ph = np.degrees(np.unwrap(np.angle(values)))
    expected = -90.0 * n_integrators
    ph += 360.0 * np.round((expected - ph[0]) / 360.0)
    return ph


def crossover_pm(view: OpenLoopView):
    """(crossover rad/s, phase margin deg) from the first harmonic.

    The crossover is the lowest 0 dB crossing, log-interpolated; multiple
    crossings are reported with a warning and the lowest wins.
    """
    mag = 20.0 * np.log10(np.abs(view.first_harmonic))
    ph = _anchored_phase_deg(view.first_harmonic, view.n_integrators)
    down = np.flatnonzero((mag[:-1] > 0.0) & (mag[1:] <= 0.0))
    up = np.flatnonzero((mag[:-1] <= 0.0) & (mag[1:] > 0.0))
    crossings = np.sort(np.concatenate([down, up]))
    if crossings.size == 0:
        raise ValueError("first harmonic never crosses 0 dB on the grid")
    if crossings.size > 1:
        warnings.warn(f"{crossings.size} magnitude crossings on the grid; "
                      "reporting the lowest")
    i = crossings[0]
    t = mag[i] / (mag[i] - mag[i + 1])
    logw = np.log10(view.grid)
    wc = 10.0 ** (logw[i] + t * (logw[i + 1] - logw[i]))
    phase_c = ph[i] + t * (ph[i + 1] - ph[i])
    if not np.isfinite(phase_c):   # a NaN in the harmonic taints every later phase
        raise ValueError(f"phase margin undefined at the crossover {wc:g} rad/s")
    return float(wc), float(180.0 + phase_c)


def normalized_third(view: OpenLoopView):
    """Pointwise |third harmonic| / |first harmonic|.

    Returns (omega, ratio); samples where the first harmonic is below
    1e-12 or either harmonic is undefined are dropped.  The ratio is
    invariant to any positive scaling of the loop gain.
    """
    mag1 = np.abs(view.first_harmonic)
    mag3 = np.abs(view.third_harmonic)
    keep = (mag1 > 1e-12) & np.isfinite(mag1) & np.isfinite(mag3)
    return view.grid[keep], mag3[keep] / mag1[keep]


def save_open_loop_csv(view: OpenLoopView, path):
    """Open-loop CSV: `freq_hz,harmonic,mag_db,phase_deg`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,harmonic,mag_db,phase_deg\n")
        for n, vals in ((1, view.first_harmonic), (3, view.third_harmonic)):
            keep = np.isfinite(vals) & (np.abs(vals) > 0)
            if not np.any(keep):
                continue
            mag = 20.0 * np.log10(np.abs(vals[keep]))
            ph = np.degrees(np.unwrap(np.angle(vals[keep])))
            write_rows(fh, to_hz(view.grid[keep]).tolist(), repeat(n), mag.tolist(),
                       ph.tolist())


def save_normalized_third_csv(view: OpenLoopView, path):
    """Normalized-third CSV: `freq_hz,ratio`."""
    omega, ratio = normalized_third(view)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,ratio\n")
        write_rows(fh, to_hz(omega).tolist(), ratio.tolist())
