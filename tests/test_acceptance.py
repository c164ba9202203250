"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.  Every
tolerance is pinned here; criteria that the exact implementation cannot
meet on the bundled plant model fail honestly with the measured numbers in
the message (see the project README for the analysis).
"""

import time

import numpy as np

from conftest import random_stable_tf
from resetloop.analysis import crossover_pm, normalized_third, open_loop_view
from resetloop.cli import main as cli_main
from resetloop.lti import (
    TransferFunction,
    freq_response,
    hz,
    log_grid,
    tf_to_ss,
    to_hz,
)
from resetloop.reset import (
    ResetSystem,
    clegg,
    describing_function,
    fore,
    hosidf,
    sore,
)
from resetloop.sim import (
    SimConfig,
    SimulationDiverged,
    generate_trajectory,
    metrics,
    simulate_closed_loop,
    simulate_linear_closed_loop,
    steady_state_harmonics,
)
from resetloop.synthesis import (
    ApproxBand,
    CLOC_LADDERS_HZ,
    ComplexOrder,
    ControllerSpec,
    CroneApprox,
    crone_place,
    fit_band,
    order_to_slopes,
    split_reset,
    tune_arho,
)

RESULTS = []


def record(criterion, ok, detail):
    if isinstance(detail, (list, tuple)):
        detail = "; ".join(detail)
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_clegg_closed_form():
    t0 = time.monotonic()
    grid = log_grid(0.01, 100.0)
    df = describing_function(clegg(), grid)
    mag_err = np.max(np.abs(np.abs(df.values) * grid
                            / np.sqrt(1 + 16 / np.pi**2) - 1))
    ph_err = np.max(np.abs(np.degrees(np.angle(df.values))
                           + np.degrees(np.arctan(np.pi / 4))))
    elapsed = time.monotonic() - t0
    ok = mag_err < 1e-3 and ph_err < 0.05 and elapsed < 1.0
    record(1, ok, f"resetting-integrator gain err {mag_err:.2e} (tol 1e-3), "
                  f"phase err {ph_err:.4f} deg (tol 0.05), {elapsed:.2f} s")


def test_criterion_02_harmonics_vs_time_domain_oracle():
    t0 = time.monotonic()
    freqs = np.logspace(np.log10(hz(0.5)), np.log10(hz(200.0)), 10)
    worst_mag, worst_ph, worst_even = 0.0, 0.0, -np.inf
    for make in (lambda g: fore(hz(20.0), g), lambda g: sore(hz(20.0), 1.0, g)):
        for g in (-0.5, 0.0, 0.5):
            rs = make(g)
            for w in freqs:
                gains = steady_state_harmonics(rs, w, 5)
                for n in (1, 3, 5):
                    pred = (describing_function(rs, [w]).values[0] if n == 1
                            else hosidf(rs, [w], n).values[0])
                    got = gains[n - 1]
                    worst_mag = max(worst_mag, abs(abs(got) / abs(pred) - 1))
                    worst_ph = max(worst_ph,
                                   abs(np.degrees(np.angle(got / pred))))
                even = max(abs(gains[1]), abs(gains[3])) / abs(gains[0])
                worst_even = max(worst_even, 20 * np.log10(even + 1e-300))
    elapsed = time.monotonic() - t0
    ok = worst_mag < 0.02 and worst_ph < 1.0 and worst_even < -80.0 \
        and elapsed < 120.0
    record(2, ok, f"harmonic oracle: mag err {worst_mag * 100:.2f}% (tol 2%), "
                  f"phase err {worst_ph:.3f} deg (tol 1), even "
                  f"{worst_even:.0f} dB (tol -80), {elapsed:.1f} s")


def test_criterion_03_linear_limit():
    rng = np.random.default_rng(101)
    grid = log_grid(0.1, 50.0, 10)
    worst_df, worst_h, worst_sim = 0.0, 0.0, 0.0
    cfg = SimConfig(dt=1e-3, quantization=0.0)
    traj = generate_trajectory("step", 1.0, 0.2, dt=1e-3)
    for _ in range(20):
        ctf = random_stable_tf(rng, 5, strictly_proper=True,
                               pole_range=(0.5, 30.0))
        ss = tf_to_ss(ctf)
        n_r = int(rng.integers(1, ss.order + 1))
        rs = ResetSystem(ss, n_r, np.ones(n_r))
        df = describing_function(rs, grid).values
        ref = freq_response(ss, grid).values
        worst_df = max(worst_df, float(np.max(np.abs(df - ref) / np.abs(ref))))
        for n in (3, 5):
            worst_h = max(worst_h,
                          float(np.max(np.abs(hosidf(rs, grid, n).values))))
        ptf = random_stable_tf(rng, 3, strictly_proper=True,
                               pole_range=(0.5, 30.0))
        spec = ControllerSpec("custom", "rand",
                              (TransferFunction((1.0,), (1.0,)),), rs, 0.2, None)
        plant_ss = tf_to_ss(ptf)
        hyb = simulate_closed_loop(plant_ss, spec, traj, cfg)
        lin = simulate_linear_closed_loop(plant_ss, spec, traj, cfg)
        scale = np.max(np.abs(lin.y)) + 1e-30
        worst_sim = max(worst_sim, float(np.max(np.abs(hyb.y - lin.y)) / scale))
    ok = worst_df <= 1e-9 and worst_h == 0.0 and worst_sim <= 1e-8
    record(3, ok, f"no-reset limit over 20 systems: first harmonic err "
                  f"{worst_df:.2e} (tol 1e-9), higher harmonics "
                  f"{worst_h:.1e} (exactly 0), hybrid-vs-linear "
                  f"{worst_sim:.2e} (tol 1e-8)")


def _band_objective(wl_hz, wh_hz, poles_hz, zeros_hz):
    crone = crone_place(-0.5, ApproxBand(hz(wl_hz), hz(wh_hz), 3))
    model = np.log(np.concatenate([to_hz(np.array(crone.poles)),
                                   to_hz(np.array(crone.zeros))]))
    table = np.log(np.concatenate([poles_hz, zeros_hz]))
    return float(np.sum((model - table) ** 2))


def test_criterion_04_ladder_reproduction():
    failures = []
    for variant, band in ((1, (11.24, 1124.0)), (2, (20.25, 640.3))):
        d = CLOC_LADDERS_HZ[variant]
        poles_hz = np.array(d["poles"])
        zeros_hz = np.array(d["zeros"])
        # re-derive the band by brute force before trusting it
        lo = np.logspace(np.log10(5.0), np.log10(40.0), 40)
        hi = np.logspace(np.log10(200.0), np.log10(4000.0), 40)
        for window in (1.3, 1.04, 1.002):
            scores = [(_band_objective(a, b, poles_hz, zeros_hz), a, b)
                      for a in lo for b in hi]
            _, a, b = min(scores)
            lo = np.logspace(np.log10(a / window), np.log10(a * window), 25)
            hi = np.logspace(np.log10(b / window), np.log10(b * window), 25)
        if abs(a / band[0] - 1) > 5e-3 or abs(b / band[1] - 1) > 5e-3:
            failures.append(f"variant {variant}: fitted band ({a:.2f}, "
                            f"{b:.2f}) Hz vs stated {band}")
        crone = crone_place(-0.5, ApproxBand(hz(band[0]), hz(band[1]), 3))
        rel_p = np.max(np.abs(to_hz(np.array(crone.poles)) / poles_hz - 1))
        rel_z = np.max(np.abs(to_hz(np.array(crone.zeros)) / zeros_hz - 1))
        if max(rel_p, rel_z) > 5e-4:
            failures.append(f"variant {variant}: ladder off by "
                            f"{max(rel_p, rel_z):.2e}")
    record(4, not failures,
           failures or "both ladders re-derived by brute-force band fit and "
                       "reproduced to 3 significant figures")


def test_criterion_05_complex_order_slopes():
    t0 = time.monotonic()
    targets = {1: (125.0, 13.0), 2: (150.0, 15.0)}
    failures = []
    details = []
    for variant, (ptarget, ptol) in targets.items():
        d = CLOC_LADDERS_HZ[variant]
        crone = CroneApprox(tuple(hz(np.array(d["zeros"]))),
                            tuple(hz(np.array(d["poles"]))))
        filt = split_reset(crone, d["gamma"], omega_h=hz(d["band"][1]))
        grid = log_grid(1.0, 5000.0, 50)
        vals = filt.response(grid)
        from resetloop.lti import FrequencyResponse
        from resetloop.synthesis import slope_estimate

        fit = slope_estimate(FrequencyResponse(grid, vals), fit_band(crone))
        details.append(f"ladder {variant}: ({fit.gain_slope:.2f} dB/dec, "
                       f"{fit.phase_slope:.2f} deg/dec)")
        if abs(fit.gain_slope + 10.0) > 1.0:
            failures.append(f"ladder {variant} gain slope {fit.gain_slope:.2f}"
                            f" outside -10 +/- 1")
        if abs(fit.phase_slope - ptarget) > ptol:
            failures.append(f"ladder {variant} phase slope "
                            f"{fit.phase_slope:.2f} outside {ptarget} +/- "
                            f"{ptol}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s over budget")
    record(5, not failures, "; ".join(details + failures))


def test_criterion_06_order_to_slope_constants():
    failures = []
    for order, expected in ((ComplexOrder(-0.5, 0.9475), (-10.0, 125.0)),
                            (ComplexOrder(-0.5, 1.1370), (-10.0, 150.0))):
        g, p = order_to_slopes(order)
        if abs(g / expected[0] - 1) > 5e-4 or abs(p / expected[1] - 1) > 5e-4:
            failures.append(f"order {order} -> ({g:.3f}, {p:.3f}) "
                            f"vs {expected}")
    record(6, not failures,
           failures or "both stated slope pairs reproduced to 3 significant "
                       "figures")


def test_criterion_07_loop_shaping_targets(plant, suite):
    failures = []
    details = []
    for name, spec in suite.items():
        view = open_loop_view(spec, plant)
        wc, pm = crossover_pm(view)
        details.append(f"{name}: {to_hz(wc):.2f} Hz / {pm:.1f} deg")
        if abs(to_hz(wc) - 150.0) > 1.0:
            failures.append(f"{name} crossover {to_hz(wc):.2f} Hz outside "
                            "150 +/- 1")
        if abs(pm - 30.0) > 1.5:
            failures.append(f"{name} phase margin {pm:.1f} deg outside "
                            "30 +/- 1.5")
    record(7, not failures, "; ".join(details + failures))


def test_criterion_08_step_overshoot_ordering(plant, suite):
    plant_ss = tf_to_ss(plant)
    traj = generate_trajectory("step", 3e-6, 0.5)
    cfg = SimConfig(quantization=0.0)
    overshoot = {}
    statuses = []
    for name, spec in suite.items():
        try:
            res = simulate_closed_loop(plant_ss, spec, traj, cfg)
            overshoot[name] = metrics(res, (res.t[0], res.t[-1]))[2]
            statuses.append(f"{name}: {overshoot[name] * 100:.1f}%")
        except SimulationDiverged as exc:
            statuses.append(f"{name}: diverged at t={exc.time:.3f} s")
    ok = (set(overshoot) == set(suite)
          and overshoot["pid"] > overshoot["cglp-pid"]
          and all(overshoot["cglp-pid"] >= overshoot[n]
                  for n in ("cglp-pi", "cloc-1", "cloc-2")))
    record(8, ok, "; ".join(statuses))


def test_criterion_09_normalized_third_orderings(plant, suite):
    grid = log_grid(1.0, 2000.0)
    ratios = {}
    for name, spec in suite.items():
        if name == "pid":
            continue
        view = open_loop_view(spec, plant, grid)
        omega, ratio = normalized_third(view)
        ratios[name] = (omega, ratio)
    failures = []

    def peak(name, lo_hz, hi_hz):
        omega, ratio = ratios[name]
        m = (omega >= hz(lo_hz)) & (omega <= hz(hi_hz))
        return float(np.max(ratio[m]))

    c1 = peak("cloc-1", 30.0, 500.0)
    for other in ("cglp-pid", "cglp-pi"):
        if c1 <= peak(other, 30.0, 500.0):
            failures.append(f"cloc-1 peak {c1:.3f} not above {other}")
    omega0, r0 = ratios["cglp-pid"]
    m0 = omega0 > hz(500.0)
    for other in ("cglp-pi", "cloc-1", "cloc-2"):
        omega1, r1 = ratios[other]
        m1 = omega1 > hz(500.0)
        if not np.all(r0[m0] <= np.interp(omega0[m0], omega1[m1], r1[m1])):
            failures.append(f"cglp-pid not lowest vs {other} above 500 Hz")
    record(9, not failures,
           failures or f"cloc-1 peak {c1:.3f} above both constant-gain-lead "
                       "designs in 30-500 Hz; cglp-pid lowest above 500 Hz")


def test_criterion_10_tuner_optimality():
    t0 = time.monotonic()
    failures = []
    # exhaustive-grid optimality on a two-pole skeleton
    skeleton = crone_place(-0.5, ApproxBand(hz(10.0), hz(1000.0), 2))
    target = (-10.0, 60.0)
    result = tune_arho(skeleton, target, delta=0.25, refine=False)
    lo, hi = fit_band(skeleton)
    npts = max(12, int(round(np.log10(hi / lo) * 50)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    filt0 = split_reset(skeleton, np.zeros(2))
    lin = filt0.c_nr(1j * grid)
    x = np.log10(grid)
    best = np.inf
    for g1 in np.linspace(-1, 1, 9):
        for g2 in np.linspace(-1, 1, 9):
            v = describing_function(filt0.c_r.with_gamma([g1, g2]),
                                    grid).values * lin
            gs = np.polyfit(x, 20 * np.log10(np.abs(v)), 1)[0]
            ps = np.polyfit(x, np.degrees(np.unwrap(np.angle(v))), 1)[0]
            best = min(best, (gs - target[0])**2 + 0.04 * (ps - target[1])**2)
    if result.objective > best + 1e-12:
        failures.append(f"grid optimum missed: {result.objective:.4g} vs "
                        f"brute force {best:.4g}")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"exhaustive check took {elapsed:.1f} s")

    # the published reset map scored against the tuned optimum
    d = CLOC_LADDERS_HZ[1]
    crone = CroneApprox(tuple(hz(np.array(d["zeros"]))),
                        tuple(hz(np.array(d["poles"]))))
    tuned = tune_arho(crone, (-10.0, 125.0))
    lo, hi = fit_band(crone)
    npts = max(12, int(round(np.log10(hi / lo) * 50)) + 1)
    grid = np.logspace(np.log10(lo), np.log10(hi), npts)
    filt = split_reset(crone, d["gamma"])
    vals = describing_function(filt.c_r, grid).values * filt.c_nr(1j * grid)
    x = np.log10(grid)
    gs = np.polyfit(x, 20 * np.log10(np.abs(vals)), 1)[0]
    ps = np.polyfit(x, np.degrees(np.unwrap(np.angle(vals))), 1)[0]
    table_obj = (gs + 10.0)**2 + 0.04 * (ps - 125.0)**2
    if table_obj > 1.05 * tuned.objective:
        failures.append(
            f"published reset map objective {table_obj:.3f} vs tuned optimum "
            f"{tuned.objective:.2e} at gamma {tuned.gamma} "
            f"(achieved {tuned.gain_slope:.2f} dB/dec, "
            f"{tuned.phase_slope:.2f} deg/dec): not within 5%")
    record(10, not failures,
           failures or f"tuner optimal on exhaustive grid ({elapsed:.1f} s); "
                       "published map within 5% of optimum")


def test_criterion_11_reproduction_bundle(tmp_path):
    t0 = time.monotonic()
    out1 = tmp_path / "rep1"
    out2 = tmp_path / "rep2"
    rc1 = cli_main(["reproduce", "--out", str(out1), "--seed", "11"])
    rc2 = cli_main(["reproduce", "--out", str(out2), "--seed", "11"])

    def manifest(path):
        return sorted(ln for ln in open(path, encoding="utf-8")
                      if not ln.startswith("#"))

    same = manifest(out1 / "manifest.txt") == manifest(out2 / "manifest.txt")
    elapsed = time.monotonic() - t0
    ok = rc1 == 0 and rc2 == 0 and same and elapsed < 300.0
    record(11, ok, f"two seeded runs in {elapsed:.1f} s, checksums "
                   f"{'identical' if same else 'DIFFER'}")


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
