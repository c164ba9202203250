"""Controller spec files.

Human-readable `key = value` text with Hz-denominated frequencies, one key
per line, `[a, b, c]` float lists, and '#' starting a comment that runs to
the end of its line.  Values round-trip exactly: floats are written with
repr so parse(emit(parse(x))) == parse(x) bit for bit.

``build_controller`` is the one place a parsed spec becomes a
ControllerSpec, for every kind: the bare reset elements (clegg, fore,
sore), the constant-gain lead stage (cglp), and the loop controllers (pid,
cglp-pid, cglp-pi, cloc).  The spec dict stays the one description of a
design: the ControllerSpec keeps only the built stages and the crossover.

The stock designs are defined here once: ``_builtin_specs`` is the table of
the ten builtin specs and ``SUITE`` names the five the paper compares.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .lti import hz
from .reset import clegg, fore, sore
from .synthesis import (
    CGLP_FORE_HZ,
    CGLP_PID_LEAD_RATIO,
    CGLP_SORE_DAMPING,
    CGLP_SORE_HZ,
    CLOC_LADDERS_HZ,
    CROSSOVER_HZ,
    ControllerSpec,
    DEFAULT_TAMING_FACTOR,
    GFORE_GAMMA,
    INTEGRATOR_HZ,
    LOWPASS_HZ,
    PID_LEAD_RATIO,
    build_cglp,
    build_cglp_pi,
    build_cglp_pid,
    build_cloc_from,
    build_pid,
    controller_harmonic,
)


def parse_spec(path) -> dict:
    """Parse a `key = value` file into a flat dict: float lists in
    brackets, booleans as true/false, floats where they parse, strings
    otherwise.  Raises ValueError with the line number on malformed
    input."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if val.startswith("["):
                if not val.endswith("]"):
                    raise ValueError(f"{path}:{lineno}: unterminated list "
                                     f"for {key!r}")
                body = val[1:-1].strip()
                try:
                    out[key] = (tuple(float(v) for v in body.split(","))
                                if body else ())
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad list for "
                                     f"{key!r}: {val!r}") from exc
            elif val in ("true", "false"):
                out[key] = val == "true"
            else:
                try:
                    out[key] = float(val)
                except ValueError:
                    out[key] = val
    return out


def emit_spec(d: dict, path):
    """Write a spec dict as `key = value` text.  A string holding '#' or a
    line break could not be parsed back, so it is rejected."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# resetloop controller spec\n")
        for key, val in d.items():
            if isinstance(val, (tuple, list)):
                body = ", ".join(repr(float(v)) for v in val)
                fh.write(f"{key} = [{body}]\n")
            elif isinstance(val, bool):
                fh.write(f"{key} = {'true' if val else 'false'}\n")
            elif isinstance(val, str):
                if "#" in val or "\n" in val or "\r" in val:
                    raise ValueError(f"{key} = {val!r} cannot be written: "
                                     "'#' and line breaks do not round-trip")
                fh.write(f"{key} = {val}\n")
            else:
                fh.write(f"{key} = {float(val)!r}\n")


def finite_number(d: dict, key, default=None) -> float:
    """d[key] (or ``default`` when absent) as a finite float; ValueError
    naming the key otherwise."""
    v = d.get(key, default)
    if v is None:
        raise ValueError(f"missing key {key!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise ValueError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def finite_numbers(d: dict, key, default=None) -> tuple:
    """d[key] (or ``default`` when absent) as a non-empty tuple of finite
    floats; a bare number counts as a one-element list.  ValueError naming
    the key otherwise."""
    v = d.get(key, default)
    if v is None:
        raise ValueError(f"missing key {key!r}")
    v = v if isinstance(v, (tuple, list)) else (v,)
    if not v:
        raise ValueError(f"{key} must not be an empty list")
    return tuple(finite_number({key: x}, key) for x in v)


def _one_gamma(d, default=None) -> float:
    """The reset factor of a kind whose element has a single one."""
    gamma = finite_numbers(d, "gamma", default)
    if len(gamma) != 1:
        raise ValueError(f"gamma of kind {d['kind']!r} takes one value, "
                         f"got {len(gamma)}")
    return gamma[0]


class _Reads(dict):
    """A spec dict that records the keys looked up in it with ``get``."""

    def __init__(self, d):
        super().__init__(d)
        self.read = {"kind", "label", "kp"}

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def build_controller(d: dict) -> ControllerSpec:
    """Build a ControllerSpec from a parsed spec dict.  The reset element
    kinds give a spec with no linear parts and the element as
    ``reset_part``; only the loop controllers carry ``omega_c``.  A key
    the kind does not read is rejected, so a misspelt one cannot fall back
    to a default unnoticed.  A cloc's ``omega_l_hz`` records the foot of
    the band its ladder was placed on: it must be finite but does not
    change the build."""
    d = _Reads(d)
    kind = d["kind"]
    kp = finite_number(d, "kp", 1.0)

    def omegas(*names):   # Hz-valued keys `<name>_hz`, as rad/s by name
        return {n: hz(finite_number(d, n + "_hz")) for n in names}

    def element(rs):
        return ControllerSpec(kind, kind, (), rs, 1.0, None)

    loop = ("omega_c", "omega_i", "omega_f")
    lead = ("omega_r", "omega_r_alpha")
    if kind == "clegg":
        spec = element(clegg().with_gamma([_one_gamma(d, 0.0)]))
    elif kind == "fore":
        spec = element(fore(**omegas("omega_r"), gamma=_one_gamma(d, 0.0)))
    elif kind == "sore":
        spec = element(sore(**omegas("omega_r"),
                            damping=finite_number(d, "beta_r", 1.0),
                            gamma=finite_numbers(d, "gamma", 0.0)))
    elif kind == "cglp":
        corners, gamma = omegas(*lead, "omega_f"), _one_gamma(d)
        order = finite_number(d, "filter_order", 1.0)
        # only the second-order lag has a damping
        beta_r = finite_number(d, "beta_r", 1.0) if order == 2 else 1.0
        stage = build_cglp(order, beta_r=beta_r, gamma=gamma, **corners)
        spec = ControllerSpec(kind, kind, (stage.lead,), stage.reset_part, 1.0, None)
    elif kind == "pid":
        spec = build_pid(a=finite_number(d, "a"), **omegas(*loop))
    elif kind == "cglp-pid":
        spec = build_cglp_pid(a=finite_number(d, "a"), gamma=_one_gamma(d),
                              **omegas(*loop, *lead))
    elif kind == "cglp-pi":
        spec = build_cglp_pi(
            beta_r=finite_number(d, "beta_r", CGLP_SORE_DAMPING),
            gamma=_one_gamma(d), **omegas(*loop, *lead))
    elif kind == "cloc":
        finite_number(d, "omega_l_hz", 0.0)   # the placement band: checked, not built
        band = ["omega_h"] if "omega_h_hz" in d else []
        spec = build_cloc_from(
            poles=hz(np.array(finite_numbers(d, "poles_hz"))),
            zeros=hz(np.array(finite_numbers(d, "zeros_hz"))),
            gamma=finite_numbers(d, "gamma"),
            taming_factor=finite_number(d, "taming_factor",
                                        DEFAULT_TAMING_FACTOR),
            **omegas(*loop, *band))
    else:
        raise ValueError(f"unknown controller kind {kind!r}")
    unread = sorted(set(d) - d.read)
    if unread:
        raise ValueError(f"kind {kind!r} does not take key(s) "
                         f"{', '.join(map(repr, unread))}")
    spec.label = d.get("label") or kind
    if not isinstance(spec.label, str):
        raise ValueError(f"label must be text, got {spec.label!r}")
    return spec.with_kp(kp)


# --- the stock designs ------------------------------------------------------

#: the five designs the paper compares, in progression order
SUITE = ("pid", "cglp-pid", "cglp-pi", "cloc-1", "cloc-2")


def _builtin_specs(matched_gamma=None):
    """The builtin spec dicts, every number taken from the stock design
    constants in synthesis.  A given `matched_gamma` stands in for the
    root-find of `matched_sore_gamma`."""
    gs = matched_sore_gamma() if matched_gamma is None else matched_gamma
    common = dict(omega_c_hz=CROSSOVER_HZ, omega_i_hz=INTEGRATOR_HZ,
                  omega_f_hz=LOWPASS_HZ, kp=1.0)
    fore_hz, sore_hz = CGLP_FORE_HZ, CGLP_SORE_HZ
    return {
        "clegg": dict(kind="clegg", label="clegg"),
        "fore": dict(kind="fore", label="fore", omega_r_hz=fore_hz[0],
                     gamma=(GFORE_GAMMA,)),
        "sore": dict(kind="sore", label="sore", omega_r_hz=sore_hz[0],
                     beta_r=CGLP_SORE_DAMPING, gamma=(0.0,)),
        "cglp-fore": dict(kind="cglp", label="cglp-fore", filter_order=1.0,
                          omega_r_hz=fore_hz[0], omega_r_alpha_hz=fore_hz[1],
                          omega_f_hz=LOWPASS_HZ, gamma=(GFORE_GAMMA,), kp=1.0),
        "cglp-sore": dict(kind="cglp", label="cglp-sore", filter_order=2.0,
                          omega_r_hz=sore_hz[0], omega_r_alpha_hz=sore_hz[1],
                          beta_r=CGLP_SORE_DAMPING, omega_f_hz=LOWPASS_HZ,
                          gamma=(gs,), kp=1.0),
        "pid": dict(kind="pid", label="pid", a=PID_LEAD_RATIO, **common),
        "cglp-pid": dict(kind="cglp-pid", label="cglp-pid",
                         a=CGLP_PID_LEAD_RATIO, omega_r_hz=fore_hz[0],
                         omega_r_alpha_hz=fore_hz[1], gamma=(GFORE_GAMMA,),
                         **common),
        "cglp-pi": dict(kind="cglp-pi", label="cglp-pi", omega_r_hz=sore_hz[0],
                        omega_r_alpha_hz=sore_hz[1], beta_r=CGLP_SORE_DAMPING,
                        gamma=(gs,), **common),
        **{f"cloc-{v}": dict(kind="cloc", label=f"cloc-{v}",
                             poles_hz=ladder["poles"], zeros_hz=ladder["zeros"],
                             gamma=ladder["gamma"], omega_l_hz=ladder["band"][0],
                             omega_h_hz=ladder["band"][1],
                             taming_factor=DEFAULT_TAMING_FACTOR, **common)
           for v, ladder in CLOC_LADDERS_HZ.items()},
    }


@lru_cache(maxsize=1)
def matched_sore_gamma() -> float:
    """Reset factor of the builtin cglp-pi, chosen so its controller phase
    at crossover equals the builtin pid's.

    The five stock designs deliver the same phase at omega_c by different
    means; for this one the reset depth is the free knob, solved here by
    bisection (the phase is monotone in gamma over [-1, 1])."""
    def phase_deg(d):   # controller phase at the design's crossover
        c = build_controller(d)
        return np.degrees(np.angle(controller_harmonic(c, [c.omega_c])[0]))

    table = _builtin_specs(matched_gamma=0.0)
    reference = phase_deg(table["pid"])
    return float(brentq(
        lambda g: phase_deg(dict(table["cglp-pi"], gamma=(float(g),))) - reference,
        -0.999, 0.999, xtol=1e-10))
