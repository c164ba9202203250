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

The stock designs are defined here once: ``builtin_specs`` is the table of
the ten builtin specs, every number a stock constant of synthesis (the
matched reset factor of cglp-pi and cglp-sore included), and ``SUITE``
names the five the paper compares; ``load_spec`` prefers a builtin name to
a file of that name.  ``parse_scenario`` (over ``REFERENCES``) and
``parse_skeleton`` read the CLI's scenario and tuner skeleton files.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lti import hz
from .reset import clegg, fore, sore
from .sim import SimConfig
from .synthesis import (
    ApproxBand,
    CGLP_FORE_HZ,
    CGLP_PID_LEAD_RATIO,
    CGLP_SORE_DAMPING,
    CGLP_SORE_HZ,
    CLOC_LADDERS_HZ,
    CROSSOVER_HZ,
    ControllerSpec,
    CroneApprox,
    DEFAULT_TAMING_FACTOR,
    GFORE_GAMMA,
    GSORE_GAMMA,
    INTEGRATOR_HZ,
    LOWPASS_HZ,
    PID_LEAD_RATIO,
    build_cglp,
    build_cglp_pi,
    build_cglp_pid,
    build_cloc_from,
    build_pid,
    crone_place,
)


def parse_spec(path) -> dict:
    """Parse a `key = value` file into a flat dict: float lists in
    brackets, booleans as true/false, floats where they parse, strings
    otherwise.  Raises ValueError with the line number on malformed
    input or a repeated key."""
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
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
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
    """A dict that records the keys looked up in it with ``get``."""

    def __init__(self, d):
        super().__init__(d)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def reject_unread(self, owner):
        """ValueError naming every key that ``get`` never looked up."""
        unread = sorted(set(self) - self.read)
        if unread:
            raise ValueError(f"{owner} does not take key(s) "
                             f"{', '.join(map(repr, unread))}")


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
    d.read.update(("kind", "label"))   # kind read by index, label below
    d.reject_unread(f"kind {kind!r}")
    label = d.get("label") or kind
    if not isinstance(label, str):
        raise ValueError(f"label must be text, got {label!r}")
    return replace(spec, label=label).with_kp(kp)


# --- the stock designs ------------------------------------------------------

#: the five designs the paper compares, in progression order
SUITE = ("pid", "cglp-pid", "cglp-pi", "cloc-1", "cloc-2")


def builtin_specs():
    """The builtin spec dicts, every number taken from the stock design
    constants in synthesis."""
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
                          gamma=(GSORE_GAMMA,), kp=1.0),
        "pid": dict(kind="pid", label="pid", a=PID_LEAD_RATIO, **common),
        "cglp-pid": dict(kind="cglp-pid", label="cglp-pid",
                         a=CGLP_PID_LEAD_RATIO, omega_r_hz=fore_hz[0],
                         omega_r_alpha_hz=fore_hz[1], gamma=(GFORE_GAMMA,),
                         **common),
        "cglp-pi": dict(kind="cglp-pi", label="cglp-pi", omega_r_hz=sore_hz[0],
                        omega_r_alpha_hz=sore_hz[1], beta_r=CGLP_SORE_DAMPING,
                        gamma=(GSORE_GAMMA,), **common),
        **{f"cloc-{v}": dict(kind="cloc", label=f"cloc-{v}",
                             poles_hz=ladder["poles"], zeros_hz=ladder["zeros"],
                             gamma=ladder["gamma"], omega_l_hz=ladder["band"][0],
                             omega_h_hz=ladder["band"][1],
                             taming_factor=DEFAULT_TAMING_FACTOR, **common)
           for v, ladder in CLOC_LADDERS_HZ.items()},
    }


def load_spec(name_or_path) -> dict:
    """The builtin spec of that name, else the spec file at that path."""
    builtin = builtin_specs().get(name_or_path)
    return parse_spec(name_or_path) if builtin is None else builtin


#: scenario references: name -> (trajectory kind, distance m, duration s, hold s)
REFERENCES = {
    "step3um": ("step", 3e-6, 0.5, 0.0),
    "ref1": ("fourth_order_scan", 100e-6, 0.397, 0.1),
    "ref2": ("fourth_order_scan", 100e-6, 0.235, 0.1),
    "ref3": ("fourth_order_scan", 100e-6, 0.093, 0.1),
}


def parse_scenario(d):
    """(reference name, SimConfig, feedforward flag) of a scenario dict; an
    unread key, or a seed that is not an int or an integral float, is rejected."""
    d = _Reads(d)
    ref = d.get("reference", "step3um")
    if ref not in REFERENCES:
        raise ValueError(f"unknown reference {ref!r}")
    feedforward = d.get("feedforward", False)
    if not isinstance(feedforward, bool):
        raise ValueError(f"feedforward must be true or false, got {feedforward!r}")
    seed = d.get("seed", SimConfig.noise_seed)
    if isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"scenario seed must be an integer, got {seed!r}")
    cfg = SimConfig(dt=finite_number(d, "dt_s", SimConfig.dt),
                    quantization=finite_number(d, "quantization_m",
                                               SimConfig.quantization),
                    noise_amplitude=finite_number(d, "noise_um", 0.0) * 1e-6,
                    noise_seed=seed)
    d.reject_unread("a scenario")
    return ref, cfg, feedforward


def parse_skeleton(d) -> CroneApprox:
    """CroneApprox from a skeleton dict: either explicit ladder lists or
    (alpha, n_pairs, omega_l_hz, omega_h_hz)."""
    if "poles_hz" in d and "zeros_hz" in d:
        return CroneApprox(tuple(hz(np.array(finite_numbers(d, "zeros_hz")))),
                           tuple(hz(np.array(finite_numbers(d, "poles_hz")))),
                           1.0)
    if {"alpha", "n_pairs", "omega_l_hz", "omega_h_hz"} <= d.keys():
        n_pairs = finite_number(d, "n_pairs")
        if not n_pairs.is_integer():
            raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
        band = ApproxBand(hz(finite_number(d, "omega_l_hz")),
                          hz(finite_number(d, "omega_h_hz")), int(n_pairs))
        return crone_place(finite_number(d, "alpha"), band)
    raise ValueError("skeleton needs poles_hz/zeros_hz or "
                     "alpha/n_pairs/omega_l_hz/omega_h_hz")
