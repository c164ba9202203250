"""Controller spec files.

Human-readable `key = value` text with Hz-denominated frequencies, one key
per line, `[a, b, c]` float lists, and '#' starting a comment that runs to
the end of its line.  Values round-trip exactly: floats are written with
repr so parse(emit(parse(x))) == parse(x) bit for bit.

``build_controller`` is the one place a parsed spec becomes a
ControllerSpec, for every kind: the bare reset elements (clegg, fore,
sore), the constant-gain lead stage (cglp), and the loop controllers (pid,
cglp-pid, cglp-pi, cloc).
"""

from __future__ import annotations

import numpy as np

from .lti import hz
from .reset import clegg, fore, sore
from .synthesis import (
    CGLP_SORE_DAMPING,
    ControllerSpec,
    DEFAULT_TAMING_FACTOR,
    build_cglp,
    build_cglp_pi,
    build_cglp_pid,
    build_cloc_from,
    build_pid,
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
    to a default unnoticed."""
    d = _Reads(d)
    kind = d["kind"]
    kp = finite_number(d, "kp", 1.0)

    def omegas(*names):   # Hz-valued keys `<name>_hz`, as rad/s by name
        return {n: hz(finite_number(d, n + "_hz")) for n in names}

    def element(rs):
        return ControllerSpec(kind, kind, (), rs, 1.0, {})

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
        params, gamma = omegas(*lead, "omega_f"), _one_gamma(d)
        order = finite_number(d, "filter_order", 1.0)
        # only the second-order lag has a damping
        beta_r = finite_number(d, "beta_r", 1.0) if order == 2 else 1.0
        stage = build_cglp(order, beta_r=beta_r, gamma=gamma, **params)
        spec = ControllerSpec(kind, kind, (stage.lead,), stage.reset_part,
                              1.0, dict(params, gamma=(gamma,)))
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
        band = [n for n in ("omega_l", "omega_h") if n + "_hz" in d]
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
