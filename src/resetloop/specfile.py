"""Controller spec files.

Human-readable `key = value` text with Hz-denominated frequencies, one key
per line, '#' comments, and `[a, b, c]` float lists.  Values round-trip
exactly: floats are written with repr so parse(emit(parse(x))) == parse(x)
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .lti import hz, to_hz
from .reset import ResetSystem, clegg, fore, sore
from .synthesis import (
    CGLP_SORE_DAMPING,
    ControllerSpec,
    DEFAULT_TAMING_FACTOR,
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
            line = raw.strip()
            if not line or line.startswith("#"):
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# resetloop controller spec\n")
        for key, val in d.items():
            if isinstance(val, (tuple, list)):
                body = ", ".join(repr(float(v)) for v in val)
                fh.write(f"{key} = [{body}]\n")
            elif isinstance(val, bool):
                fh.write(f"{key} = {'true' if val else 'false'}\n")
            elif isinstance(val, str):
                fh.write(f"{key} = {val}\n")
            else:
                fh.write(f"{key} = {float(val)!r}\n")


def spec_to_dict(spec: ControllerSpec) -> dict:
    """Flatten a ControllerSpec to the Hz-denominated file payload."""
    p = spec.params
    d = {"kind": spec.kind, "label": spec.label}
    for key, fkey in (("omega_c", "omega_c_hz"), ("omega_i", "omega_i_hz"),
                      ("omega_f", "omega_f_hz"), ("omega_r", "omega_r_hz"),
                      ("omega_r_alpha", "omega_r_alpha_hz"),
                      ("omega_l", "omega_l_hz"), ("omega_h", "omega_h_hz")):
        if key in p:
            d[fkey] = to_hz(p[key])
    if "a" in p:
        d["a"] = p["a"]
    if "beta_r" in p:
        d["beta_r"] = p["beta_r"]
    if "poles" in p:
        d["poles_hz"] = tuple(to_hz(np.array(p["poles"])))
        d["zeros_hz"] = tuple(to_hz(np.array(p["zeros"])))
    if "gamma" in p:
        d["gamma"] = tuple(p["gamma"])
    if "taming_factor" in p:
        d["taming_factor"] = p["taming_factor"]
    d["kp"] = spec.kp
    return d


def build_controller(d: dict) -> ControllerSpec:
    """Rebuild a ControllerSpec from a parsed spec dict."""
    kind = d["kind"]
    kp = float(d.get("kp", 1.0))
    if kind == "pid":
        spec = build_pid(hz(d["omega_c_hz"]), float(d["a"]),
                         hz(d["omega_i_hz"]), hz(d["omega_f_hz"]))
    elif kind == "cglp-pid":
        spec = build_cglp_pid(omega_c=hz(d["omega_c_hz"]), a=float(d["a"]),
                              omega_i=hz(d["omega_i_hz"]),
                              omega_f=hz(d["omega_f_hz"]),
                              omega_r=hz(d["omega_r_hz"]),
                              omega_r_alpha=hz(d["omega_r_alpha_hz"]),
                              gamma=d["gamma"][0])
    elif kind == "cglp-pi":
        spec = build_cglp_pi(omega_c=hz(d["omega_c_hz"]),
                             omega_i=hz(d["omega_i_hz"]),
                             omega_f=hz(d["omega_f_hz"]),
                             omega_r=hz(d["omega_r_hz"]),
                             omega_r_alpha=hz(d["omega_r_alpha_hz"]),
                             beta_r=float(d.get("beta_r", CGLP_SORE_DAMPING)),
                             gamma=d["gamma"][0])
    elif kind == "cloc":
        spec = build_cloc_from(
            poles=hz(np.array(d["poles_hz"])),
            zeros=hz(np.array(d["zeros_hz"])),
            gamma=d["gamma"],
            omega_i=hz(d["omega_i_hz"]),
            omega_f=hz(d["omega_f_hz"]),
            omega_c=hz(d["omega_c_hz"]),
            omega_l=hz(d["omega_l_hz"]) if "omega_l_hz" in d else None,
            omega_h=hz(d["omega_h_hz"]) if "omega_h_hz" in d else None,
            taming_factor=float(d.get("taming_factor", DEFAULT_TAMING_FACTOR)),
            label=d.get("label", "cloc"),
        )
    else:
        raise ValueError(f"unknown controller kind {kind!r}")
    if d.get("label"):
        spec.label = d["label"]
    return spec.with_kp(kp)


def _scalar_gamma(d, default=0.0):
    g = d.get("gamma", default)
    return float(g[0]) if isinstance(g, (tuple, list)) else float(g)


def build_reset_element(d: dict) -> ResetSystem:
    """Reset elements for harmonic analysis: kinds clegg, fore, sore."""
    kind = d["kind"]
    if kind == "clegg":
        return clegg().with_gamma([_scalar_gamma(d)])
    if kind == "fore":
        return fore(hz(d["omega_r_hz"]), _scalar_gamma(d))
    if kind == "sore":
        return sore(hz(d["omega_r_hz"]), float(d.get("beta_r", 1.0)),
                    _scalar_gamma(d))
    raise ValueError(f"not a reset element kind: {kind!r}")
