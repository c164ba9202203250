import numpy as np
import pytest

from resetloop.cli import _builtin_specs
from resetloop.lti import hz
from resetloop.specfile import (
    build_controller,
    build_reset_element,
    emit_spec,
    parse_spec,
    spec_to_dict,
)
from resetloop.synthesis import build_cloc, build_pid


@pytest.mark.parametrize("name", ["pid", "cglp-pid", "cglp-pi", "cloc-1",
                                  "cloc-2", "clegg", "fore", "sore"])
def test_round_trip_is_exact(tmp_path, name):
    d = _builtin_specs()[name]
    p1 = tmp_path / "a.spec"
    emit_spec(d, p1)
    r1 = parse_spec(p1)
    p2 = tmp_path / "b.spec"
    emit_spec(r1, p2)
    r2 = parse_spec(p2)
    assert r1 == r2
    assert r1 == {k: (tuple(v) if isinstance(v, (tuple, list)) else v)
                  for k, v in d.items()}


def test_published_ladder_survives_round_trip(tmp_path):
    d = _builtin_specs()["cloc-1"]
    path = tmp_path / "cloc1.spec"
    emit_spec(d, path)
    r = parse_spec(path)
    assert r["poles_hz"] == (16.5, 76.6, 355.5)
    assert r["zeros_hz"] == (35.55, 165.0, 766.0)
    assert r["gamma"] == (0.21, -0.22, 0.1)


@pytest.mark.parametrize("body,err", [
    ("kind cloc\n", "key = value"),
    ("gamma = [0.1, oops]\n", "bad list"),
    ("gamma = [0.1, 0.2\n", "unterminated"),
])
def test_parse_errors_carry_line_numbers(tmp_path, body, err):
    path = tmp_path / "bad.spec"
    path.write_text(body)
    with pytest.raises(ValueError, match=err):
        parse_spec(path)


def test_parse_accepts_comments_and_strings(tmp_path):
    path = tmp_path / "sc.spec"
    path.write_text("# scenario\ncontroller = cloc-1\nreference = ref2\n"
                    "noise_um = 2.0\nfeedforward = true\n")
    d = parse_spec(path)
    assert d["controller"] == "cloc-1"
    assert d["reference"] == "ref2"
    assert d["noise_um"] == 2.0
    assert d["feedforward"] is True


@pytest.mark.parametrize("name", ["pid", "cglp-pid", "cglp-pi", "cloc-1",
                                  "cloc-2"])
def test_build_controller_from_builtin(name):
    spec = build_controller(_builtin_specs()[name])
    assert spec.label == name
    assert spec.kp == 1.0


def test_built_controller_matches_factory():
    spec_file = build_controller(_builtin_specs()["cloc-2"])
    spec_factory = build_cloc(2)
    grid = np.array([hz(10.0), hz(150.0), hz(900.0)])
    from resetloop.synthesis import controller_harmonic

    a = controller_harmonic(spec_file, grid)
    b = controller_harmonic(spec_factory, grid)
    assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        build_controller({"kind": "mystery"})


def test_spec_to_dict_round_trips_pid(tmp_path):
    spec = build_pid(hz(150.0), 9.13, hz(15.0), hz(1500.0))
    d = spec_to_dict(spec)
    assert d["kind"] == "pid"
    assert d["a"] == 9.13
    assert d["omega_c_hz"] == pytest.approx(150.0, rel=1e-15)
    rebuilt = build_controller(d)
    assert rebuilt.params["omega_d"] == pytest.approx(spec.params["omega_d"])


def test_build_reset_element_kinds():
    c = build_reset_element({"kind": "clegg"})
    assert c.order == 1
    f = build_reset_element({"kind": "fore", "omega_r_hz": 50.0,
                             "gamma": (0.3,)})
    assert f.gamma[0] == 0.3
    s = build_reset_element({"kind": "sore", "omega_r_hz": 78.9,
                             "beta_r": 0.8, "gamma": 0.1})
    assert s.order == 2
    with pytest.raises(ValueError, match="reset element"):
        build_reset_element({"kind": "pid"})
