import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import resetloop.specfile
from resetloop.cli import _load_spec
from resetloop.lti import hz, stage_plant
from resetloop.specfile import (
    SUITE,
    _builtin_specs,
    build_controller,
    emit_spec,
    finite_number,
    finite_numbers,
    parse_spec,
)
from resetloop.synthesis import (
    build_benchmark_suite,
    build_cglp_pi,
    build_cglp_pid,
    build_cloc_from,
    build_pid,
    controller_harmonic,
)


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
    # an independent check on the builtin table: each suite design against
    # its factory called on the published constants, written out here
    grid = np.array([hz(10.0), hz(150.0), hz(900.0)])
    wc, wi, wf = hz(150.0), hz(15.0), hz(1500.0)

    def cloc(poles, zeros, gamma, band):
        return build_cloc_from(hz(np.array(poles)), hz(np.array(zeros)), gamma,
                               wi, wf, wc, omega_h=hz(band[1]))

    factory = {
        "pid": build_pid(wc, 9.13, wi, wf),
        "cglp-pid": build_cglp_pid(wc, 2.193, wi, wf, hz(50.0), hz(35.7), 0.0),
        "cglp-pi": build_cglp_pi(wc, wi, wf, hz(78.9), hz(68.6138), 1.0,
                                 -0.0635741799787),
        "cloc-1": cloc((16.5, 76.6, 355.5), (35.55, 165.0, 766.0),
                       (0.21, -0.22, 0.1), (11.24, 1124.0)),
        "cloc-2": cloc((27.0, 85.4, 270.0), (48.0, 151.8, 480.3),
                       (0.29, -0.26, 0.3), (20.25, 640.3)),
    }
    suite = build_benchmark_suite()
    assert list(suite) == list(factory)
    for name, spec in factory.items():
        a = controller_harmonic(suite[name], grid)
        b = controller_harmonic(spec, grid)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12, name


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        build_controller({"kind": "mystery"})


def test_build_reset_element_kinds():
    c = build_controller({"kind": "clegg"}).reset_part
    assert c.order == 1
    f = build_controller({"kind": "fore", "omega_r_hz": 50.0,
                          "gamma": (0.3,)}).reset_part
    assert f.gamma[0] == 0.3
    s = build_controller({"kind": "sore", "omega_r_hz": 78.9,
                          "beta_r": 0.8, "gamma": 0.1}).reset_part
    assert s.order == 2
    # a pid is a loop controller, not a reset element
    assert build_controller(_builtin_specs()["pid"]).reset_part is None


def test_reset_element_specs_are_not_loop_controllers():
    for name in ("clegg", "fore", "sore"):
        spec = build_controller(_builtin_specs()[name])
        assert spec.linear_parts == () and spec.omega_c is None
        assert spec.label == name and spec.kp == 1.0


def test_sore_spec_honours_a_gamma_pair():
    s = build_controller({"kind": "sore", "omega_r_hz": 78.9,
                          "gamma": (0.1, -0.2)}).reset_part
    assert tuple(s.gamma) == (0.1, -0.2)


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "c.spec"
    path.write_text("kind = pid   # the benchmark\nlabel = mine   # my note\n"
                    "a = 9.13#ratio\ngamma = [0.1, 0.2]  # two\n#whole line\n")
    assert parse_spec(path) == {"kind": "pid", "label": "mine", "a": 9.13,
                                "gamma": (0.1, 0.2)}


@pytest.mark.parametrize("label", ["mine # note", "two\nlines", "cr\rlf"])
def test_emit_rejects_strings_that_cannot_round_trip(tmp_path, label):
    with pytest.raises(ValueError, match="round-trip"):
        emit_spec({"kind": "pid", "label": label}, tmp_path / "x.spec")


def test_finite_number_readers():
    d = {"a": 2.0, "n": 3, "g": (0.1, -0.2), "s": 0.5}
    assert finite_number(d, "a") == 2.0 and finite_number(d, "n") == 3.0
    assert finite_number(d, "b", 1.5) == 1.5
    assert finite_numbers(d, "g") == (0.1, -0.2)
    assert finite_numbers(d, "s") == (0.5,)
    assert finite_numbers(d, "h", 0.0) == (0.0,)
    for bad in (float("nan"), float("inf"), (1.0,), "x", True):
        with pytest.raises(ValueError, match="kp"):
            finite_number({"kp": bad}, "kp")
    for bad in ((), (1.0, float("nan")), ("x",), "x", float("-inf")):
        with pytest.raises(ValueError, match="gamma"):
            finite_numbers({"gamma": bad}, "gamma")
    with pytest.raises(ValueError, match="'a'"):
        finite_number({}, "a")


@pytest.mark.parametrize("name,key,value,err", [
    ("cglp-pid", "gamma", (0.1, 0.2), "gamma"),
    ("cglp-pid", "gamma", (), "gamma"),
    ("cglp-pid", "a", 0.0, "lead ratio"),
    ("cloc-1", "poles_hz", 5.0, "equally long"),
    ("cloc-1", "taming_factor", float("nan"), "taming_factor"),
    ("pid", "kp", float("inf"), "kp"),
    ("pid", "kp", float("nan"), "kp"),
    ("pid", "label", 3.0, "label"),
    ("cglp-fore", "filter_order", 1.5, "filter_order"),
    ("fore", "gamma", (0.1, 0.2), "gamma"),
    ("clegg", "gamma", float("nan"), "gamma"),
])
def test_malformed_values_are_rejected(name, key, value, err):
    d = dict(_builtin_specs()[name], **{key: value})
    with pytest.raises(ValueError, match=err):
        build_controller(d)


@pytest.mark.parametrize("name,key", [
    ("fore", "gama"),            # misspelt: gamma would stay at its default
    ("cglp-fore", "beta_r"),     # a first-order lag has no damping
    ("pid", "gamma"),            # a pid has no reset element
    ("cloc-1", "n_pairs"),       # a tune skeleton key
])
def test_keys_the_kind_does_not_read_are_rejected(name, key):
    d = dict(_builtin_specs()[name], **{key: 0.5})
    with pytest.raises(ValueError, match=f"does not take key.*'{key}'"):
        build_controller(d)


def test_second_order_cglp_reads_its_damping():
    d = _builtin_specs()["cglp-sore"]
    a = build_controller(d).reset_part.base.A
    b = build_controller(dict(d, beta_r=0.5)).reset_part.base.A
    assert a[1, 1] != b[1, 1]


def test_scalar_gamma_counts_as_a_one_element_list():
    d = _builtin_specs()["cglp-pid"]
    grid = np.array([hz(50.0), hz(150.0)])
    a = controller_harmonic(build_controller(dict(d, gamma=0.5)), grid)
    b = controller_harmonic(build_controller(dict(d, gamma=(0.5,))), grid)
    c = controller_harmonic(build_controller(d), grid)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def _bits(d):
    """A spec dict with every float spelled out bit for bit (nan included)."""
    def one(v):
        if isinstance(v, tuple):
            return tuple(map(float.hex, v))
        return v.hex() if isinstance(v, float) else v
    return {k: (type(v), one(v)) for k, v in d.items()}


_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             max_size=4).map(tuple),
    st.booleans(),
    st.text(st.characters(blacklist_characters="#\n\r",
                          blacklist_categories=("Cs",)), max_size=12),
)


@given(d=st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}",
                                       fullmatch=True), _values, max_size=6))
def test_parse_emit_parse_is_a_fixed_point(tmp_path_factory, d):
    # a string value may parse back as a number, a bool or a list (or not
    # at all); from the first parse on, the dict must stay put bit for bit
    path = tmp_path_factory.mktemp("round_trip") / "x.spec"
    emit_spec(d, path)
    try:
        first = parse_spec(path)
    except ValueError:
        return   # e.g. a string "[x]" that is not a float list
    emit_spec(first, path)
    assert _bits(parse_spec(path)) == _bits(first)


@pytest.mark.parametrize("name", sorted(_builtin_specs(matched_gamma=0.0)))
def test_every_builtin_survives_emit_and_parse(tmp_path, name):
    d = _builtin_specs()[name]
    emit_spec(d, tmp_path / "b.spec")
    assert parse_spec(tmp_path / "b.spec") == d


def test_suite_and_a_builtin_load_share_one_root_find(monkeypatch):
    calls = []

    def counting_brentq(*args, **kwargs):
        calls.append(args)
        return brentq(*args, **kwargs)

    brentq = resetloop.specfile.brentq
    monkeypatch.setattr(resetloop.specfile, "brentq", counting_brentq)
    resetloop.specfile.matched_sore_gamma.cache_clear()
    suite = build_benchmark_suite(stage_plant())
    assert list(suite) == list(SUITE)
    gamma = suite["cglp-pi"].reset_part.gamma
    assert _load_spec("cglp-pi")["gamma"] == (gamma[0],)
    assert len(calls) == 1
