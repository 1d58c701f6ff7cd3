"""CLI dispatch, exit codes, output formats, and determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from echlab import cli, pfh
from echlab.cli import RunConfig, UsageError, main, parse_number, run
from echlab.reporting import Table
from echlab.svgplot import emit_svg
from echlab.twist import TwistProfile, linear_profile, periodic_census

PROFILES = os.path.join(os.path.dirname(__file__), os.pardir, "profiles")


def test_parse_number():
    assert parse_number("sqrt2") == math.sqrt(2)
    assert parse_number("3/4") == 0.75
    assert parse_number("2.5") == 2.5
    assert abs(parse_number("golden") - 1.618033988749895) < 1e-12


def test_unknown_command_raises():
    with pytest.raises(UsageError):
        run(RunConfig("nonsense"))


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["ellipsoid", "identity-check", "--a", "1", "--b", "sqrt2"]) == 0
    capsys.readouterr()
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: echlab")
    assert main(["ellipsoid", "spectrum", "--a", "1e-20", "--b", "1", "--count", "3"]) == 0  # not the rational 0


def test_spectrum_bound_is_L_or_count(capsys):
    # giving both is a usage error, in test_complex_cap_error_exits_2
    argv = ["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2"]
    assert main(argv + ["--count", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]["spectrum"]["rows"]) == 5 and "L" not in doc["manifest"]["config"]
    assert main(argv) == 0  # neither: the action bound L = 10
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]["spectrum"]["rows"]) == 45 and doc["manifest"]["config"]["L"] == 10.0
    assert main(argv + ["--L", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]["spectrum"]["rows"]) == 7 and doc["manifest"]["config"]["L"] == 3.0


def test_ellipsoid_weyl_bundle(tmp_path):
    cfg = RunConfig("ellipsoid.weyl", {"a": 1.0, "b": math.sqrt(2), "kmax": 3000, "tol": 0.05}, out=str(tmp_path))
    bundle = run(cfg)
    assert bundle.verdicts["weyl_final_deviation"]["pass"]
    files = bundle.write(str(tmp_path), ("csv", "json", "svg"))
    names = {os.path.basename(p) for p in files}
    assert {"weyl.csv", "report.json", "weyl_convergence.svg"} <= names
    text = open(tmp_path / "weyl.csv").read()
    assert text.startswith("k,c_k,ratio,deviation\n") and text.endswith("\n")


def test_partitions_command(capsys):
    code = main(["partitions", "--theta", "1/5", "--m", "4"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    rows = dict(doc["tables"]["partitions"]["rows"])
    assert rows == {"positive": "1 1 1 1", "negative": "4"}
    assert doc["manifest"]["cz_index"] == 1
    assert code == 0


def test_twist_commands(tmp_path, capsys):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(linear_profile(2.2, support_end=0.9).to_json()))
    assert main(["twist", "calabi", "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    assert main(["twist", "cd", "--profile", str(profile_path), "--d", "6"]) == 0
    capsys.readouterr()
    assert main(["twist", "complex", "--profile", str(profile_path), "--d", "3"]) == 0
    capsys.readouterr()
    runs = [
        (["twist", "axioms", "--profile", os.path.join(PROFILES, "linear_cal.json"), "--dmax", "32"],
         {"monotonicity_axiom", "hofer_lipschitz_axiom", "weyl_axiom"},
         {"weyl_axiom", "hofer_lipschitz"}),
        (["twist", "infinite", "--profile", os.path.join(PROFILES, "cubic_singular.json"), "--imax", "4",
          "--dmax", "8"],
         {"calabi_increasing", "monotone_chain", "step1_domination", "step2_bound", "growth_witnessed"},
         {"infinite_twist"}),
    ]
    for argv, verdicts, tables in runs:
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["verdicts"]) == verdicts and all(v["pass"] for v in doc["verdicts"].values())
        assert tables <= set(doc["tables"])
    assert main(["twist", "infinite", "--profile", os.path.join(PROFILES, "linear_cal.json")]) == 2
    assert capsys.readouterr().err == "error: experiment requires a profile with divergent Calabi invariant\n"


def test_complex_cap_error_exits_2(tmp_path, capsys):
    # cap errors and invalid-input errors share one contract: exit 2 with a
    # single "error:" line and no traceback
    profile = os.path.join(os.path.dirname(__file__), os.pardir, "profiles", "linear_cal.json")
    zero_den = {}
    for field in ("action", "theta"):
        orbit = {"label": "a", "action": [1, 2], "theta": [1, 5], "kind": "elliptic", field: [1, 0]}
        zero_den[field] = tmp_path / f"{field}.json"
        zero_den[field].write_text(json.dumps({"orbits": [orbit], "entries": [["a", 1]]}))
    cases = [
        (["twist", "complex", "--profile", profile, "--d", "14", "--cap", "1000"],
         "error: generator cap 1000 exceeded"),
        (["twist", "complex", "--profile", profile, "--d", "6", "--cap", "-1"], "error: generator cap must be >= 1, got -1\n"),
        (["twist", "complex", "--profile", profile, "--d", "6", "--cap", "0"], "error: generator cap must be >= 1, got 0\n"),
        (["ellipsoid", "spectrum", "--a", "1", "--b", "2"], "error: rational aspect ratio"),
        (["ellipsoid", "census", "--a", "-1", "--b", "2"], "error: ellipsoid parameters must be positive"),
        (["ellipsoid", "census", "--a", "1e300", "--b", "1e-300"],
         "error: ellipsoid aspect ratio a/b lies outside the float range"),
        (["ellipsoid", "census", "--a", "1/" + str(10**400), "--b", "2/1"],
         "error: ellipsoid aspect ratio a/b lies outside the float range"),
        (["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2", "--L", "30", "--cap", "5"],
         "error: spectrum entry cap 5 exceeded"),
        (["ellipsoid", "census", "--a", "1/0", "--b", "2"],
         "error: echlab ellipsoid census: argument --a: invalid parse_number value: '1/0'"),
        (["partitions", "--theta", "1/0", "--m", "2"], "error: zero denominator in '1/0'"),
        (["partitions", "--theta", "1/2/3", "--m", "3"], "error: not a fraction p/q: '1/2/3'\n"),
        (["ellipsoid", "census", "--a", "1/2/3", "--b", "2"],
         "error: echlab ellipsoid census: argument --a: invalid parse_number value: '1/2/3'\n"),
        (["partitions", "--theta", "1/3", "--m", "0"], "error: multiplicity must be >= 1, got 0"),
        (["score", "--input", str(zero_den["action"])], "error: zero denominator in [1, 0]"),
        (["score", "--input", str(zero_den["theta"])], "error: zero denominator in [1, 0]"),
        (["partitions", "--theta", "0.5", "--m", "2"],
         "error: degenerate rotation at multiplicity 2: m*theta = 1.0 is within 1e-12 of an "
         "integer; pass an exact rational p/q\n"),
        (["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2", "--count", "0"],
         "error: count must be an integer >= 1, got 0\n"),
        (["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2", "--count", "5", "--L", "3"],
         "error: provide exactly one of L or count\n"),
        (["ellipsoid", "census", "--a", "1", "--b", "2", "--L", "1e300"],
         "error: census would list more than 100000 torus families"),
        (["ellipsoid", "census", "--a", "1", "--b", "2", "--L=--"], "error: an option given as --flag=-- has no value"),
        (["ellipsoid", "census", "--a", "1", "--b", "2", "--format=--"],
         "error: an option given as --flag=-- has no value"),
        (["ellipsoid", "identity-check", "--a", "1", "--b", "2"], "error: not a two-orbit flow"),
        (["ellipsoid", "spectrum", "--a", "1e307", "--b", "1e307", "--count", "1000", "--formal"],
         "error: spectrum values overflow a float"),
        (["twist", "infinite", "--profile", profile, "--imax", "0"], "error: truncation count imax must be >= 1, got 0"),
        (["ellipsoid", "census", "--a", "1", "--b", "sqrt2", "--L", "0"], "error: action bound must be positive"),
        (["ellipsoid", "weyl", "--a", "1", "--b", "sqrt2", "--kmax", "0"], "error: kmax must be >= 1"),
        (["twist", "complex", "--profile", profile, "--d", "0"], "error: degree must be >= 1"),
        (["twist", "cd", "--profile", profile, "--d", "0"], "error: degree must be >= 1"),
    ]
    for flag, command in (("--L", "census"), ("--L", "spectrum"), ("--tol", "weyl")):
        cases.append((["ellipsoid", command, "--a", "1", "--b", "sqrt2", flag, "inf"],
                      f"error: echlab ellipsoid {command}: argument {flag}: invalid parse_number value: 'inf'"))
    configs = [
        ([1, 2], "--config must hold a JSON object, got list"),
        ({"a": "x"}, "echlab ellipsoid census: argument --a: invalid parse_number value: 'x'"),
        ({"L": math.inf}, "echlab ellipsoid census: argument --L: invalid parse_number value: 'inf'"),
        ({"tol": 0.1}, "echlab: unrecognized arguments: --tol=0.1"),
        ({"L": "--"}, "an option given as --flag=-- has no value"),
        ({"m": 2.5}, "echlab: unrecognized arguments: --m=2.5"),
        ({"\n": None}, "echlab: unrecognized arguments: --\\n=None"),  # a newline in the input is escaped
    ]
    for i, (doc, message) in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(doc))
        cases.append((["ellipsoid", "census", "--a", "1", "--b", "2", "--config", str(path)], "error: " + message))
    for value in ("inf", "1e400", "sqrtinf", "nan"):
        cases.append((["ellipsoid", "census", "--a", value, "--b", "2"],
                      f"error: echlab ellipsoid census: argument --a: invalid parse_number value: '{value}'"))
        cases.append((["partitions", "--theta", value, "--m", "2"], f"error: non-finite number '{value}'"))
    for argv, message in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["twist", "census", "--profile", os.path.join(PROFILES, "linear_cal.json"), "--d", "0"],
     "error: degree must be >= 1\n"),
    (["twist", "census", "--profile", os.path.join(PROFILES, "linear_cal.json"), "--d", "-2"],
     "error: degree must be >= 1\n"),
    (["ellipsoid", "return-map", "--a", "1", "--b", "sqrt2", "--points", "0"],
     "error: return-map points must be at least 1, got 0\n"),
    (["ellipsoid", "return-map", "--a", "1", "--b", "sqrt2", "--points", "-3"],
     "error: return-map points must be at least 1, got -3\n"),
], ids=["census-d0", "census-d-2", "return-map-points0", "return-map-points-3"])
def test_a_count_below_1_exits_2(argv, message, capsys):
    # an empty census or return map would pass its verdict vacuously
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_module_entry_point():
    # python -m echlab runs cli.main and exits with its code; a refused input is one error line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    ok = subprocess.run([sys.executable, "-m", "echlab", "partitions", "--theta", "1/5", "--m", "4"],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0 and json.loads(ok.stdout)["tables"]["partitions"]
    bad = subprocess.run([sys.executable, "-m", "echlab", "ellipsoid", "census", "--a", "1/" + str(10**400),
                          "--b", "2/1"], capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:") and bad.stderr.count("\n") == 1 and "Traceback" not in bad.stderr


def test_wrong_shape_json_exits_2(tmp_path, capsys):
    # a document or a nested record that is not a JSON object is a schema error
    docs = {"list": [1], "string": "abc", "number": 5}
    nested = {
        "orbit": {"orbits": [1], "entries": []},
        "curve": {"orbits": [], "curves": [7]},
        "ends": {"genus": 0, "alpha": [], "beta": [], "positive_ends": [3]},
    }
    cases = [(command, name, doc, f"{kind} document must be a JSON object, got {type(doc).__name__}")
             for command, kind in (("score", "orbit-set"), ("tower", "tower"))
             for name, doc in docs.items()]
    cases += [("score", "orbit", nested["orbit"], "orbit record must be a JSON object, got int"),
              ("tower", "curve", nested["curve"], "curve record must be a JSON object, got int"),
              ("score", "ends", nested["ends"], "ends record must be a JSON object, got int")]
    for command, name, doc, message in cases:
        path = tmp_path / f"{command}-{name}.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", (command, name)


_CURVE = {"genus": 0, "orbits": [{"label": "a", "action": [1, 2], "theta": [1, 5], "kind": "elliptic"}],
          "alpha": [["a", 1]], "beta": []}


@pytest.mark.parametrize("command,doc,message", [
    ("score", {"orbits": 5, "entries": []}, "orbits must be a JSON array, got int"),
    ("score", {"orbits": [], "entries": 5}, "entries must be a JSON array, got int"),
    ("score", {"orbits": [], "entries": [5]}, "entries entry must be a [label, multiplicity] pair, got 5"),
    ("score", {"orbits": [], "entries": [["a", "b"]]},
     "entries entry must be a [label, multiplicity] pair, got ['a', 'b']"),
    ("score", dict(_CURVE, alpha=5), "alpha must be a JSON array, got int"),
    ("score", dict(_CURVE, beta=[["a"]]), "beta entry must be a [label, multiplicity] pair, got ['a']"),
    ("score", dict(_CURVE, orbits={}), "orbits must be a JSON array, got dict"),
    ("score", dict(_CURVE, positive_ends=5), "positive_ends must be a JSON array, got int"),
    ("score", dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": 1, "c0": False}]),
     "multiplicities must be a JSON array, got int"),
    ("tower", {"orbits": 5, "curves": []}, "orbits must be a JSON array, got int"),
    ("tower", {"orbits": [], "curves": 5}, "curves must be a JSON array, got int"),
    ("score", {"orbits": [], "entries": [[[1], 1]]},
     "entries entry must be a [label, multiplicity] pair, got [[1], 1]"),
    ("score", dict(_CURVE, positive_ends=[{"orbit": [1], "multiplicities": [1], "c0": False}]),
     "orbit must be a string, got [1]"),
    ("score", {"orbits": [dict(_CURVE["orbits"][0], label=[1])], "entries": []}, "label must be a string, got [1]"),
    ("tower", {"orbits": [], "curves": []}, "a tower needs at least one curve"),
    ("score", dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [1], "c0": 1}]),
     "c0 must be a boolean, got 1"),
    ("score", dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [1], "c0": "no"}]),
     "c0 must be a boolean, got 'no'"),
])
def test_mistyped_list_fields_exit_2(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_ORBIT = _CURVE["orbits"][0]


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("command,doc,message", [
    ("score", dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [1]}]), "ends record has no 'c0' field"),
    ("score", dict(_CURVE, positive_ends=[{"multiplicities": [1], "c0": False}]), "ends record has no 'orbit' field"),
    ("tower", {"orbits": [_ORBIT], "curves": [_without(dict(_CURVE, orbits=[]), "genus")]},
     "curve record has no 'genus' field"),
    ("score", {"orbits": [_without(_ORBIT, "label")], "entries": []}, "orbit record has no 'label' field"),
    ("score", {"orbits": [_without(_ORBIT, "kind")], "entries": []}, "orbit record has no 'kind' field"),
    ("score", {"orbits": [_ORBIT]}, "orbit-set document has no 'entries' field"),
    ("score", {"orbits": [_ORBIT], "entries": [["b", 1]]}, "unknown orbit label 'b'"),
    ("score", dict(_CURVE, beta=[["b", 1]]), "unknown orbit label 'b'"),
    ("score", dict(_CURVE, negative_ends=[{"orbit": "a", "multiplicities": [1], "c0": False}]),
     "negative ends at a missing from endpoint set"),
])
def test_missing_fields_exit_2(tmp_path, capsys, command, doc, message):
    # a required field that is absent, or an entry label with no orbit record, names what is missing
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command,doc,message", [
    ("score", {"orbits": [_ORBIT, dict(_ORBIT, action=[5, 1])], "entries": [["a", 1]]},
     "orbit label 'a' is listed twice"),
    ("score", dict(_CURVE, orbits=[_ORBIT, dict(_ORBIT, action=[5, 1])]), "orbit label 'a' is listed twice"),
    ("tower", {"orbits": [_ORBIT, dict(_ORBIT, action=[5, 1])], "curves": [dict(_CURVE, orbits=[])]},
     "orbit label 'a' is listed twice"),
    ("tower", {"orbits": [_ORBIT], "curves": [dict(_CURVE, orbits=[dict(_ORBIT, action=[5, 1])])]},
     "orbit 'a' conflicts with the tower's orbit of that label"),
    ("score", {"orbits": [_ORBIT], "entries": [["a", 1], ["a", 2]]}, "duplicate orbit id 'a'"),
    ("score", dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [1], "c0": False}] * 2),
     "repeated ends record at a (positive)"),
])
def test_repeated_orbit_labels_exit_2(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc,message", [
    ({"orbits": [dict(_ORBIT, theta=[1])], "entries": [["a", 1]]},
     "fraction must be a [numerator, denominator] pair of integers, got [1]"),
    ({"orbits": [dict(_ORBIT, theta=["a", 5])], "entries": [["a", 1]]},
     "fraction must be a [numerator, denominator] pair of integers, got ['a', 5]"),
    ({"orbits": [dict(_ORBIT, action=[1, 2, 3])], "entries": [["a", 1]]},
     "fraction must be a [numerator, denominator] pair of integers, got [1, 2, 3]"),
    ({"orbits": [dict(_ORBIT, period="2")], "entries": [["a", 1]]}, "period must be an integer, got '2'"),
    (dict(_CURVE, genus="x"), "genus must be an integer, got 'x'"),
    (dict(_CURVE, genus=True), "genus must be an integer, got True"),
    (dict(_CURVE, c_tau=1.5), "c_tau must be an integer, got 1.5"),
    (dict(_CURVE, orbits=[dict(_ORBIT, period=1.0)]), "period must be an integer, got 1.0"),
    (dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": ["1"], "c0": False}]),
     "multiplicities must be an integer, got '1'"),
    ({"orbits": [dict(_ORBIT, theta=math.inf)], "entries": [["a", 1]]}, "theta must be a finite number, got inf"),
    ({"orbits": [dict(_ORBIT, action=math.inf)], "entries": [["a", 1]]}, "action must be a finite number, got inf"),
    ({"orbits": [dict(_ORBIT, action="1.5")], "entries": [["a", 1]]}, "action must be a finite number, got '1.5'"),
    # well-typed numbers that the orbit and curve structures refuse
    (dict(_CURVE, genus=-1), "genus must be nonnegative"),
    (dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [0], "c0": False}]),
     "end multiplicities must be positive at a"),
    ({"orbits": [_ORBIT], "entries": [["a", 0]]}, "multiplicity must be >= 1, got 0 at a"),
    ({"orbits": [dict(_ORBIT, kind="negative-hyperbolic", theta=[1, 3])], "entries": [["a", 1]]},
     "negative-hyperbolic orbit a needs half-integral rotation"),
    ({"orbits": [dict(_ORBIT, kind="foo")], "entries": [["a", 1]]}, "unknown orbit kind 'foo'"),
    (dict(_CURVE, positive_ends=[{"orbit": "a", "multiplicities": [], "c0": False}]),
     "ends record at a lists no end"),
])
def test_mistyped_number_fields_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["score", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_SEGMENT = {"lo": 0.0, "hi": 1.0, "terms": [[1.0, 0]]}


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "profile document must be a JSON object, got list"),
    ({"segments": 5}, "segments must be a JSON array, got int"),
    ({"segments": [5]}, "segment record must be a JSON object, got int"),
    ({"segments": [dict(_SEGMENT, lo="0")]}, "lo must be a finite number, got '0'"),
    ({"segments": [dict(_SEGMENT, terms=[[1.0, 0.5]])]},
     "terms entry must be a [coefficient, integer exponent] pair, got [1.0, 0.5]"),
    ({"type": "samples", "r": [0, 0.5, 1], "f": [math.nan, 1, 0]}, "f must be a finite number, got nan"),
    # well-typed documents that the profile constructors refuse
    ({"segments": [dict(_SEGMENT, hi=0.4), dict(_SEGMENT, lo=0.5)]}, "segments must be contiguous"),
    ({"type": "samples", "r": [0, 0.5, 0.9], "f": [1, 0.5, 0]}, "samples must span [0, 1]"),
    ({"type": "samples", "r": [0, 0.5, 0.5, 1], "f": [1, 0.5, 0.5, 0]}, "duplicate sample radius"),
])
def test_mistyped_profile_fields_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    assert main(["twist", "calabi", "--profile", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_number_beyond_the_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"segments": [dict(_SEGMENT, terms=[[1.0, -2000]])]}))
    assert main(["twist", "calabi", "--profile", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_values_are_parsed_like_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": "sqrt2", "kmax": "50", "formal": True, "tol": "1/2", "seed": 3}))
    assert main(["ellipsoid", "weyl", "--a", "1", "--b", "2", "--config", str(cfg)]) == 0
    config = json.loads(capsys.readouterr().out)["manifest"]["config"]
    assert (config["b"], config["kmax"], config["formal"], config["tol"]) == (math.sqrt(2), 50, True, [1, 2])
    assert config["seed"] == 3


def test_theta_takes_the_number_syntax(capsys):
    expected = {"1/3": ([["positive", "3"], ["negative", "3"]], 2),
                "2": ([["positive", "1 1 1"], ["negative", "1 1 1"]], 12),
                "0.3": ([["positive", "1 1 1"], ["negative", "3"]], 1),
                "pi": ([["positive", "1 1 1"], ["negative", "3"]], 19),
                "golden": ([["positive", "2 1"], ["negative", "3"]], 9)}
    for theta, (rows, cz) in expected.items():
        assert main(["partitions", "--theta", theta, "--m", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["tables"]["partitions"]["rows"], doc["manifest"]["cz_index"]) == (rows, cz), theta


def test_sampled_profile_passes_the_fubini_check(tmp_path, capsys):
    # adaptive quadrature without the breakpoints failed this profile's check
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"type": "samples", "r": [0, 0.1388, 0.6175, 1],
                                "f": [8.714, 2.095, 1.267, 0.0177]}))
    assert main(["twist", "calabi", "--profile", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_failed_checks_are_verdicts(tmp_path, capsys, monkeypatch):
    profile = os.path.join(os.path.dirname(__file__), os.pardir, "profiles", "linear_cal.json")
    closed_form = TwistProfile.calabi_closed_form
    monkeypatch.setattr(TwistProfile, "calabi_closed_form", lambda f: closed_form(f) * (1 + 1e-8))

    def miscalibrated(self, action_floor=0.0):
        raise pfh.CalibrationError("rank pattern failure: injected")

    monkeypatch.setattr(pfh.TwistComplex, "validate", miscalibrated)
    cases = [(["twist", "calabi"], "FubiniCheckError", "Fubini self-check failed: "),
             (["twist", "complex", "--d", "3"], "CalibrationError", "rank pattern failure: injected")]
    for argv, name, detail in cases:
        out = tmp_path / name
        assert main(argv + ["--profile", profile, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"[FAIL] {name}: {detail}" in err and "Traceback" not in err
        verdict = json.loads((out / "report.json").read_text())["verdicts"][name]
        assert not verdict["pass"] and verdict["detail"].startswith(detail)

    # only those two are verdicts: an unrelated arithmetic fault still propagates
    def broken(self, action_floor=0.0):
        raise ZeroDivisionError("unrelated")

    monkeypatch.setattr(pfh.TwistComplex, "validate", broken)
    with pytest.raises(ZeroDivisionError):
        main(["twist", "complex", "--profile", profile, "--d", "3"])


def test_return_map_reduces_the_rotation_once(capsys):
    # 2*pi*a/b is reduced mod 2*pi before the angle is added, so a huge rotation keeps its
    # residue; one that overflows the float range is refused
    for a, b in (("1e300", "1e-5"), ("1e17", "1")):
        assert main(["ellipsoid", "return-map", "--a", a, "--b", b]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["return_map_rotation"]["pass"]
        assert all(math.isfinite(row[3]) for row in doc["tables"]["return_map"]["rows"])
    assert main(["ellipsoid", "return-map", "--a", "1e308", "--b", "1"]) == 2
    assert capsys.readouterr().err == "error: return-map rotation 2*pi*a/b overflows the float range\n"


def test_tol_and_cap_only_on_the_subcommands_that_read_them(tmp_path, capsys):
    profile = os.path.join(os.path.dirname(__file__), os.pardir, "profiles", "linear_cal.json")
    required = {"ellipsoid": ["--a", "1", "--b", "sqrt2"], "twist": ["--profile", profile]}
    commands = [["ellipsoid", n] for n in ("census", "spectrum", "weyl", "return-map", "identity-check")]
    commands += [["twist", n] for n in ("calabi", "census", "complex", "cd", "axioms", "infinite")]
    commands += [["partitions", "--theta", "7/10", "--m", "2"], ["score", "--input", "x.json"],
                 ["tower", "--input", "x.json"], ["selftest"]]
    readers = {"--tol": [["ellipsoid", "weyl"]], "--cap": [["ellipsoid", "spectrum"], ["twist", "complex"]]}
    for flag, owners in readers.items():
        for argv in commands:
            if argv[:2] in owners:
                continue
            code = main(argv + required.get(argv[0], []) + [flag, "1"])
            err = capsys.readouterr().err
            assert code == 2 and "unrecognized arguments: " + flag in err, argv
    # the readers still take them, and a --config file overrides them like any flag
    assert main(["ellipsoid", "weyl", "--a", "1", "--b", "sqrt2", "--kmax", "2000", "--tol", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["config"]["tol"] == 0.05
    assert main(["twist", "complex", "--profile", profile, "--d", "3", "--cap", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["config"]["cap"] == 1000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 1000}))
    assert main(["twist", "complex", "--profile", profile, "--d", "14", "--cap", "10", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: generator cap 1000 exceeded")


def test_score_and_tower_commands(tmp_path, capsys):
    import random

    from echlab.orbits import (OrbitSet, curve_score, curve_to_json, is_ech_generator, k_invariant,
                               orbit_set_to_json, total_score, tower_to_json)
    from echlab.sampling import _draw_entries, orbit_pool, pool_entries, random_tower

    rng = random.Random(3)
    pool = orbit_pool(rng)
    sets = orbit_set_to_json(OrbitSet(_draw_entries(rng, pool_entries(pool))))
    spath = tmp_path / "set.json"
    spath.write_text(json.dumps(sets))
    assert main(["score", "--input", str(spath)]) == 0
    capsys.readouterr()

    tower = random_tower(rng, 12)
    tpath = tmp_path / "tower.json"
    tpath.write_text(json.dumps(tower_to_json(tower)))
    assert main(["tower", "--input", str(tpath), "--threshold", "1/2"]) == 0
    capsys.readouterr()

    # a curve document gets the curve row: its scores and whether both ends are generators
    curve = tower.curves[5]
    cpath = tmp_path / "curve.json"
    cpath.write_text(json.dumps(curve_to_json(curve)))
    assert main(["score", "--input", str(cpath)]) == 0
    table = json.loads(capsys.readouterr().out)["tables"]["score"]
    assert table["columns"] == ["object", "score", "total_score", "k_invariant", "is_generator"]
    assert table["rows"] == [["curve", curve_score(curve), total_score(curve), k_invariant(curve),
                              is_ech_generator(curve.alpha) and is_ech_generator(curve.beta)]]


def test_float_action_tower_telescopes_exactly(tmp_path, capsys):
    # a 50-curve tower with every orbit action perturbed as a float: float sums
    # broke the identity by a few ulps, and each float now enters as its exact
    # binary value
    import random
    from fractions import Fraction

    from echlab.orbits import tower_audit, tower_from_json, tower_to_json
    from echlab.sampling import random_tower

    exact = tower_to_json(random_tower(random.Random(0), 50))
    doc = json.loads(json.dumps(exact))
    rng = random.Random(1000)
    for o in doc["orbits"]:
        num, den = o["action"]
        o["action"] = num / den * (1 + rng.uniform(-1e-6, 1e-6))
    rep = tower_audit(tower_from_json(doc), 0.1)
    lhs, rhs = rep["action_telescoping"]["lhs"], rep["action_telescoping"]["rhs"]
    assert rep["action_telescoping_ok"] and type(lhs) is type(rhs) is Fraction and lhs == rhs

    # the CLI's verdicts and exit code on the float document are those of its
    # exact twin (both exit 1: the random curves include zero-action
    # non-cylinders of negative total score), and its table reads both
    # identities as holding
    runs = []
    for name, d in (("exact", exact), ("float", doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code = main(["tower", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        runs.append((code, out["verdicts"]))
    assert runs[1] == runs[0]
    table = out["tables"]["tower_audit"]
    assert table["columns"][1:3] == ["score_telescoping", "action_telescoping"]
    assert table["rows"][0][1:3] == [True, True]

    # written back, a float action is its exact [num, 2^k] pair
    again = tower_to_json(tower_from_json(doc))
    for o, before in zip(again["orbits"], doc["orbits"]):
        num, den = o["action"]
        assert Fraction(num, den) == before["action"] and den & (den - 1) == 0


def test_high_action_budget_is_exact(tmp_path, capsys):
    # seven curves {a: k+1} -> {a: k} of action just above the threshold 0.333...:
    # 7 * threshold <= the summed action, while the float budget read 6.999999999999999
    from fractions import Fraction

    from echlab.orbits import tower_audit, tower_from_json

    action = Fraction(0.3333333333333333) + Fraction(1, 10**30)
    doc = {"orbits": [{"label": "a", "action": [action.numerator, action.denominator], "theta": [1, 3],
                       "kind": "elliptic", "period": 1}],
           "curves": [{"genus": 0, "alpha": [["a", k + 1]], "beta": [["a", k]],
                       "positive_ends": [{"orbit": "a", "multiplicities": [1], "c0": True}],
                       "negative_ends": []} for k in range(7, 0, -1)]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    assert main(["tower", "--input", str(path), "--threshold", "0.3333333333333333"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert set(verdicts) == {"no_negative_low_action_noncylinder"}
    rep = tower_audit(tower_from_json(doc), 0.3333333333333333)
    assert rep["score_telescoping_ok"] and rep["action_telescoping_ok"]
    assert rep["high_action_count"] == 7 and rep["high_action_within_budget"]
    assert rep["high_action_budget"] < 7  # the float value, kept in the report


def test_commands_report_only_checks_that_can_fail(tmp_path, capsys):
    # a census, a spectrum, a Calabi value, a validated complex and a score are
    # reported as tables; a verdict that held by construction is gone
    profile = os.path.join(PROFILES, "linear_cal.json")
    spath = tmp_path / "set.json"
    spath.write_text(json.dumps({"orbits": [{"label": "a", "action": [1, 2], "theta": [1, 5], "kind": "elliptic"}],
                                 "entries": [["a", 2]]}))
    runs = [(["ellipsoid", "census", "--a", "1", "--b", "2"], set()),
            (["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2"], set()),
            (["twist", "calabi", "--profile", profile], set()),
            (["twist", "complex", "--profile", profile, "--d", "3"], set()),
            (["score", "--input", str(spath)], set()),
            (["partitions", "--theta", "1", "--m", "4"], set()),
            (["partitions", "--theta", "1/5", "--m", "4"], {"partition_properties"})]
    for argv, verdicts in runs:
        assert main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["verdicts"]) == verdicts and doc["tables"], argv


def test_selftest_deterministic(tmp_path):
    b1 = run(RunConfig("selftest", {}, seed=11))
    b2 = run(RunConfig("selftest", {}, seed=11))
    assert b1.to_json() == b2.to_json()
    assert b1.all_pass
    d1, d2 = tmp_path / "one", tmp_path / "two"
    b1.write(str(d1), ("csv", "json", "svg"))
    b2.write(str(d2), ("csv", "json", "svg"))
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_config_file_merges_params(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2}))
    code = main(["partitions", "--theta", "7/10", "--m", "4", "--config", str(cfg)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["config"]["m"] == 2  # config file overrides the flag
    assert code == 0


def test_svg_emission():
    t = Table(("x", "y"), [(1, 2.0), (2, 1.0), (3, 4.0)])
    svg = emit_svg(t, "x", "y", "demo")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg and ">demo</text>" in svg
    # a missing column or a non-numeric cell raises where it is read
    for table, x in ((t, "z"), (Table(("x", "y"), [("a", 1.0)]), "x")):
        with pytest.raises(ValueError):
            emit_svg(table, x, "y", "demo")


def test_svg_log_axes():
    t = Table(("k", "dev"), [(10, 0.1), (100, 0.01), (1000, 0.001)])
    svg = emit_svg(t, "k", "dev", "deviation", logy=True)
    assert svg.count("polyline") == 1


def test_infinite_values_are_strict_json(capsys):
    # a divergent Calabi value is reported as the string "inf", not the non-JSON token Infinity
    assert main(["twist", "calabi", "--profile", os.path.join(PROFILES, "cubic_singular.json")]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["tables"]["calabi"]["rows"] == [["inf", "inf"]]


def test_twist_census_runs_at_d4_by_default(capsys):
    profile = os.path.join(PROFILES, "linear_cal.json")
    assert main(["twist", "census", "--profile", profile]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["manifest"]["config"]["d"] == 4
    with open(profile) as fh:
        levels = periodic_census(TwistProfile.from_json(json.load(fh)), 4)
    assert [row[:2] for row in doc["tables"]["twist_census"]["rows"]] == [[c.p, c.q] for c in levels]
    # a direct run fills in the same defaults as the command line
    assert run(RunConfig("twist.census", {"profile": profile})).to_json() == out


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    argv = ["partitions", "--theta", "1/3", "--m", "2"]
    assert main(argv) == 0 and main(argv) == 0
    assert cli.build_parser.cache_info().misses == 1
    # and not at import, so importing echlab.cli does not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = f"import sys; sys.path.insert(0, {src!r}); import echlab.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
