"""Fuzz the command line's exit contract: every input ends in exit 0, 1 or 2.

Malformed documents are valid ones with one value replaced by arbitrary
JSON; malformed numbers are short strings over the number syntax's
alphabet.  Each run calls ``cli.main`` in-process, so an exception that
escapes it fails the test with its traceback.
"""

import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echlab import cli
from echlab.cli import main

PROFILE = os.path.join(os.path.dirname(__file__), os.pardir, "profiles", "linear_cal.json")

_ORBITS = [{"label": "a", "action": [1, 2], "theta": [1, 5], "kind": "elliptic", "period": 1},
           {"label": "b", "action": 0.25, "theta": 0.5, "kind": "negative-hyperbolic"}]
_CURVE = {"genus": 0, "c_tau": 0, "alpha": [["a", 2]], "beta": [["b", 1]],
          "positive_ends": [{"orbit": "a", "multiplicities": [2], "c0": False}],
          "negative_ends": [{"orbit": "b", "multiplicities": [1], "c0": False}]}
with open(PROFILE) as _fh:
    _PIECEWISE = json.load(_fh)

# (argv before the file argument, flag that takes the file, valid document)
DOCUMENTS = [
    (["twist", "calabi"], "--profile", _PIECEWISE),
    (["twist", "calabi"], "--profile", {"type": "samples", "r": [0, 0.5, 1], "f": [2.0, 1.0, 0.0]}),
    (["score"], "--input", {"orbits": _ORBITS, "entries": [["a", 2], ["b", 1]]}),
    (["score"], "--input", dict(_CURVE, orbits=_ORBITS)),
    (["tower", "--threshold", "1/2"], "--input", {"orbits": _ORBITS, "curves": [_CURVE]}),
    (["partitions", "--theta", "1/3", "--m", "2"], "--config", {"theta": "2/5", "m": 3}),
    (["ellipsoid", "census", "--a", "1", "--b", "2"], "--config", {"a": 1, "b": "sqrt2", "L": 10}),
]

DELETE = object()

# small integers keep every well-formed mutant cheap to run (a multiplicity
# or a partition width is a loop bound)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

number_texts = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "sqrtinf", "sqrt-1", "1/0", "1/2/3", "0.5/2",
                     "", " ", "pi", "golden", "e", "sqrt", "1e-300", "-0", "--1", "1_0"]),
    st.text(alphabet="0123456789+-./eEinfatsqrpgoldn_ ", max_size=8),
)

# (argv with {} where the number goes and {tower} for a valid tower file);
# each is cheap for every finite value
NUMBER_FLAGS = [
    ["ellipsoid", "census", "--a={}", "--b", "sqrt2"],
    ["ellipsoid", "census", "--a", "1", "--b={}"],
    ["ellipsoid", "census", "--a", "1", "--b", "2", "--L={}"],
    ["ellipsoid", "spectrum", "--a", "1", "--b", "sqrt2", "--L={}", "--cap", "1000"],
    ["ellipsoid", "weyl", "--a", "1", "--b", "sqrt2", "--kmax", "50", "--tol={}"],
    ["partitions", "--theta={}", "--m", "3"],
    ["tower", "--input", "{tower}", "--threshold={}"],
]


def _paths(doc, path=()):
    """Every position in a JSON document, as the key path from its root."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted when value is DELETE."""
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    if len(path) == 1 and value is DELETE:
        del copy[path[0]]
    else:
        copy[path[0]] = _replaced(doc[path[0]], path[1:], value) if len(path) > 1 else value
    return copy


def _assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_documents_keep_the_exit_contract(tmp_path, capsys, data):
    prefix, flag, doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(json_values | st.just(DELETE)) if path else data.draw(json_values)
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(_replaced(doc, path, value) if path else value))
    code = main(prefix + [flag, str(target)])
    _assert_contract(code, capsys.readouterr().err)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(NUMBER_FLAGS), number_texts)
def test_malformed_numbers_keep_the_exit_contract(tmp_path, capsys, argv, text):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"orbits": _ORBITS, "curves": [_CURVE]}))
    code = main([a.format(text, tower=tower) for a in argv])
    _assert_contract(code, capsys.readouterr().err)


def test_every_number_flag_is_fuzzed():
    # a flag the command table parses with parse_number must have a NUMBER_FLAGS entry
    fuzzed = {a.split("=")[0] for argv in NUMBER_FLAGS for a in argv if a.endswith("={}")}
    typed = {f"--{name}" for _, flags in cli.COMMANDS.values() for name, kind, _ in flags if kind is cli.parse_number}
    assert typed and typed <= fuzzed, typed - fuzzed
