"""The benchmark's workloads and traced run use echlab names that must keep
existing, every output pinned in tests/pins.json must hold on every supported Python,
the CLI's verdicts must be checks that can fail, every public name must have
a reader, the two strands of the library load apart from each other, and
what the README names exists in the code."""

import ast
import glob
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
import types

import pytest

import echlab
import interpreter_pins
from echlab import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")
with open(interpreter_pins.PINS_FILE) as fh:
    PINNED = json.load(fh)


def test_traced_boundaries_resolve():
    # perfbench/run.py --trace wraps each (module or class, attribute) pair
    # in spans.BOUNDARIES; a refactor that drops one breaks the traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for targets in spans.BOUNDARIES.values()
               for owner, attr in targets if not hasattr(owner, attr)]
    assert spans.BOUNDARIES and not missing


def test_workload_names_resolve():
    # perfbench/workloads.py calls echlab through module attributes
    # (pfh.spectral_invariant_cd, rotations.Rotation.real, ...); a refactor
    # that drops one makes the benchmark run fail
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "echlab" for alias in node.names}
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add((node.id, *attrs))
    missing = []
    for root, *attrs in chains:
        owner = importlib.import_module(f"echlab.{modules[root]}")
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(".".join((root, *attrs)))
                break
            owner = getattr(owner, attr)
    assert {("pfh", "spectral_invariant_cd"), ("rotations", "Rotation", "real")} <= chains
    assert not missing, missing


@pytest.mark.parametrize("oracle", ["scipy", "numpy"])
def test_importing_echlab_loads_no_oracle(oracle):
    # scipy and numpy are test-only oracles: no echlab module may import either, at any depth
    import echlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(echlab.__file__)))
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import echlab\n"
        "names = [m.name for m in pkgutil.walk_packages(echlab.__path__, 'echlab.')]\n"
        "assert 'echlab.cli' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in sys.modules if m == {oracle!r} or m.startswith({oracle + '.'!r})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize("key", sorted(set(interpreter_pins.PINS) | set(PINNED)))
def test_pinned_output(key):
    # every value a test pins is recorded in tests/pins.json; a re-pin rewrites
    # the file with interpreter_pins.py, and a key on one side only is stale
    assert key in PINNED, f"{key} is not recorded in tests/pins.json"
    assert key in interpreter_pins.PINS, f"tests/pins.json records {key}, which nothing computes"
    assert interpreter_pins.PINS[key]() == PINNED[key], key


def test_selftest_bundle_matches_the_benchmark_digest():
    # the sweep workload hashes the selftest bundle; its record and the tests' cannot drift apart
    with open(os.path.join(PERFBENCH, "expected.json")) as fh:
        assert PINNED["selftest_sha256"] == json.load(fh)["sweep"]["selftest_sha256"]


def test_no_digest_literal_in_test_code():
    # a pinned digest lives in tests/pins.json, where one command re-records it
    literals = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))):
        with open(path) as fh:
            literals += [f"{os.path.basename(path)}:{n}" for n, line in enumerate(fh, 1)
                         if re.search("[0-9a-fA-F]{64}", line)]
    assert not literals, literals


def _other_interpreters() -> dict:
    """Each Python 3.10-3.13 but this one that starts, by version: python3.1x on
    PATH, or an install beside this interpreter's own."""
    found = {}
    for minor in range(10, 14):
        if minor == sys.version_info.minor:
            continue
        name = f"python3.{minor}"
        beside = glob.glob(os.path.join(os.path.dirname(sys.base_prefix), "*", "bin", name))
        for exe in filter(None, [shutil.which(name), *sorted(beside)]):
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version.split()[0])"],
                                   capture_output=True, text=True)
            if probe.returncode == 0 and probe.stdout.startswith(f"3.{minor}."):
                found[probe.stdout.strip()] = exe
                break
    return found


def test_pins_are_the_same_bytes_on_every_interpreter_that_starts():
    # float sum() is compensated from Python 3.12 on, and argparse reads
    # "--flag=--" three ways across 3.10-3.13; echlab's output may depend on neither
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10-3.13 interpreter starts here")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    procs = {version: subprocess.Popen([exe, interpreter_pins.__file__], env=env, text=True,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for version, exe in others.items()}
    with open(interpreter_pins.PINS_FILE) as fh:
        want = fh.read()
    for version, proc in procs.items():
        out, err = proc.communicate()
        assert out == want, (version, err)


def test_the_version_has_one_source():
    # pyproject.toml reads the version from echlab.__version__, so a bump cannot leave a stale copy
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "echlab.__version__"}


def test_command_verdicts_are_not_constants():
    # a verdict whose pass flag is a literal checks nothing.  Selftest keeps its
    # two literals, twist_complex_valid and product_of_periods, as the benchmark
    # pins its bundle; run's failed-check verdict is not a handler's and exists
    # only when a check raised
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    handlers = {handler.__name__ for handler, _ in cli.COMMANDS.values()} - {"_selftest"}
    seen, constant = set(), []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in handlers):
            continue
        seen.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_verdict":
                if isinstance(node.args[1], ast.Constant):  # (name, passed, ...)
                    constant.append(f"{fn.name}:{node.lineno}")
    assert seen == handlers and len(handlers) == len(cli.COMMANDS) - 1
    assert not constant, constant


# public names read only by tests, each with the test that builds a fixture from it
READ_BY_TESTS_ONLY = {
    "orbit_set_to_json": "tests/test_cli.py::test_score_and_tower_commands",
    "curve_to_json": "tests/test_cli.py::test_score_and_tower_commands",
    "power_profile": "tests/test_pfh.py::test_infinite_twist_experiment_structure",
}


def test_public_names_have_a_reader():
    # a public top-level function or class of src/echlab that neither echlab
    # nor perfbench reads, and no listed test needs, is dead surface
    src = os.path.join(ROOT, "src", "echlab")
    modules = [os.path.join(src, name) for name in sorted(os.listdir(src)) if name.endswith(".py")]
    modules += [os.path.join(PERFBENCH, name) for name in sorted(os.listdir(PERFBENCH)) if name.endswith(".py")]
    public, read = {}, set()
    for path in modules:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if os.path.dirname(path) == src:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    public[node.name] = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert {"tower_audit", "build_complex"} <= set(public)
    unread = sorted(f"{module}:{name}" for name, module in public.items()
                    if name not in read and name not in READ_BY_TESTS_ONLY)
    assert not unread, unread
    assert set(READ_BY_TESTS_ONLY) <= set(public) - read  # an entry that gains a reader leaves the list


@pytest.mark.parametrize("module, banned", [
    ("reporting", None),  # a leaf: it loads no other echlab module
    ("twist", {"echlab.orbits", "echlab.rotations"}),
    ("pfh", {"echlab.orbits", "echlab.rotations"}),
], ids=["reporting", "twist", "pfh"])
def test_the_twist_strand_loads_apart_from_the_orbit_strand(module, banned):
    # the disk-twist / PFH modules share only the JSON field checks with the
    # Reeb-orbit modules, and those live in reporting, which imports neither
    src = os.path.join(ROOT, "src")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"importlib.import_module('echlab.{module}')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('echlab.'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert f"echlab.{module}" in loaded
    if banned is None:
        assert loaded == {f"echlab.{module}"}, loaded
    else:
        assert not loaded & banned, loaded


def test_no_module_imports_another_modules_private_name():
    # a private helper is its module's own; one that another module needs is
    # public API and gets a public name (tests, and tests/oracles.py, may
    # reach into private names)
    src = os.path.join(ROOT, "src", "echlab")
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")}
    private = []
    for name in sorted(modules):
        with open(os.path.join(src, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        aliases = {}  # local name -> echlab module, from "from . import twist as tw"
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("echlab"):
                continue
            package = node.module in (None, "echlab")  # "from . import twist", "from echlab import twist"
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    private.append(f"{name}: from {node.module or '.'} import {alias.name}")
                if package and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                private.append(f"{name}: {node.value.id}.{node.attr}")
    assert not private, private


# --flags the README shows that are not echlab's: pip's, and the form "--flag=--"
# that the parser refuses
README_FOREIGN_FLAGS = {"no-build-isolation", "flag"}
# names in backticks that look dotted but are files a run writes, not repository paths
README_OUTPUT_FILES = {"report.json"}


_MISSING = object()


def _has_attribute(owners, dotted: str) -> bool:
    """Whether one of ``owners`` has the attribute chain ``dotted``."""
    for obj in owners:
        for attr in dotted.split("."):
            obj = getattr(obj, attr, _MISSING)
        if obj is not _MISSING:
            return True
    return False


def test_readme_names_resolve():
    # the README is an index of the code: a name, file, flag, verdict or command
    # line it shows that the code lacks fails here
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    fenced = re.findall(r"^```\w*\n(.*?)^```", text, flags=re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    modules = {m.name: importlib.import_module(f"echlab.{m.name}")
               for m in pkgutil.iter_modules(echlab.__path__) if not m.name.startswith("_")}
    classes = {m: [c for c in vars(mod).values() if isinstance(c, type) and c.__module__ == mod.__name__]
               for m, mod in modules.items()}
    roots = types.SimpleNamespace(echlab=echlab, **modules, **{c.__name__: c for cs in classes.values() for c in cs})
    bad = []

    # (a) dotted names resolve, and each path (and test named by its node id) exists
    for span in re.findall(r"`([^`\n]+)`", prose):
        path = re.fullmatch(r"([\w./-]+\.(?:py|json|toml|md))(?:::(\w+))?", span)
        if path and span not in README_OUTPUT_FILES:
            file = os.path.join(ROOT, path[1])
            if not os.path.isfile(file):
                bad.append(f"no file {span}")
            elif path[2]:
                with open(file) as fh:
                    if not re.search(rf"^def {path[2]}\(", fh.read(), re.M):
                        bad.append(f"no test {span}")
        elif not path and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span) and not _has_attribute([roots], span):
            bad.append(f"unresolved {span}")

    # (b) each layout row names attributes of its module, or of a class defined in it
    rows = re.findall(r"^\| `echlab\.(\w+)` \|(.*)$", text, flags=re.M)
    assert {name for name, _ in rows} == set(modules)
    for name, row in rows:
        for span in re.findall(r"`([A-Za-z_][\w.]*)`", row):
            if not _has_attribute([modules[name], *classes[name]], span):
                bad.append(f"echlab.{name} row: no {span}")

    # (c) the verdict table lists exactly the verdict names that cli.py's handlers add
    table = re.search(r"^\| subcommand \| verdict \| passes when \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, flags=re.M)
    documented = set()
    for command, verdicts in re.findall(r"^\|([^|]*)\|([^|]*)\|", table[1], flags=re.M):
        documented |= set(re.findall(r"`(\w+)`", verdicts))
        if command.strip() and command.strip(" `").replace(" ", ".") not in cli.COMMANDS:
            bad.append(f"verdict table: no command {command}")
    with open(cli.__file__) as fh:
        added = {node.args[0].value for node in ast.walk(ast.parse(fh.read()))
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_verdict"
                 and isinstance(node.args[0], ast.Constant)}
    bad += [f"verdict {v} is not in the table" for v in sorted(added - documented)]
    bad += [f"verdict {v} is not added by cli.py" for v in sorted(documented - added)]

    # (d) every --flag is a flag of some command, a common flag, or a listed foreign one
    shown = set(re.findall(r"--([A-Za-z][\w-]*)", text))
    flags = {flag for _, spec in cli.COMMANDS.values() for flag, _, _ in spec} | {"seed", "out", "format", "config"}
    bad += [f"no flag --{flag}" for flag in sorted(shown - flags - README_FOREIGN_FLAGS)]
    assert README_FOREIGN_FLAGS <= shown, "a foreign flag the README no longer shows leaves the list"

    # (e) the command block parses (and is not run), one line per command at least
    parsed = set()
    for line in (line for block in fenced for line in block.splitlines() if line.startswith("echlab ")):
        try:
            parsed.add(cli.build_parser().parse_args(shlex.split(line)[1:]).command)
        except cli.UsageError as ex:
            bad.append(f"{line!r}: {ex}")
    bad += [f"no command line for {c}" for c in sorted(set(cli.COMMANDS) - parsed)]
    assert not bad, bad
