"""The benchmark's traced run wraps echlab names that must keep existing."""

import importlib.util
import os
import subprocess
import sys

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


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
