"""The benchmark's traced run wraps echlab names that must keep existing."""

import importlib.util
import os

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
