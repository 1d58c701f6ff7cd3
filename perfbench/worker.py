"""One pass of one workload, in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED SPANS_PATH

SEED is an integer or ``default``.  SPAWNED is the parent's
``time.monotonic()`` just before it started this process; the monotonic
clock is system-wide on Linux, so set-up time counts interpreter start,
imports and input construction up to the first timed call.  MODE is
``plain`` for an untraced pass, ``traced`` to wrap the echlab boundaries
before the pass and write the spans to SPANS_PATH after it (other modes
ignore SPANS_PATH), or ``setup`` to
stop at the first timed call and report only the set-up time.
"""

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import echlab
import spans
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def compare_expected(workload: str, seed: int, observed: dict, checks) -> None:
    """Check observed values against those recorded in expected.json."""
    expected = json.loads(EXPECTED.read_text())[workload]
    for key, want in expected.items():
        if key not in workloads.SEED_INDEPENDENT and seed != workloads.DEFAULT_SEEDS[workload]:
            continue
        got = observed.get(key)
        if key == "spectral_cd":
            ok = got is not None and got.keys() == want.keys() and all(
                len(got[k]) == len(want[k])
                and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got[k], want[k]))
                for k in want)
        else:
            ok = got == want
        checks.check(f"{key} matches expected.json", ok)


def main(argv):
    workload, seed_arg, mode, spawned, spans_path = argv[0], argv[1], argv[2], float(argv[3]), argv[4]
    seed = workloads.DEFAULT_SEEDS[workload] if seed_arg == "default" else int(seed_arg)
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()

    prepare, run = workloads.WORKLOADS[workload]
    inputs = prepare(seed)
    checks = workloads.Checks()

    start = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_s": start - spawned, "echlab_file": echlab.__file__}))
        return
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    observed = run(inputs, checks)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    end = time.monotonic()
    compare_expected(workload, seed, observed, checks)

    result = {
        "seed": seed,
        "setup_s": start - spawned,
        "wall_s": end - start,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "observed": observed,
        "echlab_file": echlab.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "echlab": echlab.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
