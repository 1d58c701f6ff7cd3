"""Run one echlab benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload towers|complex|sweep \
        [--seed N] [--seconds S] [--trace 0|1]

Each pass over the workload's job list runs in a fresh interpreter
(perfbench/worker.py), so process-wide caches start cold as they do on a
command-line call, with BLAS/OpenMP pools pinned to one thread and
ECHLAB_CACHE_DIR unset.  A few set-up-only passes come first; then full
passes repeat until --seconds have elapsed, and every metric is the median
over passes.  With --trace 0 the end-to-end metrics are printed.  With
--trace 1 untraced and traced passes alternate, and the per-layer metrics of
the traced passes are printed with the tracing overhead.  The last line of
standard output is one JSON object; the lines before it give the environment
and every metric with its unit and sample count.  Full records and spans go
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0
# Set-up-only passes per untraced run, on top of the set-up of each full pass:
# set-up is about 1 s, and one sample per pass leaves its median too noisy.
SETUP_PROBES = 3

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ECHLAB_CACHE_DIR", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: str, mode: str, env: dict, deadline: float, spans_path: str = "-") -> dict:
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, seed, mode, repr(spawned), spans_path],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: a {workload} pass did not finish within the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: a {workload} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["echlab_file"]).resolve().parent != ROOT / "src" / "echlab":
        sys.exit(f"perfbench: imported echlab from {result['echlab_file']}, not from this checkout")
    return result


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "echlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("towers", "complex", "sweep"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; default 31415 for towers, 123456 for sweep")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "echlab" / "__init__.py").is_file():
        print(f"perfbench: no echlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    seed = "default" if args.seed is None else str(args.seed)
    OUT.mkdir(exist_ok=True)

    plain, traced = [], []
    probes = [] if args.trace else [run_pass(args.workload, seed, "setup", env, deadline)
                                     for _ in range(SETUP_PROBES)]
    measuring = time.monotonic()
    while not plain or (args.trace and not traced) or time.monotonic() - measuring < args.seconds:
        if args.trace and len(traced) < len(plain):
            spans_path = OUT / f"spans-{args.workload}-seed{seed}-pass{len(plain) + len(traced)}.jsonl"
            traced.append(run_pass(args.workload, seed, "traced", env, deadline, str(spans_path)))
        else:
            plain.append(run_pass(args.workload, seed, "plain", env, deadline))
    passes = plain + traced

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = passes[0]
    environment = {
        "python": first["versions"]["python"], "numpy": first["versions"]["numpy"],
        "scipy": first["versions"]["scipy"], "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        **source_revision(), "workload": args.workload, "seed": first["seed"],
        "seconds": args.seconds, "trace": args.trace,
        "threads": {var: env[var] for var in THREAD_VARS}, "PYTHONHASHSEED": env["PYTHONHASHSEED"],
    }

    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        values["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                         / statistics.median(p["wall_s"] for p in plain) - 1.0)
        samples = {name: len(traced) for name in values}
    else:
        values = {name: statistics.median(p[name] for p in plain) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes + plain)
        samples = {name: len(plain) for name in values}
        samples["setup_s"] = len(probes) + len(plain)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != values.keys():
        sys.exit(f"perfbench: measured metrics differ from BENCHMARK.json: {sorted(units.keys() ^ values.keys())}")
    metrics = {name: (values[name], units[name]) for name in units}

    print("env " + json.dumps(environment, sort_keys=True))
    for p in passes:
        for name in p["failures"]:
            print(f"check failed: {name}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit} (median of {samples[name]} samples)")

    record = {"environment": environment, "passes": passes, "setup_probes": probes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
