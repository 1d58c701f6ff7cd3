"""Write perfbench/expected.json from one pass of each workload at its default seed.

Usage (from the root of a checkout): python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known good: the benchmark counts
every later difference from these values as a failed check.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    for name, (prepare, run) in workloads.WORKLOADS.items():
        checks = workloads.Checks()
        recorded[name] = run(prepare(workloads.DEFAULT_SEEDS[name]), checks)
        if checks.failed:
            print(f"{name}: {checks.failed} checks failed: {checks.failures}", file=sys.stderr)
            return 1
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
