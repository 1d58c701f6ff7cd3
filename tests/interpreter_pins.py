"""Print, as one JSON object, the values that must be the same bytes on every supported Python.

Stdlib only, so it runs under any interpreter that starts, with the
checkout's ``src`` on the path:

    PYTHONPATH=src python3.12 tests/interpreter_pins.py

It computes the selftest bundle's digest (hashed as perfbench/workloads.py
hashes it), c_d of the five criterion-10 profiles at d <= 8, the digests
that test_random_tower_stream_pinned and test_complex_stream_pinned pin, the
digest of that tower's audit at threshold 1/2 (hashed like the selftest
bundle), and the error line of a ``--flag=--`` argument.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from echlab import cli, pfh, twist
from echlab.orbits import tower_audit, tower_to_json
from echlab.sampling import random_tower

TWO_PI = 2 * math.pi


def criterion10_profiles():
    return [
        twist.linear_profile(0.73 * TWO_PI, support_end=0.9, name="lin073"),
        twist.linear_profile(0.41 * TWO_PI, support_end=0.85, name="lin041"),
        twist.linear_profile(1.37 * TWO_PI, support_end=0.9, name="lin137"),
        twist.profile_from_samples([0.0, 0.3, 0.6, 0.85, 1.0], [5.9, 4.1, 1.7, 0.0, 0.0], name="sampled"),
        twist.linear_profile(1.81 * TWO_PI, support_end=0.88, name="lin181"),
    ]


def sha256(obj) -> str:
    """The digest of ``obj`` as perfbench/workloads.py's ``_sha256`` takes it."""
    text = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def selftest_sha256() -> str:
    b = cli.run(cli.RunConfig("selftest", {}, seed=20260809))
    return sha256([b.to_json(), {name: t.to_csv() for name, t in b.tables.items()}, b.plots])


def tower_stream_sha256(t) -> str:
    return hashlib.sha256(json.dumps(tower_to_json(t), sort_keys=True).encode()).hexdigest()


def complex_stream_sha256(profiles) -> str:
    digest = hashlib.sha256()
    for f in profiles:
        for d in range(1, 10):
            cx = pfh.build_complex(f, d)
            lv = cx.levels
            doc = {
                "generators": [[[(lv[i].p, lv[i].q, m, h) for i, m, h in edges], ref]
                               for edges, ref in cx.generators],
                "gradings": cx.gradings,
                "actions": [repr(a) for a in cx.actions],
                "boundaries": cx.boundaries(),
                "births": [[g, repr(b)] for g, b in sorted(cx.persistence_birth_actions().items())],
            }
            digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()


def flag_error_line() -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["ellipsoid", "census", "--a", "1", "--b", "2", "--L=--"])
    return f"{code} {err.getvalue()}"


def main():
    profiles = criterion10_profiles()
    tower = random_tower(random.Random(31415), 1000)
    print(json.dumps({
        "selftest_sha256": selftest_sha256(),
        "spectral_cd": {f.name: [repr(pfh.spectral_invariant_cd(f, d, validate=True)) for d in range(1, 9)]
                        for f in profiles},
        "tower_stream_sha256": tower_stream_sha256(tower),
        "tower_audit_sha256": sha256(tower_audit(tower, Fraction(1, 2))),
        "complex_stream_sha256": complex_stream_sha256(profiles),
        "flag_error": flag_error_line(),
    }, sort_keys=True))


if __name__ == "__main__":
    main()
