"""Every output the tests pin, computed in one place and recorded in ``tests/pins.json``.

``PINS`` maps each key of the file to the zero-argument function that computes
it, and ``main`` prints ``{key: fn()}`` as sorted, indented JSON: the file's
exact content.  A re-pin is one command from the root of the checkout, and
CHANGES.md names each value it changed and why:

    PYTHONPATH=src python tests/interpreter_pins.py > tests/pins.json

Stdlib only, so it runs under any Python 3.10-3.13 that starts; test_tooling
compares each such interpreter's output with the file, byte for byte.  The
keys: ``selftest_sha256`` (the selftest bundle at seed 20260809, also
``perfbench/expected.json``'s ``sweep.selftest_sha256``), ``tower_stream_sha256``
and ``tower_audit_sha256`` (``random_tower(Random(31415), 1000)`` and its
audit at threshold 1/2), ``complex_stream_sha256`` (the criterion-10
complexes at d = 1..9), ``spectral_cd`` (their c_d at d = 1..8, as reprs),
``infinite_twist_svg_sha256`` (the ``twist infinite`` plot's text, the bytes
``--format svg`` writes) and ``flag_error`` (the exit code and error line of
``--flag=--``).

Three hashing schemes, kept so that no recorded value changes: ``sha256``,
compact sorted JSON with ``default=str``, is how ``perfbench/workloads.py``
hashes the selftest bundle and criterion 8's audits; the tower stream is one
sorted JSON document with the default separators, as first recorded; the
complex stream feeds one sorted JSON document per complex into one running
digest.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

from echlab import cli, pfh, twist
from echlab.orbits import tower_audit, tower_to_json
from echlab.sampling import random_tower

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_FILE = os.path.join(HERE, "pins.json")
TWO_PI = 2 * math.pi

# the five profiles of acceptance criterion 10; perfbench/workloads.py keeps its own copy
CRITERION_10_PROFILES = [
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


def tower_stream_sha256() -> str:
    t = random_tower(random.Random(31415), 1000)
    return hashlib.sha256(json.dumps(tower_to_json(t), sort_keys=True).encode()).hexdigest()


def tower_audit_sha256() -> str:
    return sha256(tower_audit(random_tower(random.Random(31415), 1000), Fraction(1, 2)))


def complex_stream_sha256() -> str:
    # each generator is written as [edges, reference width], its edges as (p, q, mult, h):
    # the form it had when the digest was recorded
    digest = hashlib.sha256()
    for f in CRITERION_10_PROFILES:
        for d in range(1, 10):
            cx = pfh.build_complex(f, d)
            lv = cx.levels
            split = [(g[:-1], g[-1][1]) if g[-1][0] == cx.ref_id else (g, 0) for g in cx.generators]
            doc = {
                "generators": [[[(lv[i].p, lv[i].q, m, h) for i, m, h in edges], ref] for edges, ref in split],
                "gradings": cx.gradings,
                "actions": [repr(a) for a in cx.actions],
                "boundaries": cx.boundaries(),
                "births": [[g, repr(b)] for g, b in sorted(cx.persistence_birth_actions().items())],
            }
            digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()


def spectral_cd() -> dict:
    return {f.name: [repr(pfh.spectral_invariant_cd(f, d, validate=True)) for d in range(1, 9)]
            for f in CRITERION_10_PROFILES}


def infinite_twist_svg_sha256() -> str:
    profile = os.path.join(HERE, os.pardir, "profiles", "cubic_singular.json")
    b = cli.run(cli.RunConfig("twist.infinite", {"profile": profile, "imax": 4, "dmax": 8}))
    return hashlib.sha256(b.plots["infinite_twist"].encode()).hexdigest()


def flag_error() -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["ellipsoid", "census", "--a", "1", "--b", "2", "--L=--"])
    return f"{code} {err.getvalue()}"


PINS = {fn.__name__: fn for fn in (selftest_sha256, tower_stream_sha256, tower_audit_sha256,
                                   complex_stream_sha256, spectral_cd, infinite_twist_svg_sha256,
                                   flag_error)}


def main():
    print(json.dumps({name: fn() for name, fn in PINS.items()}, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
