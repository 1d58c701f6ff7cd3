"""The job list of each benchmark workload, with its output checks.

Every job calls echlab through module attributes (``sampling.random_tower``,
not a name imported into this file), so the traced run can wrap those
attributes without this file knowing about tracing.

Each workload is a pair: ``prepare(seed)`` builds the inputs before the first
timed call, and ``run(inputs, checks)`` is the timed pass.  ``run`` counts its
output checks in ``checks`` and returns the values that ``expected.json``
records.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from echlab import cli, ellipsoid, orbits, pfh, rotations, sampling, twist

TWO_PI = 2 * math.pi
SQRT2 = math.sqrt(2)

DEFAULT_SEEDS = {"towers": 31415, "complex": 0, "sweep": 123456}

COMPLEX_DEGREES = range(1, 12)
SPECTRAL_CD_DEGREES = range(1, 9)
SELFTEST_SEED = 20260809


class Checks:
    """Counts output checks attempted and failed; remembers the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    @contextmanager
    def guard(self, name: str):
        """Count an exception out of a job as a failed check and go on with the pass."""
        try:
            yield
        except Exception as exc:
            self.check(f"{name} raised {type(exc).__name__}: {exc}", False)


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def criterion10_profiles():
    """The five profiles of acceptance criterion 10."""
    return [
        twist.linear_profile(0.73 * TWO_PI, support_end=0.9, name="lin073"),
        twist.linear_profile(0.41 * TWO_PI, support_end=0.85, name="lin041"),
        twist.linear_profile(1.37 * TWO_PI, support_end=0.9, name="lin137"),
        twist.profile_from_samples([0.0, 0.3, 0.6, 0.85, 1.0], [5.9, 4.1, 1.7, 0.0, 0.0], name="sampled"),
        twist.linear_profile(1.81 * TWO_PI, support_end=0.88, name="lin181"),
    ]


# -- towers: exact Fraction bookkeeping, repeated partition keys ---------------


def prepare_towers(seed: int):
    return random.Random(seed)


def run_towers(rng: random.Random, checks: Checks) -> dict:
    towers = []
    for i in range(100):
        with checks.guard(f"random_tower {i}"):
            towers.append(sampling.random_tower(rng, 1000))
    reports = []
    for i, t in enumerate(towers):
        with checks.guard(f"tower_audit {i}"):
            rep = orbits.tower_audit(t, Fraction(1, 2))
            checks.check(f"tower {i} score telescoping", rep["score_telescoping_ok"])
            checks.check(f"tower {i} action telescoping", rep["action_telescoping_ok"])
            reports.append(rep)
    # tower_to_json costs half as much as generation, so every tenth tower
    # stands for the random stream; the audit digest covers all of them.
    return {
        "tower_json_sha256": _sha256([orbits.tower_to_json(t) for t in towers[::10]]),
        "audit_sha256": _sha256(reports),
    }


# -- complex: the chain-complex path at large degree ---------------------------


def prepare_complex(seed: int):
    return criterion10_profiles()


def run_complex(profiles, checks: Checks) -> dict:
    generators = {}
    for f in profiles:
        counts = []
        for d in COMPLEX_DEGREES:
            with checks.guard(f"{f.name} d={d}"):
                cx = pfh.build_complex(f, d)
                cx.boundaries()
                rep = cx.validate()
                births = cx.persistence_birth_actions()
                checks.check(f"{f.name} d={d} unique class", rep["class_count"] == 1)
                checks.check(f"{f.name} d={d} persistence class", sorted(births) == rep["homology_gradings"])
                counts.append(rep["generators"])
        generators[f.name] = counts
    return {"generators": generators}


# -- sweep: every layer again, on cold keys and small instances ---------------


def prepare_sweep(seed: int):
    rng = random.Random(seed)
    irrationals = [rotations.Rotation.real(rng.uniform(0.02, 3.98)) for _ in range(1000)]
    quadrature = [(1.0, SQRT2), (1.0, (1 + math.sqrt(5)) / 2), (3.0, math.pi)]
    qrng = random.Random(7)
    while len(quadrature) < 10:
        quadrature.append((qrng.uniform(0.5, 2.5), qrng.uniform(0.5, 2.5)))
    return irrationals, quadrature, criterion10_profiles()


def run_sweep(inputs, checks: Checks) -> dict:
    irrationals, quadrature, profiles = inputs
    observed = {}

    scans = []
    for require_u in (True, False):
        with checks.guard(f"score scan u={require_u}"):
            scan = sampling.score_falsification_scan(require_u_indices=require_u)
            checks.check(f"score scan u={require_u} violations", scan["violations"] == 0)
            scans.append([scan["scanned"], scan["min_total_score"]])
    observed["score_scans"] = scans

    with checks.guard("criterion 5 rational grid"):
        for v in range(2, 13):
            for u in range(1, 2 * v + 1):
                if u % v == 0:
                    continue
                for m in range(2, 51):
                    rep = rotations.partition_properties(Fraction(u, v), m)
                    ok = rep["all_pass"] and (rep["reversal_applicable"] or m >= v // math.gcd(u, v))
                    checks.check(f"partition_properties {u}/{v} m={m}", ok)
    with checks.guard("seeded irrationals"):
        for theta in irrationals:
            for m in (2, 3, 5, 8, 13, 21, 34, 50):
                rep = rotations.partition_properties(theta, m)
                checks.check(f"partition_properties {theta.value!r} m={m}",
                             rep["all_pass"] and rep["reversal_applicable"])

    with checks.guard("spectrum"):
        e = ellipsoid.Ellipsoid(1.0, SQRT2)
        cs = np.array([v[0] for v in ellipsoid.spectrum_values(e, count=200001)])
        bound = cs[60000]
        grid = np.sort(np.array([m + n * SQRT2 for m in range(int(bound) + 2)
                                 for n in range(int(bound / SQRT2) + 2) if m + n * SQRT2 <= bound]))
        checks.check("spectrum equals lattice-grid oracle",
                     bool(np.allclose(cs[: len(grid) - 10], grid[: len(grid) - 10])))
    for a, b in quadrature:
        with checks.guard(f"quadrature a={a!r} b={b!r}"):
            gap = abs(ellipsoid.volume_quadrature(ellipsoid.Ellipsoid(a, b), n_mu=160, n_angle=8)
                      - a * b) / (a * b)
            checks.check(f"quadrature gap a={a!r} b={b!r}", gap <= 1e-6)

    cd = {}
    for f in profiles:
        with checks.guard(f"{f.name} spectral invariants"):
            cd[f.name] = [pfh.spectral_invariant_cd(f, d, validate=True) for d in SPECTRAL_CD_DEGREES]
    observed["spectral_cd"] = cd

    f0 = twist.linear_profile(1.5 * TWO_PI, support_end=0.97)
    for i in range(2, 12):
        with checks.guard(f"axioms truncation {i}"):
            rep = pfh.axioms_report(f0, twist.truncate_profile(f0, i), dmax=128, ds=(16, 32, 64, 128),
                                    weyl_tolerance=1.0)
            checks.check(f"axioms truncation {i}", rep["identity_ok"] and rep["hofer_lipschitz_ok"]
                         and rep["monotonicity_ok"] is not False)

    bundles = []
    for _ in range(2):
        with checks.guard("selftest"):
            b = cli.run(cli.RunConfig("selftest", {}, seed=SELFTEST_SEED))
            checks.check("selftest verdicts pass", b.all_pass)
            bundles.append([b.to_json(), {n: t.to_csv() for n, t in b.tables.items()}, b.plots])
    checks.check("selftest bundles byte-identical", len(bundles) == 2 and bundles[0] == bundles[1])
    observed["selftest_sha256"] = _sha256(bundles[0]) if bundles else None
    return observed


WORKLOADS = {
    "towers": (prepare_towers, run_towers),
    "complex": (prepare_complex, run_complex),
    "sweep": (prepare_sweep, run_sweep),
}

# Values that do not depend on the seed; the rest of expected.json applies
# only at the workload's default seed.
SEED_INDEPENDENT = {"generators", "score_scans", "spectral_cd", "selftest_sha256"}
