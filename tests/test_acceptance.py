"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live).  Criterion 12's Calabi-exceeds-50 subcheck is strict-xfailed:
with f(s) = s^-3 the truncated Calabi invariant is log(i) + 1/3, which
cannot reach 50 by i = 20; see the decisions ledger.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from echlab.ellipsoid import (
    Ellipsoid,
    gss_return_map,
    simple_orbit_census,
    spectrum_values,
    volume,
    volume_quadrature,
)
from echlab.orbits import forced_topology, tower_audit, tower_to_json
from echlab.pfh import (
    axioms_report,
    build_complex,
    infinite_twist_experiment,
    spectral_invariant_cd,
)
from echlab.rotations import (
    Rotation,
    cz_index,
    partition_negative,
    partition_positive,
    partition_properties,
)
from echlab.sampling import random_tower, score_falsification_scan
from echlab.twist import (
    calabi,
    linear_profile,
    power_profile,
    truncate_profile,
    zero_profile,
)
from echlab.cli import RunConfig, run

from interpreter_pins import CRITERION_10_PROFILES, sha256
from oracles import hyperbolic_expectation

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SQRT2 = math.sqrt(2)
TWO_PI = 2 * math.pi


def report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_ellipsoid_weyl_law():
    t0 = time.perf_counter()
    e = Ellipsoid(1.0, SQRT2)
    vals = spectrum_values(e, count=200001)
    cs = np.array([v[0] for v in vals])
    # independent oracle: dense lattice grid, sorted
    bound = cs[60000]
    grid = np.sort(
        np.array([m + n * SQRT2 for m in range(int(bound) + 2)
                  for n in range(int(bound / SQRT2) + 2) if m + n * SQRT2 <= bound])
    )
    assert np.allclose(cs[: len(grid) - 10], grid[: len(grid) - 10])
    ks = np.arange(len(cs))
    dev_at = abs(cs[100000] ** 2 / (2 * 100000) - SQRT2)
    decade = [
        float(np.abs(cs[K : 2 * K + 1] ** 2 / (2 * ks[K : 2 * K + 1]) - SQRT2).max())
        for K in (1000, 10000, 100000)
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        dev_at <= 0.02 * SQRT2
        and decade[0] > decade[1] > decade[2]
        and elapsed <= 10.0
    )
    report(1, ok, f"dev(1e5) = {dev_at:.5f} <= {0.02 * SQRT2:.5f}, decades {decade[0]:.4f} > "
                  f"{decade[1]:.4f} > {decade[2]:.4f}, {elapsed:.2f}s")


def test_criterion_02_two_orbit_census():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    samples = [(1.0, SQRT2), (1.0, (1 + math.sqrt(5)) / 2), (3.0, math.pi)]
    while len(samples) < 20:
        samples.append((rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)))
    ok = True
    for a, b in samples:
        e = Ellipsoid(a, b)
        census = simple_orbit_census(e, 100.0 * max(a, b))
        ok = ok and [c["label"] for c in census] == ["gamma1", "gamma2"]
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed <= 1.0, f"20 samples, exactly two core circles each, {elapsed:.2f}s")


def test_criterion_03_product_of_periods():
    t0 = time.perf_counter()
    rng = random.Random(7)
    samples = [(1.0, SQRT2), (1.0, (1 + math.sqrt(5)) / 2), (3.0, math.pi)]
    while len(samples) < 10:
        samples.append((rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)))
    worst = 0.0
    for a, b in samples:
        quad = volume_quadrature(Ellipsoid(a, b), n_mu=160, n_angle=8)
        worst = max(worst, abs(quad - a * b) / (a * b))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-6 and elapsed <= 5.0,
           f"worst relative gap {worst:.2e} <= 1e-6 over 10 samples, {elapsed:.2f}s")


def test_criterion_04_return_map():
    t0 = time.perf_counter()
    rng = random.Random(5)
    worst = 0.0
    for a, b in [(1.0, SQRT2), (1.0, 2.0), (2.0, math.pi), (1.5, 2.5), (1.0, 1.0)]:
        e = Ellipsoid(a, b)
        expected = (TWO_PI * a / b) % TWO_PI
        for _ in range(100):
            pt = (rng.random() * 0.999, rng.random() * TWO_PI)
            (r2, ang), rt = gss_return_map(e, pt)
            delta = abs((ang - pt[1]) % TWO_PI - expected)
            delta = min(delta, TWO_PI - delta)
            worst = max(worst, delta, abs(r2 - pt[0]), abs(rt - a))
    elapsed = time.perf_counter() - t0
    report(4, worst <= 1e-9 and elapsed <= 1.0,
           f"rotation/return-time error {worst:.2e} <= 1e-9 over 500 points, {elapsed:.2f}s")


def test_criterion_05_partition_lemmas():
    t0 = time.perf_counter()
    ok = True
    checked = skipped = 0
    # reversal lemma across the rational grid: items apply below the
    # degenerate cover (m < v); out-of-scope cells must be exactly the
    # degenerate/half-integral ones (see ledger)
    for v in range(2, 13):
        for u in range(1, 2 * v + 1):
            if u % v == 0:
                continue
            theta = Fraction(u, v)
            for m in range(2, 51):
                rep = partition_properties(theta, m)
                ok = ok and rep["all_pass"]
                if rep["reversal_applicable"]:
                    checked += 1
                else:
                    skipped += 1
                    ok = ok and (m >= Fraction(u, v).denominator)
    # 1000 seeded irrationals: all items applicable and passing
    rng = random.Random(123456)
    for _ in range(1000):
        theta = Rotation.real(rng.uniform(0.02, 3.98))
        for m in (2, 3, 5, 8, 13, 21, 34, 50):
            rep = partition_properties(theta, m)
            ok = ok and rep["all_pass"] and rep["reversal_applicable"]
            checked += 1
    # hyperbolic clauses at integer and half-integer rotation
    for m in range(1, 51):
        for theta in (0, 1, Fraction(1, 2), Fraction(3, 2)):
            expected = hyperbolic_expectation(theta, m)
            ok = ok and partition_positive(theta, m) == expected
            ok = ok and partition_negative(theta, m) == expected
    # elliptic clause: rotation below 1/m forces simple positive ends
    for m in range(1, 51):
        for theta in (Fraction(1, m + 1), Rotation.real(0.9 / (m + 1))):
            ok = ok and partition_positive(theta, m) == (1,) * m
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed <= 5.0,
           f"{checked} reversal cells pass ({skipped} degenerate-cover cells scoped out), "
           f"hyperbolic and small-rotation clauses exact, {elapsed:.2f}s")


def test_criterion_06_cz_properties():
    t0 = time.perf_counter()
    ok = True
    for v in range(1, 13):
        for u in range(0, 2 * v + 1):
            for m in range(1, 51):
                idx = cz_index(Fraction(u, v), m)
                ok = ok and (idx % 2 != 0) == (m * u % v != 0)
                ok = ok and abs(idx / (2 * m) - u / v) <= 1 / m + 1e-12
    rng = random.Random(99)
    for _ in range(1000):
        theta = rng.uniform(0.02, 3.98)
        for m in (2, 5, 17, 50):
            idx = cz_index(Rotation.real(theta), m)
            ok = ok and idx % 2 == 1
            ok = ok and abs(idx / (2 * m) - theta) <= 1 / m + 1e-12
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed <= 1.0, f"parity and |CZ/2m - theta| <= 1/m exact, {elapsed:.2f}s")


def test_criterion_07_forced_cylinder():
    t0 = time.perf_counter()
    solutions = forced_topology(2, max_genus=3, max_ends=6)
    brute = {
        (g, ends)
        for g in range(0, 4)
        for ends in range(2, 7)
        if -2 + 2 * g + 2 * ends == 2
    }
    elapsed = time.perf_counter() - t0
    ok = solutions == {(0, 2)} == brute and elapsed <= 1.0
    report(7, ok, f"J0 = 2 with full coverage forces (genus, ends) = (0, 2), {elapsed:.2f}s")


def test_criterion_08_tower_telescoping():
    rng = random.Random(31415)
    t0 = time.perf_counter()
    towers = [random_tower(rng, 1000) for _ in range(100)]
    generation = time.perf_counter() - t0  # reported, not gated
    t0 = time.perf_counter()
    ok = True
    reports = []
    for t in towers:
        rep = tower_audit(t, Fraction(1, 2))
        ok = ok and rep["score_telescoping_ok"] and rep["action_telescoping_ok"]
        reports.append(rep)
    elapsed = time.perf_counter() - t0
    # the towers workload hashes these reports and every tenth tower's document
    with open(os.path.join(PERFBENCH, "expected.json")) as fh:
        want = json.load(fh)["towers"]
    got = {"audit_sha256": sha256(reports), "tower_json_sha256": sha256([tower_to_json(t) for t in towers[::10]])}
    report(8, ok and elapsed <= 2.0 and got == want,
           f"both telescoping identities exact on 100 towers of 1000 curves, audit {elapsed:.2f}s"
           f" (generation {generation:.2f}s, ungated), digests {'match' if got == want else 'differ'}")


def test_criterion_09_score_scan():
    t0 = time.perf_counter()
    scan = score_falsification_scan()
    free = score_falsification_scan(require_u_indices=False)
    elapsed = time.perf_counter() - t0
    ok = (
        scan["violations"] == 0
        and free["violations"] == 0
        and scan["scanned"] > 5000
        and elapsed <= 30.0
    )
    report(9, ok, f"no negative total score among {scan['scanned']} admissible U-curve data "
                  f"(min T = {scan['min_total_score']}) and {free['scanned']} index-free data "
                  f"(min T = {free['min_total_score']}), {elapsed:.2f}s")


def test_criterion_10_complex_validity():
    t0 = time.perf_counter()
    total = 0
    for f in CRITERION_10_PROFILES:
        for d in range(1, 9):
            rep = build_complex(f, d).validate()  # raises on any violation
            total += rep["generators"]
    elapsed = time.perf_counter() - t0
    report(10, elapsed <= 60.0,
           f"d^2 = 0, action decrease, grading drop 1, unique-class rank pattern over "
           f"5 profiles x d <= 8 ({total} generators), {elapsed:.2f}s")


def test_criterion_11_spectral_axioms():
    t0 = time.perf_counter()
    ds = (16, 32, 64, 128)
    identity_ok = all(spectral_invariant_cd(zero_profile(), d, validate=False) == 0.0 for d in ds)

    chain_ok = True
    base = [linear_profile(1.5 * TWO_PI, support_end=0.97), power_profile(-3)]
    for f in base:
        for d in ds:
            vals = [
                spectral_invariant_cd(truncate_profile(f, i), d, validate=False)
                for i in range(1, 11)
            ]
            chain_ok = chain_ok and all(a <= b for a, b in zip(vals, vals[1:]))

    rng = random.Random(2718)
    hl_ok = True
    f0 = linear_profile(1.5 * TWO_PI, support_end=0.97)
    pairs = []
    for _ in range(10):
        pairs.append((f0, truncate_profile(f0, rng.randint(2, 12))))
    for _ in range(10):
        s = rng.uniform(0.5, 1.5)
        g0 = linear_profile(rng.uniform(0.5, 2.0) * TWO_PI, support_end=rng.uniform(0.85, 0.97))
        pairs.append((g0, g0.scaled(s)))
    for f, g in pairs:
        rep = axioms_report(f, g, dmax=128, ds=ds, weyl_tolerance=1.0)
        hl_ok = hl_ok and rep["hofer_lipschitz_ok"]

    weyl_ok = True
    for f in (linear_profile(1.5 * TWO_PI, support_end=0.97),
              linear_profile(0.9 * TWO_PI, support_end=0.95)):
        cal = calabi(f, self_check_tol=None)
        devs = [abs(spectral_invariant_cd(f, d, validate=False) / d - cal) for d in ds]
        weyl_ok = weyl_ok and all(a >= b for a, b in zip(devs, devs[1:]))
        weyl_ok = weyl_ok and devs[-1] <= 0.10 * cal

    elapsed = time.perf_counter() - t0
    ok = identity_ok and chain_ok and hl_ok and weyl_ok and elapsed <= 300.0
    report(11, ok, f"identity exact, truncation chains exact, Hofer-Lipschitz slack >= 0 on "
                   f"20 pairs, Weyl deviation decreasing and <= 10% at d = 128, {elapsed:.2f}s")


def test_criterion_12_infinite_twist():
    t0 = time.perf_counter()
    rep = infinite_twist_experiment(power_profile(-3), imax=20, dmax=32)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["calabi_strictly_increasing"]
        and rep["monotone_chain_ok"]
        and rep["step1_ok"]
        and rep["step2_ok"]
        and rep["sup_ratio_growth_witnessed"]
        and elapsed <= 300.0
    )
    report(12, ok, f"Calabi strictly increasing (max {rep['calabi_max']:.3f}), chain exact, "
                   f"step-1 domination and step-2 bound hold on all cells, {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: Cal(T_f_i) = log(i) + 1/3 for f = s^-3, so the "
    "maximum by i = 20 is ~3.33, not > 50; see decisions ledger",
)
def test_criterion_12_calabi_exceeds_50_by_i20():
    rep = infinite_twist_experiment(power_profile(-3), imax=20, dmax=4)
    print(f"[FAIL] criterion 12 (Calabi > 50 subcheck): max Cal = {rep['calabi_max']:.3f} at i = 20")
    assert rep["calabi_max"] > 50.0


def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    bundles = []
    for run_dir in ("one", "two"):
        b = run(RunConfig("selftest", {}, seed=20260809))
        d = tmp_path / run_dir
        b.write(str(d), ("csv", "json", "svg"))
        bundles.append(d)
    import os

    names = sorted(os.listdir(bundles[0]))
    identical = names == sorted(os.listdir(bundles[1])) and all(
        (bundles[0] / n).read_bytes() == (bundles[1] / n).read_bytes() for n in names
    )
    elapsed = time.perf_counter() - t0
    report(13, identical, f"selftest bundles byte-identical across runs ({len(names)} files), {elapsed:.2f}s")
