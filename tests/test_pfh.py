"""Lattice-path chain complex, spectral invariants, and the axiom suite."""

import json
import math
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from echlab.pfh import (
    CalibrationError,
    GENERATOR_CAP,
    ComplexSizeError,
    TwistComplex,
    axioms_report,
    build_complex,
    infinite_twist_experiment,
    radial_staircase_value,
    spectral_invariant_cd,
)
from echlab.twist import (
    TwistProfile,
    calabi,
    constant_profile,
    hofer_norm_bound,
    linear_profile,
    periodic_census,
    power_profile,
    truncate_profile,
    zero_profile,
)
from interpreter_pins import CRITERION_10_PROFILES
from oracles import bitmask_essential, hofer_distance_bound, splice_boundaries

TWO_PI = 2 * math.pi

SAMPLE_PROFILES = CRITERION_10_PROFILES[:4] + [constant_profile(0.67 * TWO_PI, support_end=0.8, name="const067")]


def test_zero_profile_complex_is_trivial():
    f = constant_profile(0.0, support_end=0.9)
    for d in (1, 3, 6):
        cx = build_complex(f, d)
        assert len(cx.generators) == 1
        assert cx.boundaries() == [()]
        assert cx.gradings == [d]
        assert cx.actions == [0.0]  # the reference filler carries zero action
        assert cx.homology_ranks() == {d: 1}


def test_degree_one_no_rounding_for_subunit_rotation():
    f = linear_profile(0.73 * TWO_PI, support_end=0.9)
    cx = build_complex(f, 1)
    assert all(not b for b in cx.boundaries())


@pytest.mark.parametrize("profile", SAMPLE_PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("d", range(1, 9))
def test_complex_validity(profile, d):
    rep = build_complex(profile, d).validate()
    assert rep["class_count"] == 1
    assert (rep["distinguished_grading"] - d) % 2 == 0


def test_complex_requires_support_collar():
    with pytest.raises(ValueError):
        build_complex(constant_profile(1.0), 2)


def test_generator_cap():
    f = linear_profile(2.63 * TWO_PI, support_end=0.92)
    with pytest.raises(ComplexSizeError):
        TwistComplex(f, 7, generator_cap=100)
    # the cap is exact: n generators pass a cap of n and fail a cap of n - 1
    f = linear_profile(0.73 * TWO_PI, support_end=0.9)
    for d in range(1, 9):
        n = len(TwistComplex(f, d).generators)
        assert len(TwistComplex(f, d, generator_cap=n).generators) == n
        if n > 1:
            with pytest.raises(ComplexSizeError, match=f"generator cap {n - 1} exceeded"):
                TwistComplex(f, d, generator_cap=n - 1)
    for cap in (0, -1):  # a cap below 1 admits no generator: refused before the census
        with pytest.raises(ValueError, match=f"^generator cap must be >= 1, got {cap}$"):
            TwistComplex(f, 1, generator_cap=cap)
    # a non-integer degree or cap is refused by value, not truncated by a range or compared as a float
    for d, cap in ((2.0, GENERATOR_CAP), (3, 2.5), ("3", GENERATOR_CAP), (3, 10.0)):
        with pytest.raises(ValueError, match=re.escape(f"must be integers, got {d!r} and {cap!r}")):
            build_complex(f, d, cap)


def test_a_corner_rounding_off_the_census_is_named():
    # this certified profile jumps from 1.2 to 0.3 turns at r = 0.5, so no level has a
    # rotation number strictly between them: a corner whose rounded zone needs one is
    # refused by name, not dropped from the differential
    f = TwistProfile.from_json({"type": "piecewise", "name": "jump", "segments": [
        {"lo": 0.0, "hi": 0.5, "terms": [[8.79645943005142, 0], [-2.5132741228718345, 1]]},
        {"lo": 0.5, "hi": 0.9, "terms": [[4.241150082346221, 0], [-4.71238898038469, 1]]},
        {"lo": 0.9, "hi": 1.0, "terms": [[0.0, 0]]}]})
    cx = build_complex(f, 5)
    with pytest.raises(CalibrationError, match=r"^the corner between level 6/5 and the degree wall rounds off"):
        cx.boundaries()


def test_differential_grading_and_action():
    f = linear_profile(1.37 * TWO_PI, support_end=0.9)
    cx = build_complex(f, 5)
    bnds = cx.boundaries()
    seen = 0
    for i, targets in enumerate(bnds):
        for t in targets:
            seen += 1
            assert cx.gradings[i] - cx.gradings[t] == 1
            assert cx.actions[i] > cx.actions[t]
    assert seen > 0


def test_persistence_matches_homology():
    f = linear_profile(0.93 * TWO_PI, support_end=0.95)
    cx = build_complex(f, 6)
    births = cx.persistence_birth_actions()
    assert set(births) == set(cx.homology_ranks())
    assert all(b >= 0 for b in births.values())


def test_identity_axiom_exact():
    for d in (1, 2, 7, 32, 128):
        assert spectral_invariant_cd(zero_profile(), d, validate=False) == 0.0


def test_cd_validates_small_degrees():
    f = linear_profile(0.73 * TWO_PI, support_end=0.9)
    value = spectral_invariant_cd(f, 4)  # runs the complex validation
    assert value == radial_staircase_value(f, 4)
    assert value > 0


def test_monotonicity_exact_on_truncation_chain():
    f = power_profile(-3)
    for d in (4, 16, 64):
        values = [spectral_invariant_cd(truncate_profile(f, i), d, validate=False) for i in range(1, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_monotonicity_pointwise_scaling():
    f = linear_profile(1.1 * TWO_PI, support_end=0.9)
    g = f.scaled(1.25)
    for d in (8, 32):
        assert spectral_invariant_cd(f, d, validate=False) <= spectral_invariant_cd(g, d, validate=False)


def test_hofer_lipschitz_bound():
    f = linear_profile(1.5 * TWO_PI, support_end=0.97)
    for i in (2, 4, 8):
        g = truncate_profile(f, i)
        bound = hofer_norm_bound(f) - 0.0  # H_f(0) >= H_g(0), difference oscillation
        for d in (16, 64):
            diff = abs(spectral_invariant_cd(f, d, validate=False) - spectral_invariant_cd(g, d, validate=False))
            assert diff <= d * bound + 1e-12


def test_weyl_convergence_two_calibrated_profiles():
    for f in (linear_profile(1.5 * TWO_PI, support_end=0.97),
              linear_profile(0.9 * TWO_PI, support_end=0.95)):
        cal = calabi(f, self_check_tol=None)
        devs = []
        for d in (16, 32, 64, 128):
            cd = spectral_invariant_cd(f, d, validate=False)
            devs.append(abs(cd / d - cal))
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 0.10 * cal


def test_axioms_report_on_pair():
    f = linear_profile(1.5 * TWO_PI, support_end=0.97)
    g = truncate_profile(f, 3)
    rep = axioms_report(f, g, dmax=64, ds=[16, 32, 64], weyl_tolerance=0.15)
    assert rep["identity_ok"]
    assert rep["monotonicity_applicable"] and rep["monotonicity_ok"]
    assert rep["hofer_lipschitz_ok"]
    assert all(row["slack"] >= -1e-12 for row in rep["hofer_lipschitz_rows"])


def test_axioms_hofer_bound_and_dominance_match_pointwise_oracles():
    # the ten truncation pairs of the benchmark's sweep workload, then pairs
    # with H(0) = +inf on one side (bound +inf) and on both (inf - inf at r = 0)
    f0 = linear_profile(1.5 * TWO_PI, support_end=0.97)
    cubic = power_profile(-3)
    pairs = [(f0, truncate_profile(f0, i)) for i in range(2, 12)]
    pairs += [(cubic, truncate_profile(cubic, 4)), (cubic, power_profile(-3, coefficient=2.0))]
    ds = (16, 32, 64, 128)
    grid = [j / 512 for j in range(513)]
    for f, g in pairs:
        rep = axioms_report(f, g, dmax=128, ds=ds, weyl_tolerance=1.0)
        hl = hofer_distance_bound(f, g)
        assert [row["bound"] for row in rep["hofer_lipschitz_rows"]] == [d * hl for d in ds], g.name
        cd_f, cd_g = rep["c_d_f"], rep["c_d_g"]
        want = None
        if all(f.hamiltonian(r) <= g.hamiltonian(r) + 1e-15 for r in grid):
            want = all(cd_f[d] <= cd_g[d] for d in ds)
        elif all(g.hamiltonian(r) <= f.hamiltonian(r) + 1e-15 for r in grid):
            want = all(cd_g[d] <= cd_f[d] for d in ds)
        assert rep["monotonicity_applicable"] == (want is not None), g.name
        assert rep["monotonicity_ok"] == want, g.name
    assert math.isinf(hofer_distance_bound(*pairs[-2])) and math.isfinite(hofer_distance_bound(*pairs[-1]))


def test_axioms_identical_profiles():
    f = linear_profile(0.9 * TWO_PI, support_end=0.95)
    rep = axioms_report(f, f, dmax=32, ds=[8, 16, 32], weyl_tolerance=0.3)
    assert all(row["difference"] == 0.0 for row in rep["hofer_lipschitz_rows"])


def test_infinite_twist_ratios_bounded_by_calabi():
    # finite truncation: c_d/d <= Cal * (1 + 1/d), the Riemann-sum envelope
    f = truncate_profile(power_profile(-3), 1)
    cal = calabi(f, self_check_tol=None)
    for d in (4, 16, 64):
        ratio = spectral_invariant_cd(f, d, validate=False) / d
        assert ratio <= cal * (1 + 1.0 / d) + 1e-12


def test_infinite_twist_experiment_structure():
    f = power_profile(-3)
    rep = infinite_twist_experiment(f, imax=10, dmax=16)
    assert rep["calabi_strictly_increasing"]
    assert rep["monotone_chain_ok"]
    assert rep["step1_ok"]
    assert rep["step2_ok"]
    assert rep["sup_ratio_growth_witnessed"]
    cals = [r["calabi"] for r in rep["rows"]]
    assert abs(cals[4] - (math.log(5) + 1 / 3)) < 1e-9


def test_infinite_twist_requires_divergent_calabi():
    with pytest.raises(ValueError):
        infinite_twist_experiment(constant_profile(1.0), imax=3, dmax=4)


def test_rank_pattern_guard_raises_not_patches():
    # wire a complex whose grading map is deliberately corrupted: the guard
    # must surface a CalibrationError rather than return a value
    f = linear_profile(0.73 * TWO_PI, support_end=0.9)
    cx = build_complex(f, 3)
    cx.gradings[0] += 1
    with pytest.raises(CalibrationError, match="grading drop 0 != 1"):
        cx.validate()
    # a second essential column, in another grading: the chain-level checks
    # pass, and only the rank pattern refuses the complex
    cx = build_complex(f, 3)
    (unique,) = cx._reduce()
    cx._essential.append(next(i for i, g in enumerate(cx.gradings) if g != cx.gradings[unique]))
    with pytest.raises(CalibrationError, match=r"rank pattern failure: .* class count 2 "):
        cx.validate()


def test_boundary_squares_to_zero_sparse_oracle():
    # independent check: assemble the boundary as a sparse matrix over GF(2)
    # and square it numerically
    from scipy import sparse

    for f in (SAMPLE_PROFILES[0], SAMPLE_PROFILES[2]):
        cx = build_complex(f, 6)
        n = len(cx.generators)
        rows, cols = [], []
        for i, targets in enumerate(cx.boundaries()):
            for t in targets:
                rows.append(t)
                cols.append(i)
        d = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        square = (d @ d).toarray() % 2
        assert not square.any()


def test_validate_detects_a_repeated_term():
    # a target listed twice cancels in d(d(i)) and drops grading and action like any
    # other term: only the distinct-terms check sees it
    cx = build_complex(SAMPLE_PROFILES[2], 5)
    bnds = cx.boundaries()
    i = next(i for i, targets in enumerate(bnds) if targets)
    bnds[i] += bnds[i][:1]
    with pytest.raises(CalibrationError, match="repeated boundary term"):
        cx.validate()


def test_a_corner_rounding_outside_its_levels_raises():
    # path keys add a zone into the slots between the corner's two levels; a rounding
    # onto a level outside them would alias a neighbour's slot, so it is refused
    cx = build_complex(SAMPLE_PROFILES[2], 6)
    for a in range(cx.ref_id):
        with pytest.raises(CalibrationError, match=f"^the corner between levels {a} and {a} rounds onto"):
            cx._corner_hull(a, a)


@pytest.mark.parametrize("profile", SAMPLE_PROFILES + CRITERION_10_PROFILES[4:], ids=lambda p: p.name)
def test_boundaries_and_reduction_match_the_splicing_and_bitmask_oracles(profile):
    # path keys with per-shape deltas against spliced tuple paths folded by parity;
    # set columns against bitmask columns
    for d in range(1, 11):
        cx = build_complex(profile, d)
        assert cx.boundaries() == [tuple(row) for row in splice_boundaries(cx)], d
        assert cx._reduce() == bitmask_essential(cx), d


def test_census_float_slope_order_is_exact():
    # the census sorts on the float p/q; distinct levels differ by at least 1/d^2
    for f in CRITERION_10_PROFILES:
        levels = periodic_census(f, 64)
        exact = sorted(levels, key=lambda c: (Fraction(c.p, c.q), c.q), reverse=True)
        assert len(levels) > 100 and [(c.p, c.q) for c in levels] == [(c.p, c.q) for c in exact], f.name


def test_reduction_peak_memory():
    # set columns hold only their nonzero rows; a bitmask column is as wide as its
    # filtration position (14.6 MiB here with bitmasks, 4.9 MiB with sets)
    cx = build_complex(CRITERION_10_PROFILES[4], 11)
    cx.boundaries()
    tracemalloc.start()
    try:
        cx._reduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_generator_records_share_their_edges_and_rows_are_tuples():
    # a generator is one flat tuple of edges taken from one table per complex, and a
    # boundary row is a tuple; lin181 at d = 10 peaks at 4.72 MiB over build, boundary
    # and validate with an (edges, ref) pair of fresh tuples per generator and list rows
    d = 10
    tracemalloc.start()
    try:
        cx = build_complex(CRITERION_10_PROFILES[4], d)
        cx.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 2**20, peak
    for g in cx.generators:
        ids = [i for i, _, _ in g]
        assert ids == sorted(set(ids)), g
        width = d - sum(m * cx.levels[i].q for i, m, _ in g if i != cx.ref_id)
        assert (g[-1] == (cx.ref_id, width, 0)) if width > 0 else cx.ref_id not in ids, g
    edges = [e for g in cx.generators for e in g]
    assert len({id(e) for e in edges}) <= len(set(edges)) < len(cx.generators)
    assert all(type(row) is tuple for row in cx.boundaries())


def test_validate_detects_a_nonzero_square():
    # drop from d(generator i) one target t that has a boundary of its own: the
    # remaining entries still drop grading and action, but d(d(i)) = d(t) != 0
    cx = build_complex(SAMPLE_PROFILES[2], 5)
    bnds = cx.boundaries()
    i, t = next((i, t) for i, targets in enumerate(bnds) for t in targets if bnds[t])
    bnds[i] = tuple(s for s in bnds[i] if s != t)
    with pytest.raises(CalibrationError, match=r"d\^2 != 0"):
        cx.validate()


def test_generator_counts_match_the_benchmark_table():
    # the complex workload checks these counts against perfbench/expected.json
    # (read only here); enumeration alone fixes them
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")
    with open(path) as fh:
        want = json.load(fh)["complex"]["generators"]
    got = {f.name: [len(build_complex(f, d).generators) for d in range(1, 12)] for f in CRITERION_10_PROFILES}
    assert got == want


def test_action_floor_parameter():
    f = linear_profile(0.93 * TWO_PI, support_end=0.95)
    cx = build_complex(f, 5)
    rep = cx.validate(action_floor=1e-9)
    assert rep["min_action_drop"] > 1e-9
    with pytest.raises(CalibrationError):
        cx.validate(action_floor=rep["min_action_drop"] * 1.01)


def test_corner_hulls_lie_strictly_between_their_corner_levels():
    # boundary() splices a rounded zone between its neighbour edges without
    # re-sorting or merging; that is sound only because every corner hull's
    # levels strictly increase and lie strictly between the corner's levels
    hulls = 0
    for f in CRITERION_10_PROFILES:
        for d in range(1, 10):
            cx = build_complex(f, d)
            for a in range(cx.ref_id + 1):
                for b in [*range(a + 1, cx.ref_id + 1), None]:
                    hull = cx._corner_hull(a, b)
                    if hull is None:
                        continue
                    hulls += 1
                    ids = [i for i, _, _ in hull]
                    assert all(i < j for i, j in zip(ids, ids[1:]))
                    assert a < ids[0] and (b is None or ids[-1] < b)
    assert hulls > 1000


@pytest.mark.parametrize("profile", SAMPLE_PROFILES, ids=lambda p: p.name)
def test_gradings_and_ranks_oracle(profile):
    # independent gradings: count the lattice points under each path column
    # by column.  Independent ranks: eliminate each grading's boundary
    # columns on their own, by generator index, with no filtration order
    # and no clearing.
    for d in range(1, 8):
        cx = build_complex(profile, d)
        step = [(c.q, c.p) for c in cx.levels] + [(1, 0)]  # the reference edge's step last
        for edges, grading in zip(cx.generators, cx.gradings):
            x = y = points = 0
            for q, p in [step[i] for i, m, _ in edges for _ in range(m)]:
                points += sum(y + (p * k) // q + 1 for k in range(q))
                x, y = x + q, y + p
            assert x == d
            points += y + 1
            assert grading == 2 * (points - (d + 1)) - sum(h for _, _, h in edges) + d
        bnds = cx.boundaries()
        by_grading = {}
        for i, g in enumerate(cx.gradings):
            by_grading.setdefault(g, []).append(i)
        rank_out = {}
        for g, gens in by_grading.items():
            pivots = {}
            for i in gens:
                col = sum(1 << t for t in bnds[i])
                while col and col.bit_length() in pivots:
                    col ^= pivots[col.bit_length()]
                if col:
                    pivots[col.bit_length()] = col
            rank_out[g] = len(pivots)
        expected = {
            g: len(gens) - rank_out[g] - rank_out.get(g + 1, 0)
            for g, gens in by_grading.items()
        }
        assert cx.homology_ranks() == {g: h for g, h in expected.items() if h}
