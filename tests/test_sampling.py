"""The grouped-join score scan against the triple-loop oracle."""

import json
import math
import random
from itertools import combinations, product
from typing import Optional, Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from echlab.orbits import cover_indices, tower_to_json
from echlab.rotations import Rotation, cz_index
from echlab.sampling import _end_options, random_tower, score_falsification_scan, threshold_multiplicity

import oracles


def triple_loop_scan(
    thetas: Optional[Sequence[Rotation]] = None,
    max_mult: int = 12,
    max_orbits_per_side: int = 2,
    genus_range: Sequence[int] = (0, 1, 2),
    require_u_indices: bool = True,
) -> dict:
    """The score scan as a loop over every (positive, negative, genus) triple."""
    if thetas is None:
        thetas = [
            Rotation.rational(1, 5),
            Rotation.rational(7, 10),
            Rotation.rational(2, 3),
            Rotation.rational(3, 8),
            Rotation.rational(4, 11),
            Rotation.rational(9, 13),
        ]
    theta_list = list(thetas)
    covers = {}  # (theta index, m) -> Cover of the m-fold cover

    def side_summaries(positive: bool):
        per_theta = []
        for idx, theta in enumerate(theta_list):
            opts = []
            for m in range(2, max_mult + 1):
                if not threshold_multiplicity(theta, m):
                    continue
                covers[idx, m] = cover_indices(theta, m)
                for ends, m0 in _end_options(theta, m, positive):
                    opts.append((idx, m, ends, m0))
            per_theta.append(opts)
        configs = [list(picked) for k in range(1, max_orbits_per_side + 1)
                   for indices in combinations(range(len(theta_list)), k)
                   for picked in product(*(per_theta[i] for i in indices))]
        out = []
        for cfg in configs:
            s = e = ends = cz = cz_ends = 0
            for idx, m, end_mults, m0 in cfg:
                cover = covers[idx, m]
                s += cover.score
                e += 2 * len(end_mults) - (0 if m0 > 0 else 1)
                ends += len(end_mults)
                cz += cover.cz
                cz_ends += sum(cz_index(theta_list[idx], k) for k in end_mults)
            out.append((s, e, ends, cz, cz_ends, cfg))
        return out

    pos_side = side_summaries(True)
    neg_side = side_summaries(False)
    scanned = 0
    violations = []
    min_score = math.inf
    for sa, ea, na, cza, czea, pcfg in pos_side:
        for sb, eb, nb, czb, czeb, ncfg in neg_side:
            for genus in genus_range:
                if genus == 0 and na == 1 and nb == 1:
                    continue
                j0 = -2 + 2 * genus + ea + eb
                if require_u_indices:
                    if j0 + cza - czb != 2:
                        continue
                    if -(2 - 2 * genus - (na + nb)) + czea - czeb != 2:
                        continue
                scanned += 1
                t = sa - sb + 3 * (j0 - 2)
                min_score = min(min_score, t)
                if t < 0:
                    violations.append({"genus": genus, "positive": pcfg, "negative": ncfg, "T": t})
    return {
        "scanned": scanned,
        "violations": len(violations),
        "violating_curves": violations[:10],
        "min_total_score": min_score if scanned else None,
    }


_rationals = st.integers(1, 13).flatmap(lambda q: st.integers(1, 3 * q).map(lambda p: Rotation.rational(p, q)))
_reals = st.integers(0, 2**32 - 1).map(lambda seed: Rotation.real(random.Random(seed).uniform(0.05, 2.95)))


@settings(max_examples=200, deadline=None)
@given(
    thetas=st.lists(st.one_of(_rationals, _reals), min_size=1, max_size=3),
    max_mult=st.integers(4, 8),
    max_orbits_per_side=st.sampled_from([1, 2, 3]),
    genus_range=st.sampled_from([(0, 1, 2), (-1, 0, 1)]),
    require_u_indices=st.booleans(),
)
@example(thetas=[Rotation.rational(1, 5), Rotation.rational(7, 10), Rotation.rational(2, 3)], max_mult=8,
         max_orbits_per_side=2, genus_range=(-1, 0, 1), require_u_indices=False)
@example(thetas=[Rotation.rational(4, 11), Rotation.rational(9, 13)], max_mult=8,
         max_orbits_per_side=2, genus_range=(-1, 0, 1), require_u_indices=True)
# the listed violations end in two pairs of negative options: the order inside a pair is pinned
@example(thetas=[Rotation.rational(17, 12), Rotation.rational(5, 11)], max_mult=5,
         max_orbits_per_side=2, genus_range=(-1, 0, 1), require_u_indices=False)
@example(thetas=[Rotation.rational(3, 7), Rotation.rational(4, 9), Rotation.rational(5, 11)], max_mult=6,
         max_orbits_per_side=3, genus_range=(-1, 0, 1), require_u_indices=True)
def test_grouped_join_matches_triple_loop(thetas, max_mult, max_orbits_per_side, genus_range, require_u_indices):
    assume(max_orbits_per_side < 3 or max_mult <= 6)  # at most 8 options per rotation keeps the oracle fast
    args = (thetas, max_mult, max_orbits_per_side, genus_range, require_u_indices)
    assert score_falsification_scan(*args) == triple_loop_scan(*args)


def test_violations_listed_in_scan_order():
    # genus -1 drives T below 0, so more than ten instances violate and only
    # the first ten, in (positive, negative, genus) scan order, are listed
    args = ([Rotation.rational(1, 5), Rotation.rational(7, 10), Rotation.rational(2, 3)], 8, 2, (-1, 0, 1), False)
    scan = score_falsification_scan(*args)
    assert scan["violations"] > 10 and scan["min_total_score"] < 0
    assert len(scan["violating_curves"]) == 10
    assert all(v["T"] < 0 for v in scan["violating_curves"])
    assert scan == triple_loop_scan(*args)


def test_natural_bounds_scan_finds_no_violation():
    for k, require_u_indices, expected in ((2, True, (11798, 2)), (2, False, (4941886, 1)),
                                           (3, True, (313992, 2)), (3, False, (406687714, 1))):
        scan = score_falsification_scan(max_orbits_per_side=k, require_u_indices=require_u_indices)
        assert (scan["scanned"], scan["min_total_score"]) == expected
        assert scan["violations"] == 0 and scan["violating_curves"] == []
    assert score_falsification_scan(max_mult=9)["scanned"] == 4179


@pytest.mark.parametrize("k", [0, -1, 1.5])
def test_unsupported_orbits_per_side_is_rejected(k):
    # a side holds at least one orbit, and the bound counts orbits
    with pytest.raises(ValueError, match=f"max_orbits_per_side must be an integer >= 1, got {k}"):
        score_falsification_scan(max_orbits_per_side=k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_random_tower_keeps_the_randint_stream(seed, n):
    # single-argument randrange draws what randint drew, and sharing records changes no value
    slow, fast = random.Random(seed), random.Random(seed)
    want = json.dumps(tower_to_json(oracles.random_tower(slow, n)))
    assert json.dumps(tower_to_json(random_tower(fast, n))) == want
    assert fast.getstate() == slow.getstate()
