from __future__ import annotations

import random
from itertools import combinations

import pytest

from fliptet.family import (
    FamilyLabeling,
    bottom_triangulation,
    explicit_flip_path,
    fan,
    top_triangulation,
)
from fliptet.flipdist import (
    BudgetExceeded,
    DistanceResult,
    check_flip_count_identity,
    check_triangle_cooccurrence,
    diameter_sanity,
    extra_diagonals,
    flip_distance,
    lower_bound,
)
from fliptet.polygon import (
    FlipPath,
    PolygonTriangulation,
    pair,
    random_triangulation,
    split_along,
)

from oracles import all_triangulations, oracle_flip_distance


def no_common_pair(n, rng):
    while True:
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        if not (t1.diagonals & t2.diagonals):
            return t1, t2


def test_lower_bound_identity():
    t = fan(8, 0)
    assert lower_bound(t, t) == 0


def test_lower_bound_family_n2():
    assert lower_bound(top_triangulation(2), bottom_triangulation(2)) == 5


def test_lower_bound_admissible_exhaustive_hexagon():
    ts = [frozenset(d) for d in all_triangulations(6)]
    for d1, d2 in combinations(ts, 2):
        t1 = PolygonTriangulation(6, d1)
        t2 = PolygonTriangulation(6, d2)
        assert lower_bound(t1, t2) <= oracle_flip_distance(6, d1, d2)


def test_distance_zero():
    t = fan(9, 2)
    res = flip_distance(t, t)
    assert res.distance == 0 and len(res.path) == 0


def test_distance_family_n2():
    top, bottom = top_triangulation(2), bottom_triangulation(2)
    res = flip_distance(top, bottom)
    assert res.distance == 7
    assert len(res.path) == 7
    assert res.path.end() == bottom


# Search-order pins, read from the engine's frozenset version: the expansion
# order decides node counts, frontier peaks and which shortest path is
# returned, so an engine change that reorders the search fails here.
FAMILY_PATHS = {
    2: (((1, 7), (0, 2)), ((2, 7), (0, 3)), ((3, 7), (0, 6)), ((3, 6), (0, 5)),
        ((3, 5), (0, 4)), ((0, 3), (2, 4)), ((0, 2), (1, 4))),
    3: (((1, 9), (0, 2)), ((2, 9), (0, 3)), ((3, 9), (0, 4)), ((4, 9), (0, 8)),
        ((4, 8), (0, 7)), ((4, 7), (0, 6)), ((4, 6), (0, 5)), ((0, 4), (3, 5)),
        ((0, 3), (2, 5)), ((0, 2), (1, 5))),
    4: (((1, 11), (0, 2)), ((2, 11), (0, 3)), ((3, 11), (0, 4)), ((4, 11), (0, 5)),
        ((5, 11), (0, 10)), ((5, 10), (0, 9)), ((5, 9), (0, 8)), ((5, 8), (0, 7)),
        ((5, 7), (0, 6)), ((0, 5), (4, 6)), ((0, 4), (3, 6)), ((0, 3), (2, 6)),
        ((0, 2), (1, 6))),
}


@pytest.mark.parametrize(
    "n, nodes, frontier_peak",
    [(2, 67, 35), (3, 530, 253), (4, 4849, 2678)],
    ids=["n2", "n3", "n4"],
)
def test_family_search_order_is_pinned(n, nodes, frontier_peak):
    res = flip_distance(top_triangulation(n), bottom_triangulation(n))
    assert res.distance == 3 * n + 1
    assert (res.stats.nodes, res.stats.frontier_peak) == (nodes, frontier_peak)
    assert res.path.steps == FAMILY_PATHS[n]


def test_distance_fan_to_fan_octagon_matches_oracle():
    t1, t2 = fan(8, 0), fan(8, 1)
    want = oracle_flip_distance(8, t1.diagonals, t2.diagonals)
    res = flip_distance(t1, t2)
    assert res.distance == want


def test_distance_rejects_mismatched_polygons():
    with pytest.raises(ValueError):
        flip_distance(fan(6, 0), fan(7, 0))


def test_distance_agrees_with_oracle_random():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randrange(5, 9)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        want = oracle_flip_distance(n, t1.diagonals, t2.diagonals)
        res = flip_distance(t1, t2)
        assert res.distance == want
        assert len(res.path) == want
        assert res.path.states()[-1] == t2


def test_symmetry():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(5, 10)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        assert flip_distance(t1, t2).distance == flip_distance(t2, t1).distance


def test_triangle_inequality():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randrange(5, 9)
        a = random_triangulation(n, rng)
        b = random_triangulation(n, rng)
        c = random_triangulation(n, rng)
        ab = flip_distance(a, b).distance
        bc = flip_distance(b, c).distance
        ac = flip_distance(a, c).distance
        assert ac <= ab + bc


def test_splitting_never_changes_distance():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(6, 11)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        split = flip_distance(t1, t2, use_splitting=True)
        plain = flip_distance(t1, t2, use_splitting=False)
        assert split.distance == plain.distance
        assert split.path.end() == t2
        if n <= 7:
            assert split.distance == oracle_flip_distance(n, t1.diagonals, t2.diagonals)


def test_split_nodes_are_the_sum_of_region_searches():
    # the regions share one budget; each reports its own nodes, not the
    # running total, so the merged count equals the regions solved alone
    rng = random.Random(9)
    multi = 0
    for _ in range(40):
        n = rng.randrange(8, 11)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        regions = split_along(t1, t2)
        if len(regions) < 2:
            continue
        multi += 1
        split = flip_distance(t1, t2)
        alone = [flip_distance(a, b) for a, b, _ in regions]
        assert split.stats.nodes == sum(r.stats.nodes for r in alone)
        assert split.distance == sum(r.distance for r in alone)
    assert multi >= 5


def test_witness_paths_are_deterministic():
    t1, t2 = top_triangulation(2), bottom_triangulation(2)
    a = flip_distance(t1, t2)
    b = flip_distance(t1, t2)
    assert a.path.steps == b.path.steps


def test_node_budget_returns_bounds():
    top, bottom = top_triangulation(3), bottom_triangulation(3)
    res = flip_distance(top, bottom, node_budget=5)
    assert res.status == "budget"
    assert res.distance is None and res.path is None
    assert 1 <= res.lower_bound <= 10


def test_budget_lower_bound_is_admissible():
    rng = random.Random(6)
    for _ in range(10):
        t1, t2 = no_common_pair(7, rng)
        want = oracle_flip_distance(7, t1.diagonals, t2.diagonals)
        res = flip_distance(t1, t2, node_budget=3)
        if res.status == "budget":
            assert res.lower_bound <= want
        else:
            assert res.distance == want


def test_below_answers_whether_the_distance_is_below_k():
    # at k = d+1 and d+3 the answer is the exact distance with a path that
    # replays; at every k in d-3..d it is refuted with a bound of at least k
    rng = random.Random(15)
    split = 0
    for _ in range(300):
        n = rng.randrange(5, 13)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        d = flip_distance(t1, t2).distance
        split += len(split_along(t1, t2)) > 1
        for k in (d + 1, d + 3):
            res = flip_distance(t1, t2, below=k)
            assert res.exact and res.distance == d
            states = res.path.states()
            assert len(states) == d + 1 and states[0] == t1 and states[-1] == t2
        for k in range(d - 3, d + 1):
            res = flip_distance(t1, t2, below=k)
            assert res.status == "above"
            assert res.distance is None and res.path is None
            assert k <= res.lower_bound <= max(d, 0)
    assert split >= 50


def test_below_with_node_and_time_budgets():
    top, bottom = top_triangulation(4), bottom_triangulation(4)
    # the budget runs out first: status budget, an admissible bound
    res = flip_distance(top, bottom, below=14, node_budget=50)
    assert res.status == "budget" and res.stats.nodes == 51
    assert res.lower_bound <= 13
    res = flip_distance(top, bottom, below=14, time_budget=0.0)
    assert res.status == "budget" and res.lower_bound <= 13
    # the bound refutes within the budget
    res = flip_distance(top, bottom, below=13, node_budget=10_000, time_budget=60.0)
    assert res.status == "above" and res.lower_bound >= 13
    assert res.stats.nodes <= 10_000
    res = flip_distance(top, bottom, below=14, node_budget=10_000, time_budget=60.0)
    assert res.exact and res.distance == 13


def test_extra_diagonals_empty_path():
    t = fan(7, 0)
    assert extra_diagonals(FlipPath(7, t, ())) == frozenset()


def test_extra_diagonals_single_flip():
    t = fan(6, 0)
    path = FlipPath.from_removals(t, [(0, 2)])
    assert extra_diagonals(path) == frozenset()


def test_extra_diagonals_explicit_path_n3():
    lab = FamilyLabeling(3)
    path = explicit_flip_path(3)
    want = {pair(lab.A, lab.B)} | {
        pair(lab.A, lab.v(j)) for j in range(1, 3)
    }
    assert extra_diagonals(path) == frozenset(want)
    assert len(extra_diagonals(path)) == 3


def test_flip_count_identity_explicit_paths():
    for n in range(2, 21):
        assert check_flip_count_identity(explicit_flip_path(n))


def test_flip_count_identity_single_flip():
    t = PolygonTriangulation.of(4, {(0, 2)})
    assert check_flip_count_identity(FlipPath.from_removals(t, [(0, 2)]))


def test_flip_count_identity_on_shortest_paths():
    rng = random.Random(7)
    for _ in range(25):
        t1, t2 = no_common_pair(8, rng)
        res = flip_distance(t1, t2)
        assert check_flip_count_identity(res.path)


def test_flip_count_identity_rejects_shared_endpoint_diagonals():
    t = fan(6, 0)
    path = FlipPath.from_removals(t, [(0, 2)])
    with pytest.raises(ValueError, match="share"):
        check_flip_count_identity(path)


def test_flip_count_identity_rejects_reinsertion():
    # (0,2) is flipped away, comes back, and is flipped away again; the
    # endpoints stay disjoint so only the re-insertion rule can fire
    t = PolygonTriangulation.of(5, {(0, 2), (0, 3)})
    path = FlipPath.from_removals(t, [(0, 2), (1, 3), (0, 3), (0, 2)])
    assert path.end().diagonals == frozenset({(1, 4), (2, 4)})
    with pytest.raises(ValueError, match="re-inserted"):
        check_flip_count_identity(path)


def test_flip_count_identity_rejects_double_insertion():
    # this heptagon detour inserts (2,4), flips it away, and inserts it
    # again, while start and end stay disjoint
    t = PolygonTriangulation.of(7, {(0, 2), (0, 3), (0, 4), (0, 5)})
    path = FlipPath.from_removals(
        t, [(0, 3), (0, 4), (2, 4), (3, 5), (0, 2), (0, 5)]
    )
    assert not (path.end().diagonals & t.diagonals)
    with pytest.raises(ValueError, match="inserted 2 times"):
        check_flip_count_identity(path)


def test_triangle_cooccurrence_on_shortest_paths():
    rng = random.Random(8)
    for _ in range(25):
        t1, t2 = no_common_pair(8, rng)
        res = flip_distance(t1, t2)
        assert check_triangle_cooccurrence(res.path) is None


def test_triangle_cooccurrence_explicit_path():
    for n in (2, 3, 4):
        path = explicit_flip_path(n)
        assert check_triangle_cooccurrence(path) is None
        # the diagonals A-B and A-D co-occur (with boundary edge B-D they
        # close a triangle used to cut the polygon)
        lab = FamilyLabeling(n)
        ab, ad = pair(lab.A, lab.B), pair(lab.A, lab.D)
        assert any(
            ab in s.diagonals and ad in s.diagonals for s in path.states()
        )


def test_triangle_cooccurrence_counterexample_on_detour():
    # a non-shortest hexagon path where (0,2), (2,4) and (0,4) all occur
    # but never simultaneously; the true distance is 3, the detour takes 4
    start = PolygonTriangulation.of(6, {(0, 2), (2, 4), (2, 5)})
    detour = FlipPath.from_removals(start, [(0, 2), (2, 5), (2, 4), (1, 5)])
    assert detour.end().diagonals == frozenset({(0, 4), (1, 3), (1, 4)})
    assert flip_distance(start, detour.end()).distance == 3
    bad = check_triangle_cooccurrence(detour)
    assert bad == ((0, 2), (2, 4), (0, 4))


def test_diameter_sanity_skips_small_n():
    report = diameter_sanity(12, trials=3)
    assert report.skipped and report.bound is None


def test_diameter_sanity_small_sample():
    report = diameter_sanity(13, trials=3, seed=1)
    assert not report.skipped
    assert report.bound == 16
    assert report.samples == 3
    assert report.within_bound
    assert report.max_distance <= 16


def test_diameter_sanity_budget_propagates():
    with pytest.raises(BudgetExceeded):
        diameter_sanity(13, trials=1, seed=1, node_budget=2)
