from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliptet.polygon import (
    FlipPath,
    PolygonTriangulation,
    common_diagonals,
    crosses,
    is_boundary_edge,
    pair,
    random_triangulation,
    split_along,
)

from oracles import (
    all_triangulations,
    catalan,
    diagonals_cross,
    is_valid_triangulation,
)


def fan(n: int, apex: int = 0) -> PolygonTriangulation:
    diags = {
        pair(apex, v)
        for v in range(n)
        if v != apex and not is_boundary_edge(n, apex, v)
    }
    return PolygonTriangulation.of(n, diags)


def all_diagonals(n: int):
    return [
        (a, b)
        for a, b in combinations(range(n), 2)
        if not is_boundary_edge(n, a, b)
    ]


def test_crosses_square():
    assert crosses((0, 2), (1, 3))


def test_crosses_shared_endpoint():
    assert not crosses((0, 2), (2, 4))


def test_crosses_nested():
    assert not crosses((1, 5), (2, 4))


def test_crosses_self():
    assert not crosses((0, 2), (0, 2))


@given(st.integers(6, 16), st.data())
def test_crosses_matches_geometry_oracle(n, data):
    diags = all_diagonals(n)
    d1 = data.draw(st.sampled_from(diags))
    d2 = data.draw(st.sampled_from(diags))
    assert crosses(d1, d2) == diagonals_cross(n, d1, d2)
    assert crosses(d1, d2) == crosses(d2, d1)


def test_validate_ok_square():
    # `of` sorts each pair before the constructor checks it
    assert PolygonTriangulation.of(4, {(2, 0)}).diagonals == {(0, 2)}


def _rejects(n, diagonals, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        PolygonTriangulation.of(n, diagonals)


def test_validate_crossing_pair():
    _rejects(5, {(0, 2), (1, 3)}, "diagonals (0, 2) and (1, 3) cross")


def test_validate_boundary_edge_rejected():
    _rejects(5, {(0, 1), (0, 2)}, "(0,1) is a boundary edge, not a diagonal")


def test_validate_wrong_count():
    _rejects(6, {(0, 2)}, "expected 3 diagonals for n=6, got 1")


def test_validate_out_of_range():
    _rejects(4, {(0, 9)}, "vertex pair (0,9) out of range for n=4")
    _rejects(2, set(), "polygon needs at least 3 vertices, got n=2")
    # the constructor takes pairs as given; only `of` sorts them
    with pytest.raises(ValueError, match=f"^{re.escape('vertex pair (2,0) out of range for n=4')}$"):
        PolygonTriangulation(4, frozenset({(2, 0)}))


def test_triangles_square():
    t = PolygonTriangulation.of(4, {(0, 2)})
    assert t.triangles() == frozenset({(0, 1, 2), (0, 2, 3)})


def test_triangles_fan5():
    t = fan(5)
    assert t.triangles() == frozenset({(0, 1, 2), (0, 2, 3), (0, 3, 4)})


def test_triangles_counts_and_incidence():
    rng = random.Random(7)
    for n in range(4, 12):
        t = random_triangulation(n, rng)
        faces = t.triangles()
        assert len(faces) == n - 2
        for d in t.diagonals:
            assert sum(1 for f in faces if set(d) <= set(f)) == 2
        for e in t.boundary_edges():
            assert sum(1 for f in faces if set(e) <= set(f)) == 1


def test_flip_square():
    t = PolygonTriangulation.of(4, {(0, 2)})
    t2, inserted = t.flip((0, 2))
    assert inserted == (1, 3)
    assert t2.diagonals == frozenset({(1, 3)})


def test_flip_missing_diagonal():
    t = PolygonTriangulation.of(4, {(0, 2)})
    with pytest.raises(ValueError):
        t.flip((1, 3))


@settings(max_examples=200)
@given(st.integers(4, 12), st.randoms(use_true_random=False))
def test_flip_involution(n, rng):
    t = random_triangulation(n, rng)
    d = rng.choice(sorted(t.diagonals))
    t2, inserted = t.flip(d)
    # flip skips the constructor's check; the constructor accepts its result
    assert PolygonTriangulation(t2.n, t2.diagonals) == t2
    t3, back = t2.flip(inserted)
    assert back == pair(*d)
    assert t3 == t


@given(st.integers(4, 11), st.randoms(use_true_random=False))
def test_neighbor_count(n, rng):
    t = random_triangulation(n, rng)
    ns = [t.flip(d)[0] for d in sorted(t.diagonals)]
    assert len(ns) == n - 3
    assert len({x.key() for x in ns}) == n - 3
    for x in ns:
        assert PolygonTriangulation(x.n, x.diagonals) == x


def quad_of(t: PolygonTriangulation, d) -> tuple[int, ...]:
    """The quadrilateral of the two triangles at d: both flip diagonals' ends."""
    return tuple(sorted(set(d) | set(t.flip(d)[1])))


def test_quad_of_square():
    t = PolygonTriangulation.of(4, {(0, 2)})
    assert quad_of(t, (0, 2)) == (0, 1, 2, 3)


def test_quad_of_fan():
    t = fan(5)
    assert quad_of(t, (0, 2)) == (0, 1, 2, 3)


def test_quad_diagonals_cross():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(5, 12)
        t = random_triangulation(n, rng)
        d = rng.choice(sorted(t.diagonals))
        q = quad_of(t, d)
        other = tuple(sorted(set(q) - set(d)))
        assert crosses(d, other)


def test_common_diagonals_identity():
    t = fan(8)
    assert common_diagonals(t, t) == t.diagonals


def test_split_along_identical_yields_nothing():
    t = fan(8)
    assert split_along(t, t) == []


def test_split_along_example_hexagon():
    t1 = PolygonTriangulation.of(6, {(0, 2), (0, 3), (3, 5)})
    t2 = PolygonTriangulation.of(6, {(0, 3), (1, 3), (3, 5)})
    assert common_diagonals(t1, t2) == frozenset({(0, 3), (3, 5)})
    subs = split_along(t1, t2)
    assert len(subs) == 1
    sub1, sub2, vmap = subs[0]
    assert vmap == (0, 1, 2, 3)
    assert sub1.diagonals == frozenset({(0, 2)})
    assert sub2.diagonals == frozenset({(1, 3)})


def test_split_along_regions_cover():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(6, 13)
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        subs = split_along(t1, t2)
        for sub1, sub2, vmap in subs:
            assert is_valid_triangulation(sub1.n, sub1.diagonals)
            assert is_valid_triangulation(sub2.n, sub2.diagonals)
            assert not common_diagonals(sub1, sub2)
            assert len(vmap) == sub1.n
        # every non-common diagonal lands in exactly one region
        noncommon = len(t1.diagonals - t2.diagonals)
        assert sum(len(s.diagonals) for s, _, _ in subs) == noncommon


def test_flip_path_replay_and_end():
    t = PolygonTriangulation.of(5, {(0, 2), (0, 3)})
    path = FlipPath.from_removals(t, [(0, 2), (0, 3)])
    states = path.states()
    assert len(states) == 3
    assert len(path) == 2
    assert path.end() == states[-1]


def test_flip_path_rejects_bad_step():
    t = PolygonTriangulation.of(5, {(0, 2), (0, 3)})
    bad = FlipPath(5, t, (((1, 3), (0, 2)),))
    with pytest.raises(ValueError):
        bad.states()


def test_flip_path_rejects_wrong_insertion():
    t = PolygonTriangulation.of(4, {(0, 2)})
    bad = FlipPath(4, t, (((0, 2), (0, 3)),))
    with pytest.raises(ValueError):
        bad.states()


def test_random_triangulation_valid_and_uniformish():
    rng = random.Random(0)
    for n in (4, 5, 6, 7, 10, 13):
        t = random_triangulation(n, rng)
        assert is_valid_triangulation(n, t.diagonals)
    # all Catalan(4) = 14 hexagon triangulations show up
    seen = {random_triangulation(6, rng).key() for _ in range(2000)}
    assert len(seen) == catalan(4)


def test_oracle_enumeration_matches_catalan():
    for n in (4, 5, 6, 7, 8):
        ts = all_triangulations(n)
        assert len(ts) == catalan(n - 2)
        assert len(set(ts)) == len(ts)
        for d in ts:
            assert is_valid_triangulation(n, frozenset(d))


def test_neighbors_match_oracle():
    rng = random.Random(5)
    from oracles import oracle_neighbors

    for _ in range(20):
        n = rng.randrange(5, 9)
        t = random_triangulation(n, rng)
        mine = {t.flip(d)[0].diagonals for d in t.diagonals}
        oracle = set(oracle_neighbors(n, t.diagonals))
        assert mine == oracle
