"""Acceptance gate: one test per headline claim, run against stated budgets.

Each test prints a single "criterion NN: PASS ..." line on success; the
pytest -rA summary carries the matching pass/fail line either way.  The
numbering is the package's own checklist order, nothing more.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from fliptet.family import bottom_triangulation, explicit_flip_path, top_triangulation
from fliptet.flipdist import (
    check_flip_count_identity,
    check_triangle_cooccurrence,
    diameter_sanity,
    flip_distance,
)
from fliptet.lpbound import l1_min
from fliptet.polygon import random_triangulation
from fliptet.sphere import (
    bad_cycle_report,
    cone_decomposition,
    double_disk_sphere,
    glue,
    recut_min_flip,
)
from fliptet.tetdecomp import (
    counting_lower_bound,
    from_flip_path,
    is_bipyramid,
    min_tet,
    no_three_face_tet,
    paired_cone_decomposition,
    paired_cone_size,
    validate_ball,
)

from fixtures import bipyramid, octahedron, tetrahedron
from oracles import oracle_flip_distance


@lru_cache(maxsize=None)
def _family(n):
    return glue(top_triangulation(n), bottom_triangulation(n))


def _random_glued(m: int, rng: Random):
    while True:
        a = random_triangulation(m, rng)
        b = random_triangulation(m, rng)
        if not (a.diagonals & b.diagonals):
            return glue(a, b)


def _line(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS {text}")


@pytest.fixture(scope="module")
def exact_distances():
    return {n: flip_distance(top_triangulation(n), bottom_triangulation(n)) for n in (2, 3, 4)}


@pytest.fixture(scope="module")
def exact_fills():
    fills = {n: min_tet(_family(n)) for n in (2, 3)}
    fills[4] = min_tet(_family(4), stop_at=11)
    return fills


@pytest.fixture(scope="module")
def shortest_paths():
    rng = Random(5)
    paths = []
    while len(paths) < 100:
        a = random_triangulation(8, rng)
        b = random_triangulation(8, rng)
        if a.diagonals & b.diagonals:
            continue
        res = flip_distance(a, b, use_splitting=False)
        paths.append(res.path)
    return paths


def test_criterion_01_explicit_path_replays_full_length():
    start = time.perf_counter()
    for n in range(2, 51):
        p = explicit_flip_path(n)
        assert len(p) == 3 * n + 1
        assert p.states()[0] == top_triangulation(n)
        assert p.end() == bottom_triangulation(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(1, f"explicit paths replay with 3n+1 flips for n = 2..50 in {elapsed:.2f}s")


def test_criterion_02_exact_distance_matches_formula(exact_distances):
    start = time.perf_counter()
    for n, res in exact_distances.items():
        assert res.exact
        assert res.distance == 3 * n + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line(2, "exact search gives distance 3n+1 at n = 2, 3, 4")


def test_criterion_03_minimal_fill_matches_formula(exact_fills):
    start = time.perf_counter()
    for n in (2, 3):
        res = exact_fills[n]
        assert res.exact and res.complete
        assert res.size == 2 * n + 3
    res4 = exact_fills[4]
    assert res4.size == 11
    validate_ball(_family(4), res4.witness)
    assert counting_lower_bound(_family(4)) == 11
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _line(3, "minimal fills are 7 and 9 tets exhaustively; 11 closed by witness plus counting")


def test_criterion_04_ratio_gap(exact_distances, exact_fills):
    r3 = Fraction(exact_distances[3].distance, exact_fills[3].size)
    assert r3 == Fraction(10, 9) and r3 > 1
    r4 = Fraction(exact_distances[4].distance, exact_fills[4].size)
    assert r4 == Fraction(13, 11) and r4 > 1
    drift = abs(Fraction(3 * 48 + 1, 2 * 48 + 3) - Fraction(3, 2))
    assert drift < Fraction(4, 100)
    _line(4, f"ratios 10/9 and 13/11 exceed 1; formula at n = 48 is within {float(drift):.3f} of 3/2")


def test_criterion_05_flip_count_identity(shortest_paths):
    for n in range(2, 21):
        assert check_flip_count_identity(explicit_flip_path(n))
    for p in shortest_paths:
        assert check_flip_count_identity(p)
    _line(5, "length = n-3 + extra diagonals on family paths n = 2..20 and 100 shortest paths")


def test_criterion_06_splitting_preserves_distance():
    rng = Random(6)
    checked = 0
    for _ in range(200):
        m = rng.randrange(4, 11)
        a = random_triangulation(m, rng)
        b = random_triangulation(m, rng)
        plain = flip_distance(a, b, use_splitting=False)
        split = flip_distance(a, b, use_splitting=True)
        assert split.distance == plain.distance
        if m <= 7:
            # the unsplit search is the same engine; the oracle is not
            assert split.distance == oracle_flip_distance(m, a.diagonals, b.diagonals)
            checked += 1
    _line(
        6,
        "splitting along shared diagonals kept 200 random distances unchanged,"
        f" {checked} of them equal to the oracle's",
    )


def test_criterion_07_triangle_cooccurrence(shortest_paths):
    for p in shortest_paths:
        assert check_triangle_cooccurrence(p) is None
    _line(7, "no forbidden diagonal triangle on any of the 100 shortest paths")


def test_criterion_08_stacked_ball_validates():
    for n in range(2, 7):
        tau = _family(n)
        d = from_flip_path(top_triangulation(n), bottom_triangulation(n), explicit_flip_path(n))
        assert len(d) == 3 * n + 1
        cert = validate_ball(tau, d)
        assert cert.euler == 1
    _line(8, "stacked flip tetrahedra form balls with the right boundary for n = 2..6")


def test_criterion_09_family_shape_facts():
    for n in range(2, 9):
        tau = _family(n)
        ok, witness = no_three_face_tet(tau)
        assert ok and witness is None
        assert not is_bipyramid(tau)
        assert tau.face_count() == 4 * n + 4
        assert tau.edge_count() == 6 * n + 6
    _line(9, "no tet spans three sphere faces, never a bipyramid, 4n+4 faces and 6n+6 edges")


def test_criterion_10_bound_sandwich(exact_fills):
    for n in (2, 3):
        value = l1_min(_family(n)).value
        fill = exact_fills[n].size
        recut = recut_min_flip(_family(n), stop_at=2 * n + 3).distance
        assert value <= fill <= recut
    for tau in (tetrahedron(), octahedron()):
        assert l1_min(tau).value <= min_tet(tau).size
    rng = Random(10)
    for _ in range(20):
        tau = _random_glued(rng.randrange(8, 11), rng)
        assert l1_min(tau).value <= min_tet(tau).size
    _line(10, "1-norm bound <= fill <= recut at n = 2, 3; bound holds on 22 more spheres")


def test_criterion_11_cone_size_at_degree_six():
    rng = Random(11)
    found = 0
    while found < 10:
        m = rng.randrange(8, 13)
        tau = _random_glued(m, rng)
        degree_six = [v for v, d in tau.degrees().items() if d == 6]
        if not degree_six:
            continue
        cone = cone_decomposition(tau, degree_six[0])
        assert len(cone) == 2 * m - 10
        validate_ball(tau, cone)
        found += 1
    _line(11, "cones at degree-6 vertices have 2n-10 tets and validate on 10 random spheres")


def test_criterion_12_recut_reaches_fill_size():
    for n in (2, 3):
        res = recut_min_flip(_family(n), stop_at=2 * n + 3)
        assert res.distance is not None
        assert res.distance <= 2 * n + 3
    _line(12, "some Hamiltonian recut reaches 2n+3 flips at n = 2 and 3")


def test_criterion_13_sampled_distances_within_diameter():
    report = diameter_sanity(13, 50, seed=13)
    assert not report.skipped
    assert report.samples == 50
    assert report.within_bound
    assert report.max_distance <= 16
    _line(13, f"50 exact distances at n = 13 peak at {report.max_distance} <= 16")


def test_criterion_14_two_cone_construction_beats_single_cone():
    tau, seam = double_disk_sphere()
    degrees = tau.degrees()
    assert set(degrees.values()) == {5, 6}
    report = bad_cycle_report(tau)
    assert [c.canonical() for c in report.bad] == [seam.canonical()]
    int_a, int_b = seam.side_interiors()
    v1 = min(v for v in int_a if degrees[v] == 6)
    v2 = min(v for v in int_b if degrees[v] == 6)
    d = paired_cone_decomposition(tau, seam, v1, v2)
    assert len(d) == 43
    validate_ball(tau, d)
    for v, deg in sorted(degrees.items()):
        if deg == 6:
            assert len(cone_decomposition(tau, v)) == 44 > 43
    fill = min_tet(bipyramid(5))
    assert fill.size == 5 and fill.exact and fill.complete
    assert paired_cone_size(tau, seam, v1, v2) == 19 * 2 + 5 == 43
    _line(14, "paired cones give 43 validated tets, under every 44-tet single cone")
