from __future__ import annotations

import gc
import random
import re
import time
from collections import Counter
from itertools import islice

import pytest

from fliptet.family import bottom_triangulation, fan, top_triangulation
from fliptet.flipdist import flip_distance
from fliptet.polygon import PolygonTriangulation, random_triangulation
from fliptet.sphere import (
    BadCycleReport,
    CycleInSphere,
    SphereTriangulation,
    bad_cycle_report,
    canonical_certificate,
    cone_decomposition,
    degree_histogram,
    double_disk_sphere,
    glue,
    hamiltonian_cycles,
    isomorphic,
    oriented_faces,
    recut,
    recut_min_flip,
    relabel,
)

from fixtures import bipyramid, icosahedron, octahedron, tetrahedron
from oracles import (
    brute_bad_cycles,
    brute_hamiltonian_cycles,
    halves_from_sides,
    oracle_recut_min_flip,
)


def glued_family(n):
    return glue(top_triangulation(n), bottom_triangulation(n))


def random_glued(n, rng):
    while True:
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        if not (t1.diagonals & t2.diagonals):
            return glue(t1, t2)


def test_fixture_spheres_validate():
    for tau in (tetrahedron(), octahedron(), icosahedron(), bipyramid(5)):
        assert tau.vertex_count - tau.edge_count() + tau.face_count() == 2


def _rejects(v_count, faces, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        SphereTriangulation.of(v_count, faces)


def test_validate_rejects_few_vertices():
    _rejects(3, [(0, 1, 2)], "a sphere needs at least 4 vertices, got 3")


def test_validate_rejects_edge_in_one_triangle():
    _rejects(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)], "edge (1, 2) lies in 1 triangles, expected 2")


def test_validate_rejects_edge_in_three_triangles():
    faces = list(tetrahedron().triangles) + [(0, 1, 4), (0, 2, 4), (1, 2, 4)]
    _rejects(5, faces, "edge (0, 1) lies in 3 triangles, expected 2")


def test_validate_rejects_pinched_vertex():
    # two tetrahedron boundaries sharing vertex 0 only
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    _rejects(7, faces, "the link of vertex 0 is not a single cycle")


def test_validate_rejects_disjoint_spheres():
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    _rejects(8, faces, "Euler characteristic is 4, expected 2")
    # a tetrahedron beside the 7-vertex torus: Euler characteristic 2 + 0
    torus = [(4 + i, 4 + (i + 1) % 7, 4 + (i + 3) % 7) for i in range(7)]
    torus += [(4 + i, 4 + (i + 2) % 7, 4 + (i + 3) % 7) for i in range(7)]
    _rejects(11, faces[:4] + torus, "the triangle complex is disconnected")


def test_validate_rejects_missing_vertex():
    _rejects(5, tetrahedron().triangles, "vertex 4 appears in no triangle")
    _rejects(4, [(0, 0, 1)], "triangle (0, 0, 1) has repeated vertices")
    _rejects(4, [(0, 1, 7)], "triangle (0, 1, 7) uses vertices outside 0..3")


def test_glue_family_counts():
    for n in range(2, 9):
        tau = glued_family(n)
        assert tau.vertex_count == 2 * n + 4
        assert tau.edge_count() == 6 * n + 6
        assert tau.face_count() == 4 * n + 4


def test_glue_crossed_squares_is_tetrahedron():
    tau = glue(
        PolygonTriangulation.of(4, {(0, 2)}),
        PolygonTriangulation.of(4, {(1, 3)}),
    )
    assert tau.vertex_count == 4 and tau.face_count() == 4 and tau.edge_count() == 6
    assert isomorphic(tau, tetrahedron())


def test_glue_rejects_common_diagonals():
    with pytest.raises(ValueError, match="share diagonals"):
        glue(fan(6, 0), fan(6, 0))


def test_glue_rejects_doubled_triangle():
    t = PolygonTriangulation.of(3, frozenset())
    with pytest.raises(ValueError, match="double the triangles"):
        glue(t, t)


def test_glue_rejects_size_mismatch():
    with pytest.raises(ValueError, match="sizes differ"):
        glue(fan(6, 0), fan(7, 1))


def test_hamiltonian_cycles_tetrahedron():
    cycles = list(hamiltonian_cycles(tetrahedron()))
    assert len(cycles) == 3
    want = brute_hamiltonian_cycles(4, {tuple(sorted(e)) for e in tetrahedron().edges()})
    assert {c.canonical() for c in cycles} == want


def test_hamiltonian_cycles_octahedron_match_oracle():
    octa = octahedron()
    cycles = list(hamiltonian_cycles(octa))
    want = brute_hamiltonian_cycles(6, {tuple(sorted(e)) for e in octa.edges()})
    assert len(cycles) == len(want) == 16
    assert {c.canonical() for c in cycles} == want


def test_hamiltonian_cycles_contain_gluing_seam():
    tau = glued_family(2)
    seam = CycleInSphere(tau, tuple(range(8))).canonical()
    found = {c.canonical() for c in hamiltonian_cycles(tau)}
    assert seam in found


def test_hamiltonian_cycles_limit_and_validity():
    tau = glued_family(2)
    cycles = list(islice(hamiltonian_cycles(tau), 5))
    assert len(cycles) == 5
    for c in cycles:
        assert c.is_hamiltonian()


def test_cycle_validation_errors():
    tau, octa = tetrahedron(), octahedron()
    cases = [
        (tau, (0, 1), "a cycle needs at least 3 vertices, got 2"),
        (tau, (0, 1, 0), "the cycle repeats a vertex"),
        # 0 and 5 are the nonadjacent apexes
        (octa, (0, 5, 1), "consecutive cycle vertices 0 and 5 are not an edge of the sphere"),
    ]
    for sphere, verts, msg in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            CycleInSphere(sphere, verts)


def test_cycle_sides_partition():
    octa = octahedron()
    equator = CycleInSphere(octa, (1, 2, 3, 4))
    side_a, side_b = equator.sides()
    assert len(side_a) == len(side_b) == 4
    assert side_a | side_b == octa.triangles
    assert equator.side_interiors() == (frozenset({0}), frozenset({5}))


def test_recut_seam_recovers_gluing_pair():
    for n in (2, 3):
        top, bottom = top_triangulation(n), bottom_triangulation(n)
        tau = glue(top, bottom)
        seam = CycleInSphere(tau, tuple(range(tau.vertex_count)))
        half_a, half_b, labeling = recut(tau, seam)
        assert labeling == tuple(range(tau.vertex_count))
        assert {half_a, half_b} == {top, bottom}


def test_recut_round_trip_all_cycles():
    tau = glued_family(2)
    for cycle in hamiltonian_cycles(tau):
        half_a, half_b, labeling = recut(tau, cycle)
        assert not (half_a.diagonals & half_b.diagonals)
        reglued = relabel(glue(half_a, half_b), labeling)
        assert reglued == tau


def test_recut_round_trip_certificate():
    tau = glued_family(2)
    for cycle in islice(hamiltonian_cycles(tau), 3):
        half_a, half_b, _ = recut(tau, cycle)
        assert isomorphic(glue(half_a, half_b), tau)


def test_recut_rejects_short_cycle():
    octa = octahedron()
    with pytest.raises(ValueError, match="Hamiltonian"):
        recut(octa, CycleInSphere(octa, (0, 1, 2)))


def test_recut_rejects_foreign_cycle():
    tau = glued_family(2)
    with pytest.raises(ValueError, match="different sphere"):
        recut(tau, CycleInSphere(tetrahedron(), (0, 1, 2, 3)))


def test_recut_min_flip_tetrahedron():
    res = recut_min_flip(tetrahedron())
    assert res.distance == 1
    assert res.exhausted
    assert res.cycles_tried == 3


def test_recut_min_flip_family_two():
    res = recut_min_flip(glued_family(2))
    assert res.distance == 7
    assert res.exhausted


def test_recut_min_flip_stop_at():
    res = recut_min_flip(glued_family(2), stop_at=7)
    assert res.distance == 7
    assert not res.exhausted


def test_recut_min_flip_cycle_budget():
    res = recut_min_flip(glued_family(2), max_cycles=4)
    assert res.cycles_tried == 4
    assert not res.exhausted
    assert res.distance is not None


def test_recut_min_flip_matches_brute_minimum():
    # the bounded searches pick the same first minimizing cycle as exact
    # distances over every cycle; only improvements are searched to the end
    rng = random.Random(23)
    for _ in range(30):
        tau = random_glued(rng.randrange(6, 10), rng)
        best = best_cycle = None
        improved = 0
        for cycle in hamiltonian_cycles(tau):
            half_a, half_b, _ = recut(tau, cycle)
            d = flip_distance(half_a, half_b).distance
            if best is None or d < best:
                best, best_cycle = d, cycle
                improved += 1
        res = recut_min_flip(tau)
        assert (res.distance, res.cycle, res.exhausted) == (best, best_cycle, True)
        assert res.halves == recut(tau, best_cycle)[:2]
        assert res.refuted == res.cycles_tried - improved


def _relabeled_spheres(count=40):
    # glued 6- to 9-gons under a random relabeling, so that the first
    # cycles do not follow the gluing seam
    rng = random.Random(7)
    out = []
    for _ in range(count):
        n = rng.randrange(6, 10)
        tau = random_glued(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(relabel(tau, perm))
    return out


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_cycles": 5}, {"node_budget": 40}],
    ids=["exhaustive", "max_cycles", "node_budget"],
)
def test_recut_min_flip_matches_object_loop(kwargs):
    for tau in _relabeled_spheres():
        assert recut_min_flip(tau, **kwargs) == oracle_recut_min_flip(tau, **kwargs)


def test_rotation_cut_matches_dual_flood():
    for tau in _relabeled_spheres():
        for cycle in hamiltonian_cycles(tau):
            assert recut(tau, cycle)[:2] == halves_from_sides(cycle)


def test_recut_min_flip_stop_at_bounds_every_search():
    # bounded at stop_at from the first cycle, the search returns the
    # object loop's recut; it searches no more nodes, and refutes every
    # cycle before the one it returns
    cases = [(glued_family(n), 2 * n + 3) for n in (2, 3, 4)]
    for tau in _relabeled_spheres(10):
        least = recut_min_flip(tau).distance
        cases += [(tau, least), (tau, least + 1)]
    for tau, stop_at in cases:
        loop = oracle_recut_min_flip(tau, stop_at=stop_at)
        res = recut_min_flip(tau, stop_at=stop_at)
        assert res.distance == loop.distance <= stop_at
        assert (res.cycle, res.halves, res.cycles_tried, res.exhausted) == (
            loop.cycle,
            loop.halves,
            loop.cycles_tried,
            loop.exhausted,
        )
        assert res.nodes <= loop.nodes
        assert res.refuted == res.cycles_tried - 1


def test_recut_min_flip_refutes_every_cycle_below_the_minimum():
    for tau in _relabeled_spheres(10):
        least = recut_min_flip(tau).distance
        res = recut_min_flip(tau, stop_at=least - 1)
        assert (res.distance, res.cycle, res.halves) == (None, None, None)
        assert res.exhausted
        assert res.refuted == res.cycles_tried == sum(1 for _ in hamiltonian_cycles(tau))


def test_recut_min_flip_time_budget_is_a_deadline(monkeypatch):
    # stand-in for recuts whose searches take 0.8 s each: a search given
    # less time than that uses all of it and runs out of budget
    import fliptet.flipdist as flipdist

    real = flipdist._search_one
    given = []

    def slow_search(n, source, target, budget, below=None):
        left = budget.deadline - time.monotonic()
        given.append(left)
        if left < 0.8:
            time.sleep(max(left, 0.0))
            return flipdist.DistanceResult(None, None, flipdist.SearchStats(), status="budget")
        time.sleep(0.8)
        return real(n, source, target, flipdist._Budget(budget.node_budget, None), below)

    monkeypatch.setattr(flipdist, "_search_one", slow_search)
    began = time.monotonic()
    res = recut_min_flip(glued_family(2), time_budget=1.0)
    elapsed = time.monotonic() - began
    assert not res.exhausted
    assert res.cycles_tried == 2 and res.distance is not None
    # the second search gets only what the first left of the budget
    assert given[0] == pytest.approx(1.0, abs=0.05)
    assert given[1] < 0.25
    assert elapsed < 1.25


@pytest.mark.parametrize(
    "call",
    [
        lambda tau: list(hamiltonian_cycles(tau)),
        lambda tau: list(islice(hamiltonian_cycles(tau), 3)),
        bad_cycle_report,
        recut_min_flip,
    ],
    ids=["hamiltonian_cycles", "hamiltonian_cycles-first-three", "bad_cycle_report", "recut_min_flip"],
)
def test_cycle_enumeration_leaves_no_reference_cycle(call):
    # the enumeration state must go when the call returns, not wait for
    # the cyclic collector
    tau = glued_family(2)
    gc.collect()
    gc.disable()
    try:
        call(tau)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bad_cycles_icosahedron_matches_brute_force():
    icosa = icosahedron()
    report = bad_cycle_report(icosa)
    strict, loose, examined = brute_bad_cycles(12, set(icosa.triangles))
    assert {c.canonical() for c in report.bad} == strict == set()
    assert report.closed_bad == loose == 50
    assert report.examined == examined == 50


def test_bad_cycles_tetrahedron_examines_nothing():
    report = bad_cycle_report(tetrahedron())
    assert report == BadCycleReport((), 0, 0)


def test_bad_cycles_family_two_matches_brute_force():
    tau = glued_family(2)
    report = bad_cycle_report(tau)
    strict, loose, examined = brute_bad_cycles(tau.vertex_count, set(tau.triangles))
    assert {c.canonical() for c in report.bad} == strict
    assert report.closed_bad == loose
    assert report.examined == examined


def test_bad_cycles_seamed_sphere():
    tau, seam = double_disk_sphere()
    found = bad_cycle_report(tau).bad
    assert len(found) == 1
    assert found[0].canonical() == seam.canonical()
    report = bad_cycle_report(tau)
    assert report.closed_bad == 278
    assert report.examined == 290


def test_cone_decomposition_counts():
    tau = glued_family(2)
    deg = tau.degrees()
    for v in range(tau.vertex_count):
        assert len(cone_decomposition(tau, v)) == tau.face_count() - deg[v]


def test_cone_decomposition_degree_six_vertex():
    rng = random.Random(11)
    found = 0
    while found < 5:
        n = rng.randrange(8, 11)
        tau = random_glued(n, rng)
        sixes = [v for v, d in tau.degrees().items() if d == 6]
        if not sixes:
            continue
        found += 1
        assert len(cone_decomposition(tau, sixes[0])) == 2 * n - 10


def test_cone_decomposition_rejects_bad_vertex():
    with pytest.raises(ValueError, match="outside"):
        cone_decomposition(tetrahedron(), 4)


def test_degree_histograms():
    assert degree_histogram(icosahedron()) == {5: 12}
    assert degree_histogram(octahedron()) == {4: 6}
    tau = glued_family(2)
    hist = degree_histogram(tau)
    assert sum(d * k for d, k in hist.items()) == 2 * (6 * 2 + 6)


def test_degree_five_count_is_euler_forced():
    tau, _ = double_disk_sphere()
    assert degree_histogram(tau) == {5: 12, 6: 15}


def test_relabel_requires_bijection():
    with pytest.raises(ValueError, match="bijection"):
        relabel(tetrahedron(), [0, 1, 2, 2])


def test_isomorphic_after_relabeling():
    rng = random.Random(12)
    for tau in (tetrahedron(), octahedron(), glued_family(2)):
        perm = list(range(tau.vertex_count))
        rng.shuffle(perm)
        assert isomorphic(tau, relabel(tau, perm))


def test_isomorphic_distinguishes_spheres():
    hexa = glue(fan(6, 0), fan(6, 1))
    assert hexa.vertex_count == octahedron().vertex_count
    assert not isomorphic(hexa, octahedron())


def test_certificate_is_label_invariant():
    tau = glued_family(2)
    assert canonical_certificate(tau) == canonical_certificate(
        relabel(tau, [3, 5, 0, 2, 7, 1, 4, 6])
    )


def test_oriented_faces_are_coherent():
    for tau in (tetrahedron(), octahedron(), glued_family(3)):
        directed = Counter()
        for x, y, z in oriented_faces(tau):
            directed.update([(x, y), (y, z), (z, x)])
        assert all(k == 1 for k in directed.values())
        assert {tuple(sorted(e)) for e in directed} == set(
            map(tuple, map(sorted, tau.edges()))
        )


def test_double_disk_sphere_structure():
    tau, seam = double_disk_sphere()
    assert (tau.vertex_count, tau.edge_count(), tau.face_count()) == (27, 75, 50)
    assert len(seam) == 5
    side_a, side_b = seam.sides()
    assert len(side_a) == len(side_b) == 25
    int_a, int_b = seam.side_interiors()
    assert len(int_a) == len(int_b) == 11
