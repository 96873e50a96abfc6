from __future__ import annotations

import gc
from collections import Counter
from itertools import combinations
from random import Random

import pytest

from fliptet.family import (
    bottom_triangulation,
    explicit_flip_path,
    fan,
    top_triangulation,
)
from fliptet.polygon import FlipPath, PolygonTriangulation, random_triangulation
from fliptet.sphere import (
    CycleInSphere,
    SphereTriangulation,
    cone_decomposition,
    double_disk_sphere,
    glue,
)
from fliptet import tetdecomp
from fliptet.tetdecomp import (
    TetDecomposition,
    counting_lower_bound,
    from_flip_path,
    is_bipyramid,
    min_tet,
    no_three_face_tet,
    paired_cone_decomposition,
    paired_cone_size,
    validate_ball,
)

from fixtures import bipyramid, icosahedron, octahedron, tetrahedron
from oracles import oracle_min_fill


def glued_family(n):
    return glue(top_triangulation(n), bottom_triangulation(n))


def glued_random(m, rng):
    # two random triangulations of the m-gon that share no diagonal
    while True:
        a, b = random_triangulation(m, rng), random_triangulation(m, rng)
        if not a.diagonals & b.diagonals:
            return glue(a, b)


def family_stack(n):
    return from_flip_path(
        top_triangulation(n), bottom_triangulation(n), explicit_flip_path(n)
    )


def test_decomposition_basics():
    d = TetDecomposition.of(4, [(3, 2, 1, 0)])
    assert len(d) == 1
    assert d.tets == frozenset({(0, 1, 2, 3)})
    cert = validate_ball(tetrahedron(), d)
    assert (cert.edges, cert.faces) == (6, 4)


def test_single_flip_gives_one_tetrahedron():
    top = PolygonTriangulation.of(4, {(0, 2)})
    path = FlipPath.from_removals(top, [(0, 2)])
    d = from_flip_path(top, path.end(), path)
    assert d.tets == frozenset({(0, 1, 2, 3)})
    validate_ball(tetrahedron(), d)


def test_flip_path_stack_validates_on_family():
    for n in range(2, 7):
        path = explicit_flip_path(n)
        d = family_stack(n)
        tau = glued_family(n)
        assert len(d) == len(path) == 3 * n + 1
        cert = validate_ball(tau, d)
        assert cert.euler == 1
        assert cert.collapsible is True
        # every tet face is a boundary face once or an interior face twice
        faces = Counter(f for t in d.tets for f in combinations(t, 3))
        assert {f for f, k in faces.items() if k == 1} == tau.triangles
        boundary = 4 * n + 4
        interior = len(faces) - boundary
        assert 4 * len(d) == boundary + 2 * interior


def test_flip_path_stack_small_certificate():
    cert = validate_ball(glued_family(2), family_stack(2))
    assert (cert.vertices, cert.edges, cert.faces, cert.tets) == (8, 20, 20, 7)
    assert cert.collapsible is True


def test_from_flip_path_rejects_wrong_endpoints():
    top, bottom = top_triangulation(2), bottom_triangulation(2)
    path = explicit_flip_path(2)
    with pytest.raises(ValueError, match="start"):
        from_flip_path(bottom, bottom, path)
    with pytest.raises(ValueError, match="end"):
        from_flip_path(top, top, path)


def test_from_flip_path_rejects_repeated_quadrilateral():
    top = PolygonTriangulation.of(5, {(0, 2), (0, 3)})
    path = FlipPath.from_removals(top, [(0, 2), (1, 3), (0, 3)])
    with pytest.raises(ValueError, match="quadrilateral"):
        from_flip_path(top, path.end(), path)


def test_from_flip_path_rejects_shared_diagonals():
    top = fan(6, 0)
    path = FlipPath.from_removals(top, [(0, 3)])
    with pytest.raises(ValueError, match="share diagonals"):
        from_flip_path(top, path.end(), path)


def test_validate_ball_accepts_cone():
    tau = glued_family(2)
    cert = validate_ball(tau, cone_decomposition(tau, 0))
    assert cert.euler == 1
    assert cert.collapsible is True


def test_validate_ball_rejects_overused_triangle():
    d = TetDecomposition.of(6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
    with pytest.raises(ValueError, match="lies in 3 tetrahedra"):
        validate_ball(octahedron(), d)


def test_validate_ball_rejects_boundary_mismatch():
    tau = glued_family(2)
    d = family_stack(2)
    smaller = TetDecomposition.of(8, list(d.tets)[:-1])
    with pytest.raises(ValueError, match="boundary"):
        validate_ball(tau, smaller)


def test_validate_ball_rejects_vertex_mismatch():
    d = TetDecomposition.of(5, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="vertex counts differ"):
        validate_ball(tetrahedron(), d)


# parity-complete fills that fail the connectivity or link checks
SPHERE_6 = SphereTriangulation.of(6, [
    (0, 1, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4),
    (0, 4, 5), (1, 2, 3), (2, 3, 4), (2, 4, 5),
])
SPHERE_8 = SphereTriangulation.of(8, [
    (0, 1, 3), (0, 1, 7), (0, 3, 7), (1, 2, 3), (1, 2, 6), (1, 6, 7),
    (2, 3, 4), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 5, 6), (3, 6, 7),
])
FAMILY_2 = glued_family(2)


@pytest.mark.parametrize(
    "tau, tets, message",
    [
        (
            SPHERE_6,
            [(0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 3, 4),
             (0, 2, 3, 5), (1, 2, 3, 5), (1, 2, 4, 5)],
            "the link of vertex 0 has Euler number 0, expected 1",
        ),
        (
            SPHERE_8,
            [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 4, 6), (0, 1, 6, 7),
             (0, 2, 3, 5), (0, 2, 4, 6), (0, 2, 5, 6), (0, 3, 5, 6),
             (0, 3, 6, 7), (1, 2, 4, 6), (2, 3, 4, 5)],
            "the link of edge (2, 4) is not a single path",
        ),
        (
            SPHERE_8,
            [(0, 1, 2, 3), (0, 1, 2, 6), (0, 1, 4, 6), (0, 1, 4, 7),
             (0, 2, 3, 6), (0, 3, 6, 7), (0, 4, 6, 7), (1, 4, 6, 7),
             (2, 3, 4, 6), (2, 4, 5, 6), (3, 4, 5, 6)],
            "the link of edge (4, 6) is not a single cycle",
        ),
        (
            FAMILY_2,
            sorted(cone_decomposition(FAMILY_2, 0).tets) + list(combinations((1, 4, 5, 6, 7), 4)),
            "the decomposition is disconnected",
        ),
    ],
    ids=["vertex-link-euler", "edge-link-path", "edge-link-cycle", "disconnected"],
)
def test_validate_ball_rejects_bad_links(tau, tets, message):
    with pytest.raises(ValueError) as err:
        validate_ball(tau, TetDecomposition.of(tau.vertex_count, tets))
    assert str(err.value) == message


def test_collapse_stalls_without_free_face():
    # the boundary of the 4-simplex: every face has at least two cofaces
    assert tetdecomp._collapses_to_point(frozenset(combinations(range(5), 4))) is False


def test_no_three_face_tet_on_family():
    for n in range(2, 9):
        ok, witness = no_three_face_tet(glued_family(n))
        assert ok and witness is None


def test_no_three_face_tet_counterexamples():
    ok, witness = no_three_face_tet(tetrahedron())
    assert not ok and witness == (0, 1, 2, 3)
    tri_bi = bipyramid(3)
    ok, witness = no_three_face_tet(tri_bi)
    assert not ok
    faces = {f for f in _tet_faces(witness) if f in tri_bi.triangles}
    assert len(faces) >= 3
    ok, witness = no_three_face_tet(bipyramid(5))
    assert ok and witness is None


def _tet_faces(t):
    a, b, c, d = t
    return [(a, b, c), (a, b, d), (a, c, d), (b, c, d)]


def test_is_bipyramid():
    assert is_bipyramid(octahedron())
    assert is_bipyramid(bipyramid(3))
    assert is_bipyramid(bipyramid(5))
    assert not is_bipyramid(tetrahedron())
    assert not is_bipyramid(icosahedron())
    assert not is_bipyramid(double_disk_sphere()[0])
    for n in range(2, 9):
        assert not is_bipyramid(glued_family(n))


def test_counting_lower_bound_values():
    assert counting_lower_bound(tetrahedron()) == 1
    assert counting_lower_bound(octahedron()) == 4
    assert counting_lower_bound(bipyramid(3)) == 2
    assert counting_lower_bound(bipyramid(5)) == 5
    for n in range(2, 9):
        assert counting_lower_bound(glued_family(n)) == 2 * n + 3


def test_min_tet_tetrahedron():
    res = min_tet(tetrahedron())
    assert res.size == 1 and res.exact and res.complete
    assert res.witness.tets == frozenset({(0, 1, 2, 3)})


def test_min_tet_octahedron():
    res = min_tet(octahedron())
    assert res.size == 4 and res.exact
    assert res.lower_bound == counting_lower_bound(octahedron()) == 4


def test_min_tet_family_two():
    tau = glued_family(2)
    res = min_tet(tau)
    assert res.size == 7 and res.exact and res.complete
    assert res.status == "exact"
    validate_ball(tau, res.witness)


@pytest.mark.parametrize("stop_at", [None, 9], ids=["complete", "stopped"])
def test_min_tet_leaves_no_reference_cycle(stop_at):
    # the search state must go when the call returns, not wait for the
    # cyclic collector
    tau = glued_family(3)
    gc.collect()
    gc.disable()
    try:
        assert min_tet(tau, stop_at=stop_at).size == 9
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_min_tet_family_three():
    tau = glued_family(3)
    res = min_tet(tau)
    assert res.size == 9 and res.exact and res.complete
    assert res.certificate == validate_ball(tau, res.witness)


def test_min_tet_pentagonal_bipyramid_exhaustive():
    res = min_tet(bipyramid(5))
    assert res.size == 5 and res.exact and res.complete
    validate_ball(bipyramid(5), res.witness)


def test_min_tet_node_budget_degrades_to_bound():
    res = min_tet(glued_family(3), budget_nodes=1)
    assert not res.complete
    assert res.status == "bound"
    assert res.size == 10  # the cone incumbent
    assert res.lower_bound == 9


def test_min_tet_size_cap_is_a_proof_floor():
    res = min_tet(glued_family(3), budget_tets=8)
    assert res.complete
    assert res.size == 10 and res.lower_bound == 9
    assert not res.exact


def test_min_tet_stop_at_meets_counting_bound():
    tau = glued_family(4)
    res = min_tet(tau, stop_at=11)
    assert res.size == 11
    assert not res.complete
    assert res.exact  # the counting bound alone certifies 11
    assert res.lower_bound == 11
    validate_ball(tau, res.witness)


FAMILY_TWO_FILL = frozenset({
    (0, 1, 2, 4), (0, 1, 2, 7), (0, 2, 3, 4), (0, 2, 3, 7),
    (0, 3, 4, 5), (0, 3, 5, 6), (0, 3, 6, 7),
})


@pytest.mark.parametrize(
    "n, size, nodes", [(2, 7, 22), (3, 9, 152), (4, 11, 477)], ids=["n2", "n3", "n4"]
)
def test_min_tet_search_order_is_pinned(n, size, nodes):
    res = min_tet(glued_family(n))
    assert (res.size, res.nodes) == (size, nodes)
    assert res.complete and res.exact and res.lower_bound == size
    if n == 2:
        assert res.witness.tets == FAMILY_TWO_FILL


@pytest.mark.parametrize(
    "kwargs, size, nodes, complete, exact",
    [
        ({"budget_nodes": 300}, 12, 301, False, False),
        ({"budget_tets": 10}, 13, 42, True, False),
        ({"stop_at": 12}, 12, 257, False, False),
    ],
    ids=["budget_nodes", "budget_tets", "stop_at"],
)
def test_min_tet_budgeted_search_is_pinned(kwargs, size, nodes, complete, exact):
    res = min_tet(glued_family(4), **kwargs)
    assert (res.size, res.nodes, res.complete, res.exact) == (size, nodes, complete, exact)
    assert res.lower_bound == 11
    validate_ball(glued_family(4), res.witness)


def test_min_tet_counts_rejected_candidates(monkeypatch):
    # the first call checks the cone incumbent; refuse the next, the
    # search's first parity-complete candidate
    check = tetdecomp._ball_check
    calls = []

    def refuse_first_candidate(tau, tets):
        calls.append(tets)
        if len(calls) == 2:
            raise ValueError("refused")
        return check(tau, tets)

    monkeypatch.setattr(tetdecomp, "_ball_check", refuse_first_candidate)
    tau = glued_family(3)
    res = min_tet(tau)
    # the refused 9-tetrahedron fill is the only one, so the cone stands
    assert (res.rejected, res.size, res.nodes) == (1, 10, 162)
    assert len(calls[1]) == 9
    validate_ball(tau, res.witness)


def test_min_tet_matches_fill_oracle_on_random_spheres():
    rng = Random(31)
    checked = 0
    while checked < 30:
        m = rng.randrange(5, 8)
        a, b = random_triangulation(m, rng), random_triangulation(m, rng)
        if a.diagonals & b.diagonals:
            continue
        tau = glue(a, b)
        res = min_tet(tau)
        assert res.exact and res.rejected == 0
        assert res.size == oracle_min_fill(tau.vertex_count, tau.triangles)
        checked += 1


def _euler_count(tau, d):
    # V - 3 + interior edges: the size of any ball with all vertices on tau
    edges = {e for t in d.tets for e in combinations(t, 2)}
    return tau.vertex_count - 3 + len(edges - tau.edges())


def test_euler_count_gives_the_size_of_every_ball():
    for n in range(2, 6):
        tau = glued_family(n)
        witness = min_tet(tau).witness
        assert len(witness) == _euler_count(tau, witness) == 2 * n + 3
    for n in range(2, 5):
        assert len(family_stack(n)) == _euler_count(glued_family(n), family_stack(n))
    rng = Random(5)
    spheres = [octahedron()] + [glued_random(rng.randrange(6, 11), rng) for _ in range(12)]
    for tau in spheres:
        for apex in range(tau.vertex_count):
            cone = cone_decomposition(tau, apex)
            assert len(cone) == _euler_count(tau, cone)


def thirteen_gon_spheres():
    rng = Random("13-gons")
    return [glued_random(13, rng) for _ in range(6)]


def test_min_tet_finishes_on_random_thirteen_gons():
    sizes = []
    for tau in thirteen_gon_spheres():
        res = min_tet(tau, budget_nodes=20_000)
        assert res.complete and res.exact
        validate_ball(tau, res.witness)
        sizes.append(res.size)
    assert sizes == [10, 12, 12, 10, 14, 15]


def test_interrupted_min_tet_reports_the_euler_floor():
    tau = thirteen_gon_spheres()[5]
    assert not no_three_face_tet(tau)[0]
    assert counting_lower_bound(tau) == 6  # ceil(F/4)
    res = min_tet(tau, budget_nodes=5)
    assert not res.complete
    assert res.lower_bound == tau.vertex_count - 3 == 10


def test_paired_cone_on_seamed_sphere():
    tau, seam = double_disk_sphere()
    d = paired_cone_decomposition(tau, seam, 6, 22)
    assert len(d) == paired_cone_size(tau, seam, 6, 22) == 43
    assert len(d) == (25 - 6) + (25 - 6) + 5
    cone_size = tau.face_count() - max(tau.degrees().values())
    assert cone_size == 44
    assert len(d) < cone_size


def test_paired_cone_accepts_other_interior_vertices():
    tau, seam = double_disk_sphere()
    # centers of the two disks have degree 5, not 6
    d = paired_cone_decomposition(tau, seam, 0, 16)
    assert len(d) == paired_cone_size(tau, seam, 0, 16) == 45


def test_paired_cone_swaps_sides_when_needed():
    tau, seam = double_disk_sphere()
    assert paired_cone_decomposition(tau, seam, 22, 6).tets == \
        paired_cone_decomposition(tau, seam, 6, 22).tets


def test_paired_cone_degenerates_to_plain_fill():
    tau = bipyramid(5)
    seam = CycleInSphere(tau, (2, 3, 4, 5, 6))
    d = paired_cone_decomposition(tau, seam, 0, 1)
    assert len(d) == 5
    assert all(0 in t and 1 in t for t in d.tets)


def test_paired_cone_rejects_wrong_seam_length():
    octa = octahedron()
    seam = CycleInSphere(octa, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="seam of length 4"):
        paired_cone_decomposition(octa, seam, 0, 5)


def test_paired_cone_rejects_seam_vertex_as_apex():
    tau, seam = double_disk_sphere()
    with pytest.raises(ValueError, match="not strictly inside"):
        paired_cone_decomposition(tau, seam, 11, 22)


def test_paired_cone_rejects_equal_vertices():
    tau, seam = double_disk_sphere()
    with pytest.raises(ValueError, match="must differ"):
        paired_cone_decomposition(tau, seam, 6, 6)
