from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fliptet.family import (
    bottom_triangulation,
    explicit_flip_path,
    top_triangulation,
)
from fliptet.flipdist import BudgetExceeded
from fliptet import lpbound
from fliptet.lpbound import (
    chain_boundary,
    decomposition_chain,
    dual_bound,
    l1_min,
    orient_sphere,
    verify_chain,
)
from fliptet.polygon import random_triangulation
from fliptet.sphere import cone_decomposition, glue, relabel
from fliptet.tetdecomp import from_flip_path, min_tet

from fixtures import bipyramid, octahedron, tetrahedron
from oracles import oracle_l1_min


def glued_family(n):
    return glue(top_triangulation(n), bottom_triangulation(n))


def test_orient_tetrahedron_is_a_tet_boundary():
    assert orient_sphere(tetrahedron()) == {
        (0, 1, 2): 1,
        (0, 1, 3): -1,
        (0, 2, 3): 1,
        (1, 2, 3): -1,
    }


def test_orientation_cancels_on_every_edge():
    for tau in (octahedron(), glued_family(2)):
        induced = {}
        for (a, b, c), s in orient_sphere(tau).items():
            for e, d in (((a, b), s), ((b, c), s), ((a, c), -s)):
                induced.setdefault(e, []).append(d)
        assert all(sorted(ds) == [-1, 1] for ds in induced.values())


def test_l1_min_tetrahedron():
    sol = l1_min(tetrahedron())
    assert sol.value == 1
    assert sol.status == "optimal"
    assert sol.chain == {(0, 1, 2, 3): Fraction(-1)}
    assert verify_chain(tetrahedron(), sol.chain)


def test_l1_min_octahedron_meets_the_minimum():
    sol = l1_min(octahedron())
    best = min_tet(octahedron())
    assert sol.value == best.size == 4


def test_l1_min_glued_families():
    for n, want in ((2, 7), (3, 9)):
        sol = l1_min(glued_family(n))
        assert sol.value == want
        assert sol.solved_in == "float"


def test_l1_min_pentagonal_bipyramid():
    assert l1_min(bipyramid(5)).value == 5


def test_dual_value_certifies():
    for tau in (tetrahedron(), octahedron(), glued_family(2)):
        sol = l1_min(tau)
        assert sol.dual_value == sol.value


def test_dual_cochain_bounds_by_summation():
    for tau in (tetrahedron(), octahedron(), bipyramid(5), glued_family(2)):
        sol = l1_min(tau)
        assert dual_bound(tau, sol.dual) == sol.value
        with pytest.raises(ValueError, match="infeasible"):
            dual_bound(tau, {f: 2 * y for f, y in sol.dual.items()})


def test_relabelling_leaves_value_unchanged():
    rng = random.Random(79)
    for tau in (octahedron(), glued_family(2)):
        want = l1_min(tau).value
        for _ in range(3):
            perm = list(range(tau.vertex_count))
            rng.shuffle(perm)
            assert l1_min(relabel(tau, perm)).value == want


def test_bland_rule_agrees(monkeypatch):
    # with no stall allowance the float pass gives up before its first
    # pivot, so the exact pass runs Bland's rule from the start
    monkeypatch.setattr(lpbound, "_STALL_LIMIT", 0)
    for tau, want in ((tetrahedron(), 1), (octahedron(), 4), (glued_family(2), 7)):
        sol = l1_min(tau)
        assert sol.value == want
        assert sol.solved_in == "fraction"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda chain, dual: ({t: c / 2 for t, c in chain.items()}, dual),
        lambda chain, dual: (chain, {f: 2 * y for f, y in dual.items()}),
    ],
    ids=["halved-chain", "doubled-dual"],
)
def test_rejected_float_candidate_falls_back_to_exact_pass(monkeypatch, corrupt):
    solve = lpbound._solve

    def corrupted(tau, target, num, tol, cap):
        pivots, found = solve(tau, target, num, tol, cap)
        if num is float:
            found = corrupt(*found)
        return pivots, found

    monkeypatch.setattr(lpbound, "_solve", corrupted)
    for tau, want in (
        (tetrahedron(), 1),
        (octahedron(), 4),
        (bipyramid(5), 5),
        (glued_family(2), 7),
    ):
        sol = l1_min(tau)
        assert sol.solved_in == "fraction"
        assert sol.value == want
        assert dual_bound(tau, sol.dual) == sol.value
        assert verify_chain(tau, sol.chain)


def test_vertex_guard():
    with pytest.raises(BudgetExceeded, match="at most 30"):
        l1_min(bipyramid(29))


def test_matches_float_oracle_on_fixtures():
    for tau in (tetrahedron(), octahedron(), bipyramid(5), glued_family(2)):
        assert abs(float(l1_min(tau).value) - oracle_l1_min(tau.vertex_count, tau.triangles)) < 1e-7


def test_verify_chain_rejects_zero_chain():
    assert not verify_chain(tetrahedron(), {})
    assert not verify_chain(tetrahedron(), {(0, 1, 2, 3): Fraction(0)})


def test_verify_chain_rejects_malformed_and_scaled():
    tau = tetrahedron()
    good = l1_min(tau).chain
    assert not verify_chain(tau, {(0, 1, 2, 2): Fraction(1)})
    assert not verify_chain(tau, {t: c / 2 for t, c in good.items()})


def test_decompositions_are_feasible_integral_points():
    tau = glued_family(2)
    stack = from_flip_path(
        top_triangulation(2), bottom_triangulation(2), explicit_flip_path(2)
    )
    for d in (stack, min_tet(tau).witness, cone_decomposition(tau, 0)):
        chain = decomposition_chain(tau, d)
        assert verify_chain(tau, chain)
        assert sum(abs(c) for c in chain.values()) == len(d)
        assert all(abs(c) == 1 for c in chain.values())


def test_chain_boundary_of_unsorted_tet():
    # odd permutations flip the sign, so both spellings agree
    assert chain_boundary({(1, 0, 2, 3): Fraction(1)}) == chain_boundary(
        {(0, 1, 2, 3): Fraction(-1)}
    )


def test_l1_bounds_min_tet_on_random_spheres():
    rng = random.Random(21)
    for _ in range(6):
        n = rng.randrange(6, 9)
        while True:
            a = random_triangulation(n, rng)
            b = random_triangulation(n, rng)
            if not (a.diagonals & b.diagonals):
                break
        tau = glue(a, b)
        sol = l1_min(tau)
        assert sol.solved_in == "float"
        assert verify_chain(tau, sol.chain)
        assert sol.value <= min_tet(tau).size
        assert abs(float(sol.value) - oracle_l1_min(tau.vertex_count, tau.triangles)) < 1e-7
