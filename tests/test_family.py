from __future__ import annotations

import pytest

from fliptet.family import (
    FamilyLabeling,
    bottom_triangulation,
    explicit_flip_path,
    fan,
    top_triangulation,
)
from fliptet.polygon import crosses, is_boundary_edge, pair

from oracles import is_valid_triangulation


def test_labeling_n2_concrete():
    lab = FamilyLabeling(2)
    assert (lab.A, lab.B, lab.D, lab.C) == (0, 3, 4, 7)
    assert (lab.v(2), lab.v(1)) == (1, 2)
    assert (lab.u(1), lab.u(2)) == (5, 6)
    assert lab.labels() == {
        0: "A", 1: "v2", 2: "v1", 3: "B", 4: "D", 5: "u1", 6: "u2", 7: "C",
    }


def test_labeling_boundary_and_diagonal_structure():
    for n in (2, 3, 5, 9):
        lab = FamilyLabeling(n)
        m = lab.polygon_size
        for x, y in [
            (lab.B, lab.v(1)),
            (lab.D, lab.u(1)),
            (lab.C, lab.u(n)),
            (lab.A, lab.v(n)),
            (lab.B, lab.D),
            (lab.C, lab.A),
        ]:
            assert is_boundary_edge(m, x, y)
        for x, y in [
            (lab.A, lab.B),
            (lab.C, lab.D),
            (lab.A, lab.D),
            (lab.B, lab.C),
        ]:
            assert not is_boundary_edge(m, x, y)


def test_labeling_rejects_small_n():
    with pytest.raises(ValueError):
        FamilyLabeling(1)
    with pytest.raises(ValueError):
        top_triangulation(1)


def test_top_n2_frozen_value():
    t = top_triangulation(2)
    assert t.n == 8
    assert t.diagonals == frozenset(
        {(3, 7), (3, 5), (3, 6), (2, 7), (1, 7)}
    )


def test_bottom_n2_frozen_value():
    t = bottom_triangulation(2)
    assert t.diagonals == frozenset(
        {(0, 4), (0, 5), (0, 6), (2, 4), (1, 4)}
    )


def test_family_triangulations_valid():
    for n in range(2, 21):
        top, bottom = top_triangulation(n), bottom_triangulation(n)
        assert len(top.diagonals) == 2 * n + 1
        assert is_valid_triangulation(top.n, top.diagonals)
        assert is_valid_triangulation(bottom.n, bottom.diagonals)


def test_family_no_common_diagonal():
    for n in range(2, 21):
        assert not top_triangulation(n).diagonals & bottom_triangulation(n).diagonals


def test_every_top_diagonal_crosses_some_bottom_diagonal():
    for n in range(2, 11):
        bottom = bottom_triangulation(n).diagonals
        for d in top_triangulation(n).diagonals:
            assert any(crosses(d, e) for e in bottom)


def test_top_contains_expected_triangle_n2():
    lab = FamilyLabeling(2)
    tri = tuple(sorted((lab.B, lab.D, lab.u(1))))
    assert tri in top_triangulation(2).triangles()


def test_explicit_path_n2_frozen_steps():
    # full hand trace for n=2
    path = explicit_flip_path(2)
    assert path.steps == (
        ((1, 7), (0, 2)),
        ((2, 7), (0, 3)),
        ((3, 7), (0, 6)),
        ((3, 6), (0, 5)),
        ((3, 5), (0, 4)),
        ((0, 3), (2, 4)),
        ((0, 2), (1, 4)),
    )


def test_explicit_path_replays_to_bottom():
    for n in range(2, 51):
        path = explicit_flip_path(n)
        assert len(path) == 3 * n + 1
        assert path.end() == bottom_triangulation(n)


def test_explicit_path_midpoint_states():
    for n in (2, 3, 4, 7):
        lab = FamilyLabeling(n)
        states = explicit_flip_path(n).states()
        after_first_phase = {pair(lab.B, lab.C), pair(lab.A, lab.B)}
        after_first_phase |= {pair(lab.B, lab.u(i)) for i in range(1, n + 1)}
        after_first_phase |= {pair(lab.A, lab.v(j)) for j in range(1, n)}
        assert states[n].diagonals == after_first_phase
        # after 2n+1 flips the path passes through the full fan at A
        assert states[2 * n + 1] == fan(lab.polygon_size, lab.A)


def test_fan_examples():
    assert fan(4, 0).diagonals == frozenset({(0, 2)})
    assert fan(6, 2).diagonals == frozenset({(2, 4), (2, 5), (0, 2)})
    with pytest.raises(ValueError):
        fan(5, 5)
