"""A family of triangulation pairs with a large flip distance.

For every n >= 2 the family lives on a (2n+4)-gon whose vertices carry
the labels A, v_n, ..., v_1, B, D, u_1, ..., u_n, C in cyclic order. The
top triangulation double-fans out of B and C, the bottom one out of A
and D, so the two share no diagonal and every top diagonal crosses a
bottom one. Their flip distance is exactly 3n+1, witnessed by the
explicit path built here, while the sphere obtained by gluing them
admits a filling with only 2n+3 tetrahedra. The ratio tends to 3/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import Diagonal, FlipPath, PolygonTriangulation, is_boundary_edge, pair


@dataclass(frozen=True)
class FamilyLabeling:
    """Label-to-vertex map for the (2n+4)-gon instance of size n.

    Concretely A=0, v_n..v_1 = 1..n, B=n+1, D=n+2, u_1..u_n = n+3..2n+2,
    C=2n+3. Under this order B-v_1, D-u_1, C-u_n, A-v_n, B-D and C-A are
    boundary edges while A-B, C-D, A-D and B-C are diagonals.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("family instances need n >= 2")

    @property
    def A(self) -> int:
        return 0

    @property
    def B(self) -> int:
        return self.n + 1

    @property
    def D(self) -> int:
        return self.n + 2

    @property
    def C(self) -> int:
        return 2 * self.n + 3

    def u(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"u index {i} out of range 1..{self.n}")
        return self.n + 2 + i

    def v(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"v index {j} out of range 1..{self.n}")
        return self.n + 1 - j

    @property
    def polygon_size(self) -> int:
        return 2 * self.n + 4

    def label_of(self, vertex: int) -> str:
        n = self.n
        if vertex == self.A:
            return "A"
        if vertex == self.B:
            return "B"
        if vertex == self.D:
            return "D"
        if vertex == self.C:
            return "C"
        if 1 <= vertex <= n:
            return f"v{n + 1 - vertex}"
        if n + 3 <= vertex <= 2 * n + 2:
            return f"u{vertex - n - 2}"
        raise ValueError(f"vertex {vertex} out of range for n={n}")

    def labels(self) -> dict[int, str]:
        return {v: self.label_of(v) for v in range(self.polygon_size)}


def top_triangulation(n: int) -> PolygonTriangulation:
    """Double fan out of B and C: {BC} + {B-u_i} + {C-v_j}."""
    lab = FamilyLabeling(n)
    diags = {pair(lab.B, lab.C)}
    diags |= {pair(lab.B, lab.u(i)) for i in range(1, n + 1)}
    diags |= {pair(lab.C, lab.v(j)) for j in range(1, n + 1)}
    return PolygonTriangulation(lab.polygon_size, frozenset(diags))


def bottom_triangulation(n: int) -> PolygonTriangulation:
    """Double fan out of A and D: {AD} + {A-u_i} + {D-v_j}."""
    lab = FamilyLabeling(n)
    diags = {pair(lab.A, lab.D)}
    diags |= {pair(lab.A, lab.u(i)) for i in range(1, n + 1)}
    diags |= {pair(lab.D, lab.v(j)) for j in range(1, n + 1)}
    return PolygonTriangulation(lab.polygon_size, frozenset(diags))


def explicit_flip_path(n: int) -> FlipPath:
    """A 3n+1 step flip path from the top to the bottom triangulation.

    Three phases: flip C-v_n, ..., C-v_1 (n flips), then B-C followed by
    B-u_n, ..., B-u_1 (n+1 flips, reaching the full fan at A), then A-B
    followed by A-v_1, ..., A-v_{n-1} (n flips). The construction is
    machine-checked: building the path replays every flip.
    """
    lab = FamilyLabeling(n)
    removals: list[Diagonal] = []
    removals += [pair(lab.C, lab.v(j)) for j in range(n, 0, -1)]
    removals.append(pair(lab.B, lab.C))
    removals += [pair(lab.B, lab.u(i)) for i in range(n, 0, -1)]
    removals.append(pair(lab.A, lab.B))
    removals += [pair(lab.A, lab.v(j)) for j in range(1, n)]
    return FlipPath.from_removals(top_triangulation(n), removals)


def fan(n: int, apex: int) -> PolygonTriangulation:
    """The triangulation whose diagonals all meet at the apex."""
    if not 0 <= apex < n:
        raise ValueError(f"apex {apex} out of range for n={n}")
    diags = {
        pair(apex, w)
        for w in range(n)
        if w != apex and not is_boundary_edge(n, apex, w)
    }
    return PolygonTriangulation(n, frozenset(diags))
