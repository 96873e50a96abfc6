"""Triangulations of a convex polygon and diagonal flips.

Vertices of the n-gon are the integers 0..n-1 in cyclic order. A diagonal
is a sorted pair of non-adjacent vertices; a triangulation is a maximal
set of pairwise noncrossing diagonals (always n-3 of them). Everything is
immutable and purely combinatorial: crossing is decided by cyclic
interleaving of indices, never by coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from random import Random

Diagonal = tuple[int, int]


def pair(a: int, b: int) -> Diagonal:
    return (a, b) if a < b else (b, a)


def is_boundary_edge(n: int, a: int, b: int) -> bool:
    a, b = pair(a, b)
    return b - a == 1 or (a == 0 and b == n - 1)


def crosses(d1: Diagonal, d2: Diagonal) -> bool:
    """True iff the endpoints strictly interleave on the cycle.

    Sharing an endpoint counts as noncrossing. Symmetric, and false on
    identical diagonals.
    """
    (a, b), (c, d) = pair(*d1), pair(*d2)
    return (a < c < b < d) or (c < a < d < b)


@dataclass(frozen=True)
class PolygonTriangulation:
    """A set of n-3 pairwise noncrossing diagonals of the n-gon.

    Construction checks the set and raises ValueError at the first
    violation, so every instance is a valid triangulation.
    """

    n: int
    diagonals: frozenset[Diagonal]

    @classmethod
    def of(cls, n: int, diagonals) -> "PolygonTriangulation":
        """Build with normalized (sorted) vertex pairs."""
        return cls(n, frozenset(pair(a, b) for a, b in diagonals))

    def key(self) -> tuple:
        """Canonical hashable form (used as search-state identity)."""
        return (self.n, tuple(sorted(self.diagonals)))

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got n={self.n}")
        for a, b in sorted(self.diagonals):
            if not (0 <= a < b < self.n):
                raise ValueError(f"vertex pair ({a},{b}) out of range for n={self.n}")
            if is_boundary_edge(self.n, a, b):
                raise ValueError(f"({a},{b}) is a boundary edge, not a diagonal")
        if len(self.diagonals) != self.n - 3:
            raise ValueError(
                f"expected {self.n - 3} diagonals for n={self.n}, "
                f"got {len(self.diagonals)}"
            )
        for d1, d2 in combinations(sorted(self.diagonals), 2):
            if crosses(d1, d2):
                raise ValueError(f"diagonals {d1} and {d2} cross")

    def boundary_edges(self) -> frozenset[Diagonal]:
        n = self.n
        return frozenset(pair(i, (i + 1) % n) for i in range(n))

    def adjacency(self) -> dict[int, set[int]]:
        """Neighbor sets over boundary edges plus diagonals."""
        n = self.n
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for v in range(n):
            adj[v].add((v + 1) % n)
            adj[v].add((v - 1) % n)
        for a, b in self.diagonals:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def triangles(self) -> frozenset[tuple[int, int, int]]:
        """The n-2 triangular faces, as sorted vertex triples.

        In convex position a vertex triple bounds a face exactly when all
        three connecting segments are edges: no vertex can lie inside the
        triangle and no edge can cross it.
        """
        adj = self.adjacency()
        edges = self.boundary_edges() | self.diagonals
        faces = set()
        for a, b in edges:
            for c in adj[a] & adj[b]:
                faces.add(tuple(sorted((a, b, c))))
        return frozenset(faces)

    def _apexes(self, d: Diagonal) -> tuple[int, int]:
        # the two triangles adjacent to d meet it at exactly two apexes
        a, b = d
        n = self.n
        near = {a: {(a + 1) % n, (a - 1) % n}, b: {(b + 1) % n, (b - 1) % n}}
        for x, y in self.diagonals:
            if x in near:
                near[x].add(y)
            if y in near:
                near[y].add(x)
        apexes = sorted(near[a] & near[b])
        if len(apexes) != 2:
            raise ValueError(f"diagonal {d} does not bound two triangles")
        return apexes[0], apexes[1]

    def flip(self, d: Diagonal) -> tuple["PolygonTriangulation", Diagonal]:
        """Replace d by the opposite diagonal of its quadrilateral.

        Returns the new triangulation and the inserted diagonal. Flipping
        the inserted diagonal undoes the move.
        """
        d = pair(*d)
        if d not in self.diagonals:
            raise ValueError(f"{d} is not a diagonal of this triangulation")
        inserted = pair(*self._apexes(d))
        # a flip maps a triangulation to a triangulation: skip the O(n^2) check
        flipped = object.__new__(PolygonTriangulation)
        object.__setattr__(flipped, "n", self.n)
        object.__setattr__(flipped, "diagonals", self.diagonals - {d} | {inserted})
        return flipped, inserted


@dataclass(frozen=True)
class FlipPath:
    """A sequence of flips applied from a start triangulation.

    Each step records the removed and the inserted diagonal. states()
    replays the whole path and raises if any step is illegal, so a
    FlipPath that replays is a machine-checked witness.
    """

    n: int
    start: PolygonTriangulation
    steps: tuple[tuple[Diagonal, Diagonal], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def states(self) -> list[PolygonTriangulation]:
        """All intermediate triangulations, start first, end last."""
        if self.start.n != self.n:
            raise ValueError("start triangulation has the wrong vertex count")
        out = [self.start]
        cur = self.start
        for i, (removed, inserted) in enumerate(self.steps):
            if pair(*removed) not in cur.diagonals:
                raise ValueError(f"step {i}: {removed} is not present")
            cur, actual = cur.flip(removed)
            if actual != pair(*inserted):
                raise ValueError(
                    f"step {i}: flip of {removed} inserts {actual}, "
                    f"not {inserted}"
                )
            out.append(cur)
        return out

    def end(self) -> PolygonTriangulation:
        return self.states()[-1]

    @classmethod
    def from_removals(
        cls, start: PolygonTriangulation, removals
    ) -> "FlipPath":
        """Build a path by flipping the given diagonals in order."""
        steps = []
        cur = start
        for d in removals:
            cur, inserted = cur.flip(d)
            steps.append((pair(*d), inserted))
        return cls(start.n, start, tuple(steps))


def common_diagonals(
    t1: PolygonTriangulation, t2: PolygonTriangulation
) -> frozenset[Diagonal]:
    if t1.n != t2.n:
        raise ValueError("triangulations live on different polygons")
    return t1.diagonals & t2.diagonals


def split_along(
    t1: PolygonTriangulation, t2: PolygonTriangulation
) -> list[tuple[PolygonTriangulation, PolygonTriangulation, tuple[int, ...]]]:
    """Cut both triangulations along their common diagonals.

    Returns one (sub1, sub2, vertex_map) triple per region of the polygon
    that still contains diagonals, where vertex_map[i] is the original
    label of the region's vertex i. Shortest flip paths never touch a
    common diagonal, so distances add up over the regions.
    """
    common = common_diagonals(t1, t2)

    def regions(verts: tuple[int, ...], ds: list[Diagonal]):
        if not ds:
            yield verts
            return
        a, b = ds[0]
        ia, ib = verts.index(a), verts.index(b)
        if ia > ib:
            ia, ib = ib, ia
        side1 = verts[ia : ib + 1]
        side2 = verts[ib:] + verts[: ia + 1]
        for side in (side1, side2):
            inside = set(side)
            # the remaining cut chords never cross (a,b), so each lies
            # entirely on one side; endpoints on the cut are in both sets
            rest = [d for d in ds[1:] if d[0] in inside and d[1] in inside]
            yield from regions(side, rest)

    out = []
    for region in regions(tuple(range(t1.n)), sorted(common)):
        m = len(region)
        if m < 4:
            continue
        index = {v: i for i, v in enumerate(region)}
        in_region = set(region)

        def local(diags):
            picked = set()
            for a, b in diags:
                if a in in_region and b in in_region:
                    la, lb = index[a], index[b]
                    if not is_boundary_edge(m, la, lb):
                        picked.add(pair(la, lb))
            return picked

        sub1 = PolygonTriangulation.of(m, local(t1.diagonals))
        sub2 = PolygonTriangulation.of(m, local(t2.diagonals))
        out.append((sub1, sub2, region))
    return out


@lru_cache(maxsize=None)
def _catalan(k: int) -> int:
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def random_triangulation(n: int, rng: Random) -> PolygonTriangulation:
    """Uniformly random triangulation, by Catalan-weighted recursion."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    diags: set[Diagonal] = set()

    def rec(verts: tuple[int, ...]):
        m = len(verts)
        if m < 4:
            return
        # pick the apex of the triangle resting on edge (verts[0], verts[-1])
        weights = [_catalan(k - 1) * _catalan(m - k - 2) for k in range(1, m - 1)]
        total = sum(weights)
        roll = rng.randrange(total)
        k = 1
        for w in weights:
            if roll < w:
                break
            roll -= w
            k += 1
        if k != 1:
            diags.add(pair(verts[0], verts[k]))
        if k != m - 2:
            diags.add(pair(verts[k], verts[-1]))
        rec(verts[: k + 1])
        rec(verts[k:])

    rec(tuple(range(n)))
    return PolygonTriangulation(n, frozenset(diags))
