"""Simplicial 2-spheres built by gluing polygon triangulations.

A sphere is stored as its set of triangles.  The module covers gluing,
Hamiltonian recutting (cut the sphere along a Hamiltonian cycle into two
polygon triangulations), bad-cycle analysis, cone decompositions, and
isomorphism testing through a canonical certificate.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator

from .flipdist import _bits
from .polygon import PolygonTriangulation, pair

Triangle = tuple[int, int, int]
Edge = tuple[int, int]


def _tri(a: int, b: int, c: int) -> Triangle:
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def _is_single_cycle(link: dict[int, list[int]]) -> bool:
    # the opposite edges of the triangles at a vertex form one closed cycle
    if any(len(ys) != 2 for ys in link.values()):
        return False
    start = min(link)
    prev, cur = None, start
    length = 0
    while True:
        a, b = link[cur]
        prev, cur = cur, (b if a == prev else a)
        length += 1
        if cur == start:
            return length == len(link)


@dataclass(frozen=True)
class SphereTriangulation:
    """A triangulated 2-sphere on vertices 0..vertex_count-1.

    Construction checks the complex and raises ValueError at the first
    violation, so every instance is a sphere.
    """

    vertex_count: int
    triangles: frozenset[Triangle]

    @classmethod
    def of(cls, vertex_count: int, triangles) -> "SphereTriangulation":
        return cls(vertex_count, frozenset(_tri(*t) for t in triangles))

    def __post_init__(self):
        v_count = self.vertex_count
        if v_count < 4:
            raise ValueError(f"a sphere needs at least 4 vertices, got {v_count}")
        for t in sorted(self.triangles):
            if len(set(t)) != 3:
                raise ValueError(f"triangle {t} has repeated vertices")
            if not all(0 <= x < v_count for x in t):
                raise ValueError(f"triangle {t} uses vertices outside 0..{v_count - 1}")
        edge_count = Counter()
        # links[v]: the opposite edges of the triangles at v, as adjacency
        links: list[dict[int, list[int]]] = [{} for _ in range(v_count)]
        for a, b, c in self.triangles:
            edge_count[(a, b)] += 1
            edge_count[(a, c)] += 1
            edge_count[(b, c)] += 1
            for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
                link = links[v]
                link.setdefault(x, []).append(y)
                link.setdefault(y, []).append(x)
        for e, k in sorted(edge_count.items()):
            if k != 2:
                raise ValueError(f"edge {e} lies in {k} triangles, expected 2")
        for v in range(v_count):
            if not links[v]:
                raise ValueError(f"vertex {v} appears in no triangle")
        for v in range(v_count):
            if not _is_single_cycle(links[v]):
                raise ValueError(f"the link of vertex {v} is not a single cycle")
        euler = v_count - len(edge_count) + len(self.triangles)
        if euler != 2:
            raise ValueError(f"Euler characteristic is {euler}, expected 2")
        reached = {0}
        queue = deque([0])
        nbrs = self.neighbors()
        while queue:
            for w in nbrs[queue.popleft()]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        if len(reached) != v_count:
            raise ValueError("the triangle complex is disconnected")

    def edges(self) -> frozenset[Edge]:
        out = set()
        for a, b, c in self.triangles:
            out.update(((a, b), (a, c), (b, c)))
        return frozenset(out)

    def edge_faces(self) -> dict[Edge, list[Triangle]]:
        out: dict[Edge, list[Triangle]] = {}
        for t in sorted(self.triangles):
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                out.setdefault(e, []).append(t)
        return out

    def neighbors(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {v: set() for v in range(self.vertex_count)}
        for a, b in self.edges():
            out[a].add(b)
            out[b].add(a)
        return out

    def degrees(self) -> dict[int, int]:
        return {v: len(ns) for v, ns in self.neighbors().items()}

    def face_count(self) -> int:
        return len(self.triangles)

    def edge_count(self) -> int:
        return len(self.edges())


def glue(top: PolygonTriangulation, bottom: PolygonTriangulation) -> SphereTriangulation:
    """Glue two triangulations of the same polygon along its boundary.

    The two triangulations become the two hemispheres.  Pairs sharing a
    diagonal are rejected: the shared diagonal would be flat (its four
    neighboring triangles would form two doubled quadrilaterals), so the
    caller should split along common diagonals first and glue the pieces.
    """
    if top.n != bottom.n:
        raise ValueError(f"polygon sizes differ: {top.n} vs {bottom.n}")
    common = sorted(top.diagonals & bottom.diagonals)
    if common:
        raise ValueError(f"the triangulations share diagonals {common}; split along them first")
    shared = sorted(top.triangles() & bottom.triangles())
    if shared:
        raise ValueError(f"gluing would double the triangles {shared}; the result is not simplicial")
    return SphereTriangulation.of(top.n, top.triangles() | bottom.triangles())


@dataclass(frozen=True)
class CycleInSphere:
    """A simple cycle along edges of a sphere, as an ordered vertex tuple.

    Construction checks the cycle and raises ValueError at the first
    violation.
    """

    sphere: SphereTriangulation
    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = self.vertices
        if len(verts) < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise ValueError("the cycle repeats a vertex")
        edges = self.sphere.edges()
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            if pair(a, b) not in edges:
                raise ValueError(
                    f"consecutive cycle vertices {a} and {b} are not an edge of the sphere"
                )

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> frozenset[Edge]:
        verts = self.vertices
        return frozenset(
            pair(a, verts[(i + 1) % len(verts)]) for i, a in enumerate(verts)
        )

    def is_hamiltonian(self) -> bool:
        return len(self.vertices) == self.sphere.vertex_count

    def canonical(self) -> tuple[int, ...]:
        """The vertex tuple minimized over rotations and both directions."""
        verts = self.vertices
        k = len(verts)
        best = None
        for seq in (verts, verts[::-1]):
            for s in range(k):
                cand = seq[s:] + seq[:s]
                if best is None or cand < best:
                    best = cand
        return best

    def sides(self) -> tuple[frozenset[Triangle], frozenset[Triangle]]:
        """The two triangle sets the cycle separates the sphere into.

        Computed by flooding the dual graph without crossing cycle edges.
        The side containing the smallest triangle comes first.
        """
        cycle_edges = self.edges()
        edge_faces = self.sphere.edge_faces()
        faces = sorted(self.sphere.triangles)
        first = set()
        queue = deque([faces[0]])
        first.add(faces[0])
        while queue:
            a, b, c = queue.popleft()
            for e in ((a, b), (a, c), (b, c)):
                if e in cycle_edges:
                    continue
                for g in edge_faces[e]:
                    if g not in first:
                        first.add(g)
                        queue.append(g)
        rest = set(self.sphere.triangles) - first
        if not rest:
            raise ValueError("the cycle does not separate the sphere")
        return frozenset(first), frozenset(rest)

    def side_interiors(self) -> tuple[frozenset[int], frozenset[int]]:
        """Vertices strictly inside each side (cycle vertices excluded)."""
        on_cycle = set(self.vertices)
        return tuple(
            frozenset(v for t in side for v in t if v not in on_cycle)
            for side in self.sides()
        )


def hamiltonian_cycles(tau: SphereTriangulation) -> Iterator[CycleInSphere]:
    """Enumerate Hamiltonian cycles, one per rotation/reflection class.

    Every cycle is anchored at vertex 0 with its second vertex smaller
    than its last, so each undirected cycle appears exactly once.  The
    enumeration is lazy: take the first k with `itertools.islice`.
    """
    nbrs = {v: sorted(ns) for v, ns in tau.neighbors().items()}
    for verts in _hamiltonian_paths(nbrs, [0], [v == 0 for v in range(tau.vertex_count)]):
        yield CycleInSphere(tau, verts)


def _hamiltonian_paths(nbrs, path: list[int], used: list[bool]) -> Iterator[tuple[int, ...]]:
    # a module-level recursion, so no closure refers to itself and a call
    # leaves no reference cycle behind
    if len(path) == len(used):
        if path[0] in nbrs[path[-1]] and path[1] < path[-1]:
            yield tuple(path)
        return
    for w in nbrs[path[-1]]:
        if not used[w]:
            used[w] = True
            path.append(w)
            yield from _hamiltonian_paths(nbrs, path, used)
            path.pop()
            used[w] = False


def _cut(rot: dict[int, dict[int, int]], smallest: Triangle, verts: tuple[int, ...]) -> tuple[int, int]:
    """The chords on each side of a Hamiltonian cycle, as flip-search states.

    The rotation at verts[i], walked from verts[i+1] to verts[i-1], passes
    one side's chords; each is the bit of the diagonal between its two
    positions, from the smaller.  The side holding `smallest` comes first."""
    n = len(verts)
    bit = _bits(n)[1]
    pos = {v: 1 << i for i, v in enumerate(verts)}
    sides = [0, 0]
    for i, v in enumerate(verts):
        here, turn = 1 << i, rot[v]
        nxt, prv = verts[(i + 1) % n], verts[i - 1]
        side, w = 0, turn[nxt]
        while w != nxt:
            if w == prv:
                side = 1
            elif pos[w] > here:
                sides[side] |= bit[here | pos[w]]
            w = turn[w]
    x, y, z = (pos[v] for v in smallest)
    # on four or more vertices some edge of a triangle is a chord
    chord = next(bit[m] for m in (x | y, x | z, y | z) if m in bit)
    return (sides[0], sides[1]) if sides[0] & chord else (sides[1], sides[0])


def _polygon(n: int, state: int) -> PolygonTriangulation:
    return PolygonTriangulation.of(n, (d for b, d in _bits(n)[0].items() if state & b))


def recut(
    tau: SphereTriangulation, cycle: CycleInSphere
) -> tuple[PolygonTriangulation, PolygonTriangulation, tuple[int, ...]]:
    """Cut the sphere along a Hamiltonian cycle into two polygon triangulations.

    Position i of the returned labeling holds the sphere vertex that the
    polygon vertex i stands for; gluing the two triangulations back and
    relabeling through it reproduces the sphere exactly.  The half holding
    the sphere's smallest triangle comes first.
    """
    if cycle.sphere != tau:
        raise ValueError("the cycle belongs to a different sphere")
    if not cycle.is_hamiltonian():
        raise ValueError(
            f"the cycle visits {len(cycle)} of {tau.vertex_count} vertices; recutting needs a Hamiltonian cycle"
        )
    a, b = _cut(_rotations(tau), min(tau.triangles), cycle.vertices)
    return _polygon(tau.vertex_count, a), _polygon(tau.vertex_count, b), cycle.vertices


@dataclass(frozen=True)
class RecutSearch:
    """Best Hamiltonian recut found, with enumeration bookkeeping: `nodes`
    sums the flip-search nodes over the cycles tried, and `refuted` counts
    the cycles the bound proved no better than an earlier one."""

    distance: int | None
    cycle: CycleInSphere | None
    halves: tuple[PolygonTriangulation, PolygonTriangulation] | None
    cycles_tried: int
    exhausted: bool
    nodes: int
    refuted: int


def recut_min_flip(
    tau: SphereTriangulation,
    max_cycles: int | None = None,
    stop_at: int | None = None,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> RecutSearch:
    """Minimize exact flip distance over Hamiltonian recuts of the sphere.

    The result is an upper bound for the minimal tetrahedral decomposition
    size.  Each recut only asks whether its distance is below the best so
    far, on the flip engine's int states, so the first cycle reaching the
    minimum is the one returned, and the only one built as checked objects.
    `stop_at` bounds every search at that distance and ends the enumeration
    at the first recut within it; when none is, the distance is None and,
    unless a budget stopped the work, every cycle is refuted and
    `exhausted` is True.  `max_cycles` and the search budgets cap the work,
    and `exhausted` records whether the enumeration ran to completion.
    """
    from .flipdist import _Budget, _search_one

    v_count = tau.vertex_count
    rot, smallest = _rotations(tau), min(tau.triangles)
    nbrs = {v: sorted(ns) for v, ns in tau.neighbors().items()}
    deadline = None if time_budget is None else time.monotonic() + time_budget
    best = best_verts = best_halves = None
    tried = nodes = refuted = 0
    exhausted = True
    for verts in _hamiltonian_paths(nbrs, [0], [v == 0 for v in range(v_count)]):
        if max_cycles is not None and tried >= max_cycles:
            exhausted = False
            break
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0:
            exhausted = False
            break
        half_a, half_b = _cut(rot, smallest, verts)
        tried += 1
        # each search gets only the time left, and a stopped one returns no
        # distance; with stop_at, an exact answer ends the loop, so stop_at + 1
        # bounds every search
        below = best if stop_at is None else stop_at + 1
        res = _search_one(v_count, half_a, half_b, _Budget(node_budget, left), below)
        nodes += res.stats.nodes
        if res.status == "above":
            refuted += 1
            continue
        if res.distance is None:
            exhausted = False
            continue
        # an exact answer lies below the best so far
        best, best_verts, best_halves = res.distance, verts, (half_a, half_b)
        if stop_at is not None and best <= stop_at:
            exhausted = False
            break
    if best_verts is None:
        return RecutSearch(None, None, None, tried, exhausted, nodes, refuted)
    halves = tuple(_polygon(v_count, h) for h in best_halves)
    return RecutSearch(best, CycleInSphere(tau, best_verts), halves, tried, exhausted, nodes, refuted)


def _simple_cycles_up_to(tau: SphereTriangulation, max_len: int) -> Iterator[tuple[int, ...]]:
    # anchored at their smallest vertex, second vertex < last: one
    # representative per rotation/reflection class
    nbrs = {v: sorted(ns) for v, ns in tau.neighbors().items()}
    for anchor in range(tau.vertex_count):
        yield from _cycle_paths(nbrs, max_len, [anchor], {anchor})


def _cycle_paths(nbrs, max_len: int, path: list[int], used: set[int]) -> Iterator[tuple[int, ...]]:
    # like _hamiltonian_paths: the anchor is path[0], the smallest vertex
    anchor = path[0]
    if len(path) >= 3 and anchor in nbrs[path[-1]] and path[1] < path[-1]:
        yield tuple(path)
    if len(path) == max_len:
        return
    for w in nbrs[path[-1]]:
        if w > anchor and w not in used:
            used.add(w)
            path.append(w)
            yield from _cycle_paths(nbrs, max_len, path, used)
            path.pop()
            used.remove(w)


@dataclass(frozen=True)
class BadCycleReport:
    """Bad cycles of a sphere under the strict (open-side) reading.

    A length-l cycle is bad when each side contains a vertex of degree
    greater than l strictly inside it.  `closed_bad` counts cycles that
    qualify only when cycle vertices themselves may witness a side, the
    looser reading; both numbers are reported since the informal phrase
    "separates two vertices of degree > l" admits either.
    """

    bad: tuple[CycleInSphere, ...]
    closed_bad: int
    examined: int


def bad_cycle_report(tau: SphereTriangulation) -> BadCycleReport:
    deg = tau.degrees()
    max_len = max(deg.values()) - 1
    bad = []
    closed = 0
    examined = 0
    for verts in _simple_cycles_up_to(tau, max_len):
        examined += 1
        length = len(verts)
        cycle = CycleInSphere(tau, verts)
        side_a, side_b = cycle.sides()
        on_cycle = set(verts)
        open_ok = True
        closed_ok = True
        for side in (side_a, side_b):
            touched = {v for t in side for v in t}
            if not any(deg[v] > length for v in touched - on_cycle):
                open_ok = False
            if not any(deg[v] > length for v in touched):
                closed_ok = False
        if open_ok:
            bad.append(cycle)
        if closed_ok:
            closed += 1
    bad.sort(key=lambda c: (len(c), c.vertices))
    return BadCycleReport(tuple(bad), closed, examined)


def cone_decomposition(tau: SphereTriangulation, v: int):
    """Cone the sphere from one of its vertices.

    One tetrahedron per triangle not containing v, so the decomposition
    has face_count - degree(v) tetrahedra.
    """
    from .tetdecomp import TetDecomposition

    if not 0 <= v < tau.vertex_count:
        raise ValueError(f"vertex {v} is outside 0..{tau.vertex_count - 1}")
    tets = frozenset(
        tuple(sorted((v,) + t)) for t in tau.triangles if v not in t
    )
    return TetDecomposition(tau.vertex_count, tets)


def degree_histogram(tau: SphereTriangulation) -> dict[int, int]:
    return dict(sorted(Counter(tau.degrees().values()).items()))


def relabel(tau: SphereTriangulation, mapping) -> SphereTriangulation:
    """Apply a vertex bijection; mapping[old] is the new vertex number."""
    img = sorted(mapping[v] for v in range(tau.vertex_count))
    if img != list(range(tau.vertex_count)):
        raise ValueError("the mapping is not a bijection on the vertex range")
    return SphereTriangulation.of(
        tau.vertex_count,
        (_tri(mapping[a], mapping[b], mapping[c]) for a, b, c in tau.triangles),
    )


def oriented_faces(tau: SphereTriangulation) -> tuple[Triangle, ...]:
    """Orient every triangle coherently, by flooding the dual graph.

    The smallest triangle keeps its ascending vertex order; adjacent
    triangles induce opposite directions on their shared edge.  Returned
    in order of the sorted triangle list.
    """
    edge_faces = tau.edge_faces()
    faces = sorted(tau.triangles)
    orient: dict[Triangle, tuple[int, int, int]] = {faces[0]: faces[0]}
    queue = deque([faces[0]])
    while queue:
        t = queue.popleft()
        x, y, z = orient[t]
        for a, b in ((x, y), (y, z), (z, x)):
            e = pair(a, b)
            for g in edge_faces[e]:
                if g not in orient:
                    (w,) = (u for u in g if u != a and u != b)
                    orient[g] = (b, a, w)
                    queue.append(g)
    return tuple(orient[t] for t in faces)


def _rotations(tau: SphereTriangulation) -> dict[int, dict[int, int]]:
    # rot[v][a] = b whenever some oriented triangle reads (v, a, b)
    rot: dict[int, dict[int, int]] = {v: {} for v in range(tau.vertex_count)}
    for x, y, z in oriented_faces(tau):
        rot[x][y] = z
        rot[y][z] = x
        rot[z][x] = y
    return rot


def canonical_certificate(tau: SphereTriangulation) -> tuple:
    """A complete isomorphism invariant of the sphere.

    For every starting edge and both global orientations, vertices are
    relabeled in rotation-driven breadth-first order; the smallest
    relabeled triangle list over all starts is the certificate.  Two
    spheres are isomorphic exactly when their certificates agree.
    """
    rot_fwd = _rotations(tau)
    rot_rev = {
        v: {b: a for a, b in m.items()} for v, m in rot_fwd.items()
    }
    darts = []
    for a, b in sorted(tau.edges()):
        darts.append((a, b))
        darts.append((b, a))
    faces = sorted(tau.triangles)
    best = None
    for rot in (rot_fwd, rot_rev):
        for u, v in darts:
            labels = {u: 0}
            queue = deque([(u, v)])
            while queue:
                a, e = queue.popleft()
                w = e
                for _ in range(len(rot[a])):
                    if w not in labels:
                        labels[w] = len(labels)
                        queue.append((w, a))
                    w = rot[a][w]
            cert = tuple(
                sorted(_tri(labels[x], labels[y], labels[z]) for x, y, z in faces)
            )
            if best is None or cert < best:
                best = cert
    return best


def isomorphic(a: SphereTriangulation, b: SphereTriangulation) -> bool:
    if a.vertex_count != b.vertex_count or a.face_count() != b.face_count():
        return False
    if degree_histogram(a) != degree_histogram(b):
        return False
    return canonical_certificate(a) == canonical_certificate(b)


def double_disk_sphere() -> tuple[SphereTriangulation, CycleInSphere]:
    """A 27-vertex sphere of degrees 5 and 6 with a bad 5-cycle seam.

    Each half is a pentagonal disk: a center, a ring of five, a second
    ring of five, then the shared boundary pentagon.  The two disks are
    glued along that pentagon, which is returned as the seam; a degree-6
    vertex sits strictly inside each side, so the seam is a bad cycle.
    """
    faces: list[Triangle] = []
    seam = tuple(range(11, 16))

    def disk(center: int, ring, second):
        for i in range(5):
            j = (i + 1) % 5
            faces.append(_tri(center, ring[i], ring[j]))
            faces.append(_tri(ring[i], ring[j], second[j]))
            faces.append(_tri(ring[i], second[i], second[j]))
            faces.append(_tri(second[i], second[j], seam[i]))
            faces.append(_tri(seam[i], seam[j], second[j]))

    disk(0, range(1, 6), range(6, 11))
    disk(16, range(17, 22), range(22, 27))
    tau = SphereTriangulation.of(27, faces)
    return tau, CycleInSphere(tau, seam)
