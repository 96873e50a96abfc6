"""Tetrahedral decompositions of the ball bounded by a triangulated sphere.

A decomposition is a set of vertex 4-subsets whose triangular faces cover
the sphere exactly once each and every other triangle twice or never.  The
module builds decompositions from flip paths, certifies that a candidate
really triangulates a ball, minimizes the tetrahedron count by exhaustive
branch and bound, and carries the counting arguments that turn face
arithmetic into lower bounds.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from math import ceil, inf

from .polygon import PolygonTriangulation, FlipPath
from .sphere import SphereTriangulation, CycleInSphere, Triangle, Edge, glue

Tet = tuple[int, int, int, int]


def _faces_of(t: Tet) -> tuple[Triangle, ...]:
    a, b, c, d = t
    return ((b, c, d), (a, c, d), (a, b, d), (a, b, c))


def _edges_of(t: Tet) -> tuple[Edge, ...]:
    a, b, c, d = t
    return ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))


@dataclass(frozen=True)
class TetDecomposition:
    """A set of tetrahedra on vertices 0..vertex_count-1."""

    vertex_count: int
    tets: frozenset[Tet]

    @classmethod
    def of(cls, vertex_count: int, tets) -> "TetDecomposition":
        return cls(vertex_count, frozenset(tuple(sorted(t)) for t in tets))

    def __len__(self) -> int:
        return len(self.tets)


@dataclass(frozen=True)
class BallCertificate:
    """Numbers backing a successful ball validation.

    collapsible is None when greedy collapsing stalled: such complexes may
    still be balls, so they pass with the weaker certificate rather than
    being rejected.
    """

    vertices: int
    edges: int
    faces: int
    tets: int
    euler: int
    collapsible: bool | None


def _ball_check(tau: SphereTriangulation, tets: frozenset[Tet]) -> BallCertificate:
    if not tets:
        raise ValueError("the decomposition is empty")
    order = sorted(tets)
    for t in order:
        if len(set(t)) != 4:
            raise ValueError(f"tetrahedron {t} has repeated vertices")
        if not all(0 <= x < tau.vertex_count for x in t):
            raise ValueError(f"tetrahedron {t} uses vertices outside 0..{tau.vertex_count - 1}")
    counts: Counter = Counter()
    for t in tets:
        counts.update(_faces_of(t))
    for f, k in sorted(counts.items()):
        if k > 2:
            raise ValueError(f"triangle {f} lies in {k} tetrahedra")
    boundary = {f for f, k in counts.items() if k == 1}
    extra = sorted(boundary - tau.triangles)
    if extra:
        raise ValueError(f"triangle {extra[0]} is on the boundary but not on the sphere")
    missing = sorted(tau.triangles - boundary)
    if missing:
        raise ValueError(f"sphere triangle {missing[0]} is not on the boundary")

    # the dual graph must be connected through interior triangles
    face_tets: dict[Triangle, list[Tet]] = {}
    for t in order:
        for f in _faces_of(t):
            face_tets.setdefault(f, []).append(t)
    reached = {order[0]}
    queue = deque([order[0]])
    while queue:
        for f in _faces_of(queue.popleft()):
            for g in face_tets[f]:
                if g not in reached:
                    reached.add(g)
                    queue.append(g)
    if len(reached) != len(tets):
        raise ValueError("the decomposition is disconnected")

    # each edge link must be one path (boundary edge) or one cycle (interior)
    boundary_edges = tau.edges()
    edge_tets: dict[Edge, list[Tet]] = {}
    for t in order:
        for e in _edges_of(t):
            edge_tets.setdefault(e, []).append(t)
    for e, around in sorted(edge_tets.items()):
        link: dict[int, list[int]] = {}
        for t in around:
            x, y = (u for u in t if u not in e)
            link.setdefault(x, []).append(y)
            link.setdefault(y, []).append(x)
        degs = sorted(len(v) for v in link.values())
        on_boundary = e in boundary_edges
        if on_boundary:
            if degs.count(1) != 2 or any(d > 2 for d in degs):
                raise ValueError(f"the link of boundary edge {e} is not a single path")
        else:
            if any(d != 2 for d in degs):
                raise ValueError(f"the link of interior edge {e} is not a single cycle")
        start_v = min(
            (x for x in link if len(link[x]) == 1), default=min(link)
        )
        seen = {start_v}
        stack = [start_v]
        while stack:
            for w in link[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(link):
            kind = "path" if on_boundary else "cycle"
            raise ValueError(f"the link of edge {e} is not a single {kind}")

    # vertex links must be disks: connected surfaces with Euler number 1.
    # None is empty: each vertex lies on a sphere triangle, and the
    # boundary check put every sphere triangle in a tetrahedron
    for v in range(tau.vertex_count):
        tris = [tuple(u for u in t if u != v) for t in order if v in t]
        verts = {x for f in tris for x in f}
        edges = {e for f in tris for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))}
        euler = len(verts) - len(edges) + len(tris)
        if euler != 1:
            raise ValueError(f"the link of vertex {v} has Euler number {euler}, expected 1")
        reached_f = {tris[0]}
        queue = deque([tris[0]])
        edge_tris: dict[Edge, list] = {}
        for f in tris:
            for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
                edge_tris.setdefault(e, []).append(f)
        while queue:
            f = queue.popleft()
            for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
                for g in edge_tris[e]:
                    if g not in reached_f:
                        reached_f.add(g)
                        queue.append(g)
        if len(reached_f) != len(tris):
            raise ValueError(f"the link of vertex {v} is disconnected")

    euler = tau.vertex_count - len(edge_tets) + len(counts) - len(tets)
    if euler != 1:
        raise ValueError(f"Euler characteristic is {euler}, expected 1")
    return BallCertificate(
        vertices=tau.vertex_count,
        edges=len(edge_tets),
        faces=len(counts),
        tets=len(tets),
        euler=euler,
        collapsible=True if _collapses_to_point(tets) else None,
    )


def _collapses_to_point(tets: frozenset[Tet]) -> bool:
    # greedy free-face collapsing: a face with exactly one coface is
    # removed together with it, and a face left with one coface by a
    # removal joins the queue.  Success proves the complex is a ball, a
    # stall proves nothing
    cofaces: dict[tuple, set] = {}
    for t in tets:
        for k in (4, 3, 2, 1):
            for s in combinations(t, k):
                cofaces.setdefault(s, set())
    for s in cofaces:
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                cofaces[f].add(s)
    queue = [s for s, up in cofaces.items() if len(up) == 1]
    while queue:
        s = queue.pop()
        if len(cofaces.get(s, ())) != 1:
            continue
        for x in (s, cofaces[s].pop()):
            del cofaces[x]
            for f in combinations(x, len(x) - 1):
                up = cofaces.get(f)
                if up is not None:
                    up.discard(x)
                    if len(up) == 1:
                        queue.append(f)
    return len(cofaces) == 1


def validate_ball(tau: SphereTriangulation, decomposition: TetDecomposition) -> BallCertificate:
    """Certify that the decomposition triangulates the ball bounded by tau.

    Checks, in order: face parity against the sphere, dual connectivity,
    edge links, vertex links, and the Euler characteristic.  The first
    violation raises with the offending simplex.  Greedy collapsing is
    attempted last and recorded; a stall downgrades `collapsible` to None
    instead of failing, since greedy stalls do not disprove ballness.
    """
    if decomposition.vertex_count != tau.vertex_count:
        raise ValueError(
            f"vertex counts differ: {decomposition.vertex_count} vs {tau.vertex_count}"
        )
    return _ball_check(tau, decomposition.tets)


def from_flip_path(
    top: PolygonTriangulation, bottom: PolygonTriangulation, path: FlipPath
) -> TetDecomposition:
    """Stack one tetrahedron per flip of a path from top to bottom.

    Each flip contributes the 4 vertices of its quadrilateral, with the
    removed diagonal on the top side and the inserted one below; the
    stack's boundary is the sphere glued from the two triangulations.
    """
    if path.start != top:
        raise ValueError("the path does not start at the top triangulation")
    if path.end() != bottom:
        raise ValueError("the path does not end at the bottom triangulation")
    tets = []
    seen = set()
    for removed, inserted in path.steps:
        quad = tuple(sorted(set(removed) | set(inserted)))
        if quad in seen:
            raise ValueError(
                f"two flips use the quadrilateral {quad}; the stacked tetrahedra would coincide"
            )
        seen.add(quad)
        tets.append(quad)
    common = sorted(top.diagonals & bottom.diagonals)
    if common:
        raise ValueError(f"the triangulations share diagonals {common}; split them apart first")
    return TetDecomposition.of(top.n, tets)


def no_three_face_tet(tau: SphereTriangulation) -> tuple[bool, Tet | None]:
    """Check that no 4 vertices carry 3 or more sphere triangles.

    Three triangles among 4 vertices pairwise share edges, so it is enough
    to scan, for every edge, the 4-subset spanned by its two triangles.
    Returns (False, witness 4-subset) when one exists.
    """
    for e, (f1, f2) in sorted(tau.edge_faces().items()):
        quad = tuple(sorted(set(f1) | set(f2)))
        carried = sum(
            1 for f in combinations(quad, 3) if f in tau.triangles
        )
        if carried >= 3:
            return False, quad
    return True, None


def is_bipyramid(tau: SphereTriangulation) -> bool:
    """True when tau is a double cone: two nonadjacent apexes over a cycle."""
    v_count = tau.vertex_count
    nbrs = tau.neighbors()
    deg = tau.degrees()
    k = v_count - 2
    for p in range(v_count):
        if deg[p] != k:
            continue
        for q in range(p + 1, v_count):
            if deg[q] != k or q in nbrs[p]:
                continue
            rest = [v for v in range(v_count) if v != p and v != q]
            if not all(
                p in nbrs[x] and q in nbrs[x] and deg[x] == 4 for x in rest
            ):
                continue
            # the remaining vertices must close into one cycle
            ring = {x: sorted(nbrs[x] - {p, q}) for x in rest}
            if any(len(ns) != 2 for ns in ring.values()):
                continue
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                for w in ring[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(rest):
                return True
    return False


def counting_lower_bound(tau: SphereTriangulation) -> int:
    """A lower bound on the decomposition size from face counting.

    A ball of T tetrahedra whose V vertices all lie on the sphere has
    T = V - 3 + E_i, with E_i interior edges (see `min_tet`), and the
    sphere has F = 2V - 4 triangles.  When some 4 vertices carry 3 or more
    sphere triangles, one tetrahedron can absorb 4 of them and the bound
    is ceil(F/4).  Otherwise each absorbs at most 2, so T >= F/2 = V - 2,
    which is E_i >= 1.  With E_i = 1, T = F/2 and every tetrahedron
    carries two sphere triangles on a common edge.  If the edge opposite
    that one in their 4-subset is never a sphere edge, it is the one
    interior edge, every tetrahedron contains it, and the sphere is a
    bipyramid around it.  Off the bipyramid, then, E_i >= 2 and the bound
    is V - 1.
    """
    if not no_three_face_tet(tau)[0]:
        return ceil(tau.face_count() / 4)
    edges = tau.edges()
    if any(
        tuple(sorted(set(f1) ^ set(f2))) in edges for f1, f2 in tau.edge_faces().values()
    ) or is_bipyramid(tau):
        return tau.vertex_count - 2  # E_i >= 1
    return tau.vertex_count - 1  # E_i >= 2


@dataclass(frozen=True)
class MinTetResult:
    """Outcome of the exhaustive minimizer.

    `size` is the best validated decomposition found and `lower_bound` the
    best proven floor; `exact` means the two meet or the search ran to
    completion, so `size` is the true minimum.  `rejected` counts the
    parity-complete candidates that failed the ball checks.
    """

    size: int
    witness: TetDecomposition
    certificate: BallCertificate
    lower_bound: int
    exact: bool
    nodes: int
    complete: bool
    rejected: int

    @property
    def status(self) -> str:
        return "exact" if self.exact else "bound"


class _SearchStop(Exception):
    pass


def min_tet(
    tau: SphereTriangulation,
    budget_tets: int | None = None,
    budget_nodes: int | None = None,
    stop_at: int | None = None,
) -> MinTetResult:
    """Minimize the number of tetrahedra over decompositions of the ball.

    Branch and bound over all vertex 4-subsets: repeatedly pick the
    neediest triangle (a sphere triangle not yet covered, or an interior
    triangle covered once), branch on the tetrahedra that can still extend
    it, and prune with the larger of two floors on any completion.  The
    first is depth + ceil(remaining/k), where k is the most sphere
    triangles any tetrahedron absorbs.  The second is Euler's count
    T = V - 3 + E_i for a ball of T tetrahedra with E_i interior edges and
    all V vertices on its boundary: with chi = 1, 4T = 2F - F_b,
    E_b = 3F_b/2 and V = 2 + F_b/2, V - E + F - T = 1 reduces to it.  A
    chosen tetrahedron's edges that are not sphere edges are interior in
    every ball containing it, since that ball's boundary is the sphere, so
    a completion needs at least V - 3 + (such edges chosen so far)
    tetrahedra.  Candidates that complete the face parity but fail the
    ball checks are rejected and the search continues; the Euler floor
    may cut non-balls early, which loses nothing.  Decompositions use only
    the sphere's vertices.

    Triangles and 4-subsets are bits in lexicographic order.  A node holds
    masks of the needy triangles, of the tetrahedra blocked by a saturated
    face (a covered sphere triangle, or an interior one covered twice), of
    the chosen tetrahedra and of their non-sphere edges (edges are bits in
    lexicographic order of vertex pairs), and the count of uncovered
    sphere triangles; children are built from these, so nothing is
    undone.  The neediest triangle is the lowest one with the fewest free
    extenders, which are tried lowest bit first: the order of a scan over
    sorted triangles and 4-subsets, so node counts and witnesses do not
    depend on the encoding.  A child that fails either floor counts as a
    node, against `budget_nodes` too, but is not entered.

    `budget_tets` caps the size searched for, `budget_nodes` the explored
    nodes, and `stop_at` ends the search once a decomposition at or below
    that size is validated; results found under an interrupted search are
    flagged through `complete` and `exact`.
    """
    from .sphere import cone_decomposition

    v_count = tau.vertex_count

    # cone incumbent: one tetrahedron per face missing the apex
    deg = tau.degrees()
    apex = min(v for v in range(v_count) if deg[v] == max(deg.values()))
    cone = cone_decomposition(tau, apex)
    best_cert = _ball_check(tau, cone.tets)
    best_tets = cone.tets
    best = len(cone)

    fid = {f: i for i, f in enumerate(combinations(range(v_count), 3))}
    sphere = sum(1 << fid[f] for f in tau.triangles)
    all_tets = list(combinations(range(v_count), 4))
    tet_faces = [[fid[t[:i] + t[i + 1 :]] for i in range(4)] for t in all_tets]
    ext = [0] * len(fid)  # per triangle: the tetrahedra that extend it
    for ti, fs in enumerate(tet_faces):
        for f in fs:
            ext[f] |= 1 << ti
    fmask = [sum(1 << f for f in fs) for fs in tet_faces]
    ntau = [(m & sphere).bit_count() for m in fmask]
    k0 = max(ntau)
    eid = {e: i for i, e in enumerate(combinations(range(v_count), 2))}
    sphere_edges = sum(1 << eid[e] for e in tau.edges())
    emask = [  # per tetrahedron: its edges that are not sphere edges
        sum(1 << eid[e] for e in combinations(t, 2)) & ~sphere_edges for t in all_tets
    ]
    euler = v_count - 3  # tetrahedra of a ball with no interior edge

    nodes = 1  # the root
    rejected = 0
    complete = True
    max_nodes = inf if budget_nodes is None else budget_nodes
    # sizes at or above this are pruned: the incumbent, or the size cap
    limit = best if budget_tets is None else min(best, budget_tets + 1)

    def dfs(
        depth: int, deficient: int, blocked: int, used: int, remaining: int, inner: int
    ) -> None:
        nonlocal nodes, best, best_tets, best_cert, limit, complete, rejected
        if not deficient:
            tets = frozenset(t for i, t in enumerate(all_tets) if used >> i & 1)
            try:
                best_cert = _ball_check(tau, tets)
            except ValueError:
                rejected += 1
                return
            best = limit = depth
            best_tets = tets
            if stop_at is not None and best <= stop_at:
                complete = False
                raise _SearchStop
            return
        # the first triangle with the fewest candidates, as a sorted scan
        free = ~(blocked | used)
        candidates, fewest = 0, len(all_tets) + 1
        d = deficient
        while d:
            low = d & -d
            cands = ext[low.bit_length() - 1] & free
            count = cands.bit_count()
            if count < fewest:
                if not count:
                    return
                candidates, fewest = cands, count
            d ^= low
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            ti = bit.bit_length() - 1
            nodes += 1
            if nodes > max_nodes:
                complete = False
                raise _SearchStop
            left = remaining - ntau[ti]
            child_inner = inner | emask[ti]
            if max(depth + 1 + (left + k0 - 1) // k0, euler + child_inner.bit_count()) >= limit:
                continue
            # a free tetrahedron's needy faces are its sphere faces, all
            # uncovered, and its interior faces covered once: all saturate
            child_blocked = blocked
            s = deficient & fmask[ti]
            while s:
                low = s & -s
                child_blocked |= ext[low.bit_length() - 1]
                s ^= low
            dfs(depth + 1, deficient ^ fmask[ti], child_blocked, used | bit, left, child_inner)

    remaining = len(tau.triangles)
    try:
        if nodes > max_nodes:
            complete = False
        elif max((remaining + k0 - 1) // k0, euler) < limit:
            dfs(0, sphere, 0, 0, remaining, 0)
    except _SearchStop:
        pass
    # dfs holds itself through its closure; unbinding it frees the search
    # state now instead of at some later cyclic collection
    del dfs

    floor = max(counting_lower_bound(tau), euler)
    if complete and (budget_tets is None or best <= budget_tets):
        lower = best
        exact = True
    elif complete:
        # the capped search was exhausted: nothing at or under the cap
        lower = max(floor, budget_tets + 1)
        exact = best == lower
    else:
        lower = floor
        exact = best == lower
    return MinTetResult(
        size=best,
        witness=TetDecomposition(v_count, best_tets),
        certificate=best_cert,
        lower_bound=lower,
        exact=exact,
        nodes=nodes,
        complete=complete,
        rejected=rejected,
    )


def paired_cone_size(
    tau: SphereTriangulation, seam: CycleInSphere, v1: int, v2: int
) -> int:
    """Tetrahedron count of the paired construction, without building it:
    each side is coned from its chosen vertex and the leftover bipyramid
    over the seam takes one tetrahedron per seam edge."""
    side_a, side_b = seam.sides()
    int_a, int_b = seam.side_interiors()
    if v1 in int_b and v2 in int_a:
        v1, v2 = v2, v1
    deg = tau.degrees()
    return (len(side_a) - deg[v1]) + (len(side_b) - deg[v2]) + len(seam)


def paired_cone_decomposition(
    tau: SphereTriangulation, seam: CycleInSphere, v1: int, v2: int
) -> TetDecomposition:
    """Cone the two sides of a seam cycle from one inner vertex each.

    All triangles of a side not containing its chosen vertex are coned
    from it; the region the two cones leave uncovered is bounded by the
    two fans over the seam, a bipyramid with apexes v1 and v2.  It must be
    the pentagonal one, and is filled with the 5 tetrahedra through the
    v1-v2 axis.  The result is validated before it is returned.
    """
    if seam.sphere != tau:
        raise ValueError("the seam belongs to a different sphere")
    if v1 == v2:
        raise ValueError("the two cone vertices must differ")
    side_a, side_b = seam.sides()
    int_a, int_b = seam.side_interiors()
    if v1 in int_b and v2 in int_a:
        v1, v2 = v2, v1
    if v1 not in int_a:
        raise ValueError(f"vertex {v1} is not strictly inside a side of the seam")
    if v2 not in int_b:
        raise ValueError(f"vertex {v2} is not strictly inside the other side of the seam")
    tets = set()
    for vertex, side in ((v1, side_a), (v2, side_b)):
        for f in side:
            if vertex not in f:
                tets.add(tuple(sorted((vertex,) + f)))

    counts: Counter = Counter()
    for t in tets:
        counts.update(_faces_of(t))
    cover_boundary = {f for f, k in counts.items() if k % 2 == 1}
    residual = (tau.triangles - cover_boundary) | (cover_boundary - tau.triangles)
    length = len(seam)
    want = set()
    for i in range(length):
        a, b = seam.vertices[i], seam.vertices[(i + 1) % length]
        want.add(tuple(sorted((v1, a, b))))
        want.add(tuple(sorted((v2, a, b))))
    if length != 5 or residual != want:
        r_verts = {x for f in residual for x in f}
        r_edges = {
            e
            for f in residual
            for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))
        }
        raise ValueError(
            "the residual region is not a pentagonal bipyramid; its face"
            f" vector is (V={len(r_verts)}, E={len(r_edges)}, F={len(residual)})"
            f" over a seam of length {length}"
        )
    for i in range(length):
        a, b = seam.vertices[i], seam.vertices[(i + 1) % length]
        tets.add(tuple(sorted((v1, v2, a, b))))
    out = TetDecomposition(tau.vertex_count, frozenset(tets))
    validate_ball(tau, out)
    return out
