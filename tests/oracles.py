"""Independent oracles used to cross-check the library.

Nothing here imports the library's geometry or search code. Crossing is
decided by exact integer segment intersection on points in convex position,
and distances come from a plain BFS whose neighbor generation tries every
candidate insertion instead of computing the quadrilateral. The 1-norm
bound comes from a floating-point HiGHS solve of every boundary equation.
The minimum fill enumerates sets of 4-subsets by size and calls the
library only to validate, as a ball, a set that meets the face parity.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations


def parabola_point(i: int) -> tuple[int, int]:
    # points (i, i^2) are in strictly convex position, listed in hull order
    return (i, i * i)


def _orient(p, q, r) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def segments_cross(a, b, c, d) -> bool:
    """Proper intersection of open segments ab and cd (integer exact)."""
    if len({a, b, c, d}) < 4:
        return False
    return (
        _orient(a, b, c) * _orient(a, b, d) < 0
        and _orient(c, d, a) * _orient(c, d, b) < 0
    )


def diagonals_cross(n: int, d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    pts = [parabola_point(i) for i in range(n)]
    return segments_cross(pts[d1[0]], pts[d1[1]], pts[d2[0]], pts[d2[1]])


def is_valid_triangulation(n: int, diags: frozenset[tuple[int, int]]) -> bool:
    if len(diags) != n - 3:
        return False
    for a, b in diags:
        if not (0 <= a < b < n):
            return False
        if b - a == 1 or (a == 0 and b == n - 1):
            return False
    return not any(
        diagonals_cross(n, d1, d2) for d1, d2 in combinations(diags, 2)
    )


def oracle_neighbors(n: int, diags: frozenset) -> list[frozenset]:
    """All triangulations one flip away, by brute-force reinsertion."""
    out = []
    all_pairs = [
        (a, b)
        for a, b in combinations(range(n), 2)
        if b - a != 1 and not (a == 0 and b == n - 1)
    ]
    for d in diags:
        rest = diags - {d}
        for cand in all_pairs:
            if cand == d or cand in rest:
                continue
            new = rest | {cand}
            if is_valid_triangulation(n, new):
                out.append(new)
    return out


def oracle_flip_distance(n: int, start: frozenset, goal: frozenset) -> int:
    """Plain BFS over the flip graph, no pruning, no shared code."""
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, dist = queue.popleft()
        for nxt in oracle_neighbors(n, state):
            if nxt in seen:
                continue
            if nxt == goal:
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    raise AssertionError("flip graph is connected; goal must be reachable")


def catalan(k: int) -> int:
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def all_triangulations(n: int) -> list[frozenset]:
    """Every triangulation of the n-gon, by recursion on the closing edge."""

    def rec(verts: tuple[int, ...]) -> list[frozenset]:
        if len(verts) < 3:
            return [frozenset()]
        if len(verts) == 3:
            return [frozenset()]
        first, last = verts[0], verts[-1]
        out = []
        for k in range(1, len(verts) - 1):
            apex = verts[k]
            chords = set()
            if k != 1:
                chords.add((min(first, apex), max(first, apex)))
            if k != len(verts) - 2:
                chords.add((min(apex, last), max(apex, last)))
            for left in rec(verts[: k + 1]):
                for right in rec(verts[k:]):
                    out.append(left | right | chords)
        return out

    return rec(tuple(range(n)))

def _cycle_canonical(verts: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for seq in (verts, verts[::-1]):
        for s in range(len(seq)):
            cand = seq[s:] + seq[:s]
            if best is None or cand < best:
                best = cand
    return best


def brute_simple_cycles(v_count: int, edges: set, max_len: int) -> set:
    """Every simple cycle up to max_len, by permutation brute force.

    Returned as canonical tuples (minimal over rotation and reflection).
    """
    from itertools import permutations

    out = set()
    for size in range(3, max_len + 1):
        for verts in combinations(range(v_count), size):
            for order in permutations(verts[1:]):
                cyc = (verts[0],) + order
                if all(
                    tuple(sorted((cyc[i], cyc[(i + 1) % size]))) in edges
                    for i in range(size)
                ):
                    out.add(_cycle_canonical(cyc))
    return out


def brute_hamiltonian_cycles(v_count: int, edges: set) -> set:
    """All Hamiltonian cycles as canonical tuples, by permutations."""
    from itertools import permutations

    out = set()
    for order in permutations(range(1, v_count)):
        cyc = (0,) + order
        if all(
            tuple(sorted((cyc[i], cyc[(i + 1) % v_count]))) in edges
            for i in range(v_count)
        ):
            out.add(_cycle_canonical(cyc))
    return out


def brute_cycle_sides(triangles: set, cycle: tuple[int, ...]) -> list[set]:
    """The two triangle sets a cycle cuts a sphere into (face flood fill)."""
    k = len(cycle)
    cycle_edges = {
        tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)
    }
    by_edge: dict = {}
    for t in triangles:
        for e in combinations(t, 2):
            by_edge.setdefault(e, []).append(t)
    sides = []
    left = set(triangles)
    while left:
        comp = {min(left)}
        queue = [min(left)]
        while queue:
            t = queue.pop()
            for e in combinations(t, 2):
                if e in cycle_edges:
                    continue
                for g in by_edge[e]:
                    if g in left and g not in comp:
                        comp.add(g)
                        queue.append(g)
        sides.append(comp)
        left -= comp
    return sides


def brute_bad_cycles(v_count: int, triangles: set) -> tuple[set, int, int]:
    """Bad cycles under the strict reading, the loose-count, and examined.

    Strict: each side holds a vertex of degree > length strictly inside.
    Loose: cycle vertices may witness. Independent permutation enumeration.
    """
    edges = {e for t in triangles for e in combinations(t, 2)}
    deg: dict[int, int] = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    max_len = max(deg.values()) - 1
    strict = set()
    loose = 0
    examined = 0
    for cyc in sorted(brute_simple_cycles(v_count, edges, max_len)):
        examined += 1
        length = len(cyc)
        sides = brute_cycle_sides(triangles, cyc)
        if len(sides) != 2:
            continue
        on = set(cyc)
        strict_ok, loose_ok = True, True
        for side in sides:
            touched = {v for t in side for v in t}
            if not any(deg[v] > length for v in touched - on):
                strict_ok = False
            if not any(deg[v] > length for v in touched):
                loose_ok = False
        if strict_ok:
            strict.add(cyc)
        if loose_ok:
            loose += 1
    return strict, loose, examined


def oracle_l1_min(v_count: int, triangles) -> float:
    """Minimum 1-norm of a real 3-chain bounding the sphere, by HiGHS.

    The sphere is oriented here by flooding across shared edges, and every
    vertex 3-subset contributes its equation: no row is dropped.
    """
    import numpy as np
    from scipy.optimize import linprog

    tris = sorted(tuple(sorted(t)) for t in triangles)
    cyclic = {tris[0]: tris[0]}
    stack = [tris[0]]
    while stack:
        x, y, z = cyclic[stack.pop()]
        for a, b in ((x, y), (y, z), (z, x)):
            for u in tris:
                if u not in cyclic and a in u and b in u:
                    (c,) = set(u) - {a, b}
                    cyclic[u] = (b, a, c)  # traverses the shared edge backwards
                    stack.append(u)
    faces = list(combinations(range(v_count), 3))
    row = {f: i for i, f in enumerate(faces)}
    tets = list(combinations(range(v_count), 4))
    a_mat = np.zeros((len(faces), len(tets)))
    for j, t in enumerate(tets):
        for i in range(4):
            a_mat[row[t[:i] + t[i + 1 :]], j] = (-1) ** i
    rhs = np.zeros(len(faces))
    for u, (x, y, z) in cyclic.items():
        rhs[row[u]] = 1 if (x < y < z or y < z < x or z < x < y) else -1
    res = linprog(
        np.ones(2 * len(tets)),
        A_eq=np.hstack([a_mat, -a_mat]),
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return float(res.fun)


def oracle_min_fill(v_count: int, triangles) -> int:
    """Fewest vertex 4-subsets that fill the sphere, by trying every set.

    Sets are tried by increasing size k; a set fills the sphere when each
    sphere triangle lies in exactly one of its 4-subsets, every other
    triangle in none or two, and the library's `validate_ball` accepts it.
    """
    from fliptet.sphere import SphereTriangulation
    from fliptet.tetdecomp import TetDecomposition, validate_ball

    tau = SphereTriangulation.of(v_count, triangles)
    tets = list(combinations(range(v_count), 4))
    # face parity first: a set's faces of odd count must be the sphere's
    index = {f: i for i, f in enumerate(combinations(range(v_count), 3))}
    odd = {t: sum(1 << index[f] for f in combinations(t, 3)) for t in tets}
    sphere = sum(1 << index[f] for f in tau.triangles)
    for k in range(1, len(tets) + 1):
        for chosen in combinations(tets, k):
            parity = 0
            for t in chosen:
                parity ^= odd[t]
            if parity != sphere:
                continue
            counts = Counter(f for t in chosen for f in combinations(t, 3))
            if any(c > 2 for c in counts.values()):
                continue
            try:
                validate_ball(tau, TetDecomposition.of(v_count, chosen))
            except ValueError:
                continue
            return k
    raise AssertionError("the cone over a vertex always fills the sphere")
