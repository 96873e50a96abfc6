"""Exact flip distances between polygon triangulations.

One engine, a bidirectional breadth-first search, runs on integer
states, one bit per diagonal of the n-gon. The bits are ordered so that
int order is the order of sorted diagonal tuples, which fixes the
expansion order, node counts and witnesses. Instances are first cut
along common diagonals, which never changes the distance, only the
search size.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random

from .polygon import (
    Diagonal,
    FlipPath,
    PolygonTriangulation,
    pair,
    random_triangulation,
    split_along,
)


class BudgetExceeded(RuntimeError):
    """Raised when a search runs out of its node or time budget."""

    def __init__(self, message: str, lower_bound: int = 0):
        super().__init__(message)
        self.lower_bound = lower_bound


@dataclass
class SearchStats:
    nodes: int = 0
    frontier_peak: int = 0
    seconds: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
        self.seconds += other.seconds


@dataclass
class DistanceResult:
    """Outcome of an exact search.

    status is "exact" when the distance is proven; a search that ran out
    of budget reports status "budget" with the best proven lower bound,
    and a search refuted by `below=k` reports "above" with a lower bound
    of at least k; neither has a witness.
    """

    distance: int | None
    path: FlipPath | None
    stats: SearchStats
    status: str = "exact"
    lower_bound: int = 0

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def lower_bound(t1: PolygonTriangulation, t2: PolygonTriangulation) -> int:
    """Admissible bound: every non-shared diagonal must be flipped."""
    if t1.n != t2.n:
        raise ValueError("triangulations live on different polygons")
    return len(t1.diagonals - t2.diagonals)


# ----------------------------------------------------------------- engine
#
# Search states are ints: diagonal i of the n-gon's diagonals in sorted
# order is bit D-1-i, with D = n(n-3)/2, so smaller diagonals hold higher
# bits. Two states of n-3 diagonals each compare, as sorted tuples, at the
# first place where they differ; the state with the smaller diagonal
# there holds the highest differing bit. Ascending tuple order is thus
# descending int order, and highest bit first is ascending diagonal
# order, so the frontier sort (reverse=True), the meet tie-break (max)
# and the move order are those of sorted diagonal tuples.


class _Budget:
    """Node and time budget, shared by the regions of one split search."""

    def __init__(self, node_budget: int | None, time_budget: float | None):
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0


@lru_cache(maxsize=None)
def _bits(n: int) -> tuple[dict[int, Diagonal], dict[int, int], tuple[int, ...]]:
    """Bit encoding of the n-gon's diagonals, with vertices as masks too:
    bit -> endpoints, mask of the two endpoints -> bit, and vertex -> mask
    of its two polygon neighbours."""
    diagonals = [
        (a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)
    ]
    top = len(diagonals) - 1
    ends = {1 << (top - i): d for i, d in enumerate(diagonals)}
    bit = {(1 << a) | (1 << b): 1 << (top - i) for i, (a, b) in enumerate(diagonals)}
    ring = tuple((1 << (v + 1) % n) | (1 << (v - 1) % n) for v in range(n))
    return ends, bit, ring


def _bidirectional(
    n: int,
    source: int,
    target: int,
    budget: _Budget,
    stats: SearchStats,
    below: int | None = None,
) -> tuple[int | None, list[tuple[int, int]]]:
    """Meet-in-the-middle BFS; returns distance and witness steps.

    With `below`, a new state is dropped when its depth plus its
    diagonals missing from the other root reaches `below` (a flip removes
    at most one), and the search returns no distance once the depths
    cannot meet below it or a frontier is empty.  States of shorter paths
    survive at their exact depths, so a found distance is exact.

    source and target must differ: flip_distance answers equal inputs
    itself, and a split region of four or more vertices shares no
    diagonal, so its halves differ."""
    ends, bit, ring = _bits(n)
    # each side's parent map; a root is its own parent
    fparent = {source: source}
    bparent = {target: target}
    ffrontier, bfrontier = [source], [target]
    fdepth = bdepth = 0
    best: int | None = None
    meets: set[int] = set()

    def proven_lower() -> int:
        # levels fully expanded on both sides settle everything shorter
        base = fdepth + bdepth + 1
        return base if best is None else min(best, base)

    def expand(frontier, parent, other, goal, depth):
        nonlocal best
        nxt = []
        room = None if below is None else below - depth - 1
        for state in sorted(frontier, reverse=True):
            budget.nodes += 1
            if budget.node_budget is not None and budget.nodes > budget.node_budget:
                raise BudgetExceeded(f"node budget {budget.node_budget} exhausted", proven_lower())
            if budget.deadline is not None and budget.nodes % 256 == 0:
                if time.monotonic() > budget.deadline:
                    raise BudgetExceeded("time budget exhausted", proven_lower())
            nb = list(ring)
            present = []
            rest = state
            while rest:
                removed = rest & -rest
                rest ^= removed
                a, b = ends[removed]
                nb[a] |= 1 << b
                nb[b] |= 1 << a
                present.append((removed, a, b))
            # highest removed bit first; the two common neighbours of a
            # and b are the flip's apexes
            for removed, a, b in reversed(present):
                new = state ^ removed ^ bit[nb[a] & nb[b]]
                if new in parent:
                    continue
                if room is not None and (new & ~goal).bit_count() >= room:
                    continue
                parent[new] = state
                nxt.append(new)
                if new in other:
                    total = depth + 1
                    cur = new
                    while cur != goal:
                        cur = other[cur]
                        total += 1
                    if best is None or total < best:
                        best = total
                        meets.clear()
                    if total == best:
                        meets.add(new)
        stats.frontier_peak = max(stats.frontier_peak, len(nxt))
        return nxt

    while best is None or best > fdepth + bdepth:
        if not ffrontier or not bfrontier or (below is not None and fdepth + bdepth + 1 >= below):
            break
        if len(ffrontier) <= len(bfrontier):
            ffrontier = expand(ffrontier, fparent, bparent, target, fdepth)
            fdepth += 1
        else:
            bfrontier = expand(bfrontier, bparent, fparent, source, bdepth)
            bdepth += 1
    if best is None:
        return None, []

    meet = max(meets)
    fore: list[tuple[int, int]] = []
    cur = meet
    while cur != source:
        prev = fparent[cur]
        fore.append((prev & ~cur, cur & ~prev))
        cur = prev
    fore.reverse()
    cur = meet
    while cur != target:
        prev = bparent[cur]
        # backward edges replay forward with the roles swapped
        fore.append((cur & ~prev, prev & ~cur))
        cur = prev
    return best, fore


def _state(t: PolygonTriangulation) -> int:
    bit = _bits(t.n)[1]
    # distinct bits, so the sum is their union
    return sum(bit[(1 << a) | (1 << b)] for a, b in t.diagonals)


def _search_one(
    n: int, source: int, target: int, budget: _Budget, below: int | None = None, start=None
) -> DistanceResult:
    """One unsplit search between two int states of the n-gon; given the
    source as the triangulation `start`, an exact answer carries its path."""
    stats = SearchStats()
    began = time.monotonic()
    spent = budget.nodes
    floor = (source & ~target).bit_count()
    try:
        distance, steps = _bidirectional(n, source, target, budget, stats, below)
    except BudgetExceeded as exc:
        lo = max(exc.lower_bound, floor)
        result = DistanceResult(None, None, stats, status="budget", lower_bound=lo)
    else:
        if distance is None:
            result = DistanceResult(None, None, stats, status="above", lower_bound=max(below, floor))
        else:
            path = None
            if start is not None:
                ends = _bits(n)[0]
                path = FlipPath(n, start, tuple((ends[r], ends[i]) for r, i in steps))
            result = DistanceResult(distance, path, stats, lower_bound=distance)
    # the budget is shared across split regions; count this region's nodes
    stats.nodes = budget.nodes - spent
    stats.seconds = time.monotonic() - began
    return result


def _concatenate_region_paths(
    t1: PolygonTriangulation, pieces: list[tuple[FlipPath, tuple[int, ...]]]
) -> FlipPath:
    steps: list[tuple[Diagonal, Diagonal]] = []
    for path, vmap in pieces:
        for removed, inserted in path.steps:
            steps.append(
                (
                    pair(vmap[removed[0]], vmap[removed[1]]),
                    pair(vmap[inserted[0]], vmap[inserted[1]]),
                )
            )
    return FlipPath(t1.n, t1, tuple(steps))


def flip_distance(
    t1: PolygonTriangulation,
    t2: PolygonTriangulation,
    use_splitting: bool = True,
    node_budget: int | None = None,
    time_budget: float | None = None,
    below: int | None = None,
) -> DistanceResult:
    """Exact flip distance with a replayable witness path.

    Common diagonals are never flipped on a shortest path, so by default
    the instance is cut along them and the regions are solved separately;
    the distance is the sum and the witness is the concatenation.

    `below=k` asks whether the distance is below k: if so the answer is
    exact, else its status is "above" with a lower bound of at least k.
    A split region gets k minus the distances of the regions before it.
    """
    if t1.n != t2.n:
        raise ValueError("triangulations live on different polygons")
    budget = _Budget(node_budget, time_budget)
    if t1.diagonals == t2.diagonals:
        if below is not None and below <= 0:
            return DistanceResult(None, None, SearchStats(), status="above")
        return DistanceResult(0, FlipPath(t1.n, t1, ()), SearchStats())
    if not use_splitting or not (t1.diagonals & t2.diagonals):
        return _search_one(t1.n, _state(t1), _state(t2), budget, below, t1)

    begin = time.monotonic()
    stats = SearchStats()
    total = 0
    pieces = []
    for sub1, sub2, vmap in split_along(t1, t2):
        rest = None if below is None else below - total
        res = _search_one(sub1.n, _state(sub1), _state(sub2), budget, rest, sub1)
        stats.merge(res.stats)
        if not res.exact:
            lo = total + res.lower_bound
            stats.seconds = time.monotonic() - begin
            return DistanceResult(None, None, stats, status=res.status, lower_bound=lo)
        total += res.distance
        pieces.append((res.path, vmap))
    path = _concatenate_region_paths(t1, pieces)
    stats.seconds = time.monotonic() - begin
    return DistanceResult(total, path, stats, lower_bound=total)


# ------------------------------------------------------- path diagnostics


def extra_diagonals(path: FlipPath) -> frozenset[Diagonal]:
    """Diagonals visited by the path but absent from both endpoints."""
    states = path.states()
    seen: set[Diagonal] = set()
    for s in states:
        seen |= s.diagonals
    return frozenset(seen - states[0].diagonals - states[-1].diagonals)


def check_flip_count_identity(path: FlipPath) -> bool:
    """Check |path| = n-3+e against the extra-diagonal count e.

    The identity presumes that the endpoints share no diagonal and that
    the path inserts no diagonal twice (in particular never re-inserts a
    start diagonal); violations raise instead of returning a misleading
    answer.
    """
    states = path.states()
    start, end = states[0], states[-1]
    if start.diagonals & end.diagonals:
        raise ValueError("endpoints share a diagonal; the identity needs disjoint endpoints")
    insertions = Counter(ins for _, ins in path.steps)
    for d, count in sorted(insertions.items()):
        if count > 1:
            raise ValueError(f"diagonal {d} is inserted {count} times; the identity does not apply")
        if d in start.diagonals:
            raise ValueError(f"start diagonal {d} is re-inserted; the identity does not apply")
    e = len(extra_diagonals(path))
    return len(path) == (path.n - 3) + e


def check_triangle_cooccurrence(path: FlipPath):
    """Find three path diagonals forming a triangle that never co-occur.

    Returns None when every such triple appears together in some state
    (which is guaranteed on shortest paths), otherwise one offending
    triple of diagonals.
    """
    states = path.states()
    union: set[Diagonal] = set()
    for s in states:
        union |= s.diagonals
    adj: dict[int, set[int]] = {}
    for a, b in union:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for a, b in sorted(union):
        for c in sorted(adj[a] & adj[b]):
            if c < b:
                continue
            triple = ((a, b), (b, c), (a, c))
            if not any(
                all(d in s.diagonals for d in triple) for s in states
            ):
                return triple
    return None


@dataclass
class DiameterReport:
    n: int
    bound: int | None
    samples: int = 0
    max_distance: int = 0
    within_bound: bool = True
    skipped: bool = False
    note: str = ""
    distances: list[int] = field(default_factory=list)


def diameter_sanity(
    n: int,
    trials: int,
    seed: int = 0,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> DiameterReport:
    """Sample exact distances and compare them to the 2n-10 diameter.

    The bound only holds for n > 12; smaller polygons produce a skipped
    report rather than a misleading pass.
    """
    if n <= 12:
        return DiameterReport(
            n, None, skipped=True, note="diameter bound 2n-10 applies only for n > 12"
        )
    bound = 2 * n - 10
    rng = Random(seed)
    report = DiameterReport(n, bound)
    for _ in range(trials):
        t1 = random_triangulation(n, rng)
        t2 = random_triangulation(n, rng)
        res = flip_distance(t1, t2, node_budget=node_budget, time_budget=time_budget)
        if not res.exact:
            raise BudgetExceeded(
                f"sample exceeded budget after {report.samples} exact distances",
                res.lower_bound,
            )
        report.samples += 1
        report.distances.append(res.distance)
        report.max_distance = max(report.max_distance, res.distance)
        if res.distance > bound:
            report.within_bound = False
    return report
