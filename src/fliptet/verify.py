"""Reproduction harness for the family's headline quantities.

For each family size the harness replays the explicit flip path, stacks
it into a validated ball, recomputes the exact flip distance and the
minimal decomposition size, checks the counting and 1-norm lower
bounds, searches for a short recut, and reports the distance-to-size
ratio as an exact rational.  Expensive recomputations degrade to a
"bounded" row instead of running away; "fail" appears only when a
computed value contradicts its expected one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .family import bottom_triangulation, explicit_flip_path, top_triangulation
from .flipdist import BudgetExceeded, flip_distance
from .lpbound import l1_min
from .sphere import glue, recut_min_flip
from .tetdecomp import counting_lower_bound, from_flip_path, min_tet, validate_ball


@dataclass(frozen=True)
class VerificationRow:
    claim: str
    n: int
    expected: str
    computed: str
    status: str  # pass | fail | bounded
    seconds: float


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[VerificationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def format(self) -> str:
        header = ("claim", "n", "expected", "computed", "status", "seconds")
        table = [header]
        for r in self.rows:
            table.append(
                (r.claim, str(r.n), r.expected, r.computed, r.status, f"{r.seconds:.3f}")
            )
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = []
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"


def _timed(claim: str, n: int, expected: str, body) -> VerificationRow:
    began = time.monotonic()
    try:
        computed, status = body()
    except BudgetExceeded as e:
        computed, status = f"stopped: {e}", "bounded"
    except ValueError as e:
        computed, status = f"error: {e}", "fail"
    return VerificationRow(claim, n, expected, computed, status, time.monotonic() - began)


def run_verification(
    n_max: int = 3,
    distance_max: int = 4,
    recut_max: int = 3,
    lp_max_vertices: int = 10,
    node_budget: int | None = None,
    tet_node_budget: int | None = 2_000_000,
    cycle_budget: int | None = 2_000,
) -> VerificationReport:
    """Recompute everything up to family size n_max with budget guards.

    The exact distance search runs only up to `distance_max` and the
    recut search up to `recut_max`; the 1-norm solve runs only while the
    sphere has at most `lp_max_vertices` vertices.  Sizes beyond a guard
    produce "bounded" rows, as do searches that hit a node or cycle
    budget, so large n_max stays safe at the cost of weaker rows.
    """
    if n_max < 2:
        raise ValueError("the family starts at n = 2")
    rows: list[VerificationRow] = []
    for n in range(2, n_max + 1):
        flips, tets_expected = 3 * n + 1, 2 * n + 3
        top, bottom = top_triangulation(n), bottom_triangulation(n)
        tau = glue(top, bottom)

        def replay():
            path = explicit_flip_path(n)
            states = path.states()
            if states[-1] != bottom:
                return "the path misses the target", "fail"
            status = "pass" if len(path) == flips else "fail"
            return f"{len(path)} flips, replayed", status

        rows.append(
            _timed("explicit-path", n, f"replays with 3n+1 = {flips} flips", replay)
        )

        def stack():
            d = from_flip_path(top, bottom, explicit_flip_path(n))
            validate_ball(tau, d)
            status = "pass" if len(d) == flips else "fail"
            return f"{len(d)} tets, ball checks pass", status

        rows.append(
            _timed("stacked-ball", n, f"{flips} stacked tets form a ball", stack)
        )

        measured: dict[str, int] = {}

        def exact_distance():
            if n > distance_max:
                return f"skipped: exact search is gated at n = {distance_max}", "bounded"
            res = flip_distance(top, bottom, node_budget=node_budget)
            if res.status != "exact":
                return f"proven >= {res.lower_bound} before the budget ran out", "bounded"
            measured["distance"] = res.distance
            return str(res.distance), "pass" if res.distance == flips else "fail"

        rows.append(
            _timed("flip-distance", n, f"exact search finds 3n+1 = {flips}", exact_distance)
        )

        def counting():
            got = counting_lower_bound(tau)
            return str(got), "pass" if got == tets_expected else "fail"

        rows.append(
            _timed(
                "tet-lower-bound", n, f"counting argument gives 2n+3 = {tets_expected}", counting
            )
        )

        def minimize():
            res = min_tet(tau, stop_at=tets_expected, budget_nodes=tet_node_budget)
            if res.exact:
                measured["fill"] = res.size
                return str(res.size), "pass" if res.size == tets_expected else "fail"
            return f"within [{res.lower_bound}, {res.size}]", "bounded"

        rows.append(
            _timed("min-tet", n, f"minimal decomposition has 2n+3 = {tets_expected} tets", minimize)
        )

        def chain_bound():
            if tau.vertex_count > lp_max_vertices:
                return (
                    f"skipped: the solve is gated at {lp_max_vertices} vertices",
                    "bounded",
                )
            value = l1_min(tau).value
            note = " (no gap here)" if value == tets_expected else ""
            return f"{value}{note}", "pass" if value <= tets_expected else "fail"

        rows.append(
            _timed(
                "chain-bound", n, f"rational 1-norm bound <= {tets_expected}", chain_bound
            )
        )

        def recut_bound():
            if n > recut_max:
                return f"skipped: the recut search is gated at n = {recut_max}", "bounded"
            res = recut_min_flip(tau, stop_at=tets_expected, max_cycles=cycle_budget)
            if res.distance is not None and res.distance <= tets_expected:
                return f"{res.distance} after trying {res.cycles_tried} cycle(s)", "pass"
            if res.exhausted:
                return f"best recut needs {res.distance}", "fail"
            return f"best so far {res.distance} after {res.cycles_tried} cycles", "bounded"

        rows.append(
            _timed(
                "recut-bound", n, f"some recut reaches flips <= {tets_expected}", recut_bound
            )
        )

        expected_ratio = Fraction(flips, tets_expected)

        def ratio():
            if len(measured) < 2:
                return "skipped: the distance or the fill is not exact", "bounded"
            got = Fraction(measured["distance"], measured["fill"])
            note = "; the gap appears only above this size" if n == 2 else ""
            return f"{got}{note}", "pass" if got == expected_ratio else "fail"

        rows.append(_timed("ratio", n, f"(3n+1)/(2n+3) = {expected_ratio}", ratio))
    return VerificationReport(tuple(rows))
