"""The benchmark's four workloads: their inputs and how each is certified.

Every workload is a list of instances.  Set-up writes each instance's
inputs as CLI text files; `certify` parses them back, runs the engines
through the tracer and checks every answer against a witness:

- a flip path is replayed state by state,
- a tetrahedral fill is validated as a ball bounded by the sphere,
- an LP chain is checked to bound the oriented sphere, with 1-norm equal
  to the reported value, and the value must equal the dual objective
  that `l1_min` returns as its optimality certificate,
- the values obey counting floor <= fill <= distance or recut, and
  LP value <= fill.

`certify` returns the instance's answers, which the caller compares with
the frozen ones in answers.json.

The random workloads draw their spheres from a fixed pool per workload
(`Random("pool:<workload>")`); `--seed` picks the instance order and each
instance's presentation.  The spheres that `min_tet` and `l1_min` see
keep the pool's labels, because both engines are label-sensitive: on one
12-vertex sphere five relabelings took `min_tet` 2.9 s to 8.4 s, and
`l1_min` varies by about 25% per sphere.  Fresh spheres or labels per
seed would move `wall_s` by more than any bound the benchmark can hold.
What the seed does change costs little to vary: the polygon labels of
the two halves in `random-fill` (a rotation and reflection), and the
vertex labels in `recut-scan`, whose exhaustive cycle count does not
depend on labels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from fliptet.family import bottom_triangulation, explicit_flip_path, top_triangulation
from fliptet.fileio import emit_path, emit_polygon, emit_sphere, parse_path, parse_polygon, parse_sphere
from fliptet.flipdist import flip_distance
from fliptet.lpbound import l1_min, verify_chain
from fliptet.polygon import PolygonTriangulation, pair, random_triangulation
from fliptet.sphere import glue, recut_min_flip, relabel
from fliptet.tetdecomp import (
    TetDecomposition,
    counting_lower_bound,
    from_flip_path,
    min_tet,
    validate_ball,
)

# The gates of `fliptet verify --n-max 5 --distance-max 5`: every size gets
# the exact distance search.
FAMILY_SIZES = (2, 3, 4, 5)
LP_MAX_VERTICES = 10
RECUT_MAX_N = 3
CYCLE_BUDGET = 2_000
TET_NODE_BUDGET = 2_000_000

# Pool sizes: (vertex counts, number of spheres), each about 4-6 s of work
# so that four passes or more fit in a 30 s run.  13-gons and larger are
# left out of random-fill (one took 7 s, a 14-gon hit the node budget),
# 10-vertex spheres out of lp-sandwich (one took 48 s in l1_min).
POOLS = {
    "random-fill": ((10, 12), 22),
    "lp-sandwich": ((8, 9), 8),
    "recut-scan": ((9, 10), 16),
}
QUICK_POOL = 2
# Nodes the exact flip-distance search expands on the family pair, per n:
# 47 410 over n = 2..5.  A change to the search order changes them, and
# must update them here along with its recorded result.
FAMILY_FLIP_NODES = {2: 67, 3: 530, 4: 4_849, 5: 41_964}


class CheckFailed(Exception):
    """An answer without a valid witness, or two answers that contradict."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Instance:
    id: str
    files: dict[str, str]  # role -> text, written by set-up
    n: int = 0  # family size; 0 for pool spheres


# ------------------------------------------------------------ inputs


def _glued_pair(m: int, rng: Random) -> tuple[PolygonTriangulation, PolygonTriangulation]:
    while True:
        a = random_triangulation(m, rng)
        b = random_triangulation(m, rng)
        if not (a.diagonals & b.diagonals):
            return a, b


def _relabel_polygon(t: PolygonTriangulation, sigma) -> PolygonTriangulation:
    return PolygonTriangulation.of(t.n, (pair(sigma[x], sigma[y]) for x, y in t.diagonals))


def build(workload: str, seed: int, quick: bool) -> list[Instance]:
    """The workload's instances for this seed, in the order they run."""
    if workload == "family":
        sizes = FAMILY_SIZES[:1] if quick else FAMILY_SIZES
        return [
            Instance(
                f"family-n{n}",
                {
                    "top": emit_polygon(top_triangulation(n)),
                    "bottom": emit_polygon(bottom_triangulation(n)),
                    "path": emit_path(explicit_flip_path(n)),
                },
                n,
            )
            for n in sizes
        ]
    (lo, hi), count = POOLS[workload]
    pool_rng = Random(f"pool:{workload}")
    seed_rng = Random(f"{workload}:{seed}")
    out = []
    for i in range(QUICK_POOL if quick else count):
        a, b = _glued_pair(pool_rng.randrange(lo, hi + 1), pool_rng)
        tau = glue(a, b)
        m = tau.vertex_count
        files = {}
        if workload == "random-fill":
            # halves on a rotated or reflected polygon; the cycle maps
            # polygon vertex i back to sphere vertex cycle[i]
            shift, step = seed_rng.randrange(m), seed_rng.choice((1, -1))
            sigma = [(shift + step * x) % m for x in range(m)]
            cycle = [0] * m
            for x in range(m):
                cycle[sigma[x]] = x
            files["top"] = emit_polygon(_relabel_polygon(a, sigma))
            files["bottom"] = emit_polygon(_relabel_polygon(b, sigma))
            files["sphere"] = emit_sphere(tau, tuple(cycle))
        elif workload == "recut-scan":
            perm = list(range(m))
            seed_rng.shuffle(perm)
            files["sphere"] = emit_sphere(relabel(tau, perm))
        else:
            files["sphere"] = emit_sphere(tau)
        out.append(Instance(f"{workload}-{i:02d}", files))
    if workload != "family":
        seed_rng.shuffle(out)
    return out


def write_inputs(run_dir: Path, instances: list[Instance]) -> tuple[dict, str]:
    """Write every input file; return role paths per instance and the set's digest."""
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths: dict[str, dict[str, Path]] = {}
    for inst in instances:
        paths[inst.id] = {}
        for role, text in sorted(inst.files.items()):
            name = f"{inst.id}-{role}.txt"
            (inputs / name).write_text(text)
            digest.update(f"{name}\n{text}".encode())
            paths[inst.id][role] = inputs / name
    return paths, digest.hexdigest()


# ---------------------------------------------------------- certify


def _parse(tr, parse, path: Path):
    text = path.read_text()
    result = tr.call("fileio.parse", parse, text)
    tr.count(bytes=len(text.encode()))
    return result


def _replay(tr, path, start, end) -> None:
    states = tr.call("polygon.replay", path.states)
    check(states[0] == start and states[-1] == end, "a flip path misses its endpoints")


def _distance(tr, a, b):
    res = tr.call("flipdist", flip_distance, a, b)
    tr.count(nodes=res.stats.nodes, frontier_peak=res.stats.frontier_peak)
    check(res.exact, f"flip_distance stopped at >= {res.lower_bound}")
    _replay(tr, res.path, a, b)
    check(len(res.path) == res.distance, "the witness path length differs from the distance")
    return res


def _validate(tr, tau, decomposition) -> None:
    tr.call("tetdecomp.validate_ball", validate_ball, tau, decomposition)
    tr.count(tets=len(decomposition))


def _stack(tr, tau, top, bottom, path, cycle=None) -> int:
    """Validate the ball stacked from a path; `cycle` maps polygon to sphere labels."""
    stacked = tr.call("tetdecomp.from_flip_path", from_flip_path, top, bottom, path)
    if cycle is not None:
        stacked = TetDecomposition.of(
            tau.vertex_count, (tuple(cycle[x] for x in t) for t in stacked.tets)
        )
    _validate(tr, tau, stacked)
    return len(stacked)


def _fill(tr, tau, stop_at=None) -> int:
    res = tr.call(
        "tetdecomp.min_tet", min_tet, tau, budget_nodes=TET_NODE_BUDGET, stop_at=stop_at
    )
    tr.count(nodes=res.nodes, incomplete=int(not res.complete))
    check(res.exact, f"min_tet stopped within [{res.lower_bound}, {res.size}]")
    _validate(tr, tau, res.witness)
    return res.size


def _lp(tr, tau) -> Fraction:
    sol = tr.call("lpbound.l1_min", l1_min, tau)
    tr.count(chain_support=len(sol.chain))
    # `l1_min` checks its dual multipliers for feasibility before it
    # returns; it does not return them, so the value is compared with the
    # dual objective they give
    check(sol.status == "optimal", f"l1_min returned status {sol.status}")
    check(sol.dual_value == sol.value, f"LP value {sol.value} differs from its dual bound {sol.dual_value}")
    check(
        tr.call("lpbound.verify_chain", verify_chain, tau, sol.chain),
        "the LP chain does not bound the oriented sphere",
    )
    value = Fraction(str(sol.value))
    norm = sum(abs(Fraction(str(c))) for c in sol.chain.values())
    check(norm == value, f"the LP chain has 1-norm {norm}, not {value}")
    return value


def _recut(tr, tau, **kwargs):
    res = tr.call("sphere.recut_min_flip", recut_min_flip, tau, **kwargs)
    tr.count(cycles_tried=res.cycles_tried)
    check(res.distance is not None, "no recut reached an exact distance")
    a, b = res.halves
    glued = tr.call("sphere.glue", glue, a, b)
    check(relabel(glued, res.cycle.vertices) == tau, "the best recut does not glue back to the sphere")
    return res


def _sandwich(ans: dict) -> dict:
    check(ans["floor"] <= ans["fill"], f"fill {ans['fill']} is below the counting floor {ans['floor']}")
    for upper in ("distance", "recut"):
        if upper in ans:
            check(ans["fill"] <= ans[upper], f"fill {ans['fill']} exceeds the {upper} {ans[upper]}")
    if "lp" in ans:
        check(ans["lp"] <= ans["fill"], f"LP value {ans['lp']} exceeds fill {ans['fill']}")
        ans["lp"] = str(ans["lp"])
    return ans


def _certify_family(tr, inst: Instance, files: dict[str, Path]) -> dict:
    """The stages and gates of `fliptet verify` for one family size."""
    n = inst.n
    top = _parse(tr, parse_polygon, files["top"])
    bottom = _parse(tr, parse_polygon, files["bottom"])
    path = _parse(tr, parse_path, files["path"])
    _replay(tr, path, top, bottom)
    tau = tr.call("sphere.glue", glue, top, bottom)
    ans = {"explicit": len(path), "stacked": _stack(tr, tau, top, bottom, path)}
    ans["distance"] = _distance(tr, top, bottom).distance
    ans["floor"] = tr.call("tetdecomp.counting_lower_bound", counting_lower_bound, tau)
    ans["fill"] = _fill(tr, tau, stop_at=2 * n + 3)
    if tau.vertex_count <= LP_MAX_VERTICES:
        ans["lp"] = _lp(tr, tau)
    if n <= RECUT_MAX_N:
        ans["recut"] = _recut(tr, tau, stop_at=2 * n + 3, max_cycles=CYCLE_BUDGET).distance
    return _sandwich(ans)


def _certify_random_fill(tr, inst: Instance, files: dict[str, Path]) -> dict:
    tau, cycle = _parse(tr, parse_sphere, files["sphere"])
    top = _parse(tr, parse_polygon, files["top"])
    bottom = _parse(tr, parse_polygon, files["bottom"])
    check(cycle is not None, "the sphere file names no cycle")
    glued = tr.call("sphere.glue", glue, top, bottom)
    check(relabel(glued, cycle) == tau, "the halves do not glue to the sphere along its cycle")
    res = _distance(tr, top, bottom)
    _stack(tr, tau, top, bottom, res.path, cycle)
    ans = {"distance": res.distance}
    ans["floor"] = tr.call("tetdecomp.counting_lower_bound", counting_lower_bound, tau)
    ans["fill"] = _fill(tr, tau)
    return _sandwich(ans)


def _certify_lp_sandwich(tr, inst: Instance, files: dict[str, Path]) -> dict:
    tau, _ = _parse(tr, parse_sphere, files["sphere"])
    ans = {"lp": _lp(tr, tau)}
    ans["floor"] = tr.call("tetdecomp.counting_lower_bound", counting_lower_bound, tau)
    ans["fill"] = _fill(tr, tau)
    ans["recut"] = _recut(tr, tau, stop_at=ans["fill"]).distance
    return _sandwich(ans)


def _certify_recut_scan(tr, inst: Instance, files: dict[str, Path]) -> dict:
    tau, _ = _parse(tr, parse_sphere, files["sphere"])
    floor = tr.call("tetdecomp.counting_lower_bound", counting_lower_bound, tau)
    res = _recut(tr, tau)
    check(res.exhausted, "the recut enumeration stopped early")
    a, b = res.halves
    witness = _distance(tr, a, b)
    check(witness.distance == res.distance, "the best recut's distance does not repeat")
    # the best recut's path stacks into a ball, so it bounds the fill
    _stack(tr, tau, a, b, witness.path, res.cycle.vertices)
    check(floor <= res.distance, f"recut {res.distance} is below the counting floor {floor}")
    return {"floor": floor, "recut": res.distance}


CERTIFY = {
    "family": _certify_family,
    "random-fill": _certify_random_fill,
    "lp-sandwich": _certify_lp_sandwich,
    "recut-scan": _certify_recut_scan,
}


def family_answers(n: int) -> dict:
    """The paper's values: 3n+1 flips, fill 2n+3, LP 7 and 9 at n = 2, 3."""
    ans = {"explicit": 3 * n + 1, "stacked": 3 * n + 1, "distance": 3 * n + 1}
    ans.update(floor=2 * n + 3, fill=2 * n + 3)
    if n in (2, 3):
        ans.update(lp=str(2 * n + 3), recut=2 * n + 3)
    return ans
