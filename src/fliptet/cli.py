"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on bad input,
3 when a budget stops a computation short of an exact answer.
"""

from __future__ import annotations

import argparse
import json
import sys

from .family import FamilyLabeling, bottom_triangulation, top_triangulation
from .fileio import (
    FileFormatError,
    emit_chain,
    emit_path,
    emit_polygon,
    emit_sphere,
    emit_tets,
    parse_path,
    parse_polygon,
    parse_sphere,
    parse_tets,
)
from .flipdist import BudgetExceeded, flip_distance
from .lpbound import l1_min
from .render import render_path, render_polygon, render_sphere
from .sphere import (
    CycleInSphere,
    bad_cycle_report,
    cone_decomposition,
    glue,
    recut,
    recut_min_flip,
)
from .tetdecomp import min_tet, validate_ball
from .verify import run_verification

OK, FAILED, BAD_INPUT, OVER_BUDGET = 0, 1, 2, 3


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _deliver(text: str, path: str | None) -> None:
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _cmd_flip_distance(args) -> int:
    t1 = parse_polygon(_read(args.from_file))
    t2 = parse_polygon(_read(args.to_file))
    res = flip_distance(
        t1,
        t2,
        use_splitting=not args.no_split,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )
    if res.status != "exact":
        print(f"budget exhausted; distance >= {res.lower_bound}")
        return OVER_BUDGET
    print(f"distance {res.distance}")
    print(f"nodes {res.stats.nodes}")
    print(f"frontier-peak {res.stats.frontier_peak}")
    if args.emit_path:
        _deliver(emit_path(res.path, comment="shortest flip path"), args.emit_path)
    return OK


def _cmd_glue(args) -> int:
    top = parse_polygon(_read(args.top))
    bottom = parse_polygon(_read(args.bottom))
    _deliver(emit_sphere(glue(top, bottom)), args.out)
    return OK


def _cmd_recut(args) -> int:
    tau, stored_cycle = parse_sphere(_read(args.sphere))
    chosen = tuple(args.cycle) if args.cycle else stored_cycle
    if chosen is not None:
        half_a, half_b, labeling = recut(tau, CycleInSphere(tau, chosen))
        print("labeling " + " ".join(str(v) for v in labeling))
        _deliver(emit_polygon(half_a, comment="side a"), args.out_top)
        _deliver(emit_polygon(half_b, comment="side b"), args.out_bottom)
        return OK
    res = recut_min_flip(
        tau,
        max_cycles=args.max_cycles,
        stop_at=args.stop_at,
        node_budget=args.node_budget,
    )
    if res.distance is None:
        print(f"no recut measured within budget after {res.cycles_tried} cycles")
        return OVER_BUDGET
    print(f"distance {res.distance}")
    print("cycle " + " ".join(str(v) for v in res.cycle.vertices))
    print(f"tried {res.cycles_tried} cycles" + (" (exhausted)" if res.exhausted else ""))
    print(f"nodes {res.nodes} refuted {res.refuted}")
    if args.out_top or args.out_bottom:
        half_a, half_b = res.halves
        _deliver(emit_polygon(half_a, comment="side a"), args.out_top)
        _deliver(emit_polygon(half_b, comment="side b"), args.out_bottom)
    return OK


def _cmd_min_tet(args) -> int:
    tau, _ = parse_sphere(_read(args.sphere))
    res = min_tet(
        tau,
        budget_tets=args.budget_tets,
        budget_nodes=args.budget_nodes,
        stop_at=args.stop_at,
    )
    print(f"size {res.size}")
    print(f"lower-bound {res.lower_bound}")
    print(f"status {res.status}")
    print(f"nodes {res.nodes}")
    print(f"rejected {res.rejected}")
    if args.emit_tets:
        _deliver(emit_tets(res.witness, comment="best decomposition found"), args.emit_tets)
    return OK if res.exact else OVER_BUDGET


def _cmd_lp_bound(args) -> int:
    tau, _ = parse_sphere(_read(args.sphere))
    sol = l1_min(tau)
    print(f"value {sol.value}")
    print(f"pivots {sol.pivots}")
    print(f"solved-in {sol.solved_in}")
    if args.emit_chain:
        _deliver(
            emit_chain(tau.vertex_count, sol.chain, comment="minimum 1-norm chain"),
            args.emit_chain,
        )
    return OK


def _cmd_cone(args) -> int:
    tau, _ = parse_sphere(_read(args.sphere))
    d = cone_decomposition(tau, args.vertex)
    validate_ball(tau, d)
    print(f"size {len(d)}")
    if args.emit_tets:
        _deliver(emit_tets(d, comment=f"cone from vertex {args.vertex}"), args.emit_tets)
    return OK


def _cmd_bad_cycles(args) -> int:
    tau, _ = parse_sphere(_read(args.sphere))
    rep = bad_cycle_report(tau)
    print(f"examined {rep.examined}")
    print(f"closed {rep.closed_bad}")
    print(f"bad {len(rep.bad)}")
    for cyc in rep.bad:
        print("cycle " + " ".join(str(v) for v in cyc.vertices))
    return OK


def _cmd_validate(args) -> int:
    tau, _ = parse_sphere(_read(args.sphere))
    d = parse_tets(_read(args.tets))
    try:
        cert = validate_ball(tau, d)
    except ValueError as e:
        print(f"invalid: {e}")
        return FAILED
    collapsible = {True: "yes", None: "unknown"}[cert.collapsible]
    print(
        f"ok: {cert.vertices} vertices, {cert.edges} edges, {cert.faces} triangles,"
        f" {cert.tets} tets, euler {cert.euler}, collapsible {collapsible}"
    )
    return OK


def _cmd_render(args) -> int:
    text = _read(args.input)
    if args.kind == "polygon":
        svg = render_polygon(parse_polygon(text))
    elif args.kind == "path":
        svg = render_path(parse_path(text))
    else:
        tau, cycle = parse_sphere(text)
        svg = render_sphere(tau, cycle)
    _deliver(svg, args.out)
    return OK


def _cmd_family(args) -> int:
    labeling = FamilyLabeling(args.n)
    t = top_triangulation(args.n) if args.part == "top" else bottom_triangulation(args.n)
    names = " ".join(f"{v}={labeling.label_of(v)}" for v in range(labeling.polygon_size))
    _deliver(emit_polygon(t, comment=f"{args.part} of size {args.n}; {names}"), args.out)
    return OK


def _cmd_verify(args) -> int:
    report = run_verification(
        args.n_max,
        distance_max=args.distance_max,
        recut_max=args.recut_max,
        lp_max_vertices=args.lp_max_vertices,
        node_budget=args.node_budget,
        tet_node_budget=args.tet_node_budget,
        cycle_budget=args.cycle_budget,
    )
    if args.json:
        print(json.dumps([vars(r) for r in report.rows], indent=2))
    else:
        print(report.format(), end="")
    return OK if report.ok else FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fliptet",
        description="Flip distances, glued spheres, and minimal tetrahedral decompositions.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("flip-distance", help="exact flip distance between two polygon files")
    p.add_argument("--from", dest="from_file", required=True, metavar="FILE")
    p.add_argument("--to", dest="to_file", required=True, metavar="FILE")
    p.add_argument("--no-split", action="store_true", help="do not split along common diagonals")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--emit-path", metavar="FILE", help="write a shortest path file")
    p.set_defaults(func=_cmd_flip_distance)

    p = sub.add_parser("glue", help="glue two boundary-sharing triangulations into a sphere")
    p.add_argument("--top", required=True, metavar="FILE")
    p.add_argument("--bottom", required=True, metavar="FILE")
    p.add_argument("-o", "--out", metavar="FILE")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser(
        "recut",
        help="cut a sphere along a Hamiltonian cycle, or search for the cheapest recut",
    )
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.add_argument("--cycle", type=int, nargs="+", metavar="V")
    p.add_argument("--stop-at", type=int, default=None)
    p.add_argument("--max-cycles", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--out-top", metavar="FILE")
    p.add_argument("--out-bottom", metavar="FILE")
    p.set_defaults(func=_cmd_recut)

    p = sub.add_parser("min-tet", help="minimal tetrahedral decomposition by branch and bound")
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.add_argument("--budget-tets", type=int, default=None)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--stop-at", type=int, default=None)
    p.add_argument("--emit-tets", metavar="FILE")
    p.set_defaults(func=_cmd_min_tet)

    p = sub.add_parser("lp-bound", help="exact rational 1-norm lower bound")
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.add_argument("--emit-chain", metavar="FILE")
    p.set_defaults(func=_cmd_lp_bound)

    p = sub.add_parser("cone", help="cone decomposition from one vertex")
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--emit-tets", metavar="FILE")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("bad-cycles", help="report separating cycles shorter than both sides' degrees")
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_bad_cycles)

    p = sub.add_parser("validate", help="check that a tets file is a ball filling a sphere file")
    p.add_argument("--sphere", required=True, metavar="FILE")
    p.add_argument("--tets", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", help="draw a polygon, path, or sphere file as SVG")
    p.add_argument("--kind", choices=("polygon", "path", "sphere"), required=True)
    p.add_argument("--in", dest="input", required=True, metavar="FILE")
    p.add_argument("-o", "--out", metavar="FILE")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("family", help="emit one half of the glued family instance of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--part", choices=("top", "bottom"), default="top")
    p.add_argument("-o", "--out", metavar="FILE")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="recompute the headline quantities and report a table")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--distance-max", type=int, default=4)
    p.add_argument("--recut-max", type=int, default=3)
    p.add_argument("--lp-max-vertices", type=int, default=10)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--tet-node-budget", type=int, default=2_000_000)
    p.add_argument("--cycle-budget", type=int, default=2_000)
    p.add_argument("--json", action="store_true", help="machine-readable rows")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return OVER_BUDGET
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
