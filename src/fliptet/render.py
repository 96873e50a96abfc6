"""Deterministic SVG pictures of triangulations, flip paths, spheres.

Polygons are drawn with their vertices on a circle, flip paths as a grid
of frames (one per intermediate triangulation, the leaving diagonal
dashed and the fresh one emphasized), and spheres as two side-by-side
disks obtained by cutting along a Hamiltonian cycle, the first disk's
chords blue and the second's red, with both rims carrying the sphere's
vertex labels.  All coordinates are rounded to 3 decimals so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import math

from .polygon import FlipPath, PolygonTriangulation
from .sphere import CycleInSphere, SphereTriangulation, hamiltonian_cycles, recut

_CELL = 220
_RADIUS = 84
_COLS = 4

_STYLE = (
    "<style>"
    ".rim{fill:none;stroke:#222;stroke-width:1.5}"
    ".chord{stroke:#2563eb;stroke-width:1.5}"
    ".chord.alt{stroke:#dc2626}"
    ".chord.leaving{stroke-dasharray:4 3;stroke:#9ca3af}"
    ".chord.fresh{stroke-width:3}"
    ".dot{fill:#222}"
    "text{font:10px sans-serif;fill:#222;text-anchor:middle;dominant-baseline:middle}"
    "</style>"
)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ring(n: int, cx: float, cy: float, r: float) -> list[tuple[float, float]]:
    out = []
    for i in range(n):
        a = -math.pi / 2 + 2 * math.pi * i / n
        out.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return out


def _cell(
    t: PolygonTriangulation,
    ox: float,
    oy: float,
    labels: list[str] | None = None,
    alt: bool = False,
    leaving: tuple[int, int] | None = None,
    fresh: tuple[int, int] | None = None,
) -> list[str]:
    cx, cy = ox + _CELL / 2, oy + _CELL / 2
    pts = _ring(t.n, cx, cy, _RADIUS)
    rim = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    parts = [f'<g><polygon class="rim" points="{rim}"/>']
    for a, b in sorted(t.diagonals):
        cls = "chord"
        if alt:
            cls += " alt"
        if (a, b) == leaving:
            cls += " leaving"
        if (a, b) == fresh:
            cls += " fresh"
        (x1, y1), (x2, y2) = pts[a], pts[b]
        parts.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
            f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    for i, (x, y) in enumerate(pts):
        lx = cx + (x - cx) * (_RADIUS + 15) / _RADIUS
        ly = cy + (y - cy) * (_RADIUS + 15) / _RADIUS
        parts.append(f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5"/>')
        name = labels[i] if labels is not None else str(i)
        parts.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}">{name}</text>')
    parts.append("</g>")
    return parts


def _document(cells: int, body: list[str]) -> str:
    cols = min(cells, _COLS)
    rows = (cells + _COLS - 1) // _COLS
    w, h = cols * _CELL, rows * _CELL
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    )
    return "\n".join([head, _STYLE] + body + ["</svg>"]) + "\n"


def _grid_origin(k: int) -> tuple[float, float]:
    return (k % _COLS) * _CELL, (k // _COLS) * _CELL


def render_polygon(t: PolygonTriangulation) -> str:
    return _document(1, _cell(t, 0, 0))


def render_path(p: FlipPath) -> str:
    states = p.states()
    body: list[str] = []
    for k, state in enumerate(states):
        ox, oy = _grid_origin(k)
        leaving = p.steps[k][0] if k < len(p.steps) else None
        fresh = p.steps[k - 1][1] if k > 0 else None
        body.extend(_cell(state, ox, oy, leaving=leaving, fresh=fresh))
    return _document(len(states), body)


def render_sphere(
    tau: SphereTriangulation, cycle: tuple[int, ...] | None = None
) -> str:
    if cycle is None:
        found = next(hamiltonian_cycles(tau), None)
        if found is None:
            raise ValueError("the sphere has no Hamiltonian cycle to cut along")
    else:
        found = CycleInSphere(tau, tuple(cycle))
    half_a, half_b, labeling = recut(tau, found)
    labels = [str(v) for v in labeling]
    body = _cell(half_a, 0, 0, labels=labels)
    body += _cell(half_b, _CELL, 0, labels=labels, alt=True)
    return _document(2, body)
