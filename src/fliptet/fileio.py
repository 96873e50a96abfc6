"""Plain-text formats for triangulations, paths, spheres, tets, chains.

One object per file.  Blank lines and `#` comments are ignored; every
other line starts with a keyword:

    polygon   `n 6`            then `d 0 2` per diagonal
    path      `path n 6`       then the start's `d` lines, then
                               `flip 0 3 -> 2 4` per step
    sphere    `sphere V 8`     then `t 0 1 2` per triangle, optionally
                               one `cycle 0 1 2 3` line
    tets      `tets V 8`       then `T 0 1 2 3` per tetrahedron
    chain     `chain V 8`      then `x 0 1 2 3 -1/1` per support tet

Parsers reject malformed lines with their line number and validate the
finished object; emitters write sorted, canonical text so that emit
after parse reproduces the canonical spelling.
"""

from __future__ import annotations

from fractions import Fraction

from .polygon import FlipPath, PolygonTriangulation, is_boundary_edge, pair
from .sphere import SphereTriangulation
from .tetdecomp import TetDecomposition

Tet = tuple[int, int, int, int]


class FileFormatError(ValueError):
    """A parse failure, carrying the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _ints(parts: list[str], lineno: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise FileFormatError(f"expected an integer, got {p!r}", lineno)
    return out


def _header(parts: list[str], lineno: int, *keywords: str) -> int:
    want = list(keywords) + ["<int>"]
    if len(parts) != len(want) or list(parts[: len(keywords)]) != list(keywords):
        raise FileFormatError(
            f"expected header {' '.join(want)!r}, got {' '.join(parts)!r}", lineno
        )
    return _ints(parts[len(keywords) :], lineno)[0]


def _wrap_invalid(kind: str, build, *args):
    try:
        return build(*args)
    except ValueError as e:
        raise FileFormatError(f"not a valid {kind}: {e}") from None


def parse_polygon(text: str) -> PolygonTriangulation:
    n = None
    diagonals: set = set()
    for lineno, parts in _lines(text):
        if n is None:
            n = _header(parts, lineno, "n")
            continue
        if parts[0] != "d" or len(parts) != 3:
            raise FileFormatError(f"expected 'd <a> <b>', got {' '.join(parts)!r}", lineno)
        a, b = _ints(parts[1:], lineno)
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise FileFormatError(f"({a},{b}) is not a vertex pair of an n={n} polygon", lineno)
        if is_boundary_edge(n, a, b):
            raise FileFormatError(f"({a},{b}) is a boundary edge, not a diagonal", lineno)
        if pair(a, b) in diagonals:
            raise FileFormatError(f"duplicate diagonal ({a},{b})", lineno)
        diagonals.add(pair(a, b))
    if n is None:
        raise FileFormatError("empty input; expected a polygon file")
    return _wrap_invalid("triangulation", PolygonTriangulation.of, n, diagonals)


def emit_polygon(t: PolygonTriangulation, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"n {t.n}")
    out.extend(f"d {a} {b}" for a, b in sorted(t.diagonals))
    return "\n".join(out) + "\n"


def parse_path(text: str) -> FlipPath:
    n = None
    diagonals: set = set()
    steps: list = []
    for lineno, parts in _lines(text):
        if n is None:
            n = _header(parts, lineno, "path", "n")
            continue
        if parts[0] == "d":
            if steps:
                raise FileFormatError("start diagonals must come before flips", lineno)
            if len(parts) != 3:
                raise FileFormatError(f"expected 'd <a> <b>', got {' '.join(parts)!r}", lineno)
            a, b = _ints(parts[1:], lineno)
            diagonals.add(pair(a, b))
        elif parts[0] == "flip":
            if len(parts) != 6 or parts[3] != "->":
                raise FileFormatError(
                    f"expected 'flip <a> <b> -> <c> <d>', got {' '.join(parts)!r}", lineno
                )
            a, b = _ints(parts[1:3], lineno)
            c, d = _ints(parts[4:6], lineno)
            steps.append((pair(a, b), pair(c, d)))
        else:
            raise FileFormatError(
                f"expected a 'd' or 'flip' line, got {' '.join(parts)!r}", lineno
            )
    if n is None:
        raise FileFormatError("empty input; expected a path file")
    start = _wrap_invalid("triangulation", PolygonTriangulation.of, n, diagonals)
    path = FlipPath(n, start, tuple(steps))
    try:
        path.states()
    except ValueError as e:
        raise FileFormatError(f"the path does not replay: {e}")
    return path


def emit_path(p: FlipPath, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"path n {p.n}")
    out.extend(f"d {a} {b}" for a, b in sorted(p.start.diagonals))
    out.extend(
        f"flip {a} {b} -> {c} {d}" for (a, b), (c, d) in p.steps
    )
    return "\n".join(out) + "\n"


def parse_sphere(text: str) -> tuple[SphereTriangulation, tuple[int, ...] | None]:
    v = None
    triangles: set = set()
    cycle: tuple[int, ...] | None = None
    for lineno, parts in _lines(text):
        if v is None:
            v = _header(parts, lineno, "sphere", "V")
            continue
        if parts[0] == "t":
            abc = _ints(parts[1:], lineno) if len(parts) == 4 else None
            if abc is None:
                raise FileFormatError(f"expected 't <a> <b> <c>', got {' '.join(parts)!r}", lineno)
            if len(set(abc)) != 3 or not all(0 <= x < v for x in abc):
                raise FileFormatError(
                    f"({abc[0]},{abc[1]},{abc[2]}) is not three distinct vertices below {v}",
                    lineno,
                )
            tri = tuple(sorted(abc))
            if tri in triangles:
                raise FileFormatError(f"duplicate triangle {tri}", lineno)
            triangles.add(tri)
        elif parts[0] == "cycle":
            if cycle is not None:
                raise FileFormatError("a second cycle line; only one is allowed", lineno)
            cycle = tuple(_ints(parts[1:], lineno))
            if len(cycle) < 3:
                raise FileFormatError("a cycle needs at least 3 vertices", lineno)
        else:
            raise FileFormatError(
                f"expected a 't' or 'cycle' line, got {' '.join(parts)!r}", lineno
            )
    if v is None:
        raise FileFormatError("empty input; expected a sphere file")
    return _wrap_invalid("sphere", SphereTriangulation.of, v, triangles), cycle


def emit_sphere(
    tau: SphereTriangulation,
    cycle: tuple[int, ...] | None = None,
    comment: str | None = None,
) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"sphere V {tau.vertex_count}")
    out.extend(f"t {a} {b} {c}" for a, b, c in sorted(tau.triangles))
    if cycle is not None:
        out.append("cycle " + " ".join(str(x) for x in cycle))
    return "\n".join(out) + "\n"


def parse_tets(text: str) -> TetDecomposition:
    v = None
    tets: set = set()
    for lineno, parts in _lines(text):
        if v is None:
            v = _header(parts, lineno, "tets", "V")
            continue
        if parts[0] != "T" or len(parts) != 5:
            raise FileFormatError(f"expected 'T <a> <b> <c> <d>', got {' '.join(parts)!r}", lineno)
        abcd = _ints(parts[1:], lineno)
        if len(set(abcd)) != 4 or not all(0 <= x < v for x in abcd):
            raise FileFormatError(
                f"({abcd[0]},{abcd[1]},{abcd[2]},{abcd[3]}) is not four distinct"
                f" vertices below {v}",
                lineno,
            )
        t = tuple(sorted(abcd))
        if t in tets:
            raise FileFormatError(f"duplicate tetrahedron {t}", lineno)
        tets.add(t)
    if v is None:
        raise FileFormatError("empty input; expected a tets file")
    return TetDecomposition.of(v, tets)


def emit_tets(d: TetDecomposition, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"tets V {d.vertex_count}")
    out.extend(f"T {a} {b} {c} {e}" for a, b, c, e in sorted(d.tets))
    return "\n".join(out) + "\n"


def parse_chain(text: str) -> tuple[int, dict[Tet, Fraction]]:
    v = None
    chain: dict[Tet, Fraction] = {}
    for lineno, parts in _lines(text):
        if v is None:
            v = _header(parts, lineno, "chain", "V")
            continue
        if parts[0] != "x" or len(parts) != 6:
            raise FileFormatError(
                f"expected 'x <a> <b> <c> <d> <num>/<den>', got {' '.join(parts)!r}", lineno
            )
        abcd = _ints(parts[1:5], lineno)
        if not all(0 <= x < v for x in abcd):
            raise FileFormatError(f"vertex out of range for V={v}", lineno)
        if not (abcd[0] < abcd[1] < abcd[2] < abcd[3]):
            raise FileFormatError(
                "tetrahedron vertices must be distinct and ascending", lineno
            )
        try:
            coeff = Fraction(parts[5])
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"expected a rational, got {parts[5]!r}", lineno)
        if coeff == 0:
            raise FileFormatError("zero coefficients are not written", lineno)
        t = tuple(abcd)
        if t in chain:
            raise FileFormatError(f"duplicate tetrahedron {t}", lineno)
        chain[t] = coeff
    if v is None:
        raise FileFormatError("empty input; expected a chain file")
    return v, chain


def emit_chain(
    vertex_count: int, chain: dict[Tet, Fraction], comment: str | None = None
) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"chain V {vertex_count}")
    for t in sorted(chain):
        c = Fraction(chain[t])
        if c:
            out.append(f"x {t[0]} {t[1]} {t[2]} {t[3]} {c.numerator}/{c.denominator}")
    return "\n".join(out) + "\n"
