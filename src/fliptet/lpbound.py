"""Exact rational lower bound from the minimum 1-norm chain problem.

A coherently oriented sphere is the boundary target of a linear program
over signed tetrahedron coefficients: minimize the 1-norm of a 3-chain
on the sphere's vertices whose boundary is the oriented sphere.  Every
decomposition into tetrahedra is a feasible integral point, so the exact
optimum is a lower bound for the minimal decomposition size.  The solver
is a dense simplex started from the cone basis of one apex, so it needs
no row reduction and no phase 1.  It pivots in floating point first;
floats only choose the basis.  The answer is a rational chain and a
rational dual cochain, returned only when the chain's boundary equals
the sphere exactly and `dual_bound` proves it optimal by summation.
When the float answer fails those checks, the same pivots run again in
exact rationals.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .flipdist import BudgetExceeded
from .sphere import SphereTriangulation, Triangle, oriented_faces

Tet = tuple[int, int, int, int]

# All C(V,4) vertex 4-subsets become variables, so the tableau grows
# steeply; past this many vertices the solve is refused outright.
MAX_VERTICES = 30

# Dantzig pivoting switches to Bland's rule after this many degenerate
# pivots in a row, until the objective moves again, so the search cannot
# cycle.  The float pass gives up there instead.
_STALL_LIMIT = 500

# The float pass treats entries and reduced costs below this as zero,
# gives up after this many pivots per equation row, and rounds its
# answer to rationals with denominators up to this bound.
_FLOAT_TOL = 1e-9
_FLOAT_PIVOTS_PER_ROW = 4
_MAX_DENOMINATOR = 10**4


def _sort_sign(seq) -> tuple[tuple, int]:
    """Ascending copy of distinct integers with the permutation sign."""
    items = tuple(seq)
    inversions = sum(
        a > b for i, a in enumerate(items) for b in items[i + 1 :]
    )
    return tuple(sorted(items)), 1 if inversions % 2 == 0 else -1


def _tet_boundary(t: Tet) -> list[tuple[Triangle, int]]:
    """Faces of an ascending tet with the alternating boundary signs."""
    return [(t[:i] + t[i + 1 :], 1 if i % 2 == 0 else -1) for i in range(4)]


def orient_sphere(tau: SphereTriangulation) -> dict[Triangle, int]:
    """Coherent orientation of the sphere, as triangle -> sign.

    A sign of +1 means the triangle is traversed in ascending vertex
    order.  Every edge is induced once in each direction by its two
    triangles, so the result is a 2-cycle usable as a boundary target.
    The overall sign is a convention (the smallest triangle is taken
    ascending); flipping it globally changes nothing measured here.
    """
    out: dict[Triangle, int] = {}
    for f in oriented_faces(tau):
        key, sign = _sort_sign(f)
        out[key] = sign
    return out


def chain_boundary(chain) -> dict[Triangle, Fraction]:
    """Boundary of a tet chain by direct summation, zeros dropped."""
    acc: dict[Triangle, Fraction] = {}
    for t, coeff in chain.items():
        coeff = Fraction(coeff)
        if not coeff:
            continue
        key, sign = _sort_sign(t)
        if len(set(key)) != 4:
            raise ValueError(f"chain entry {t} is not four distinct vertices")
        for f, s in _tet_boundary(key):
            acc[f] = acc.get(f, Fraction(0)) + coeff * sign * s
    return {f: v for f, v in acc.items() if v}


def verify_chain(tau: SphereTriangulation, chain) -> bool:
    """Does the chain's boundary equal the oriented sphere exactly?"""
    target = {f: Fraction(s) for f, s in orient_sphere(tau).items()}
    try:
        return chain_boundary(chain) == target
    except ValueError:
        return False


def decomposition_chain(tau: SphereTriangulation, decomposition) -> dict[Tet, Fraction]:
    """Coefficients of +-1 making a decomposition bound the oriented sphere.

    Signs propagate across interior triangles (the two tetrahedra on a
    shared triangle must induce it oppositely) and the boundary fixes the
    global choice, so a validated ball yields a feasible integral point
    of the 1-norm problem with norm equal to its size.
    """
    tets = sorted(decomposition.tets)
    face_tets: dict[Triangle, list[tuple[Tet, int]]] = {}
    for t in tets:
        for f, s in _tet_boundary(t):
            face_tets.setdefault(f, []).append((t, s))
    sign = {tets[0]: 1}
    stack = [tets[0]]
    while stack:
        t = stack.pop()
        for f, s in _tet_boundary(t):
            for u, su in face_tets[f]:
                if u not in sign:
                    sign[u] = -sign[t] * s * su
                    stack.append(u)
    chain = {t: Fraction(s) for t, s in sign.items()}
    want = {f: Fraction(s) for f, s in orient_sphere(tau).items()}
    got = chain_boundary(chain)
    if got == want:
        return chain
    if got == {f: -v for f, v in want.items()}:
        return {t: -c for t, c in chain.items()}
    raise ValueError("the decomposition does not bound the oriented sphere")


def dual_bound(tau: SphereTriangulation, dual) -> Fraction:
    """Lower bound from a dual cochain, checked by summation alone.

    `dual` maps ascending triangles to rationals; triangles it omits are
    zero.  When |<y, boundary t>| <= 1 for every vertex 4-subset t, weak
    duality gives <y, target> = sum c_t <y, boundary t> <= ||c||_1 for
    every chain c bounding the oriented sphere, so <y, target> is a lower
    bound for the minimum.  Raises ValueError on an infeasible cochain.
    """
    y = {f: Fraction(v) for f, v in dual.items()}
    for t in combinations(range(tau.vertex_count), 4):
        if abs(sum(s * y.get(f, 0) for f, s in _tet_boundary(t))) > 1:
            raise ValueError(f"the dual cochain is infeasible on the tet {t}")
    return sum((s * y.get(f, 0) for f, s in orient_sphere(tau).items()), Fraction(0))


@dataclass(frozen=True)
class LPSolution:
    """Exact optimum of the 1-norm chain problem.

    `chain` maps ascending tets to their nonzero signed coefficients.
    `dual` is an optimal dual cochain on the triangles that avoid the
    cone apex (zeros dropped), and `dual_value` is its `dual_bound`; it
    equals `value`, so the pair is an optimality certificate that can be
    checked without the solver.  `status` is "optimal" on every solve
    that returns: infeasibility cannot occur for a valid sphere and
    oversized inputs raise instead.  `pivots` counts the simplex pivots
    of both passes, and `solved_in` names the pass whose basis was
    certified, "float" or "fraction".
    """

    value: Fraction
    chain: dict[Tet, Fraction]
    status: str
    dual_value: Fraction
    dual: dict[Triangle, Fraction]
    pivots: int
    solved_in: str


def _solve(
    tau: SphereTriangulation, target: dict, num: type, tol: float, cap: int | None
):
    """Cone-basis simplex for the 1-norm problem over the number type `num`.

    Returns the pivot count and the optimal basic chain and dual cochain
    in `num`, zeros dropped.  With a tolerance `tol`, entries below it
    count as zero and are stored as an exact zero; that pass gives up,
    with None in place of the pair, where Bland's rule would start or
    after `cap` pivots.
    """
    v_count = tau.vertex_count
    deg = tau.degrees()
    apex = min(w for w in range(v_count) if deg[w] == max(deg.values()))
    zero, one = num(0), num(1)
    faces = [f for f in combinations(range(v_count), 3) if apex not in f]
    tets = list(combinations(range(v_count), 4))
    tid = {t: j for j, t in enumerate(tets)}
    n_t, m = len(tets), len(faces)
    nv = 2 * n_t

    # columns: plus parts, minus parts, right-hand side
    tableau, basis, row_sign = [], [], []
    for f in faces:
        b = target.get(f, 0)
        sign = -1 if b < 0 else 1
        row = [zero] * (nv + 1)
        for w in range(v_count):
            if w not in f:
                t = tuple(sorted(f + (w,)))
                s = sign * (-1) ** t.index(w)
                row[tid[t]], row[n_t + tid[t]] = s * one, -s * one
        row[nv] = abs(b) * one
        cone = tid[tuple(sorted(f + (apex,)))]
        basis.append(cone if row[cone] == one else n_t + cone)
        tableau.append(row)
        row_sign.append(sign)
    start = list(basis)

    # reduced costs c_B B^-1 A_j - c_j with B the identity and unit costs
    zrow = [sum(col, zero) for col in zip(*tableau)]
    for j in range(nv):
        zrow[j] -= one

    stall = pivots = 0
    while True:
        if stall >= _STALL_LIMIT:
            if tol:
                return pivots, None
            pc = next((j for j in range(nv) if zrow[j] > 0), None)
        else:
            pc, best = None, tol
            for j in range(nv):
                if zrow[j] > best:
                    best, pc = zrow[j], j
        if pc is None:
            break
        if pivots == cap:
            return pivots, None
        pr_i, best_ratio = None, None
        for i in range(m):
            a = tableau[i][pc]
            if a > tol:
                ratio = tableau[i][nv] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pr_i])
                ):
                    best_ratio, pr_i = ratio, i
        if pr_i is None:
            raise RuntimeError("the 1-norm program came out unbounded")
        before = zrow[nv]
        prow = tableau[pr_i]
        if prow[pc] != one:
            inv = one / prow[pc]
            tableau[pr_i] = prow = [x * inv for x in prow]
            prow[pc] = one
        # pivot rows stay mostly zero (about 88% at family n = 3), so only
        # the pivot row's support is updated
        support = [(k, x) for k, x in enumerate(prow) if x]
        for row in tableau + [zrow]:
            fct = row[pc]
            if fct and row is not prow:
                for k, x in support:
                    row[k] -= fct * x
                if tol:
                    for k, _ in support:
                        if -tol < row[k] < tol:
                            row[k] = zero
        basis[pr_i] = pc
        pivots += 1
        stall = stall + 1 if zrow[nv] == before else 0

    chain: dict[Tet, object] = {}
    for i in range(m):
        val = tableau[i][nv]
        if val:
            t = tets[basis[i] % n_t]
            chain[t] = val if basis[i] < n_t else -val
    # row i's multiplier is the reduced cost of its unit-cost identity
    # column plus one; undoing the row scaling gives a cochain on faces
    dual = {
        f: row_sign[i] * (zrow[start[i]] + one)
        for i, f in enumerate(faces)
        if zrow[start[i]] + one
    }
    return pivots, (chain, dual)


def _rational(values: dict) -> dict:
    """Nearest rationals of bounded denominator, zeros dropped."""
    rounded = {k: Fraction(x).limit_denominator(_MAX_DENOMINATOR) for k, x in values.items()}
    return {k: q for k, q in rounded.items() if q}


def _certified(
    tau: SphereTriangulation, target: dict, chain: dict, dual: dict, pivots: int, solved_in: str
) -> LPSolution:
    """The solution, once the chain and the dual cochain prove it optimal.

    Raises ValueError unless the chain bounds the target on every
    triangle and the dual cochain is feasible with `dual_bound` equal to
    the chain's 1-norm.
    """
    if chain_boundary(chain) != target:
        raise ValueError("the chain does not bound the oriented sphere")
    value = sum((abs(c) for c in chain.values()), Fraction(0))
    dual_value = dual_bound(tau, dual)
    if dual_value != value:
        raise ValueError("the dual certificate does not match the chain's 1-norm")
    return LPSolution(
        value=value,
        chain=chain,
        status="optimal",
        dual_value=dual_value,
        dual=dual,
        pivots=pivots,
        solved_in=solved_in,
    )


def l1_min(tau: SphereTriangulation) -> LPSolution:
    """Minimize the 1-norm of a 3-chain whose boundary is the sphere.

    Variables are a positive and a negative part for every vertex
    4-subset.  Fix an apex a, the smallest vertex of maximum degree.
    The C(V-1,3) triangles that avoid a give rank(boundary) independent
    equations, and every other equation is a combination of them.  Each
    such triangle f has exactly one cone tet, a+f, whose boundary meets
    those rows only in f.  Scaling each row so that its right-hand side
    is >= 0 and picking the part of a+f with coefficient +1 in it makes
    the cone columns an identity block, a feasible starting basis.
    Dantzig pivots (largest reduced cost, switching to Bland's rule
    after a long degenerate stall) run from there to the optimum.

    The pivots run in floating point first, which only chooses the
    basis: its basic values and duals are rounded to rationals, and the
    pair is kept only if the chain meets all C(V,3) equations exactly
    and `dual_bound` of the dual cochain equals the chain's 1-norm.
    Otherwise, or when the float pass stalls or exceeds its pivot cap,
    the same pivots run again in exact rationals under the same checks.
    Every returned number is therefore a certified rational.
    """
    v_count = tau.vertex_count
    if v_count > MAX_VERTICES:
        raise BudgetExceeded(
            f"the 1-norm solve handles at most {MAX_VERTICES} vertices, got {v_count}"
        )
    target = {f: Fraction(s) for f, s in orient_sphere(tau).items()}
    cap = _FLOAT_PIVOTS_PER_ROW * comb(v_count - 1, 3)
    pivots, found = _solve(tau, target, float, _FLOAT_TOL, cap)
    if found is not None:
        # a rejected candidate, or one no rational can round (an
        # overflowed float), falls through to the exact pass
        with suppress(ValueError, OverflowError):
            chain, dual = (_rational(part) for part in found)
            return _certified(tau, target, chain, dual, pivots, "float")
    more, (chain, dual) = _solve(tau, target, Fraction, 0, None)
    return _certified(tau, target, chain, dual, pivots + more, "fraction")
