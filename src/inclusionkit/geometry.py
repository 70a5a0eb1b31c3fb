"""Exact polytope geometry at desk scale.

Polytopes are intersections of rational halfspaces ⟨a; x⟩ ≤ c (boxes
keep their corner representation for round-tripping).  Everything is
exact: vertices by solving square subsystems, volume by a pulling
triangulation of the face lattice, integrals of affine maps by the
vertex-mean rule on each simplex.  Vertex enumeration tries every
square subsystem, so a single polytope stays at a handful of
constraints.  Many polytopes are compared without an LP per pair: a
bounding-box sweep lists the pairs that can touch (``box_pairs``),
a facet row often separates two of them (``facet_separates``), and
homothets of one base are compared on the facet normals of P + (−P)
(``homothets_overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from typing import Sequence

from .convexity import INFEASIBLE, OPTIMAL, PointSet, in_interior_of_hull, simplex_solve
from .errors import AmbientMismatch, DimensionMismatch
from .linalg import Mat, Vec, _integer_rows, _reduce, kernel, rat, solve_square, vec

BOX = "box"
HALFSPACES = "halfspaces"


@dataclass(frozen=True, slots=True)
class Polytope:
    """Convex polytope {x : ⟨aᵢ; x⟩ ≤ cᵢ}; boxes remember their corners."""

    ambient: int
    kind: str
    normals: tuple[Vec, ...] = ()
    offsets: tuple[Fraction, ...] = ()
    low: Vec | None = None
    high: Vec | None = None

    @classmethod
    def box(cls, low: Vec, high: Vec) -> "Polytope":
        if len(low) != len(high):
            raise AmbientMismatch("box corners have different lengths")
        return cls(len(low), BOX, low=low, high=high)

    @classmethod
    def halfspaces(cls, normals: Sequence[Vec], offsets: Sequence[Fraction]) -> "Polytope":
        if len(normals) != len(offsets):
            raise DimensionMismatch("one offset per normal required")
        if not normals:
            raise DimensionMismatch("at least one halfspace required")
        n = len(normals[0])
        for a in normals:
            if len(a) != n:
                raise AmbientMismatch("normals have mixed lengths")
        return cls(n, HALFSPACES, normals=tuple(normals), offsets=tuple(rat(c) for c in offsets))

    def rows(self) -> list[tuple[Vec, Fraction]]:
        """H-representation as (normal, offset) pairs."""
        if self.kind == HALFSPACES:
            return list(zip(self.normals, self.offsets))
        out: list[tuple[Vec, Fraction]] = []
        n = self.ambient
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            out.append((Vec(tuple(e)), self.high[i]))
            out.append((Vec(tuple(-x for x in e)), -self.low[i]))
        return out

    def contains(self, x: Vec, strict: bool = False) -> bool:
        if len(x) != self.ambient:
            raise AmbientMismatch("point has wrong length")
        if self.kind == BOX:
            if strict:
                return all(lo < xi < hi for lo, xi, hi in zip(self.low, x, self.high))
            return all(lo <= xi <= hi for lo, xi, hi in zip(self.low, x, self.high))
        for a, c in self.rows():
            v = a.dot(x)
            if v > c or (strict and v == c):
                return False
        return True

    def scale_translate(self, s: Fraction, t: Vec) -> "Polytope":
        """Image {s·x + t : x ∈ P}; requires s > 0."""
        if s <= 0:
            raise ValueError("scale must be positive")
        if len(t) != self.ambient:
            raise AmbientMismatch("translation has wrong length")
        if self.kind == BOX:
            return Polytope.box(self.low.scale(s) + t, self.high.scale(s) + t)
        offsets = tuple(s * c + a.dot(t) for a, c in zip(self.normals, self.offsets))
        return Polytope(self.ambient, HALFSPACES, normals=self.normals, offsets=offsets)


def affine_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if not points:
        return -1
    from .linalg import rank

    p0 = points[0]
    rows = [list((p - p0).entries) for p in points[1:]]
    if not rows:
        return 0
    return rank(Mat.from_rows(rows))


def vertices(p: Polytope) -> list[Vec]:
    """All vertices, exactly, sorted lexicographically.

    Every vertex is the unique solution of some square subsystem of
    tight constraints; enumerate the subsystems and keep the feasible
    solutions.  Desk scale only.
    """
    rows = p.rows()
    n = p.ambient
    out: list[Vec] = []
    seen: set[tuple[Fraction, ...]] = set()
    for idxs in combinations(range(len(rows)), n):
        a = [list(rows[i][0].entries) for i in idxs]
        b = [rows[i][1] for i in idxs]
        sol = solve_square(a, b)
        if sol is None:
            continue
        x = Vec(tuple(sol))
        if x.entries in seen:
            continue
        if p.contains(x):
            seen.add(x.entries)
            out.append(x)
    out.sort(key=lambda v: v.entries)
    return out


def _ineq_lp(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    nonneg: list[bool],
):
    """max objective·x s.t. rows·x ≤ rhs, via one slack per row."""
    k = len(rows)
    nv = len(objective)
    eq_rows = []
    for i, row in enumerate(rows):
        slack = [Fraction(0)] * k
        slack[i] = Fraction(1)
        eq_rows.append(list(row) + slack)
    obj = list(objective) + [Fraction(0)] * k
    flags = list(nonneg) + [True] * k
    res = simplex_solve(obj, eq_rows, rhs, flags)
    return res


def normals_positively_span(p: Polytope) -> bool:
    """Whether the nonzero normals of P positively span QQⁿ: 0 ∈ int co(normals).

    A nonempty P is bounded exactly then (its recession cone
    {d : ⟨aᵢ; d⟩ ≤ 0} is the origin); one LP.  Boxes always are.
    """
    if p.kind == BOX:
        return True
    normals = [a for a in p.normals if not a.is_zero()]
    return in_interior_of_hull(PointSet.from_vecs(normals, p.ambient))


def is_bounded(p: Polytope) -> bool:
    """Exact boundedness; an empty polytope counts as bounded.

    The positive-span test settles every nonempty P; only when it fails
    does one feasibility LP tell an empty P from an unbounded one.
    """
    if normals_positively_span(p):
        return True
    n = p.ambient
    rows = [list(a.entries) for a in p.normals]
    return _ineq_lp([Fraction(0)] * n, rows, list(p.offsets), [False] * n).status == INFEASIBLE


def interior_point(p: Polytope) -> Vec | None:
    """A strictly interior point, or None when the interior is empty.

    Maximizes the slack margin ε (capped at 1 so unbounded polytopes
    still answer) over ⟨aᵢ; x⟩ + ε ≤ cᵢ.
    """
    prows = p.rows()
    n = p.ambient
    rows = []
    rhs = []
    for a, c in prows:
        rows.append(list(a.entries) + [Fraction(1)])
        rhs.append(c)
    rows.append([Fraction(0)] * n + [Fraction(1)])
    rhs.append(Fraction(1))
    obj = [Fraction(0)] * n + [Fraction(1)]
    res = _ineq_lp(obj, rows, rhs, [False] * n + [True])
    if res.status != OPTIMAL or res.value is None or res.value <= 0:
        return None
    return Vec(tuple(res.x[:n]))


def interiors_intersect(p: Polytope, q: Polytope) -> bool:
    """Whether int(P) ∩ int(Q) ≠ ∅, exactly (common strict point LP)."""
    if p.ambient != q.ambient:
        raise AmbientMismatch("polytopes live in different ambient spaces")
    n = p.ambient
    rows = []
    rhs = []
    for a, c in p.rows() + q.rows():
        rows.append(list(a.entries) + [Fraction(1)])
        rhs.append(c)
    rows.append([Fraction(0)] * n + [Fraction(1)])
    rhs.append(Fraction(1))
    obj = [Fraction(0)] * n + [Fraction(1)]
    res = _ineq_lp(obj, rows, rhs, [False] * n + [True])
    return res.status == OPTIMAL and res.value is not None and res.value > 0


def box_pairs(point_sets: Sequence[Sequence[Vec]]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, whose point sets have meeting closed
    bounding boxes, in lexicographic order; empty sets are in no pair.

    Sort and sweep: order the boxes by their low end in coordinate 0,
    scan forward from each box while the next low end is at most its
    high end, and compare all coordinates of those.  Convex hulls
    whose boxes do not meet share no point, so every other pair can be
    skipped by any test of touching or overlapping hulls.
    """
    boxes = {
        i: (tuple(map(min, zip(*pts))), tuple(map(max, zip(*pts))))
        for i, pts in enumerate(point_sets)
        if pts
    }
    order = sorted(boxes, key=lambda i: boxes[i][0][0])
    pairs: list[tuple[int, int]] = []
    for a, i in enumerate(order):
        low_i, high_i = boxes[i]
        for b in range(a + 1, len(order)):
            j = order[b]
            low_j, high_j = boxes[j]
            if low_j[0] > high_i[0]:
                break
            if all(lj <= hi and li <= hj for li, hi, lj, hj in zip(low_i, high_i, low_j, high_j)):
                pairs.append((min(i, j), max(i, j)))
    pairs.sort()
    return pairs


def facet_separates(p: Polytope, points: Sequence[Vec]) -> bool:
    """Whether some row ⟨a; x⟩ ≤ c of P has ⟨a; v⟩ ≥ c for every point v.

    Then P and the convex hull of the points have disjoint interiors.
    """
    return any(all(a.dot(v) >= c for v in points) for a, c in p.rows())


def homothet_normals(verts: Sequence[Vec]) -> list[tuple[Vec, Fraction, Fraction]]:
    """(a, h_P(a), h_P(−a)) for one a of each pair ±a of a superset of
    the facet normals of P + (−P), P the hull of ``verts``.

    h_P(a) = max over the vertices of ⟨a; v⟩.  A facet of P + (−P) is a
    sum of faces of P and −P, so its directions are spanned by n−1
    vertex differences of P; every 1-dimensional kernel of n−1 distinct
    difference directions is kept.  For n = 1 the normals are ±1.
    """
    n = len(verts[0])
    if n == 1:
        normals = [Vec((Fraction(1),))]
    else:
        dirs: set[Vec] = set()
        for u, w in combinations(verts, 2):
            d = u - w
            lead = next(x for x in d if x != 0)
            dirs.add(d.scale(1 / lead))
        normals = []
        for rows in combinations(dirs, n - 1):
            k = kernel(Mat.from_rows([list(r.entries) for r in rows]))
            if k.dim == 1 and k.basis[0] not in normals:
                normals.append(k.basis[0])
    return [
        (a, max(a.dot(v) for v in verts), max(-a.dot(v) for v in verts)) for a in normals
    ]


def homothets_overlap(
    normals: Sequence[tuple[Vec, Fraction, Fraction]],
    t1: Vec,
    s1: Fraction,
    t2: Vec,
    s2: Fraction,
) -> bool:
    """Whether int(t₁ + s₁P) ∩ int(t₂ + s₂P) ≠ ∅, for a full-dimensional P
    and ``normals = homothet_normals(vertices(P))``; no LP.

    The interiors meet iff t₂ − t₁ ∈ int(s₁P + s₂(−P)), that is iff
    −s₁h_P(−a) − s₂h_P(a) < ⟨a; t₂ − t₁⟩ < s₁h_P(a) + s₂h_P(−a) for every
    normal a: the configuration-space obstacle (Lozano-Pérez 1983).
    """
    d = t2 - t1
    for a, h, h_neg in normals:
        if not -(s1 * h_neg + s2 * h) < a.dot(d) < s1 * h + s2 * h_neg:
            return False
    return True


def bounding_box(p: Polytope) -> tuple[Vec, Vec]:
    """Componentwise min / max over the vertex set (bounded polytopes)."""
    if p.kind == BOX:
        return p.low, p.high
    vs = vertices(p)
    if not vs:
        raise ValueError("empty polytope has no bounding box")
    low = [min(v[i] for v in vs) for i in range(p.ambient)]
    high = [max(v[i] for v in vs) for i in range(p.ambient)]
    return Vec(tuple(low)), Vec(tuple(high))


def _tight_sets(p: Polytope, verts: list[Vec]) -> list[frozenset[int]]:
    return [
        frozenset(i for i, v in enumerate(verts) if a.dot(v) == c)
        for a, c in p.rows()
    ]


def triangulate(p: Polytope) -> list[tuple[Vec, ...]]:
    """Decompose a bounded polytope into simplices (pulling order).

    Each face is coned from its lexicographically smallest vertex over
    the facets that avoid it.  Lower-dimensional polytopes return no
    simplices (they carry no volume).
    """
    verts = vertices(p)
    n = p.ambient
    if len(verts) < n + 1 or affine_dim(verts) < n:
        return []
    tight = _tight_sets(p, verts)

    def facets_of(face: frozenset[int], d: int) -> list[frozenset[int]]:
        out = []
        seen: set[frozenset[int]] = set()
        for t in tight:
            sub = face & t
            if not sub or sub == face or sub in seen:
                continue
            if affine_dim([verts[i] for i in sub]) == d - 1:
                seen.add(sub)
                out.append(sub)
        return sorted(out, key=lambda s: sorted(s))

    def tri(face: frozenset[int], d: int) -> list[tuple[int, ...]]:
        idx = sorted(face)
        if d == 1:
            return [(idx[0], idx[-1])]
        v0 = idx[0]
        out = []
        for sub in facets_of(face, d):
            if v0 in sub:
                continue
            for s in tri(sub, d - 1):
                out.append(s + (v0,))
        return out

    return [tuple(verts[i] for i in s) for s in tri(frozenset(range(len(verts))), n)]


def simplex_volume(simplex: Sequence[Vec]) -> Fraction:
    """|det of edge vectors| / n! for an n-simplex in QQⁿ."""
    n = len(simplex) - 1
    rows, factors = _integer_rows((simplex[i + 1] - simplex[0]).entries for i in range(n))
    d, pivots = _reduce(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(abs(d), prod(factors) * factorial(n))


def volume(p: Polytope) -> Fraction:
    """Exact Lebesgue measure of a bounded polytope (0 if degenerate)."""
    return sum((simplex_volume(s) for s in triangulate(p)), Fraction(0))


def integrate_affine(simplices: Sequence[Sequence[Vec]], gradient: Mat, offset: Vec) -> Vec:
    """∫_P (G·x + o) dx, exactly, one coordinate per output row, where
    ``simplices`` triangulate P (``triangulate(P)``).

    Affine integrands over a simplex integrate to volume times the mean
    of the vertex values; sum over the simplices.
    """
    if gradient.rows != len(offset):
        raise DimensionMismatch("gradient rows must match offset length")
    total = [Fraction(0)] * gradient.rows
    for s in simplices:
        vol = simplex_volume(s)
        if vol == 0:
            continue
        k = len(s)
        for r in range(gradient.rows):
            mean = sum((gradient.row(r).dot(v) + offset[r] for v in s), Fraction(0)) / k
            total[r] += vol * mean
    return Vec(tuple(total))


def unit_box(n: int) -> Polytope:
    return Polytope.box(vec(*([0] * n)), vec(*([1] * n)))
