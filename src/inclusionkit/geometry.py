"""Exact polytope geometry at desk scale.

Every polytope is an intersection of rational halfspaces ⟨a; x⟩ ≤ c,
a box too: its rows are ±eₖ.  Everything is exact: vertices by solving
square subsystems, facets as the inclusion-maximal sets of vertices
tight on one row (``faces``), a pulling triangulation of the face
lattice over those facets into tuples of vertex indices, and the volume
and first moment from one pass over the simplices (``moments``).  No
face is found by a rank test.  Vertex enumeration tries every square
subsystem, so a single polytope stays at a handful of constraints.
A polytope is its rows, each cleared of its denominators once, where
the polytope is built (``Polytope.rows``), and every kernel reads them.
Every comparison of points with a polytope's rows goes through one
table of signs in Python ints (``sign_table``): an integer row and points
over one common denominator D (``integer_points``) give the sign of
c − ⟨a; x⟩ as that of c·D − ⟨a; X⟩.  Containment is a
column with no −1, a row's zeros at the vertices are its tight set, and
a row with no +1 at the vertices of another polytope separates the two.
A cell of a copy t + s·B of a base B is read in the same integers
(``shape_form``): pulled back to its shape (x − t)/s, which is compared
with B itself, and its vertices and centroid pushed forward from that
shape by one rule; an affine map is read over one denominator at integer
points (``integer_values``).
Many polytopes are compared without an LP per pair: a bounding-box
sweep lists the pairs that can touch (``box_pairs``), a row of the sign
table often separates two of them, and homothets of one base are
compared on the integer facet normals of P + (−P) (``homothets_overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Sequence

from .convexity import INFEASIBLE, OPTIMAL, PointSet, in_interior_of_hull, solve_tableau
from .errors import AmbientMismatch, DimensionMismatch
from .linalg import Vec, _integer_rows, rat, solve_square


@dataclass(frozen=True, slots=True)
class Polytope:
    """Convex polytope {x : ⟨aᵢ; x⟩ ≤ cᵢ}, held as its integer rows: each
    rational row [aᵢ, cᵢ] times lcmsᵢ, the lcm of its denominators, as
    ``linalg._integer_rows`` clears it.  That form is unique, so equality
    compares the rational rows, and the rows are all a polytope is: row i
    reads back as the rational row rowsᵢ/lcmsᵢ.  A box also keeps its
    corners, which only its serialized form reads."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]
    lcms: tuple[int, ...]
    corners: tuple[Vec, Vec] | None = field(default=None, compare=False)

    @classmethod
    def box(cls, low: Vec, high: Vec) -> "Polytope":
        """[low, high]: the rows eₖ·x ≤ highₖ and −eₖ·x ≤ −lowₖ, in k order,
        each ±eₖ·x ≤ p/q written as the integer row (±q·eₖ, p) over q."""
        if len(low) != len(high):
            raise AmbientMismatch("box corners have different lengths")
        n = len(low)
        rows, lcms = [], []
        for k in range(n):
            for sign, c in ((1, high[k]), (-1, -low[k])):
                q = c.denominator
                rows.append((0,) * k + (sign * q,) + (0,) * (n - 1 - k) + (c.numerator,))
                lcms.append(q)
        return cls(n, tuple(rows), tuple(lcms), (low, high))

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
        ints, lcms = _integer_rows([*a, rat(c)] for a, c in zip(normals, offsets))
        return cls(n, tuple(map(tuple, ints)), tuple(lcms))

    def contains(self, x: Vec) -> bool:
        """Whether x ∈ P: x lies beyond no row (see ``sign_table``)."""
        if len(x) != self.ambient:
            raise AmbientMismatch("point has wrong length")
        return all(row[0] >= 0 for row in sign_table(self.rows, integer_points([x])))

    def with_offsets(self, offsets: Sequence[Fraction]) -> "Polytope":
        """P's normals with new offsets.  A row [a, c] over m has the normal
        a/m, cleared by m/gcd(m, a); with the offset p/q the row is
        [a·l/m, p·l/q] over l = lcm(m/gcd(m, a), q)."""
        rows, lcms = [], []
        for (*a, _), m, c in zip(self.rows, self.lcms, offsets):
            l = lcm(m // gcd(m, *a), c.denominator)
            rows.append((*(x * l // m for x in a), c.numerator * l // c.denominator))
            lcms.append(l)
        return Polytope(self.ambient, tuple(rows), tuple(lcms))


def integer_points(points: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """(X, D): the points over one common denominator D, x = X/D."""
    d = lcm(*(x.denominator for v in points for x in v))
    return [tuple(x.numerator * (d // x.denominator) for x in v) for v in points], d


def integer_values(rows: list[tuple[int, ...]], points: tuple) -> list[list[int]]:
    """G·x + o over m·D at each point X/D, for the rows [G | o] of x ↦ G·x + o over m."""
    xs, d = points
    return [[sum(map(mul, r, x)) + r[-1] * d for r in rows] for x in xs]


def sign_table(rows: Sequence[Sequence[int]], points: tuple) -> list[list[int]]:
    """The sign of c·D − ⟨a; X⟩, in ints, for each row [a, c] of a ``Polytope``'s
    ``rows`` and each point X of ``integer_points`` over D: the sign of c − ⟨a; x⟩,
    as the lcm and D are positive.  ``map(mul, row, x)`` stops at the end of x."""
    xs, d = points
    table = []
    for row in rows:
        cd = row[-1] * d
        table.append([(cd > v) - (cd < v) for v in [sum(map(mul, row, x)) for x in xs]])
    return table


def faces(p: Polytope) -> tuple[list[Vec], list[frozenset[int]]]:
    """The vertices of P, exactly, sorted lexicographically, and its
    facets as sets of indices into them.

    Every vertex is the unique solution of some square subsystem of
    tight constraints; enumerate the subsystems and keep the feasible
    solutions.  Desk scale only.  One sign table over the candidates
    gives both lists: a vertex is a column with no −1, and a row's zeros
    at the vertices are its tight set.  A bounded P is full-dimensional
    exactly when it has a vertex and no row is tight at every vertex
    (the rows tight on all of P cut out its affine hull); its facets are
    then the inclusion-maximal tight sets, sorted by their sorted
    indices.  Any other P has no facets.
    """
    rows = p.rows
    solutions = (solve_square(system) for system in combinations(rows, p.ambient))
    cands = sorted({tuple(sol) for sol in solutions if sol is not None})
    table = sign_table(rows, integer_points(cands))
    keep = [k for k, col in enumerate(zip(*table)) if -1 not in col]
    verts = [Vec(cands[k]) for k in keep]
    tight = {frozenset(i for i, k in enumerate(keep) if row[k] == 0) for row in table}
    if frozenset(range(len(verts))) in tight:
        return verts, []
    return verts, _maximal(tight)


def _maximal(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    """The inclusion-maximal members of ``sets``, sorted by their sorted elements."""
    return sorted((s for s in sets if not any(s < t for t in sets)), key=sorted)


def vertices(p: Polytope) -> list[Vec]:
    """All vertices, exactly, sorted lexicographically (see ``faces``)."""
    return faces(p)[0]


def _ineq_lp(rows: Sequence[Sequence[int]], nfree: int, objective: list[int]):
    """max objective·x s.t. ⟨a; x⟩ ≤ c for the integer rows [a | c], the first
    nfree variables free (columns x⁺, x⁻) and the others ≥ 0: the status and
    x.  The tableau holds one slack column per row and negates a row with
    c < 0; each integer row is its own rational row, so every weight is 1."""
    k = len(rows)
    t = []
    for i, (*a, c) in enumerate(rows):
        row = [v for x in a[:nfree] for v in (x, -x)] + a[nfree:] + [0] * k + [c]
        row[-1 - k + i] = 1
        t.append(row if c >= 0 else [-x for x in row])
    cost = [v for x in objective[:nfree] for v in (x, -x)] + objective[nfree:] + [0] * k
    status, x = solve_tableau(t, [1] * k, len(cost), cost)
    if x is not None:
        x = [x[2 * j] - x[2 * j + 1] for j in range(nfree)] + x[2 * nfree : len(cost) - k]
    return status, x


def normals_positively_span(p: Polytope) -> bool:
    """Whether the nonzero normals of P positively span QQⁿ: 0 ∈ int co(normals).

    A nonempty P is bounded exactly then (its recession cone
    {d : ⟨aᵢ; d⟩ ≤ 0} is the origin); one LP, on the normals of P's
    integer rows, which are positive multiples of its normals.
    """
    normals = [Vec(tuple(map(Fraction, r[:-1]))) for r in p.rows if any(r[:-1])]
    return in_interior_of_hull(PointSet.from_vecs(normals, p.ambient))


def is_bounded(p: Polytope) -> bool:
    """Exact boundedness; an empty polytope counts as bounded.

    The positive-span test settles every nonempty P; only when it fails
    does one feasibility LP tell an empty P from an unbounded one.
    """
    if normals_positively_span(p):
        return True
    n = p.ambient
    return _ineq_lp(p.rows, n, [0] * n)[0] == INFEASIBLE


def interior_point(p: Polytope) -> Vec | None:
    """A strictly interior point, or None when the interior is empty.

    Maximizes the slack margin ε (capped at 1 so unbounded polytopes
    still answer) over ⟨aᵢ; x⟩ + ε ≤ cᵢ, for P's integer rows [aᵢ, cᵢ]:
    a positive multiple of a row has the same strict interior.
    """
    n = p.ambient
    rows = [[*a, 1, c] for *a, c in p.rows] + [[0] * n + [1, 1]]
    status, x = _ineq_lp(rows, n, [0] * n + [1])
    if status != OPTIMAL or x[n] <= 0:
        return None
    return Vec(tuple(x[:n]))


def interiors_intersect(p: Polytope, q: Polytope) -> bool:
    """Whether int(P) ∩ int(Q) ≠ ∅, exactly: an interior point of the
    polytope cut out by the rows of both."""
    if p.ambient != q.ambient:
        raise AmbientMismatch("polytopes live in different ambient spaces")
    both = Polytope(p.ambient, p.rows + q.rows, p.lcms + q.lcms)
    return interior_point(both) is not None


def box_pairs(point_sets: Sequence[tuple[list[tuple[int, ...]], int]]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, whose point sets, each as ``integer_points``,
    have meeting closed bounding boxes, in lexicographic order; empty sets are
    in no pair.  Only the corners of the boxes become ``Fraction``s.

    Sort and sweep: order the boxes by their low end in coordinate 0,
    scan forward from each box while the next low end is at most its
    high end, and compare all coordinates of those.  Convex hulls
    whose boxes do not meet share no point, so every other pair can be
    skipped by any test of touching or overlapping hulls.
    """
    boxes = {
        i: tuple(tuple(Fraction(f(c), d) for c in zip(*xs)) for f in (min, max))
        for i, (xs, d) in enumerate(point_sets)
        if xs
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


Normal = tuple[tuple[int, ...], Fraction, Fraction]


def homothet_normals(verts: Sequence[Vec]) -> list[Normal]:
    """(a, h_P(a), h_P(−a)) for one integer a of each pair ±a of a superset
    of the facet normals of P + (−P), P the hull of ``verts``.

    h_P(a) = max over the vertices of ⟨a; v⟩.  A facet of P + (−P) is a
    sum of faces of P and −P, so its directions are spanned by n−1
    vertex differences of P.  The normal of n−1 distinct primitive
    difference directions is their generalized cross product: entry i is
    (−1)ⁱ times their minor without column i, kept when nonzero, once,
    primitive with its first nonzero entry positive; n = 1 gives (1).
    """
    n = len(verts[0])
    xs, _ = integer_points(verts)
    dirs = dict.fromkeys(_primitive([x - y for x, y in zip(u, w)]) for u, w in combinations(xs, 2))
    normals: dict[tuple[int, ...], None] = {}
    for rows in combinations(dirs, n - 1):
        a = [(-1) ** i * _det([r[:i] + r[i + 1 :] for r in rows]) for i in range(n)]
        if any(a):
            normals.setdefault(_primitive(a))
    heights = [[sum(map(mul, a, v)) for v in verts] for a in normals]
    return [(a, max(h), -min(h)) for a, h in zip(normals, heights)]


def _primitive(v: list[int]) -> tuple[int, ...]:
    """A nonzero v over the gcd of its entries, its first nonzero entry positive."""
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def homothet_bounds(
    normals: Sequence[Normal], s1: Fraction, s2: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """(−s₁h_P(−a) − s₂h_P(a), s₁h_P(a) + s₂h_P(−a)) for each normal a of
    ``homothet_normals``: they depend on the two scales alone."""
    return [(-(s1 * h_neg + s2 * h), s1 * h + s2 * h_neg) for _, h, h_neg in normals]


def homothets_overlap(
    normals: Sequence[Normal], t1: Vec, s1: Fraction, t2: Vec, s2: Fraction
) -> bool:
    """Whether int(t₁ + s₁P) ∩ int(t₂ + s₂P) ≠ ∅, for a full-dimensional P
    and ``normals = homothet_normals(vertices(P))``; no LP.

    The interiors meet iff t₂ − t₁ ∈ int(s₁P + s₂(−P)), that is iff
    ⟨a; t₂ − t₁⟩ lies strictly between the two ``homothet_bounds`` of
    every normal a: the configuration-space obstacle (Lozano-Pérez 1983).
    """
    d = t2 - t1
    bounds = homothet_bounds(normals, s1, s2)
    return all(lo < sum(map(mul, a, d)) < hi for (a, _, _), (lo, hi) in zip(normals, bounds))


def bounding_box(points: Sequence[Vec]) -> tuple[Vec, Vec]:
    """Componentwise min / max of a nonempty point list, such as a
    polytope's ``vertices``."""
    if not points:
        raise ValueError("empty polytope has no bounding box")
    return Vec(tuple(map(min, zip(*points)))), Vec(tuple(map(max, zip(*points))))


def triangulate(verts: Sequence, facets: list[frozenset[int]]) -> list[tuple[int, ...]]:
    """Decompose a bounded polytope into simplices (pulling order), each a
    tuple of indices into ``verts``, where ``verts, facets = faces(p)``.

    Each face is coned from its lexicographically smallest vertex over
    the facets that avoid it.  The facets of a face F are the
    inclusion-maximal sets F ∩ G, over the facets G of P, that are
    neither empty nor F; no rank is computed.  A polytope without
    facets (a lower-dimensional one) returns no simplices: it carries
    no volume.
    """
    if not facets:
        return []

    def tri(face: frozenset[int], d: int) -> list[tuple[int, ...]]:
        idx = sorted(face)
        if d == 1:
            return [(idx[0], idx[-1])]
        v0 = idx[0]
        out = []
        for sub in _maximal({face & g for g in facets} - {frozenset(), face}):
            if v0 in sub:
                continue
            for s in tri(sub, d - 1):
                out.append(s + (v0,))
        return out

    return tri(frozenset(range(len(verts))), len(verts[0]))


def _det(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row: n! terms, for small n."""
    if not rows:
        return 1
    minors = [[row[:j] + row[j + 1 :] for row in rows[1:]] for j in range(len(rows))]
    return sum((-1) ** j * a * _det(m) for j, (a, m) in enumerate(zip(rows[0], minors)) if a)


def simplex_volume(simplex: Sequence[Vec]) -> Fraction:
    """|det of edge vectors| / n! for an n-simplex in QQⁿ."""
    n = len(simplex) - 1
    rows, factors = _integer_rows((simplex[i + 1] - simplex[0]).entries for i in range(n))
    return Fraction(abs(_det(rows)), prod(factors) * factorial(n))


def moments(verts: Sequence[Vec], simplices: Sequence[tuple[int, ...]]) -> tuple[Fraction, Vec]:
    """(|P|, ∫_P x dx), exactly, where ``simplices = triangulate(verts, facets)``.

    The first moment of a simplex is its volume times the mean of its
    vertices; sum over the simplices.  No simplices (a P without volume)
    give (0, the empty vector).
    """
    measure = Fraction(0)
    first = [Fraction(0)] * (len(verts[0]) if simplices else 0)
    for s in simplices:
        points = [verts[i] for i in s]
        vol = simplex_volume(points)
        measure += vol
        weight = vol / len(s)
        first = [m + weight * sum(xs) for m, xs in zip(first, zip(*points))]
    return measure, Vec(tuple(first))


def shape_form(p: Polytope, s: Fraction, t: Vec, memo: dict) -> tuple:
    """(shape, points, facets, simplices, |P|, centroid), read off
    Q = (P − t)/s: P = s·Q + t for any s > 0.  ``shape`` and ``points`` are the
    vertices of Q and of P, in the same order, and the centroid ∫_P x/|P| is P's
    (none when |P| = 0), each as ``integer_points``; the rest as ``faces`` and
    ``triangulate`` give them.  With t = T/D and s = p/q, a row [a, c] of P's
    ``rows`` pulls back to [a·D·p, (c·D − ⟨a; T⟩)·q] over its gcd (1 for a zero
    row); ``memo`` keeps Q's result under these rows, so rows scaled by positive
    factors share it.  x ↦ s·x + t keeps the order of the vertices, the facets
    and the simplices, takes each point X/d of Q, vertex or centroid, to
    (p·D·X + q·d·T)/(q·d·D), and gives |P| = sⁿ|Q|.
    """
    if s <= 0:
        raise ValueError("scale must be positive")
    if len(t) != p.ambient:
        raise AmbientMismatch("translation has wrong length")
    (tx,), td = integer_points([t])
    sp, sq = s.numerator, s.denominator
    key = []
    for *a, c in p.rows:
        row = [x * td * sp for x in a] + [(c * td - sum(map(mul, a, tx))) * sq]
        g = gcd(*row) or 1
        key.append(tuple(x // g for x in row))
    key = tuple(key)
    if key not in memo:
        verts, facets = faces(Polytope(p.ambient, key, (1,) * len(key)))
        simplices = triangulate(verts, facets)
        measure, first = moments(verts, simplices)
        centroid = integer_points([first.scale(1 / measure)] if measure else [])
        memo[key] = integer_points(verts), facets, simplices, measure, centroid
    shape, facets, simplices, measure, centroid = memo[key]
    points, centroid = (
        ([tuple(sp * td * x + sq * d * y for x, y in zip(v, tx)) for v in xs], sq * d * td)
        for xs, d in (shape, centroid)
    )
    return shape, points, facets, simplices, s**p.ambient * measure, centroid


def extent(p: Polytope) -> tuple[list[Vec], Fraction]:
    """P's vertices and measure, from one ``faces`` call."""
    verts, facets = faces(p)
    return verts, moments(verts, triangulate(verts, facets))[0]


def volume(p: Polytope) -> Fraction:
    """Exact Lebesgue measure of a bounded polytope (0 if degenerate)."""
    return extent(p)[1]


def unit_box(n: int) -> Polytope:
    return Polytope.box(Vec((Fraction(0),) * n), Vec((Fraction(1),) * n))
