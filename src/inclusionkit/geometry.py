"""Exact polytope geometry at desk scale.

Every polytope is an intersection of rational halfspaces ⟨a; x⟩ ≤ c, a box
too: its rows are ±eₖ.  Everything is exact, in ints from rows to points:
vertices by solving square subsystems, facets as the inclusion-maximal
sets of vertices tight on one row (``faces``), a pulling triangulation of
the face lattice over those facets into tuples of vertex indices, and the
measure and centroid from one pass over the simplices (``moments``).  No
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
A copy t + s·B of a base B is its integers in lowest terms (``CoverCopy``),
one form for every reader: rows push forward to it (``Polytope.image``), and a
cell of it pulls back to its shape (x − t)/s, compared with B itself, whose
points push forward by one rule (``shape_form``); an affine map is read over one
denominator at integer points (``integer_values``).  Only what leaves is
rational: the points of ``vertices`` and ``interior_point``, a box's corners
and a measure.
Many polytopes are compared without an LP per pair: a bounding-box sweep
over integer box ends lists the pairs that can touch (``box_pairs``), a row
of the sign table often separates two of them, two bounded polytopes that
no row separates overlap exactly when the rows of both give ``faces``
facets, and homothets of one base are compared on the integer facet
normals of P + (−P), read off P's edges (``homothets_overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence

from .convexity import INFEASIBLE, OPTIMAL, PointSet, in_interior_of_hull, solve_tableau
from .errors import AmbientMismatch, DimensionMismatch
from .linalg import Vec, _integer_rows, _reduce, rat


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
    def halfspaces(cls, normals: Sequence[Sequence], offsets: Sequence[Fraction]) -> "Polytope":
        if len(normals) != len(offsets):
            raise DimensionMismatch("one offset per normal required")
        if not normals:
            raise DimensionMismatch("at least one halfspace required")
        n = len(normals[0])
        if any(len(a) != n for a in normals):
            raise AmbientMismatch("normals have mixed lengths")
        ints, lcms = _integer_rows([*a, rat(c)] for a, c in zip(normals, offsets))
        return cls(n, tuple(map(tuple, ints)), tuple(lcms))

    def contains(self, x: Vec) -> bool:
        """Whether x ∈ P: x lies beyond no row (see ``sign_table``)."""
        if len(x) != self.ambient:
            raise AmbientMismatch("point has wrong length")
        return all(row[0] >= 0 for row in sign_table(self.rows, integer_points([x])))

    def image(self, copy: "CoverCopy") -> "Polytope":
        """{s·x + t : x ∈ P} for the copy t + s·P, t = T/L and s = S/L, in ints: a row
        [a, c] over m moves to the offset N/M = (c·S + ⟨a; T⟩)/(m·L) on the normal a/m,
        cleared by m/gcd(m, a): [a·l/m, N·l/M] over l = lcm(m/gcd(m, a), M/gcd(N, M))."""
        rows, lcms = [], []
        for (*a, c), m in zip(self.rows, self.lcms):
            num, big = c * copy.size + sum(map(mul, a, copy.shift)), m * copy.den
            l = lcm(m // gcd(m, *a), big // gcd(num, big))
            rows.append((*(x * l // m for x in a), num * l // big))
            lcms.append(l)
        return Polytope(self.ambient, tuple(rows), tuple(lcms))


@dataclass(frozen=True, slots=True)
class CoverCopy:
    """A scaled translate t + s·P of the base, as its integers in lowest terms, one
    form per copy: t = shift/den, s = size/den, size > 0, den > 0, gcd(shift, size, den) = 1."""

    shift: tuple[int, ...]
    size: int
    den: int


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


def faces(p: Polytope) -> tuple[tuple[list[tuple[int, ...]], int], list[frozenset[int]]]:
    """The vertices of P, exactly, sorted lexicographically, as ``integer_points``,
    and its facets as sets of indices into them.

    Every vertex is the unique solution of some square subsystem of tight
    constraints (``_solve``); enumerate the subsystems and keep the feasible
    solutions.  Desk scale only.  One sign table over the candidates, over
    the lcm of their denominators (which keeps their order), gives both
    lists: a vertex is a column with no −1, and a row's zeros at the
    vertices are its tight set.  A bounded P is full-dimensional exactly
    when it has a vertex and no row is tight at every vertex (the rows tight
    on all of P cut out its affine hull); its facets are then the inclusion-
    maximal tight sets, sorted by their sorted indices; any other P has none.
    """
    rows = p.rows
    solutions = {x for system in combinations(rows, p.ambient) if (x := _solve(system))}
    big = lcm(*(d for _, d in solutions))
    cands = sorted((tuple(x * (big // d) for x in xs), d) for xs, d in solutions)
    table = sign_table(rows, ([xs for xs, _ in cands], big))
    keep = [k for k, col in enumerate(zip(*table)) if -1 not in col]
    f = big // lcm(*(cands[k][1] for k in keep))
    verts = [tuple(x // f for x in cands[k][0]) for k in keep], big // f
    tight = {frozenset(i for i, k in enumerate(keep) if row[k] == 0) for row in table}
    if frozenset(range(len(keep))) in tight:
        return verts, []
    return verts, _maximal(tight)


def _solve(system: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int] | None:
    """The solution of the square system of integer rows [A | b] as the point
    X/D in lowest terms, None if A is singular: each reduced row pᵢ·xᵢ = rᵢ,
    pᵢ > 0, is primitive, so X and D = lcm(pᵢ) share no factor."""
    n = len(system)
    rows = [list(row) for row in system]
    if _reduce(rows)[:n] != list(range(n)):
        return None
    d = lcm(*(row[i] for i, row in enumerate(rows)))
    return tuple(row[n] * (d // row[i]) for i, row in enumerate(rows)), d


def _maximal(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    """The inclusion-maximal members of ``sets``, sorted by their sorted elements."""
    return sorted((s for s in sets if not any(s < t for t in sets)), key=sorted)


def vertices(p: Polytope) -> list[Vec]:
    """All vertices, exactly, sorted lexicographically (see ``faces``)."""
    return rational_points(faces(p)[0])


def rational_points(points: tuple) -> list[Vec]:
    """The points X/D of ``integer_points`` as vectors."""
    return [Vec(tuple(Fraction(x, points[1]) for x in v)) for v in points[0]]


def _margin(p: Polytope) -> tuple[str, tuple[list[Fraction], Fraction] | None]:
    """max ε s.t. ⟨aᵢ; x⟩ + ε ≤ cᵢ and ε ≤ 1 over P's integer rows [aᵢ, cᵢ], x free
    and ε ≥ 0: the status (infeasible exactly when P is empty) and (x, ε).  The
    tableau has columns x⁺, x⁻ per coordinate, ε and one slack per row, and
    negates a row with c < 0; each integer row is its own rational row, so every
    weight is 1.  A positive multiple of a row has the same strict interior."""
    n, k = p.ambient, len(p.rows) + 1
    t = []
    for i, (*a, c) in enumerate([*p.rows, (0,) * n + (1,)]):
        row = [v for x in a for v in (x, -x)] + [1] + [0] * k + [c]
        row[2 * n + 1 + i] = 1
        t.append(row if c >= 0 else [-x for x in row])
    status, x = solve_tableau(t, [1] * k, 2 * n + 1 + k, [0] * (2 * n) + [1] + [0] * k)
    return status, x and ([x[2 * j] - x[2 * j + 1] for j in range(n)], x[2 * n])


def normals_positively_span(p: Polytope) -> bool:
    """Whether the nonzero normals of P positively span QQⁿ: 0 ∈ int co(normals).

    A nonempty P is bounded exactly then (its recession cone {d : ⟨aᵢ; d⟩ ≤ 0}
    is the origin).  P's distinct nonzero integer normals, positive multiples of
    its normals, go to ``convexity.in_interior_of_hull`` as one point set.
    """
    normals = tuple(dict.fromkeys(r[:-1] for r in p.rows if any(r[:-1])))
    return in_interior_of_hull(PointSet(p.ambient, normals, (1,) * len(normals)))


def is_bounded(p: Polytope) -> bool:
    """Exact boundedness; an empty polytope counts as bounded.

    The positive-span test settles every nonempty P; only when it fails does
    the margin program tell an empty P (infeasible) from an unbounded one.
    """
    return normals_positively_span(p) or _margin(p)[0] == INFEASIBLE


def interior_point(p: Polytope) -> Vec | None:
    """A strictly interior point, or None when the interior is empty: x at a
    positive optimum ε of the margin program (``_margin``; ε ≤ 1 lets an
    unbounded polytope answer too)."""
    status, x = _margin(p)
    return Vec(tuple(x[0])) if status == OPTIMAL and x[1] > 0 else None


def box_pairs(point_sets: Sequence[tuple[list[tuple[int, ...]], int]]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, whose point sets, each as ``integer_points``,
    have meeting closed bounding boxes, in lexicographic order; empty sets are
    in no pair.  Box ends are compared as integers over one common denominator.

    Sort and sweep: order the boxes by their low end in coordinate 0,
    scan forward from each box while the next low end is at most its
    high end, and compare all coordinates of those.  Convex hulls
    whose boxes do not meet share no point, so every other pair can be
    skipped by any test of touching or overlapping hulls.
    """
    big = lcm(*(d for xs, d in point_sets if xs))
    boxes = {
        i: tuple(tuple(f(c) * (big // d) for c in zip(*xs)) for f in (min, max))
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


Normal = tuple[tuple[int, ...], int, int]


def homothet_normals(points: tuple, facets: list[frozenset[int]]) -> list[Normal]:
    """(a, H(a), H(−a)) for one integer a of each pair ±a of a superset
    of the facet normals of P + (−P), P the full-dimensional polytope whose
    vertices X/D and facets ``faces`` gives as ``points, facets``, and
    H(a) = max over them of ⟨a; X⟩: the support value h_P(a) over D.

    A facet of P + (−P) is F + G for faces F of P and G of −P, so its directions
    are spanned by n−1 edge directions of P.  An edge is a pair of vertices whose
    common facets meet in that pair alone.  The normal of n−1 distinct primitive
    edge directions is their generalized cross product: entry i is (−1)ⁱ times
    their minor without column i, kept when nonzero, once, primitive with its
    first nonzero entry positive; n = 1 gives (1).
    """
    xs = points[0]
    n, every = len(xs[0]), frozenset(range(len(xs)))
    dirs = dict.fromkeys(
        _primitive([x - y for x, y in zip(xs[i], xs[j])])
        for i, j in combinations(range(len(xs)), 2)
        if every.intersection(*(f for f in facets if i in f and j in f)) == {i, j}
    )
    normals: dict[tuple[int, ...], None] = {}
    for rows in combinations(dirs, n - 1):
        a = [(-1) ** i * _det([r[:i] + r[i + 1 :] for r in rows]) for i in range(n)]
        if any(a):
            normals.setdefault(_primitive(a))
    heights = [[sum(map(mul, a, x)) for x in xs] for a in normals]
    return [(a, max(h), -min(h)) for a, h in zip(normals, heights)]


def _primitive(v: list[int]) -> tuple[int, ...]:
    """A nonzero v over the gcd of its entries, its first nonzero entry positive."""
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def homothets_overlap(normals: Sequence[Normal], c1: CoverCopy, c2: CoverCopy) -> bool:
    """Whether int(t₁ + s₁P) ∩ int(t₂ + s₂P) ≠ ∅ for the copies c₁ and c₂ of a
    full-dimensional P, given (D·a, H(a), H(−a)) for each triple over D of
    ``homothet_normals(*faces(P))``; no LP.

    The interiors meet iff t₂ − t₁ ∈ int(s₁P + s₂(−P)) (Lozano-Pérez 1983),
    iff −s₁h_P(−a) − s₂h_P(a) < ⟨a; t₂ − t₁⟩ < s₁h_P(a) + s₂h_P(−a) for every
    normal a.  Homogeneous in each (a, h) and in (t, s), so (D·a, H) and, over
    L₁·L₂, (T₁·L₂, S₁·L₂) and (T₂·L₁, S₂·L₁) stand in.
    """
    d = [y * c1.den - x * c2.den for x, y in zip(c1.shift, c2.shift)]
    s1, s2 = c1.size * c2.den, c2.size * c1.den
    bounds = ((a, s1 * h_neg + s2 * h, s1 * h + s2 * h_neg) for a, h, h_neg in normals)
    return all(-lo < sum(map(mul, a, d)) < hi for a, lo, hi in bounds)


def triangulate(points: tuple, facets: list[frozenset[int]]) -> list[tuple[int, ...]]:
    """Decompose a bounded polytope into simplices (pulling order), each a
    tuple of indices into its vertices, where ``points, facets = faces(p)``.

    Each face is coned from its lexicographically smallest vertex over
    the facets that avoid it.  The facets of a face F are the
    inclusion-maximal sets F ∩ G, over the facets G of P, that are
    neither empty nor F; no rank is computed.  A polytope without
    facets (a lower-dimensional one) returns no simplices: it carries
    no volume.
    """
    if not facets:
        return []
    xs = points[0]

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

    return tri(frozenset(range(len(xs))), len(xs[0]))


def _det(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row: n! terms, for small n."""
    if not rows:
        return 1
    minors = [[row[:j] + row[j + 1 :] for row in rows[1:]] for j in range(len(rows))]
    return sum((-1) ** j * a * _det(m) for j, (a, m) in enumerate(zip(rows[0], minors)) if a)


def moments(points: tuple, simplices: Sequence[tuple[int, ...]]) -> tuple[Fraction, tuple]:
    """(|P|, centroid), exactly, for P's vertices X/D as ``faces`` gives them
    and ``simplices = triangulate(points, facets)``.

    A simplex has the volume |det(Xᵢ − X₀)|/(Dⁿ·n!); with S the sum of the
    |det|s, |P| = S/(Dⁿ·n!), and the centroid, the volume-weighted mean of
    the simplices' vertex means, is Σ|det|·ΣXᵢ over (n + 1)·D·S, one integer
    point in lowest terms.  No volume gives (0, no point).
    """
    xs, d = points
    total, first = 0, [0] * (len(xs[0]) if simplices else 0)
    for s in simplices:
        x0 = xs[s[0]]
        det = abs(_det([[a - b for a, b in zip(xs[i], x0)] for i in s[1:]]))
        total += det
        first = [m + det * sum(c) for m, c in zip(first, zip(*(xs[i] for i in s)))]
    if not total:
        return Fraction(0), ([], 1)
    n, den = len(first), (len(first) + 1) * d * total
    g = gcd(den, *first)
    return Fraction(total, d**n * factorial(n)), ([tuple(x // g for x in first)], den // g)


def shape_form(p: Polytope, copy: CoverCopy, memo: dict) -> tuple:
    """(shape, points, facets, simplices, |P|, centroid), read off Q = (P − t)/s for the
    copy t + s·B: P = s·Q + t for any s > 0.  ``shape`` and ``points`` are the vertices
    of Q and of P, in the same order, and the centroid ∫_P x/|P| is P's (none when
    |P| = 0), each as ``integer_points``; the rest as ``faces``, ``triangulate`` and
    ``moments`` give them.  With t = T/L and s = S/L, a row [a, c] of P's ``rows``
    pulls back to [a·S, c·L − ⟨a; T⟩] over its gcd (1 for a zero row); ``memo`` keeps
    Q's result under these rows, so rows scaled by positive factors share it.
    x ↦ s·x + t keeps the order of the vertices, the facets and the simplices, takes
    each point X/d of Q, vertex or centroid, to (S·X + d·T)/(d·L), and gives |P| = sⁿ|Q|.
    """
    tx, size, den = copy.shift, copy.size, copy.den
    if min(size, den) <= 0:
        raise ValueError("scale must be positive")
    if len(tx) != p.ambient:
        raise AmbientMismatch("translation has wrong length")
    key = []
    for *a, c in p.rows:
        row = [x * size for x in a] + [c * den - sum(map(mul, a, tx))]
        g = gcd(*row) or 1
        key.append(tuple(x // g for x in row))
    key = tuple(key)
    if key not in memo:
        shape, facets = faces(Polytope(p.ambient, key, (1,) * len(key)))
        simplices = triangulate(shape, facets)
        memo[key] = shape, facets, simplices, *moments(shape, simplices)
    shape, facets, simplices, measure, centroid = memo[key]
    points, centroid = (
        ([tuple(size * x + d * y for x, y in zip(v, tx)) for v in xs], d * den)
        for xs, d in (shape, centroid)
    )
    return shape, points, facets, simplices, Fraction(size, den) ** p.ambient * measure, centroid


def extent(p: Polytope) -> tuple[tuple[list[tuple[int, ...]], int], Fraction]:
    """P's vertices as ``integer_points`` and its measure, from one ``faces`` call."""
    points, facets = faces(p)
    return points, moments(points, triangulate(points, facets))[0]


def unit_box(n: int) -> Polytope:
    return Polytope.box(Vec((Fraction(0),) * n), Vec((Fraction(1),) * n))
