"""Exact polytope geometry: vertices, triangulation, volume, integration.

``solve_square`` and ``simplex_volume`` are the rational rules the integer
kernels replaced; they stay here as the references those kernels are
checked against."""

from __future__ import annotations

import random
from fractions import Fraction as QQ
from itertools import combinations
from math import factorial, gcd, prod
from typing import Sequence

import pytest

from inclusionkit.builder import assemble_solution
from inclusionkit.convexity import UNBOUNDED, PointSet, in_interior_of_hull
from inclusionkit.errors import AmbientMismatch
from inclusionkit.feasibility import FEASIBLE, Verdict
from inclusionkit.geometry import (
    CoverCopy,
    Polytope,
    _det,
    _ineq_lp,
    box_pairs,
    extent,
    faces,
    homothet_normals,
    homothets_overlap,
    integer_points,
    interior_point,
    interiors_intersect,
    is_bounded,
    moments,
    normals_positively_span,
    rational_points,
    shape_form,
    sign_table,
    triangulate,
    unit_box,
    vertices,
)
from inclusionkit.linalg import Mat, Vec, _integer_rows, _reduce, kernel, mat, span_of, vec
from inclusionkit.serialize import decode_polytope
from inclusionkit.verify import cell_forms

from test_convexity import ints, reference_simplex_solve


def dot(a: Vec, b: Vec) -> QQ:
    """⟨a; b⟩ in rationals."""
    return sum((x * y for x, y in zip(a, b)), QQ(0))


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(dot(a.row(i), x) for i in range(a.rows)))


def rational_rows(p: Polytope) -> tuple[tuple[Vec, ...], tuple[QQ, ...]]:
    """P's rows ⟨a; x⟩ ≤ c as (normals, offsets): each integer row over its lcm."""
    rows = list(zip(p.rows, p.lcms))
    normals = tuple(Vec(tuple(QQ(x, m) for x in r[:-1])) for r, m in rows)
    return normals, tuple(QQ(r[-1], m) for r, m in rows)


def solve_square(system: Sequence[Sequence[int]]) -> list[QQ] | None:
    """Solve the square linear system whose n integer rows are [A | b]
    exactly; None if singular."""
    n = len(system)
    rows = [list(row) for row in system]
    if _reduce(rows)[:n] != list(range(n)):
        return None
    return [QQ(row[n], row[i]) for i, row in enumerate(rows)]


def simplex_volume(simplex: Sequence[Vec]) -> QQ:
    """|det of edge vectors| / n! for an n-simplex in QQⁿ."""
    n = len(simplex) - 1
    rows, factors = _integer_rows((simplex[i + 1] - simplex[0]).entries for i in range(n))
    return QQ(abs(_det(rows)), prod(factors) * factorial(n))


def scale_translate(p: Polytope, s: QQ, t: Vec) -> Polytope:
    """The copy {s·x + t : x ∈ P} for s > 0, pushed forward row by row in
    rationals: ⟨a; x⟩ ≤ c becomes ⟨a; x⟩ ≤ s·c + ⟨a; t⟩."""
    normals, offsets = rational_rows(p)
    return Polytope.halfspaces(normals, [s * c + dot(a, t) for a, c in zip(normals, offsets)])


def as_copy(s: QQ, t: Vec) -> CoverCopy:
    """The copy t + s·P, for s > 0 and t in rationals, as its integers in lowest terms."""
    (shift, (size,)), den = integer_points([t, (s,)])
    return CoverCopy(shift, size, den)


def copy_frame(c: CoverCopy) -> tuple[QQ, Vec]:
    """(s, t) of the copy t + s·P, in rationals."""
    return QQ(c.size, c.den), Vec(tuple(QQ(x, c.den) for x in c.shift))


def affine_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull, the rational rank of the differences
    from the first point; -1 for the empty set."""
    if not points:
        return -1
    return span_of(ints([p - points[0] for p in points[1:]]), len(points[0])).dim


def cross_polytope_2d() -> Polytope:
    return Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)],
        [QQ(1)] * 4,
    )


def standard_simplex_2d() -> Polytope:
    return Polytope.halfspaces([vec(-1, 0), vec(0, -1), vec(1, 1)], [QQ(0), QQ(0), QQ(1)])


# ----------------------------------------------------------------- volume


def test_volume_examples():
    assert extent(unit_box(1))[1] == 1
    assert extent(unit_box(3))[1] == 1
    assert extent(Polytope.box(vec(0, 0), vec(2, 3)))[1] == 6
    assert extent(cross_polytope_2d())[1] == 2
    assert extent(standard_simplex_2d())[1] == QQ(1, 2)


def test_volume_of_min_base_interval():
    # {x : 2x >= -1, -x >= -1} = [-1/2, 1].
    p = Polytope.halfspaces([vec(-2), vec(1)], [QQ(1), QQ(1)])
    assert extent(p)[1] == QQ(3, 2)


def test_degenerate_polytope_has_zero_volume():
    point = Polytope.halfspaces([vec(1), vec(-1)], [QQ(0), QQ(0)])
    assert extent(point)[1] == 0
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    assert extent(segment)[1] == 0


def fraction_det(rows: list[list[QQ]]) -> QQ:
    """Gaussian elimination over Fractions, partial pivoting on nonzeros."""
    rows, det = [list(row) for row in rows], QQ(1)
    for c in range(len(rows)):
        i = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if i is None:
            return QQ(0)
        if i != c:
            rows[c], rows[i], det = rows[i], rows[c], -det
        det *= rows[c][c]
        for row in rows[c + 1 :]:
            f = row[c] / rows[c][c]
            row[:] = [x - f * y for x, y in zip(row, rows[c])]
    return det


def test_simplex_volume_matches_a_fraction_determinant():
    rng = random.Random(61)
    degenerate = 0
    for trial in range(200):
        n = trial % 4 + 1
        pts = [
            Vec(tuple(QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20)) if rng.random() < 0.3
                      else QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
            for _ in range(n + 1)
        ]
        if trial % 5 == 0 and n > 1:
            # On the line through the first two: a degenerate simplex.
            pts[-1] = pts[0] + (pts[1] - pts[0]).scale(QQ(rng.randint(-3, 3), 2))
        edges = [list(p - pts[0]) for p in pts[1:]]
        want = abs(fraction_det(edges)) / prod(range(1, n + 1))
        degenerate += want == 0
        assert simplex_volume(pts) == want, trial
    assert degenerate >= 30


def test_simplex_volume_examples():
    assert simplex_volume([vec(0, 0), vec(1, 0), vec(0, 1)]) == QQ(1, 2)
    assert simplex_volume([vec(0), vec(5)]) == 5
    assert simplex_volume([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]) == QQ(1, 6)


# --------------------------------------------------------------- vertices


def test_vertices_of_box_and_cross():
    sq = vertices(unit_box(2))
    assert len(sq) == 4
    assert vec(0, 0) in sq and vec(1, 1) in sq
    cr = vertices(cross_polytope_2d())
    assert sorted(cr, key=lambda v: v.entries) == [
        vec(-1, 0), vec(0, -1), vec(0, 1), vec(1, 0),
    ]


def test_vertices_are_deterministic():
    p = cross_polytope_2d()
    assert vertices(p) == vertices(p)


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([vec(1, 1)]) == 0
    assert affine_dim([vec(0, 0), vec(1, 1)]) == 1
    assert affine_dim([vec(0, 0), vec(1, 0), vec(0, 1)]) == 2


# ----------------------------------------------------------- triangulation


def rand_bounded_polytope(rng: random.Random, n: int) -> Polytope | None:
    # A random box cut by up to two random halfspaces through its middle.
    low = Vec(tuple(QQ(rng.randint(-3, 0)) for _ in range(n)))
    high = Vec(tuple(l + QQ(rng.randint(1, 4)) for l in low))
    normals = []
    offsets = []
    for i in range(n):
        normals.append(Vec(tuple(QQ(1 if j == i else 0) for j in range(n))))
        offsets.append(high[i])
        normals.append(Vec(tuple(QQ(-1 if j == i else 0) for j in range(n))))
        offsets.append(-low[i])
    mid = Vec(tuple((low[i] + high[i]) / 2 for i in range(n)))
    for _ in range(rng.randint(0, 2)):
        a = Vec(tuple(QQ(rng.randint(-2, 2)) for _ in range(n)))
        if a.is_zero():
            continue
        normals.append(a)
        offsets.append(dot(a, mid) + QQ(rng.randint(0, 2)))
    p = Polytope.halfspaces(normals, offsets)
    return p if extent(p)[1] > 0 else None


def test_triangulation_partitions_the_volume():
    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        p = rand_bounded_polytope(rng, n)
        if p is None:
            continue
        points, facets = faces(p)
        verts = rational_points(points)
        simplices = [[verts[k] for k in s] for s in triangulate(points, facets)]
        assert sum(simplex_volume(s) for s in simplices) == extent(p)[1]
        for s in simplices:
            assert affine_dim(s) == n
        done += 1


def test_triangulation_of_lower_dimensional_is_empty():
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    assert triangulate(*faces(segment)) == []


# ------------------------------------------------------------ integration


def moment_args(p: Polytope) -> tuple:
    """P's vertices, as ``faces`` gives them, and the index simplices of their
    ``triangulate``."""
    points, facets = faces(p)
    return points, triangulate(points, facets)


def rational_moments(points: tuple, simplices) -> tuple[QQ, Vec]:
    """(|P|, ∫_P x dx) from one ``moments`` pass: |P| times its centroid C/c,
    the empty vector when P has no volume."""
    vol, (cs, c) = moments(points, simplices)
    return vol, Vec(tuple(vol * QQ(x, c) for x in cs[0])) if cs else Vec(())


def integral(p: Polytope, g: Mat, o: Vec) -> Vec:
    """∫_P (G·x + o) dx = G·∫_P x dx + |P|·o, from one moments pass."""
    vol, first = rational_moments(*moment_args(p))
    return matvec(g, first) + o.scale(vol)


def test_integrate_affine_examples():
    sq = unit_box(2)
    assert integral(sq, mat([[0, 0]]), vec(1)) == vec(1)
    assert integral(sq, mat([[1, 0]]), vec(0)) == vec("1/2")
    assert integral(sq, mat([[1, 1]]), vec(0)) == vec(1)
    assert integral(standard_simplex_2d(), mat([[1, 1]]), vec(0)) == vec("1/3")


def test_integrate_affine_vector_valued():
    g = mat([[1, 0], [0, 2]])
    assert integral(unit_box(2), g, vec(0, 1)) == vec("1/2", 2)


def test_integrate_scales_with_measure():
    big = Polytope.box(vec(0, 0), vec(2, 2))
    assert integral(big, mat([[0, 0]]), vec(3)) == vec(12)


def vertex_mean_integral(simplices, g: Mat, o: Vec) -> Vec:
    """Reference: an affine map integrates over a simplex to its volume
    times the mean of its vertex values; sum over the simplices."""
    total = [QQ(0)] * g.rows
    for s in simplices:
        vol = simplex_volume(s)
        for r in range(g.rows):
            total[r] += vol * sum(dot(g.row(r), v) + o[r] for v in s) / len(s)
    return Vec(tuple(total))


def test_moments_match_the_vertex_mean_rule():
    rng = random.Random(29)
    tall_box = Polytope.box(vec(-1, 0, 2), vec(1, 3, 5))
    shapes = [
        unit_box(2),
        tall_box,
        standard_simplex_2d(),
        cross_polytope_2d(),
        cross_polytope_3d(),
    ]
    shapes += [rand_polygon(rng) for _ in range(15)]
    while len(shapes) < 30:
        p = rand_bounded_polytope(rng, 3)
        if p is not None:
            shapes.append(p)
    for p in shapes:
        n = p.ambient
        points, indices = moment_args(p)
        vol, first = rational_moments(points, indices)
        verts = rational_points(points)
        simplices = [[verts[k] for k in s] for s in indices]
        assert vol > 0 and vol == sum(simplex_volume(s) for s in simplices)
        for _ in range(3):
            d = rng.randint(1, 3)
            g = Mat(d, n, tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d * n)))
            o = Vec(tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)))
            assert matvec(g, first) + o.scale(vol) == vertex_mean_integral(simplices, g, o)
    # A centrally symmetric body has its centroid at its center.
    assert rational_moments(*moment_args(tall_box)) == (18, vec(0, 27, 63))
    assert rational_moments(*moment_args(cross_polytope_3d()))[1] == vec(0, 0, 0)
    assert rational_moments(([], 1), []) == (0, Vec(()))
    # The centroid is one integer point in lowest terms.
    assert moments(*moment_args(tall_box)) == (18, ([(0, 3, 7)], 2))
    assert moments(*moment_args(cross_polytope_3d()))[1] == ([(0, 0, 0)], 1)
    assert moments(([], 1), []) == (0, ([], 1))


# ------------------------------------------------------- bounds, interiors


def test_is_bounded():
    assert is_bounded(unit_box(3))
    assert is_bounded(cross_polytope_2d())
    half = Polytope.halfspaces([vec(1, 0)], [QQ(1)])
    assert not is_bounded(half)
    quadrant = Polytope.halfspaces([vec(-1, 0), vec(0, -1)], [QQ(0), QQ(0)])
    assert not is_bounded(quadrant)
    # Empty polytopes count as bounded; zero normals are dropped.
    zero = vec(0, 0)
    assert is_bounded(Polytope.halfspaces([vec(1, 0), vec(-1, 0)], [QQ(-1), QQ(0)]))
    assert is_bounded(Polytope.halfspaces([zero], [QQ(-1)]))
    assert not is_bounded(Polytope.halfspaces([zero], [QQ(1)]))
    normals, offsets = rational_rows(cross_polytope_2d())
    assert is_bounded(Polytope.halfspaces(normals + (zero,), offsets + (QQ(0),)))


def test_is_bounded_matches_coordinate_lps():
    # Reference: every coordinate has a finite range (2n LPs; an empty
    # polytope is infeasible for each, so it counts as bounded), each LP
    # through the Bareiss reference with one slack per row, and _ineq_lp on
    # P's integer rows gives the same status and point.
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2 * n + 1)
        normals = [Vec(tuple(QQ(rng.randint(-2, 2)) for _ in range(n))) for _ in range(k)]
        offsets = [QQ(rng.randint(-2, 3)) for _ in range(k)]
        p = Polytope.halfspaces(normals, offsets)
        rows = [[*a, *(QQ(int(i == j)) for j in range(k))] for i, a in enumerate(normals)]

        def coordinate_lp(objective: list[int]) -> str:
            res = reference_simplex_solve(
                objective + [0] * k, rows, offsets, [False] * n + [True] * k
            )
            status, x = _ineq_lp(p.rows, n, objective)
            assert (status, x and tuple(x)) == (res.status, res.x and res.x[:n])
            return res.status

        expected = all(
            coordinate_lp([s if j == i else 0 for j in range(n)]) != UNBOUNDED
            for i in range(n)
            for s in (1, -1)
        )
        assert is_bounded(p) == expected


def test_positive_span_matches_the_hull_reference():
    # normals_positively_span on P's integer normals against the rule it
    # replaced: 0 ∈ int co of the nonzero normals of P's rows, as a
    # ``PointSet`` (which drops duplicates) through ``in_interior_of_hull``.
    # Rows repeat, come back as positive multiples (a fractional offset
    # scales its integer row), are zero, or span less than QQⁿ.
    rng = random.Random(37)
    seen = {"spans": 0, "does not": 0, "duplicate": 0, "zero": 0, "rank-deficient": 0}
    for trial in range(150):
        n = rng.randint(1, 4)
        r = n if trial % 3 else rng.randint(0, n - 1)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        normals = [
            [sum(rng.randint(-2, 2) * b[k] for b in basis) for k in range(n)]
            for _ in range(rng.randint(1, 2 * n + 2))
        ]
        for _ in range(rng.randint(0, 2)):
            normals.append([rng.randint(1, 3) * x for x in rng.choice(normals)])
        if rng.random() < 0.3:
            normals.append([0] * n)
        offsets = [QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in normals]
        p = Polytope.halfspaces([Vec(tuple(map(QQ, a))) for a in normals], offsets)
        nonzero = [Vec(tuple(map(QQ, row[:-1]))) for row in p.rows if any(row[:-1])]
        expected = bool(nonzero) and in_interior_of_hull(PointSet.from_vecs(nonzero, n))
        assert normals_positively_span(p) == expected, trial
        seen["spans" if expected else "does not"] += 1
        seen["duplicate"] += len({row[:-1] for row in p.rows}) < len(p.rows)
        seen["zero"] += len(nonzero) < len(p.rows)
        seen["rank-deficient"] += span_of(ints(nonzero), n).dim < n
    assert min(seen.values()) >= 20, seen


def test_interior_point():
    p = interior_point(unit_box(2))
    assert p is not None
    assert all(row == [1] for row in sign_table(unit_box(2).rows, integer_points([p])))
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    assert interior_point(segment) is None
    empty = Polytope.halfspaces([vec(1), vec(-1)], [QQ(-1), QQ(-1)])
    assert interior_point(empty) is None


def test_interiors_intersect():
    a = Polytope.box(vec(0, 0), vec(1, 1))
    b = Polytope.box(vec(1, 0), vec(2, 1))
    c = Polytope.box(vec("1/2", "1/2"), vec("3/2", "3/2"))
    assert not interiors_intersect(a, b)
    assert interiors_intersect(a, c)
    assert interiors_intersect(b, c)


def test_scale_translate():
    p = scale_translate(unit_box(2), QQ(1, 2), vec(1, 1))
    assert extent(p)[1] == QQ(1, 4)
    assert p.contains(vec("5/4", "5/4"))
    assert not p.contains(vec("1/2", "1/2"))
    q = scale_translate(cross_polytope_2d(), QQ(2), vec(0, 0))
    assert extent(q)[1] == 8


def test_rows_are_the_cleared_rational_rows():
    """P holds each rational row [a, c] as ``_integer_rows`` clears it, gives
    the same Fractions back, pushes its rows forward to a copy s·P + t in ints
    as the rational rows clear, and a box decodes equal to its halfspace
    spelling."""
    # (2, 4 | 6) stays as it is, not primitive; (1/2, 1 | 3/4) is (2, 4, 3) over 4.
    for normal, offset, row, lcm in (
        (vec(2, 4), QQ(6), (2, 4, 6), 1),
        (vec("1/2", 1), QQ(3, 4), (2, 4, 3), 4),
    ):
        p = Polytope.halfspaces([normal], [offset])
        assert (p.rows, p.lcms) == ((row,), (lcm,))
    rng = random.Random(71)

    def q() -> QQ:
        if rng.random() < 0.3:
            return QQ(0)
        return QQ(rng.randint(-(2**12), 2**12), rng.randint(1, 2**8))

    for _ in range(200):
        n, k = rng.randint(1, 4), rng.randint(1, 5)
        normals = [Vec(tuple(q() for _ in range(n))) for _ in range(k)]
        offsets = [q() for _ in range(k)]
        p = Polytope.halfspaces(normals, offsets)
        ints, lcms = _integer_rows([*a, c] for a, c in zip(normals, offsets))
        assert (p.rows, p.lcms) == (tuple(map(tuple, ints)), tuple(lcms))
        assert rational_rows(p) == (tuple(normals), tuple(offsets))
        assert all(type(x) is QQ for a in rational_rows(p)[0] for x in a)
        assert all(type(c) is QQ for c in rational_rows(p)[1])
        assert Polytope.halfspaces(*rational_rows(p)) == p
        s, t = abs(q()) or QQ(1), Vec(tuple(q() for _ in range(n)))
        assert p.image(as_copy(s, t)) == scale_translate(p, s, t)
    kinds: set = set()
    for _ in range(50):
        n = rng.randint(1, 4)
        low = Vec(tuple(q() for _ in range(n)))
        high = Vec(tuple(x + abs(q()) for x in low))
        corners = {"low": [str(x) for x in low], "high": [str(x) for x in high]}
        box = decode_polytope({"box": corners}, "", n)
        # A box writes its rows directly; they are the ``_integer_rows`` form.
        ints, lcms = _integer_rows(
            [*(QQ(e * (j == k)) for j in range(n)), c]
            for k in range(n)
            for e, c in ((1, high[k]), (-1, -low[k]))
        )
        assert (box.rows, box.lcms) == (tuple(map(tuple, ints)), tuple(lcms))
        kinds |= {(x > 0) - (x < 0) for x in (*low, *high)}
        kinds |= {"fraction" for x in (*low, *high) if x.denominator > 1}
        spelled = {
            "normals": [[str(e * (j == k)) for j in range(n)] for k in range(n) for e in (1, -1)],
            "offsets": [str(c) for k in range(n) for c in (high[k], -low[k])],
        }
        assert decode_polytope({"halfspaces": spelled}, "", n) == box
        assert box.corners == (low, high)
    assert kinds == {-1, 0, 1, "fraction"}


def test_contains_strict_vs_weak():
    b = unit_box(2)
    assert b.contains(vec(0, 0))
    assert sign_table(b.rows, integer_points([vec(0, 0)])) == [[1], [0], [1], [0]]
    assert all(row == [1] for row in sign_table(b.rows, integer_points([vec("1/2", "1/2")])))
    assert not b.contains(vec(2, 0))
    assert sign_table(b.rows, integer_points([vec(2, 0)]))[0] == [-1]
    for p in (b, Polytope.halfspaces(*rational_rows(b))):
        for x in (vec(1), vec(0, 0, 0)):
            with pytest.raises(AmbientMismatch):
                p.contains(x)


def test_contains_on_boxes_matches_rows():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        low = Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
        high = Vec(tuple(l + QQ(rng.randint(0, 4), rng.randint(1, 3)) for l in low))
        box = Polytope.box(low, high)
        as_rows = Polytope.halfspaces(*rational_rows(box))
        x = Vec(tuple(QQ(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)))
        point = integer_points([x])
        assert sign_table(box.rows, point) == sign_table(as_rows.rows, point)
        assert box.contains(x) == as_rows.contains(x)
        corners = vertices(box)
        ints = integer_points(corners)
        assert sign_table(box.rows, ints) == sign_table(as_rows.rows, ints)
        for corner in corners:
            column = [row[0] for row in sign_table(box.rows, integer_points([corner]))]
            assert -1 not in column and 0 in column
            assert box.contains(corner)


def reference_sides(p: Polytope, points: list[Vec]) -> list[list[int]]:
    """sign(c − ⟨a; x⟩) for every row of P and every point, the plain way."""

    def sign(q: QQ) -> int:
        return (q > 0) - (q < 0)

    return [[sign(c - dot(a, x)) for x in points] for a, c in zip(*rational_rows(p))]


def test_sides_matches_the_reference_on_random_polytopes():
    rng = random.Random(41)
    done = 0
    while done < 60:
        p = rand_polygon(rng) if done % 2 else rand_bounded_polytope(rng, 3)
        if p is None:
            continue
        verts = vertices(p)
        # The mean of the vertices tight on a row lies on that row.
        facet_rows, on_facets = [], []
        for r, row in enumerate(sign_table(p.rows, integer_points(verts))):
            tight = [v for v, side in zip(verts, row) if side == 0]
            if tight:
                facet_rows.append(r)
                on_facets.append(Vec(tuple(sum(xs) / len(tight) for xs in zip(*tight))))
        n = p.ambient
        loose = [
            Vec(tuple(QQ(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)))
            for _ in range(10)
        ]
        points = verts + on_facets + loose
        table = sign_table(p.rows, integer_points(points))
        assert table == reference_sides(p, points)
        for k, x in enumerate(points):
            assert p.contains(x) == all(row[k] >= 0 for row in table)
        for k in range(len(verts)):
            assert sum(row[k] == 0 for row in table) >= n
        for k, r in enumerate(facet_rows):
            assert table[r][len(verts) + k] == 0
        done += 1


def wide(rng: random.Random) -> QQ:
    """A rational with a 20-bit numerator and denominator, of either sign."""
    return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))


def onto_row(a: Vec, c: QQ, x: Vec) -> Vec:
    """x moved along its first coordinate where a ≠ 0 onto ⟨a; x⟩ = c."""
    k = next(i for i, ai in enumerate(a) if ai != 0)
    entries = list(x)
    entries[k] += (c - dot(a, x)) / a[k]
    return Vec(tuple(entries))


def test_sides_matches_the_reference_on_wide_and_mixed_denominators():
    # Four kinds of input, each with points put on every row so that
    # zeros are checked as well as signs: 20-bit rows and points, boxes
    # with fractional negative corners, cover cells at dyadic scales, and
    # points over coprime denominators, whose common denominator is
    # their product.
    rng = random.Random(8)
    primes = (3, 5, 7, 11, 13, 17)
    seen = {-1: 0, 0: 0, 1: 0}
    for _ in range(12):
        n = rng.randint(1, 3)
        normals = [Vec(tuple(wide(rng) for _ in range(n))) for _ in range(rng.randint(1, 5))]
        ragged = Polytope.halfspaces(normals, [wide(rng) for _ in normals])
        ragged_points = [Vec(tuple(wide(rng) for _ in range(n))) for _ in range(6)]

        low = Vec(tuple(QQ(rng.randint(-60, -1), rng.randint(2, 9)) for _ in range(n)))
        high = Vec(tuple(x + QQ(rng.randint(1, 40), rng.randint(2, 9)) for x in low))
        box = Polytope.box(low, high)
        box_points = vertices(box) + [
            Vec(tuple(QQ(rng.randint(-80, 40), rng.randint(1, 9)) for _ in range(n)))
            for _ in range(4)
        ]

        base = simplex_base() if n == 2 else cross_polytope_3d() if n == 3 else unit_box(1)
        s = QQ(1, 2 ** rng.randint(1, 12))
        t = Vec(tuple(QQ(rng.randint(-(2**12), 2**12), 2 ** rng.randint(0, 12)) for _ in range(n)))
        cell = scale_translate(base, s, t)
        cell_points = [v.scale(s) + t for v in vertices(base)] + [
            t + Vec(tuple(QQ(rng.randint(-8, 8), 2 ** rng.randint(0, 14)) for _ in range(n)))
            for _ in range(4)
        ]

        coprime_points = [
            Vec(tuple(QQ(rng.randint(1, q - 1) + q * rng.randint(-9, 9), q) for _ in range(n)))
            for q in primes
        ]
        assert integer_points(coprime_points)[1] == prod(primes)

        for p, points in (
            (ragged, ragged_points),
            (box, box_points),
            (cell, cell_points),
            (ragged, coprime_points),
            (cell, coprime_points),
        ):
            rows = [(a, c) for a, c in zip(*rational_rows(p)) if not a.is_zero()]
            points = points + [onto_row(a, c, rng.choice(points)) for a, c in rows]
            table = sign_table(p.rows, integer_points(points))
            assert table == reference_sides(p, points)
            for row in table:
                for side in row:
                    seen[side] += 1
    assert min(seen.values()) >= 200, seen


def rank_reference_shapes(rng: random.Random) -> list[Polytope]:
    """A point, a segment, three fixed bodies and random polygons and 3-polytopes,
    each random one with extra rows: a duplicated row, a redundant row, a
    supporting row (often tight at a single vertex), a row that flattens P
    onto the face where a normal is largest (a point, a segment or a polygon)
    or a row that empties it."""
    point = Polytope.halfspaces([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(0)] * 4)
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    shapes = [point, segment, unit_box(2), cross_polytope_2d(), cross_polytope_3d()]
    while len(shapes) < 60:
        p = rand_polygon(rng) if len(shapes) % 2 else rand_bounded_polytope(rng, 3)
        if p is None:
            continue
        verts = vertices(p)
        rows = list(zip(*rational_rows(p)))
        for _ in range(rng.randint(1, 3)):
            a = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(p.ambient)))
            if a.is_zero():
                continue
            top = max(dot(a, v) for v in verts)
            kind = rng.choice(("duplicate", "redundant", "support", "flatten", "empty"))
            if kind == "duplicate":
                rows.append(rng.choice(rows))
            elif kind == "redundant":
                rows.append((a, top + rng.randint(1, 3)))
            elif kind == "support":
                rows.append((a, top))
            else:
                rows.append((-a, -top - (kind == "empty")))
        shapes.append(Polytope.halfspaces(*zip(*rows)))
    return shapes


def test_faces_match_a_rank_reference():
    # Reference: on a full-dimensional P the facets are the distinct row
    # tight sets of affine dimension n − 1; any other P has none.
    seen = {"empty": 0, "lower": 0, "full": 0}
    for p in rank_reference_shapes(random.Random(53)):
        n = p.ambient
        points, facets = faces(p)
        verts = vertices(p)
        assert points == integer_points(verts)
        tight = {
            frozenset(k for k, side in enumerate(row) if side == 0)
            for row in reference_sides(p, verts)
        }
        if affine_dim(verts) < n:
            assert facets == []
            seen["empty" if not verts else "lower"] += 1
            continue
        expected = {t for t in tight if affine_dim([verts[k] for k in t]) == n - 1}
        assert facets and set(facets) == expected and len(facets) == len(expected)
        assert facets == sorted(facets, key=sorted)
        seen["full"] += 1
    assert min(seen.values()) >= 3, seen


def reference_faces(p: Polytope) -> tuple[list[Vec], list[frozenset[int]]]:
    """``faces`` by the rational rule: each square subsystem solved into
    ``Fraction`` coordinates (``solve_square``), the distinct solutions sorted
    as rational vectors and compared with P's rows in ``Fraction``s."""
    cands = sorted(
        {tuple(x) for x in map(solve_square, combinations(p.rows, p.ambient)) if x is not None}
    )
    table = reference_sides(p, [Vec(c) for c in cands])
    keep = [k for k, col in enumerate(zip(*table)) if -1 not in col]
    tight = {frozenset(i for i, k in enumerate(keep) if row[k] == 0) for row in table}
    if frozenset(range(len(keep))) in tight:
        return [Vec(cands[k]) for k in keep], []
    maximal = sorted((s for s in tight if not any(s < t for t in tight)), key=sorted)
    return [Vec(cands[k]) for k in keep], maximal


def reference_moments(verts: list[Vec], simplices) -> tuple[QQ, Vec]:
    """(|P|, ∫_P x dx) in ``Fraction``s: each simplex's ``simplex_volume``, and
    that volume times the mean of its vertices."""
    measure, first = QQ(0), [QQ(0)] * (len(verts[0]) if simplices else 0)
    for s in simplices:
        points = [verts[i] for i in s]
        vol = simplex_volume(points)
        measure += vol
        first = [m + vol / len(s) * sum(xs) for m, xs in zip(first, zip(*points))]
    return measure, Vec(tuple(first))


def wide_polytope(rng: random.Random, n: int) -> Polytope:
    """A box with ``wide`` corners cut by up to two rows with ``wide`` normals
    that keep its middle: bounded and nonempty, and flat when two rows through
    the middle face each other."""
    low = Vec(tuple(wide(rng) for _ in range(n)))
    high = Vec(tuple(x + abs(wide(rng)) + QQ(1, rng.randint(1, 2**20)) for x in low))
    normals, offsets = [], []
    for k in range(n):
        for e, c in ((1, high[k]), (-1, -low[k])):
            normals.append(Vec(tuple(QQ(e * (j == k)) for j in range(n))))
            offsets.append(c)
    mid = (low + high).scale(QQ(1, 2))
    for _ in range(rng.randint(0, 2)):
        a = Vec(tuple(wide(rng) for _ in range(n)))
        normals.append(a)
        offsets.append(dot(a, mid) + abs(wide(rng)) * rng.randint(0, 1))
    return Polytope.halfspaces(normals, offsets)


def test_integer_enumeration_matches_the_rational_reference():
    # faces, triangulate and moments on integer points against the rules
    # they replaced, on the rank reference's shapes and on polytopes with
    # 20-bit rows: the same vertex order, facets, simplices, measure and
    # centroid.  Each vertex list is ``integer_points`` of the reference's.
    rng = random.Random(64)
    shapes = rank_reference_shapes(random.Random(53))
    shapes += [wide_polytope(rng, rng.randint(1, 3)) for _ in range(30)]
    seen = {"empty": 0, "lower": 0, "full": 0, "wide": 0}
    for p in shapes:
        points, facets = faces(p)
        verts, ref_facets = reference_faces(p)
        assert points == integer_points(verts) and rational_points(points) == verts
        assert facets == ref_facets
        simplices = triangulate(points, facets)
        assert simplices == triangulate(integer_points(verts), ref_facets)
        measure, centroid = moments(points, simplices)
        ref_measure, first = reference_moments(verts, simplices)
        assert measure == ref_measure
        assert centroid == integer_points([first.scale(1 / measure)] if measure else [])
        assert (measure > 0) == bool(facets)
        kind = "full" if facets else "lower" if verts else "empty"
        seen[kind] += 1
        seen["wide"] += points[1].bit_length() > 40
    assert min(seen.values()) >= 3, seen


# ------------------------------------------------- pair pruning and clashes


def test_box_pairs_matches_all_pairs():
    # Each set is drawn over its own denominator in 1–7 and one over 2²⁰, so
    # the boxes meet at equal ends spelled over different denominators.
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        dens = [rng.randint(1, 7) for _ in range(rng.randint(0, 12))]
        if dens:
            dens[rng.randrange(len(dens))] = 2**20
        sets = [
            [
                Vec(tuple(QQ(rng.randint(-8 * q, 8 * q), q) for _ in range(n)))
                for _ in range(rng.randint(0, 3))
            ]
            for q in dens
        ]

        def meet(p, q):
            return all(
                min(u[k] for u in q) <= max(v[k] for v in p)
                and min(v[k] for v in p) <= max(u[k] for u in q)
                for k in range(n)
            )

        expected = [
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if sets[i] and sets[j] and meet(sets[i], sets[j])
        ]
        assert box_pairs([integer_points(s) for s in sets]) == expected


def test_box_pairs_of_the_triangle_cover():
    # The δ = 1/8 triangle cover, F = {e₁, e₂, −e₁−e₂} on the unit box: 327
    # cells over several dyadic scales, whose boxes meet in 1,949 pairs.
    verdict = Verdict(FEASIBLE, b=vec(1), factors=(vec(1, 0), vec(0, 1), vec(-1, -1)))
    pw = assemble_solution(verdict, unit_box(2), QQ(1, 8), None)
    points = [form.points for form in cell_forms(pw)]
    boxes = [[(min(c), max(c)) for c in zip(*rational_points(p))] for p in points]
    expected = [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(boxes), 2)
        if all(lo <= y and x <= hi for (lo, hi), (x, y) in zip(a, b))
    ]
    assert len(points) == 327 and len(expected) == 1949
    assert box_pairs(points) == expected


def rand_polygon(rng: random.Random) -> Polytope:
    """A random box (either kind), a box with cuts, or a triangle."""
    kind = rng.randint(0, 2)
    if kind == 0:
        low = vec(QQ(rng.randint(-4, 4), 2), QQ(rng.randint(-4, 4), 2))
        high = low + vec(QQ(rng.randint(1, 4), 2), QQ(rng.randint(1, 4), 2))
        box = Polytope.box(low, high)
        return box if rng.random() < 0.5 else Polytope.halfspaces(*rational_rows(box))
    if kind == 1:
        while True:
            p = rand_bounded_polytope(rng, 2)
            if p is not None:
                return p
    while True:
        pts = [vec(QQ(rng.randint(-6, 6), 3), QQ(rng.randint(-6, 6), 3)) for _ in range(3)]
        if affine_dim(pts) == 2:
            break
    normals, offsets = [], []
    for k in range(3):
        p, q, r = pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3]
        a = vec(q[1] - p[1], p[0] - q[0])
        if dot(a, r) > dot(a, p):
            a = -a
        normals.append(a)
        offsets.append(dot(a, p))
    return Polytope.halfspaces(normals, offsets)


def partner(rng: random.Random, p: Polytope) -> Polytope:
    """A second polygon: identical, nested, touching, shifted, far apart
    or unrelated."""
    verts = vertices(p)
    low, high = (Vec(tuple(map(f, zip(*verts)))) for f in (min, max))
    width = high - low
    kind = rng.randint(0, 5)
    if kind == 0:
        return p
    if kind == 1:
        center = interior_point(p)
        return scale_translate(p, QQ(1, 2), center.scale(QQ(1, 2)))
    if kind == 2:
        # Boxes meet on a side or a corner: the polygons touch or miss.
        t = vec(width[0] * rng.choice([-1, 1]), width[1] * rng.randint(-1, 1))
        return scale_translate(p, QQ(1), t)
    if kind == 3:
        t = vec(QQ(rng.randint(-4, 4), 4), QQ(rng.randint(-4, 4), 4))
        return scale_translate(p, QQ(1), t)
    if kind == 4:
        return scale_translate(p, QQ(1), vec(rng.choice([-20, 20]), 3))
    return rand_polygon(rng)


def test_pruning_and_facet_separation_decide_overlap_exactly():
    rng = random.Random(2024)
    seen = {"pruned": 0, "separated": 0, "lp": 0, "overlap": 0}
    for _ in range(300):
        p = rand_polygon(rng)
        q = partner(rng, p)
        pv, qv = integer_points(vertices(p)), integer_points(vertices(q))
        truth = interiors_intersect(p, q)
        if not box_pairs([pv, qv]):
            decided = False
            seen["pruned"] += 1
        elif any(1 not in row for row in sign_table(p.rows, qv) + sign_table(q.rows, pv)):
            decided = False
            seen["separated"] += 1
        else:
            decided = interiors_intersect(p, q)
            seen["lp"] += 1
        seen["overlap"] += truth
        assert decided == truth, (p, q)
    assert all(count >= 20 for count in seen.values()), seen


def simplex_base() -> Polytope:
    # The pyramid base of F = {e₁, e₂, −e₁−e₂}.
    return Polytope.halfspaces([vec(-1, 0), vec(0, -1), vec(1, 1)], [QQ(1)] * 3)


def cross_polytope_3d() -> Polytope:
    signs = [vec(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    return Polytope.halfspaces(signs, [QQ(1)] * len(signs))


HOMOTHET_BASES = {
    "triangle": simplex_base,
    "square": lambda: unit_box(2),
    "diamond": cross_polytope_2d,
    "cross-3d": cross_polytope_3d,
    "segment": lambda: Polytope.halfspaces([vec(1), vec(-2)], [QQ(1), QQ(1)]),
}


def kernel_normals(verts: list[Vec]) -> set[tuple[int, ...]]:
    """The normals of ``homothet_normals`` by a rational kernel: each
    1-dimensional kernel of n−1 distinct vertex difference directions,
    cleared of denominators, first nonzero entry positive."""
    n = len(verts[0])
    if n == 1:
        return {(1,)}
    dirs = set()
    for u, w in combinations(verts, 2):
        d = u - w
        dirs.add(d.scale(1 / next(x for x in d if x != 0)))
    found = set()
    for rows in combinations(dirs, n - 1):
        k = kernel(ints(rows), n)
        if k.dim == 1:
            a = _integer_rows([k.basis[0].entries])[0][0]
            found.add(tuple(a) if next(x for x in a if x) > 0 else tuple(-x for x in a))
    return found


def test_homothet_normals_are_the_kernel_normals():
    """The integer cross product of n−1 directions spans the same line as
    their kernel: the same normals up to sign, each once, primitive."""
    rng = random.Random(2211)
    for n in (2, 2, 3, 3, 4):
        for _ in range(6):
            while True:
                verts = list({
                    Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
                    for _ in range(rng.randint(n + 1, n + 3))
                })
                if affine_dim(verts) == n:
                    break
            points = integer_points(verts)
            out = homothet_normals(points)
            normals = [a for a, _, _ in out]
            assert len(set(normals)) == len(normals)
            assert set(normals) == kernel_normals(verts)
            for a, h, h_neg in out:
                assert gcd(*a) == 1 and next(x for x in a if x) > 0
                heights = [sum(x * y for x, y in zip(a, v)) for v in verts]
                assert (QQ(h, points[1]), QQ(h_neg, points[1])) == (max(heights), -min(heights))
    for name, make in HOMOTHET_BASES.items():
        verts = vertices(make())
        normals = homothet_normals(integer_points(verts))
        assert {a for a, _, _ in normals} == kernel_normals(verts), name


def test_homothet_clash_matches_the_overlap_lp():
    rng = random.Random(99)
    scales = [QQ(1), QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(2, 3)]
    for name, make in HOMOTHET_BASES.items():
        base = make()
        verts = vertices(base)
        n = base.ambient
        # Heights over the vertices' D, so each normal a stands in as D·a.
        points = integer_points(verts)
        normals = [(tuple(points[1] * x for x in a), h, g) for a, h, g in homothet_normals(points)]
        outcomes = []
        for _ in range(40):
            s1, s2 = rng.choice(scales), rng.choice(scales)
            t1 = Vec(tuple(QQ(rng.randint(-4, 4), 4) for _ in range(n)))
            kind = rng.randint(0, 2)
            if kind == 0:
                # Points s₁v − s₂w of s₁P − s₂P (v, w vertices of P), or
                # their midpoint: often on its boundary, where the copies
                # touch without overlapping.
                u, w = (
                    rng.choice(verts).scale(s1) - rng.choice(verts).scale(s2)
                    for _ in range(2)
                )
                lam = QQ(rng.randint(0, 2), 2)
                d = u.scale(lam) + w.scale(1 - lam)
            elif kind == 1:
                d = Vec(tuple(QQ(rng.randint(-8, 8), 8) for _ in range(n)))
            else:
                d = Vec(tuple(QQ(rng.randint(-16, 16), 4) for _ in range(n)))
            t2 = t1 + d
            truth = interiors_intersect(
                scale_translate(base, s1, t1), scale_translate(base, s2, t2)
            )
            overlap = homothets_overlap(normals, as_copy(s1, t1), as_copy(s2, t2))
            assert overlap == truth, (name, s1, t1, s2, t2)
            outcomes.append(truth)
        assert 5 <= sum(outcomes) <= 35, name


# ------------------------------------------------------------- shape forms


def reference_form(p: Polytope) -> tuple:
    """P's vertices, facets, index simplices, measure and first moment,
    each from P itself."""
    points, facets = faces(p)
    simplices = triangulate(points, facets)
    return (rational_points(points), facets, simplices, *rational_moments(points, simplices))


def rational_form(form: tuple) -> tuple:
    """A ``shape_form`` as ``reference_form`` writes it: its integer points
    (X, D) as the vertices X/D, and |P| times its centroid C/c as the first
    moment (the empty vector when it has no centroid, that is no volume)."""
    _, (xs, d), facets, simplices, measure, (cs, cd) = form
    assert len(cs) == (measure > 0)
    first = Vec(tuple(measure * QQ(x, cd) for x in cs[0])) if cs else Vec(())
    return ([Vec(tuple(QQ(x, d) for x in v)) for v in xs], facets, simplices, measure, first)


def pyramid_cells(factors: list[Vec]) -> list[Polytope]:
    """The regions {⟨f − g; x⟩ ≤ 0, ⟨−f; x⟩ ≤ 1} of min over f of ⟨f; x⟩ + 1."""
    offsets = [QQ(0)] * (len(factors) - 1) + [QQ(1)]
    return [
        Polytope.halfspaces([f - g for g in factors if g != f] + [-f], offsets) for f in factors
    ]


def wide_copy(rng: random.Random, n: int) -> tuple[QQ, Vec]:
    """A scale s > 0 and a translation t with 20-bit numerators and denominators."""
    def bits() -> int:
        return rng.randint(1, 2**20)

    t = Vec(tuple(QQ(rng.choice([-1, 1]) * bits(), bits()) for _ in range(n)))
    return QQ(bits(), bits()), t


def assert_shape_points(form: tuple, base: Polytope, s: QQ, t: Vec) -> None:
    """A ``shape_form`` through (s, t) whose shape points, Q's vertices, push
    forward by x ↦ s·x + t to its points, in order, and whose shape has the
    signs against ``base`` that its points have against the copy t + s·base."""
    (shape, sd), (points, d) = form[:2]
    pushed = [Vec(tuple(QQ(x, sd) for x in v)).scale(s) + t for v in shape]
    assert pushed == [Vec(tuple(QQ(x, d) for x in v)) for v in points]
    copy_rows = scale_translate(base, s, t).rows
    assert sign_table(base.rows, form[0]) == sign_table(copy_rows, form[1])


def test_shape_form_matches_faces_and_moments():
    rng = random.Random(15)
    factor_sets = {
        2: [vec(1, 0), vec(0, 1), vec(-1, -1)],
        3: [vec(*(s * (i == k) for k in range(3))) for i in range(3) for s in (1, -1)],
    }
    for n, factors in factor_sets.items():
        cells = pyramid_cells(factors)
        base = Polytope.halfspaces([-f for f in factors], [QQ(1)] * len(factors))
        # Honest images s·P + t of the base cells: one enumeration per base cell.
        memo: dict = {}
        for _ in range(6):
            s, t = wide_copy(rng, n)
            for cell in cells:
                image = scale_translate(cell, s, t)
                form = shape_form(image, as_copy(s, t), memo)
                assert rational_form(form) == reference_form(image)
                assert_shape_points(form, base, s, t)
        assert len(memo) == len(cells)
        # A cell read through a copy that is not its own: Q is no base cell,
        # and the answer is still the cell's own.
        for _ in range(6):
            image = scale_translate(rng.choice(cells), *wide_copy(rng, n))
            s, t = wide_copy(rng, n)
            form = shape_form(image, as_copy(s, t), memo)
            assert rational_form(form) == reference_form(image)
            assert_shape_points(form, base, s, t)
        assert len(memo) == len(cells) + 6


def test_shape_form_of_boxes_and_thin_or_empty_regions():
    rng = random.Random(16)
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    empty = Polytope.halfspaces([vec(1, 0), vec(-1, 0), vec(0, 1)], [QQ(0), QQ(-1), QQ(1)])
    tall_box = Polytope.box(vec(-1, 0, 2), vec(1, 3, 5))
    memo: dict = {}
    for p in [unit_box(2), tall_box, segment, empty]:
        for _ in range(4):
            form = shape_form(p, as_copy(*wide_copy(rng, p.ambient)), memo)
            assert rational_form(form) == reference_form(p)
    assert reference_form(segment)[1:] == ([], [], QQ(0), Vec(()))
    assert reference_form(empty) == ([], [], [], QQ(0), Vec(()))


def test_shape_forms_with_equal_normals_do_not_share_an_entry():
    # Two cells with the same normals and different offsets, through one
    # copy and one memo: each gets its own vertices, measure and moment.
    normals = [vec(-1, 0), vec(0, -1), vec(1, 1)]
    small = Polytope.halfspaces(normals, [QQ(0), QQ(0), QQ(1)])
    large = Polytope.halfspaces(normals, [QQ(0), QQ(0), QQ(3)])
    memo: dict = {}
    s, t = QQ(1, 3), vec(QQ(1, 2), 5)
    forms = [rational_form(shape_form(p, as_copy(s, t), memo)) for p in (small, large, small)]
    assert forms == [reference_form(p) for p in (small, large, small)]
    assert forms[0][3] == QQ(1, 2) and forms[1][3] == QQ(9, 2)
    assert len(memo) == 2


def test_shape_form_needs_a_positive_scale():
    with pytest.raises(ValueError):
        shape_form(unit_box(2), CoverCopy((0, 0), 0, 1), {})
    with pytest.raises(AmbientMismatch):
        shape_form(unit_box(2), CoverCopy((0,), 1, 1), {})


def test_shape_forms_of_rows_scaled_by_positive_factors_share_an_entry():
    # Q's rows are primitive integers, so a region written with its rows
    # times positive integers, or with a zero row 0·x ≤ 0 or 0·x ≤ 1 added
    # (cleared to gcd 1), is the same entry as long as the rows match.
    rng = random.Random(17)
    cell = pyramid_cells([vec(1, 0), vec(0, 1), vec(-1, -1)])[2]
    memo: dict = {}
    for _ in range(5):
        s, t = wide_copy(rng, 2)
        image = scale_translate(cell, s, t)
        normals, offsets = rational_rows(image)
        factors = [QQ(rng.randint(1, 2**20), rng.randint(1, 2**20)) for _ in normals]
        scaled = Polytope.halfspaces(
            [a.scale(f) for a, f in zip(normals, factors)],
            [c * f for c, f in zip(offsets, factors)],
        )
        for p in (image, scaled):
            assert rational_form(shape_form(p, as_copy(s, t), memo)) == reference_form(p)
    assert len(memo) == 1
    # 0·x ≤ 0 is tight at every vertex, so that region has no facets.
    facets = []
    normals, offsets = rational_rows(cell)
    for c in (QQ(0), QQ(1)):
        padded = Polytope.halfspaces(normals + (vec(0, 0),), offsets + (c,))
        form = rational_form(shape_form(padded, as_copy(QQ(1, 3), vec(5, -7)), memo))
        assert form == reference_form(padded)
        facets.append(len(form[1]))
    assert facets == [0, 3] and len(memo) == 3
