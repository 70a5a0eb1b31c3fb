"""Exact polytope geometry: vertices, triangulation, volume, integration."""

from __future__ import annotations

import random
from fractions import Fraction as QQ

from inclusionkit.convexity import UNBOUNDED
from inclusionkit.geometry import (
    Polytope,
    _ineq_lp,
    affine_dim,
    bounding_box,
    box_pairs,
    facet_separates,
    homothet_normals,
    homothets_overlap,
    interior_point,
    interiors_intersect,
    is_bounded,
    moments,
    simplex_volume,
    triangulate,
    unit_box,
    vertices,
    volume,
)
from inclusionkit.linalg import Mat, Vec, mat, vec


def cross_polytope_2d() -> Polytope:
    return Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)],
        [QQ(1)] * 4,
    )


def standard_simplex_2d() -> Polytope:
    return Polytope.halfspaces([vec(-1, 0), vec(0, -1), vec(1, 1)], [QQ(0), QQ(0), QQ(1)])


# ----------------------------------------------------------------- volume


def test_volume_examples():
    assert volume(unit_box(1)) == 1
    assert volume(unit_box(3)) == 1
    assert volume(Polytope.box(vec(0, 0), vec(2, 3))) == 6
    assert volume(cross_polytope_2d()) == 2
    assert volume(standard_simplex_2d()) == QQ(1, 2)


def test_volume_of_min_base_interval():
    # {x : 2x >= -1, -x >= -1} = [-1/2, 1].
    p = Polytope.halfspaces([vec(-2), vec(1)], [QQ(1), QQ(1)])
    assert volume(p) == QQ(3, 2)


def test_degenerate_polytope_has_zero_volume():
    point = Polytope.halfspaces([vec(1), vec(-1)], [QQ(0), QQ(0)])
    assert volume(point) == 0
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    assert volume(segment) == 0


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
        offsets.append(a.dot(mid) + QQ(rng.randint(0, 2)))
    p = Polytope.halfspaces(normals, offsets)
    return p if volume(p) > 0 else None


def test_triangulation_partitions_the_volume():
    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        p = rand_bounded_polytope(rng, n)
        if p is None:
            continue
        simplices = triangulate(p, vertices(p))
        assert sum(simplex_volume(s) for s in simplices) == volume(p)
        for s in simplices:
            assert affine_dim(list(s)) == n
        done += 1


def test_triangulation_of_lower_dimensional_is_empty():
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(1), QQ(0), QQ(0)]
    )
    assert triangulate(segment, vertices(segment)) == []


# ------------------------------------------------------------ integration


def integral(p: Polytope, g: Mat, o: Vec) -> Vec:
    """∫_P (G·x + o) dx = G·∫_P x dx + |P|·o, from one moments pass."""
    vol, first = moments(triangulate(p, vertices(p)))
    return g.matvec(first) + o.scale(vol)


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
            total[r] += vol * sum(g.row(r).dot(v) + o[r] for v in s) / len(s)
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
        simplices = triangulate(p, vertices(p))
        vol, first = moments(simplices)
        assert vol > 0 and vol == sum(simplex_volume(s) for s in simplices)
        for _ in range(3):
            d = rng.randint(1, 3)
            g = Mat(d, n, tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d * n)))
            o = Vec(tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)))
            assert g.matvec(first) + o.scale(vol) == vertex_mean_integral(simplices, g, o)
    # A centrally symmetric body has its centroid at its center.
    assert moments(triangulate(tall_box, vertices(tall_box))) == (18, vec(0, 27, 63))
    cross = cross_polytope_3d()
    assert moments(triangulate(cross, vertices(cross)))[1] == vec(0, 0, 0)
    assert moments([]) == (0, Vec(()))


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
    cross = cross_polytope_2d()
    assert is_bounded(Polytope.halfspaces(cross.normals + (zero,), cross.offsets + (QQ(0),)))


def test_is_bounded_matches_coordinate_lps():
    # Reference: every coordinate has a finite range (2n LPs; an empty
    # polytope is infeasible for each, so it counts as bounded).
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2 * n + 1)
        normals = [Vec(tuple(QQ(rng.randint(-2, 2)) for _ in range(n))) for _ in range(k)]
        offsets = [QQ(rng.randint(-2, 3)) for _ in range(k)]
        p = Polytope.halfspaces(normals, offsets)
        rows = [list(a.entries) for a in normals]
        expected = all(
            _ineq_lp([QQ(s if j == i else 0) for j in range(n)], rows, offsets, [False] * n).status
            != UNBOUNDED
            for i in range(n)
            for s in (1, -1)
        )
        assert is_bounded(p) == expected


def test_interior_point():
    p = interior_point(unit_box(2))
    assert p is not None
    assert unit_box(2).contains(p, strict=True)
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


def test_bounding_box_matches_vertices():
    p = cross_polytope_2d()
    low, high = bounding_box(p)
    assert low == vec(-1, -1) and high == vec(1, 1)


def test_scale_translate():
    p = unit_box(2).scale_translate(QQ(1, 2), vec(1, 1))
    assert volume(p) == QQ(1, 4)
    assert p.contains(vec("5/4", "5/4"))
    assert not p.contains(vec("1/2", "1/2"))
    q = cross_polytope_2d().scale_translate(QQ(2), vec(0, 0))
    assert volume(q) == 8


def test_contains_strict_vs_weak():
    b = unit_box(2)
    assert b.contains(vec(0, 0))
    assert not b.contains(vec(0, 0), strict=True)
    assert b.contains(vec("1/2", "1/2"), strict=True)
    assert not b.contains(vec(2, 0))


def test_contains_on_boxes_matches_rows():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        low = Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
        high = Vec(tuple(l + QQ(rng.randint(0, 4), rng.randint(1, 3)) for l in low))
        box = Polytope.box(low, high)
        as_rows = Polytope.halfspaces(*zip(*box.rows()))
        x = Vec(tuple(QQ(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)))
        for strict in (False, True):
            assert box.contains(x, strict) == as_rows.contains(x, strict)
        for corner in vertices(box):
            assert box.contains(corner) and not box.contains(corner, strict=True)


# ------------------------------------------------- pair pruning and clashes


def test_box_pairs_matches_all_pairs():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        sets = [
            [
                Vec(tuple(QQ(rng.randint(-8, 8), 2) for _ in range(n)))
                for _ in range(rng.randint(0, 3))
            ]
            for _ in range(rng.randint(0, 12))
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
        assert box_pairs(sets) == expected


def rand_polygon(rng: random.Random) -> Polytope:
    """A random box (either kind), a box with cuts, or a triangle."""
    kind = rng.randint(0, 2)
    if kind == 0:
        low = vec(QQ(rng.randint(-4, 4), 2), QQ(rng.randint(-4, 4), 2))
        high = low + vec(QQ(rng.randint(1, 4), 2), QQ(rng.randint(1, 4), 2))
        box = Polytope.box(low, high)
        return box if rng.random() < 0.5 else Polytope.halfspaces(*zip(*box.rows()))
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
        if a.dot(r) > a.dot(p):
            a = -a
        normals.append(a)
        offsets.append(a.dot(p))
    return Polytope.halfspaces(normals, offsets)


def partner(rng: random.Random, p: Polytope) -> Polytope:
    """A second polygon: identical, nested, touching, shifted, far apart
    or unrelated."""
    low, high = bounding_box(p)
    width = high - low
    kind = rng.randint(0, 5)
    if kind == 0:
        return p
    if kind == 1:
        center = interior_point(p)
        return p.scale_translate(QQ(1, 2), center.scale(QQ(1, 2)))
    if kind == 2:
        # Boxes meet on a side or a corner: the polygons touch or miss.
        t = vec(width[0] * rng.choice([-1, 1]), width[1] * rng.randint(-1, 1))
        return p.scale_translate(QQ(1), t)
    if kind == 3:
        t = vec(QQ(rng.randint(-4, 4), 4), QQ(rng.randint(-4, 4), 4))
        return p.scale_translate(QQ(1), t)
    if kind == 4:
        return p.scale_translate(QQ(1), vec(rng.choice([-20, 20]), 3))
    return rand_polygon(rng)


def test_pruning_and_facet_separation_decide_overlap_exactly():
    rng = random.Random(2024)
    seen = {"pruned": 0, "separated": 0, "lp": 0, "overlap": 0}
    for _ in range(300):
        p = rand_polygon(rng)
        q = partner(rng, p)
        pv, qv = vertices(p), vertices(q)
        truth = interiors_intersect(p, q)
        if not box_pairs([pv, qv]):
            decided = False
            seen["pruned"] += 1
        elif facet_separates(p, qv) or facet_separates(q, pv):
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


def test_homothet_clash_matches_the_overlap_lp():
    rng = random.Random(99)
    scales = [QQ(1), QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(2, 3)]
    for name, make in HOMOTHET_BASES.items():
        base = make()
        verts = vertices(base)
        n = base.ambient
        normals = homothet_normals(verts)
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
                base.scale_translate(s1, t1), base.scale_translate(s2, t2)
            )
            assert homothets_overlap(normals, t1, s1, t2, s2) == truth, (name, s1, t1, s2, t2)
            outcomes.append(truth)
        assert 5 <= sum(outcomes) <= 35, name
