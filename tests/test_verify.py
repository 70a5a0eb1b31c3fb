"""Independent verification: round trips and injected faults."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from fractions import Fraction as QQ

import pytest

from inclusionkit.builder import Cell, PiecewiseAffine, assemble_solution
from inclusionkit.cli import main as cli_main
from inclusionkit.errors import Unbounded
from inclusionkit.feasibility import SYMMETRIZED, InclusionProblem, decide
from inclusionkit import geometry, verify
from inclusionkit.geometry import (
    CoverCopy,
    Polytope,
    box_pairs,
    extent,
    faces,
    interior_point,
    is_bounded,
    triangulate,
    vertices,
)
from inclusionkit.linalg import Mat, Vec, mat, vec
from inclusionkit.products import tensor
from inclusionkit.serialize import (
    canonical_dumps,
    encode_polytope,
    encode_report,
    encode_solution,
    load_problem,
    load_solution,
)
from inclusionkit.verify import CHECKS, cell_forms, verify_solution

from test_builder import affine, cell_map
from test_convexity import mat_rows, transpose
from test_geometry import (
    affine_dim,
    copy_frame,
    fraction_det,
    reference_moments,
    scale_translate,
)
from test_feasibility import matrices


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(dot(r, x) for r in mat_rows(a)))


def rational_rows(p: Polytope) -> tuple[tuple[Vec, ...], tuple[QQ, ...]]:
    """P's rows ⟨a; x⟩ ≤ c as (normals, offsets): each integer row over its lcm."""
    rows = list(zip(p.rows, p.lcms))
    normals = tuple(Vec(tuple(QQ(x, m) for x in r[:-1])) for r, m in rows)
    return normals, tuple(QQ(r[-1], m) for r, m in rows)


def interiors_intersect(p: Polytope, q: Polytope) -> bool:
    """Whether int(P) ∩ int(Q) ≠ ∅, by the margin LP on the rows of both."""
    return interior_point(Polytope(p.ambient, p.rows + q.rows, p.lcms + q.lcms)) is not None


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


def scalar_problem():
    return InclusionProblem.gradient([mat([[1]]), mat([[-1]])])


def planar_problem():
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    return InclusionProblem.gradient([mat(r) for r in rows])


def sym_problem():
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    return InclusionProblem.symmetrized(mats)


def solve(problem, delta):
    verdict = decide(problem)
    return assemble_solution(verdict, problem.domain, delta, problem.operator)


def failures(report):
    return [msg for msgs in report.failures.values() for msg in msgs]


# ------------------------------------------------------------ round trips


def test_scalar_round_trip_passes():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    report = verify_solution(p, pw)
    assert report.passed, failures(report)
    assert report.covered == 1
    assert report.omega_measure == 1


def test_planar_round_trip_passes():
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    report = verify_solution(p, pw)
    assert report.passed, failures(report)
    assert report.covered == 1


def test_symmetrized_round_trip_passes():
    p = sym_problem()
    pw = solve(p, QQ(1, 2))
    report = verify_solution(p, pw)
    assert report.passed, failures(report)
    assert report.integral_value == vec(QQ(1, 6), 0)


def test_trivial_tolerance_round_trip_passes():
    p = scalar_problem()
    pw = solve(p, QQ(1))
    assert pw.cells == ()
    report = verify_solution(p, pw)
    assert report.passed, failures(report)
    assert report.covered == 0


def test_delta_override_can_fail_an_honest_solution():
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    # Demand more coverage than the solution was built for.
    report = verify_solution(p, pw, delta=QQ(1, 100))
    if pw.covered < QQ(99, 100):
        assert not report.passed
        assert any("below the bound" in f for f in failures(report))
    else:
        assert report.passed


# --------------------------------------------------------- injected faults


def test_scaled_gradient_is_caught():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    cells = list(pw.cells)
    g, o = affine(cells[0])
    bad = dataclasses.replace(cells[0], map=cell_map(g.scale(QQ(2)), o))
    cells[0] = bad
    broken = dataclasses.replace(pw, cells=tuple(cells))
    report = verify_solution(p, broken)
    assert not report.passed
    msgs = failures(report)
    assert any("not an element of E" in m for m in msgs)


def test_offset_shift_breaks_continuity_or_boundary():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    cells = list(pw.cells)
    g, o = affine(cells[0])
    shifted = dataclasses.replace(cells[0], map=cell_map(g, o + vec(QQ(1, 7))))
    cells[0] = shifted
    broken = dataclasses.replace(pw, cells=tuple(cells))
    report = verify_solution(p, broken)
    assert not report.passed
    msgs = failures(report)
    assert any(
        "value mismatch" in m or "copy boundary" in m or "unshared facet" in m
        for m in msgs
    )


def test_dropped_cell_breaks_the_books():
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    broken = dataclasses.replace(pw, cells=pw.cells[1:])
    report = verify_solution(p, broken)
    assert not report.passed
    msgs = failures(report)
    assert any(
        "measure books" in m or "disagrees with the re-measured" in m or "unshared facet" in m
        for m in msgs
    )


def test_inflated_covered_claim_is_caught():
    p = scalar_problem()
    pw = solve(p, QQ(1, 2))
    broken = dataclasses.replace(
        pw, covered=pw.covered + QQ(1, 8), residual=pw.residual - QQ(1, 8)
    )
    report = verify_solution(p, broken)
    assert not report.passed
    assert any("disagrees with the re-measured" in m for m in failures(report))


def test_alien_gradient_fails_membership():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    cells = list(pw.cells)
    target = next(i for i, c in enumerate(cells) if affine(c)[0] == mat([[1]]))
    # Replace the whole affine piece consistently so only membership trips.
    alien = dataclasses.replace(
        cells[target], map=cell_map(mat([[3]]), affine(cells[target])[1])
    )
    cells[target] = alien
    broken = dataclasses.replace(pw, cells=tuple(cells))
    report = verify_solution(p, broken)
    assert not report.passed
    msgs = failures(report)
    assert any("not an element of E" in m for m in msgs)


def test_overlapping_cells_are_caught():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    cells = list(pw.cells)
    grown = dataclasses.replace(
        cells[0], polytope=scale_translate(cells[0].polytope, QQ(2), vec(0))
    )
    cells[0] = grown
    broken = dataclasses.replace(pw, cells=tuple(cells))
    report = verify_solution(p, broken)
    assert not report.passed


def simplex(verts: list[Vec]) -> Polytope:
    """The hull of n + 1 affinely independent points: for each point, the
    halfspace through the other n that holds it, its normal the cofactors
    of their differences."""
    n = len(verts) - 1
    normals, offsets = [], []
    for k in range(n + 1):
        facet = verts[:k] + verts[k + 1 :]
        rows = [[x - y for x, y in zip(v, facet[0])] for v in facet[1:]]
        a = vec(*[(-1) ** i * fraction_det([r[:i] + r[i + 1 :] for r in rows]) for i in range(n)])
        if dot(a, verts[k]) > dot(a, facet[0]):
            a = -a
        normals.append(a)
        offsets.append(dot(a, facet[0]))
    return Polytope.halfspaces(normals, offsets)


def random_simplex(rng: random.Random, n: int, high: int) -> Polytope:
    while True:
        verts = [vec(*[rng.randint(0, high) for _ in range(n)]) for _ in range(n + 1)]
        if affine_dim(verts) == n:
            return simplex(verts)


def two_cell_file(p: Polytope, q: Polytope) -> PiecewiseAffine:
    """P and Q as cells 0 and 1, both zero, in one copy of a base that is
    Ω, the bounding box of both."""
    n, points = p.ambient, vertices(p) + vertices(q)
    omega = Polytope.box(*(Vec(tuple(map(f, zip(*points)))) for f in (min, max)))
    cells = tuple(Cell(r, (((0,) * (n + 1),), 1), 0) for r in (p, q))
    copies = (CoverCopy((0,) * n, 1, 1),)
    return PiecewiseAffine(
        n, 1, None, vec(1), omega, omega, copies, cells, QQ(0), extent(omega)[1], QQ(1)
    )


def unseparated(p: Polytope, q: Polytope) -> bool:
    """No row of one has every vertex of the other on or beyond it."""
    return not any(
        all(dot(a, v) >= c for v in vertices(y))
        for x, y in ((p, q), (q, p))
        for a, c in zip(*rational_rows(x))
    )


def hand_built_pairs(n: int) -> list[tuple[Polytope, Polytope]]:
    """In the plane: two unit squares side by side, and each against a square
    across their corners.  In n = 3: a tetrahedron below the edge [−e₁, e₁],
    and one above the skew edge [−e₂, e₂] raised to x₃ = h, for h = 0
    (touching edge to edge), 1/2 (apart) and −1/2 (overlapping); no facet
    of either separates them."""
    if n == 2:
        a, b = Polytope.box(vec(0, 0), vec(1, 1)), Polytope.box(vec(1, 0), vec(2, 1))
        c = Polytope.box(vec("1/2", "1/2"), vec("3/2", "3/2"))
        return [(a, b), (a, c), (b, c)]
    if n == 3:
        low = simplex([vec(-1, 0, 0), vec(1, 0, 0), vec(0, 1, -1), vec(0, -1, -1)])
        high = [vec(0, -1, 0), vec(0, 1, 0), vec(1, 0, 1), vec(-1, 0, 1)]
        return [(low, simplex([v + vec(0, 0, h) for v in high])) for h in (0, QQ(1, 2), QQ(-1, 2))]
    return []


# Per n, each hand-built pair's (overlap, unseparated).
HAND_BUILT_OUTCOMES = {
    2: [(False, False), (True, True), (True, True)],
    3: [(False, True), (False, True), (True, True)],
    4: [],
}


@pytest.mark.parametrize("n, high", [(2, 3), (3, 2), (4, 2)])
def test_overlap_is_reported_exactly_when_the_lp_finds_one(n, high):
    # Two-cell files through the verifier, against the margin LP: the pair is
    # reported exactly when the interiors meet.  In the plane a pair that no
    # row separates overlaps; from n = 3 on two such cells can be disjoint.
    e1 = [1] + [0] * (n - 1)
    problem = InclusionProblem.gradient([mat([e1]), mat([[-x for x in e1]])])
    rng = random.Random(36 + n)
    pairs = hand_built_pairs(n) + [
        (random_simplex(rng, n, high), random_simplex(rng, n, high)) for _ in range(120)
    ]
    outcomes = []
    for k, (p, q) in enumerate(pairs):
        truth = interiors_intersect(p, q)
        report = verify_solution(problem, two_cell_file(p, q))
        assert ("cells 0/1: interiors overlap" in report.failures["coverage"]) == truth, k
        outcomes.append((truth, unseparated(p, q)))
    hand_built = HAND_BUILT_OUTCOMES[n]
    assert outcomes[: len(hand_built)] == hand_built
    seen = Counter(outcomes[len(hand_built) :])
    assert seen[True, True] >= 20 and seen[False, False] >= 20, seen
    assert (seen[False, True] >= 1) == (n > 2), seen


def test_zero_mean_symmetrized_fault_is_caught():
    p = sym_problem()
    pw = solve(p, QQ(1, 2))
    flipped = []
    for c in pw.cells:
        g, o = affine(c)
        flipped.append(dataclasses.replace(c, map=cell_map(-g, -o)))
    # Negating u keeps every pointwise constraint but flips the mean; zeroing
    # it out instead is simulated by dropping all cells while keeping claims.
    broken = dataclasses.replace(pw, cells=tuple(flipped))
    report = verify_solution(p, broken)
    # -u still solves the inclusion (E is symmetric) with nonzero mean.
    assert report.passed
    assert report.integral_value == vec(QQ(-1, 6), 0)


def test_malformed_maps_are_not_wellformed():
    # A map with a row too many or too few entries, or a denominator below 1,
    # is the one wellformed line for its cell, and no check reads it further.
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    (row,), m = pw.cells[0].map
    for bad in (((row, row), m), ((row[:-1],), m), ((row + (0,),), m), ((row,), 0)):
        cells = (dataclasses.replace(pw.cells[0], map=bad),) + pw.cells[1:]
        report = verify_solution(p, dataclasses.replace(pw, cells=cells))
        assert report.failures["wellformed"] == ("cell 0: affine data has wrong shape",), bad


def test_reports_do_not_depend_on_lowest_terms():
    # Each map [G | o] over m written as [k·G | k·o] over k·m, k per cell:
    # every check is homogeneous in m, so honest and forged reports are unchanged.
    cases = [(planar_problem(), solve(planar_problem(), QQ(1, 4)))]
    cases.append((sym_problem(), solve(sym_problem(), QQ(1, 2))))
    p, pw = cases[0]
    g, o = affine(pw.cells[0])
    shifted = dataclasses.replace(pw.cells[0], map=cell_map(g, o + vec(QQ(1, 7))))
    cases.append((p, dataclasses.replace(pw, cells=(shifted,) + pw.cells[1:])))
    for p, pw in cases:
        scaled = []
        for i, c in enumerate(pw.cells):
            (rows, m), k = c.map, i % 3 + 2
            rows = tuple(tuple(k * x for x in r) for r in rows)
            scaled.append(dataclasses.replace(c, map=(rows, k * m)))
        report = verify_solution(p, dataclasses.replace(pw, cells=tuple(scaled)))
        assert report == verify_solution(p, pw)
    assert not report.passed


def test_report_bytes_do_not_depend_on_the_spelling_of_omega():
    # The unit box of the problem and of the solution, each also given as
    # its rows; the respelled solution goes through its file.
    box = planar_problem()
    pw = solve(box, QQ(1, 4))
    rows = Polytope.halfspaces(*rational_rows(box.domain))
    problem = InclusionProblem.gradient(matrices(box), rows)
    text = canonical_dumps(encode_solution(dataclasses.replace(pw, omega=rows)))
    assert list(json.loads(text)["omega"]) == ["halfspaces"]
    reports = {
        canonical_dumps(encode_report(verify_solution(p, s)))
        for p in (box, problem)
        for s in (pw, load_solution(text))
    }
    assert len(reports) == 1
    assert json.loads(reports.pop())["pass"]


def test_report_shape():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    report = verify_solution(p, pw)
    assert tuple(report.failures) == CHECKS
    assert all(msgs == () for msgs in report.failures.values())


def test_solution_for_another_domain_is_caught():
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    small = Polytope.box(vec(0, 0), vec(QQ(1, 10), QQ(1, 10)))
    pw = solve(InclusionProblem.gradient([mat(r) for r in rows], small), QQ(1, 4))
    report = verify_solution(planar_problem(), pw)
    assert not report.passed
    assert report.failures["wellformed"]
    assert any("domain differs" in m for m in failures(report))


def test_domain_is_enumerated_only_when_its_rows_differ(monkeypatch):
    """Equal rows are the same set, so only a domain written with other
    rows (here the unit box plus the redundant row x + y ≤ 2) has its
    vertices compared, and the verdict is the same either way.  Each
    ``faces`` call is counted: Ω's measure takes one, the base's normals
    one, and the domain one only when its rows differ from Ω's."""
    calls, real = [], geometry.faces

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(geometry, "faces", counted)
    monkeypatch.setattr(verify, "faces", counted)
    problem = triangle_problem()
    pw = solve(problem, QQ(1, 4))
    assert len(pw.copies) > 1
    calls[:] = []
    assert verify_solution(problem, pw).passed
    assert (calls.count(pw.omega), calls.count(pw.base)) == (1, 1)
    normals, offsets = rational_rows(problem.domain)
    redundant = Polytope.halfspaces([*normals, vec(1, 1)], [*offsets, QQ(2)])
    same_set = InclusionProblem.gradient(list(matrices(problem)), redundant)
    calls[:] = []
    assert verify_solution(same_set, pw).passed
    assert [calls.count(p) for p in (pw.omega, redundant, pw.base)] == [1, 1, 1]


def test_boundedness_is_decided_once_per_normal_direction_list(monkeypatch, tmp_path):
    """Cells of one shape in different copies share their normal directions,
    but their integer rows carry the copies' offset denominators: the δ = 1/8
    triangle file takes one positive-span LP for the base and one per cell
    shape, not one per cell."""
    calls = []
    spans = verify.normals_positively_span
    monkeypatch.setattr(verify, "normals_positively_span", lambda p: calls.append(p) or spans(p))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(TRIANGLE_FILE_PROBLEM))
    path = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem), "--delta", "1/8", "--out", str(path)]) == 0
    pw = load_solution(path.read_text())
    assert len(pw.cells) == 327
    assert verify_solution(load_problem(problem.read_text()), pw).passed
    assert len(calls) == 4


# The triangle problem with the factor 2e₁ for e₁: its base's vertices lie
# over the denominator 2, the other bases' over 1.
HALF_TRIANGLE_PROBLEM = {
    "operator": "gradient",
    "m": 2,
    "n": 2,
    "E": [["2", "0", "4", "0"], ["0", "1", "0", "2"], ["-1", "-1", "-2", "-2"]],
}


@pytest.mark.parametrize("name, listed", [("triangle", 1949), ("half-triangle", 1890)])
def test_pairs_are_visited_by_copy(name, listed, monkeypatch, tmp_path):
    """Each δ = 1/8 file has 109 copies of 3 cells each; the triangle's lists
    1,949 cell pairs, 1,622 of them across two copies.  Sign tables are taken
    only for the domain and copy checks (327 each) and for the 3 pairs of the
    first copy (2 each): 660 in all.  Every cross-copy pair joins two disjoint
    copies and is skipped, and every other copy's pairs pull back to the
    first copy's.  Visiting every listed pair took 4,552 on the triangle."""
    tables, overlaps = [], []
    signs, overlap = verify.sign_table, verify.homothets_overlap
    monkeypatch.setattr(verify, "sign_table", lambda r, p: tables.append(r) or signs(r, p))
    monkeypatch.setattr(
        verify, "homothets_overlap", lambda *args: overlaps.append(args) or overlap(*args)
    )
    problem = tmp_path / "problem.json"
    problems = {"triangle": TRIANGLE_FILE_PROBLEM, "half-triangle": HALF_TRIANGLE_PROBLEM}
    problem.write_text(json.dumps(problems[name]))
    path = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem), "--delta", "1/8", "--out", str(path)]) == 0
    pw = load_solution(path.read_text())
    assert (len(pw.copies), len(pw.cells)) == (109, 327)
    tables.clear()
    assert verify_solution(load_problem(problem.read_text()), pw).passed
    assert len(tables) == 660
    # One copy test per pair of copies that some listed cell pair joins.
    pairs = box_pairs([form.points for form in cell_forms(pw)])
    copies = {(pw.cells[i].copy, pw.cells[j].copy) for i, j in pairs}
    assert (len(pairs), len(overlaps)) == (listed, len({(a, b) for a, b in copies if a != b}))


def test_copies_are_not_cleared_per_cell(monkeypatch, tmp_path):
    """Verifying the δ = 1/8 triangle file (109 copies, 327 cells) clears
    nothing: a copy and a cell's map arrive as their integers.  Clearing each
    copy's centre and scale once and again per cell took 763
    ``integer_points`` calls, and clearing each cell's map took 327.  The
    verifier no longer imports ``integer_points`` at all."""
    calls = []
    real = geometry.integer_points
    monkeypatch.setattr(geometry, "integer_points", lambda p: calls.append(p) or real(p))
    assert not hasattr(verify, "integer_points")
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(TRIANGLE_FILE_PROBLEM))
    path = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem), "--delta", "1/8", "--out", str(path)]) == 0
    pw = load_solution(path.read_text())
    assert (len(pw.copies), len(pw.cells)) == (109, 327)
    calls.clear()
    assert verify_solution(load_problem(problem.read_text()), pw).passed
    assert len(calls) == 0


def triangle_problem():
    return InclusionProblem.gradient([mat([[1, 0]]), mat([[0, 1]]), mat([[-1, -1]])])


def unbounded_forgery(cell):
    """Replace facet BC of the triangular cell ABC by two halfspaces through
    B and C, both parallel to (B+C)/2 - A: an unbounded region with the
    same three vertices."""
    sides = list(zip(*rational_rows(cell.polytope)))[:-1]
    verts = vertices(cell.polytope)
    apex = next(v for v in verts if all(dot(a, v) == c for a, c in sides))
    b, c = (v for v in verts if v != apex)
    d = (b + c).scale(QQ(1, 2)) - apex
    normal = vec(-d[1], d[0])
    for p in (b, c):
        sign = 1 if dot(normal, apex) <= dot(normal, p) else -1
        sides.append((normal.scale(QQ(sign)), sign * dot(normal, p)))
    region = Polytope.halfspaces([a for a, _ in sides], [c for _, c in sides])
    assert vertices(region) == verts and not is_bounded(region)
    return dataclasses.replace(cell, polytope=region)


def test_unbounded_cell_is_caught():
    p = triangle_problem()
    pw = solve(p, QQ(1, 2))
    for i in range(len(pw.cells)):
        cells = list(pw.cells)
        cells[i] = unbounded_forgery(cells[i])
        report = verify_solution(p, dataclasses.replace(pw, cells=tuple(cells)))
        assert not report.passed
        assert f"cell {i}: unbounded region" in report.failures["wellformed"]


def test_region_with_zero_normals_fails_wellformed():
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    zero = vec(0, 0)
    cell = pw.cells[0]
    normals, offsets = rational_rows(cell.polytope)
    padded = Polytope.halfspaces(normals + (zero,), offsets + (QQ(1),))
    only_zero = Polytope.halfspaces([zero], [QQ(1)])
    for region in (padded, only_zero):
        cells = (dataclasses.replace(cell, polytope=region),) + pw.cells[1:]
        report = verify_solution(p, dataclasses.replace(pw, cells=cells))
        assert report.failures["wellformed"]
        assert "cell 0: unbounded region" in report.failures["wellformed"]
    report = verify_solution(p, dataclasses.replace(pw, base=only_zero))
    assert "base polytope is unbounded" in report.failures["wellformed"]


def test_a_cell_without_volume_has_a_zero_integral():
    # A segment, and a cell with the row 0·x ≤ 0 (tight at every vertex),
    # have no facets: no simplices, no centroid, zero measure and a zero
    # integral, in ``cell_forms`` and the report alike.
    p = triangle_problem()
    pw = solve(p, QQ(1, 4))
    cell = pw.cells[4]
    segment = Polytope.halfspaces(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], [QQ(1), QQ(0), QQ(0), QQ(0)]
    )
    normals, offsets = rational_rows(cell.polytope)
    flat = Polytope.halfspaces(normals + (vec(0, 0),), offsets + (QQ(0),))
    rest = verify_solution(p, dataclasses.replace(pw, cells=pw.cells[:4] + pw.cells[5:]))
    for region in (segment, flat):
        cells = pw.cells[:4] + (dataclasses.replace(cell, polytope=region),) + pw.cells[5:]
        forged = dataclasses.replace(pw, cells=cells)
        form = cell_forms(forged)[4]
        assert (form.measure, form.simplices, form.integral) == (0, [], vec(0))
        assert verify_solution(p, forged).integral_value == rest.integral_value != vec(0)


# ------------------------------------------- forged files, pinned reports

# The triangle problem E = {b⊗f : f ∈ {e₁, e₂, −e₁−e₂}}, b = (1, 2); at
# δ = 1/4 its solution has 9 copies and 27 cells.
TRIANGLE_FILE_PROBLEM = {
    "operator": "gradient",
    "m": 2,
    "n": 2,
    "E": [["1", "0", "2", "0"], ["0", "1", "0", "2"], ["-1", "-1", "-2", "-2"]],
}


def translate_cell(cell, t):
    """Move a serialized cell by t, values and all: offsets c ↦ c + ⟨a; t⟩
    and u ↦ u − G·t."""
    region = cell["region"]["halfspaces"]
    region["offsets"] = [
        str(QQ(c) + sum(QQ(a) * x for a, x in zip(normal, t)))
        for normal, c in zip(region["normals"], region["offsets"])
    ]
    cell["offset"] = [
        str(QQ(o) - sum(QQ(g) * x for g, x in zip(row, t)))
        for row, o in zip(cell["gradient"], cell["offset"])
    ]


def centroid(cell):
    region = cell["region"]["halfspaces"]
    poly = Polytope.halfspaces(
        [vec(*a) for a in region["normals"]], [QQ(c) for c in region["offsets"]]
    )
    verts = vertices(poly)
    return [sum(v[k] for v in verts) / len(verts) for k in range(2)]


def forge_duplicate(sol):
    sol["cells"].insert(5, copy.deepcopy(sol["cells"][4]))


def forge_nudge(sol):
    translate_cell(sol["cells"][0], [QQ(1, 1000), QQ(0)])


def forge_last_onto_first(sol):
    first, last = centroid(sol["cells"][0]), centroid(sol["cells"][-1])
    translate_cell(sol["cells"][-1], [f - l for f, l in zip(first, last)])


def forge_double_gradient(sol):
    cell = sol["cells"][13]
    cell["gradient"] = [[str(2 * QQ(x)) for x in row] for row in cell["gradient"]]
    cell["offset"] = [str(2 * QQ(x)) for x in cell["offset"]]


# SHA-256 of the canonical report of each forgery, recorded before the
# verifier pruned its cell pairs by bounding box and facet separation.
FORGED_REPORT_SHA256 = {
    "duplicate": "91599bd08211eb787bbc3e2d72659e09ec0e8997eab162879a7218b748a85d80",
    "nudge": "29b985ac72d03cf6e09ff212341469bd2f790493bc04a08e285a99961564f10f",
    "last-onto-first": "ba999f4a175ab91193e963e7835e0df44c4ad5e570269a82cf5fa2d2407036d6",
    "double-gradient": "3c83807b4a16f16bdf235044b761bb15ec203b790f5ad45a3a56e0267793e744",
}
FORGERIES = {
    "duplicate": forge_duplicate,
    "nudge": forge_nudge,
    "last-onto-first": forge_last_onto_first,
    "double-gradient": forge_double_gradient,
}


def test_forged_triangle_files_fail_with_pinned_reports(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(TRIANGLE_FILE_PROBLEM))
    honest = tmp_path / "honest.json"
    code = cli_main(["construct", str(problem), "--delta", "1/4", "--out", str(honest)])
    assert code == 0
    solution = json.loads(honest.read_text())
    assert len(solution["cells"]) == 27
    for name, forge in FORGERIES.items():
        forged = copy.deepcopy(solution)
        forge(forged)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(forged))
        capsys.readouterr()
        code = cli_main(["verify", str(problem), str(path)])
        report = capsys.readouterr().out
        assert code == 11, (name, report)
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == FORGED_REPORT_SHA256[name], (name, digest, report)


# ------------------------------------------- honest files, pinned reports

HEXAGON = {  # |x| <= 1, |y| <= 1, |x + y| <= 1
    "halfspaces": {
        "normals": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]],
        "offsets": ["1"] * 6,
    }
}
UNIT_VECTORS_2 = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
UNIT_VECTORS_3 = [
    ["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"],
    ["0", "-1", "0"], ["0", "0", "1"], ["0", "0", "-1"],
]

# name -> (problem, δ, cells, SHA-256 of the canonical verify report).
# The symmetrized triangle is E = {f∨b : f ∈ {e₁, e₂, −e₁−e₂}}, b = (1, 2).
# The digests were recorded before each cell's measure and integral came
# from one moments pass.
HONEST_FILES = {
    "sym-triangle": (
        {
            "operator": "symmetrized",
            "n": 2,
            "E": [["2", "2", "2", "0"], ["0", "1", "1", "4"], ["-2", "-3", "-3", "-4"]],
        },
        "1/4",
        27,
        "699f6b80839f38191be69f735a9bb397493d8ad5a60971d72638ba71d562a9ff",
    ),
    "square-hexagon": (
        {"operator": "gradient", "m": 1, "n": 2, "E": UNIT_VECTORS_2, "domain": HEXAGON},
        "1/8",
        24,
        "e2ed2f6e91122271d22e06c20fdd9a4741708915892e0edaea57d193280a5e02",
    ),
    "cube": (
        {"operator": "gradient", "m": 1, "n": 3, "E": UNIT_VECTORS_3},
        "1/4",
        6,
        "86c6bcc5a15c0db643000f80dfd479aacdb63a91bce2ca46c79c653fa311efb2",
    ),
}


@pytest.mark.parametrize("name", sorted(HONEST_FILES))
def test_honest_files_pass_with_pinned_reports(name, tmp_path, capsys):
    problem_json, delta, n_cells, expected = HONEST_FILES[name]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(problem_json))
    solution = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem), "--delta", delta, "--out", str(solution)]) == 0
    assert len(json.loads(solution.read_text())["cells"]) == n_cells
    capsys.readouterr()
    code = cli_main(["verify", str(problem), str(solution)])
    report = capsys.readouterr().out
    assert code == 0, report
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == expected, (name, digest, report)


def sym_triangle_solution():
    """The symmetrized triangle of ``HONEST_FILES`` and its solution at δ = 1/4."""
    problem = load_problem(json.dumps(HONEST_FILES["sym-triangle"][0]))
    return problem, solve(problem, QQ(1, 4))


def test_symmetrized_solution_with_zero_maps_integrates_to_zero():
    # Every map set to zero: u = 0 is continuous and zero on every boundary,
    # its gradient 0 is no element of E, and its integral is zero.
    problem, pw = sym_triangle_solution()
    n, d = pw.ambient, pw.value_dim
    zero = (((0,) * (n + 1),) * d, 1)
    cells = tuple(dataclasses.replace(c, map=zero) for c in pw.cells)
    report = verify_solution(problem, dataclasses.replace(pw, cells=cells))
    assert report.integral_value.is_zero()
    assert report.failures["integral"] == ("symmetrized solution integrates to zero",)
    assert report.failures["membership"] == tuple(
        f"cell {i}: gradient image is not an element of E" for i in range(len(cells))
    )
    assert [name for name in CHECKS if report.failures[name]] == ["membership", "integral"]


def test_gradient_that_is_not_square_fails_the_symmetrized_operator():
    # A scalar solution (1 × 2 gradients) checked against the symmetrized
    # triangle on the same domain: membership fails on every cell, and only there.
    problem = sym_triangle_solution()[0]
    pw = solve(triangle_problem(), QQ(1, 4))
    report = verify_solution(problem, pw)
    assert report.failures["membership"] == tuple(
        f"cell {i}: gradient is not square under the symmetrized operator"
        for i in range(len(pw.cells))
    )
    assert [name for name in CHECKS if report.failures[name]] == ["membership"]


def test_unbounded_omega_raises_and_exits_2(tmp_path, capsys):
    quadrant = Polytope.halfspaces([vec(-1, 0), vec(0, -1)], [QQ(0), QQ(0)])
    problem = triangle_problem()
    pw = solve(problem, QQ(1, 4))
    with pytest.raises(Unbounded, match="^polytope is unbounded$"):
        verify_solution(problem, dataclasses.replace(pw, omega=quadrant))
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(TRIANGLE_FILE_PROBLEM))
    solution = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem_path), "--delta", "1/4", "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    doc["omega"] = encode_polytope(quadrant)
    solution.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", str(problem_path), str(solution)]) == 2
    assert capsys.readouterr() == ("", "invalid input: polytope is unbounded\n")


def test_empty_omega_is_bounded_and_fails_verify(tmp_path, capsys):
    # The strip's normals do not positively span the plane, so is_bounded's
    # margin program decides: it finds Ω empty, which counts as bounded, and
    # the report fails on an Ω of measure 0 instead of raising.
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(TRIANGLE_FILE_PROBLEM))
    solution = tmp_path / "solution.json"
    assert cli_main(["construct", str(problem_path), "--delta", "1/4", "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    strip = Polytope.halfspaces([vec(1, 0), vec(-1, 0)], [QQ(0), QQ(-1)])
    doc["omega"] = encode_polytope(strip)
    solution.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", str(problem_path), str(solution)]) == 11
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["omega_measure"] == "0"
    assert report["checks"]["wellformed"]["failures"][0] == (
        "domain differs from the problem's domain"
    )


# ------------------------------------------------ seeded mutants, pinned

# Each mutant varies one thing of an honest file: an entry of a cell's
# offset or gradient, an offset or a normal entry of a cell's region, a
# duplicated cell, or an entry of a copy's center.
MUTANT_BASES = {
    "triangle": (TRIANGLE_FILE_PROBLEM, "1/4"),
    **{name: HONEST_FILES[name][:2] for name in HONEST_FILES},
}
MUTATIONS = ("offset", "gradient", "region-offset", "region-normal", "duplicate", "copy-center")
MUTANTS_PER_FILE = 16
STEPS = (QQ(1, 2), QQ(-1, 2), QQ(1, 3), QQ(-1, 5), QQ(1, 100), QQ(-1))


def bump(entries, rng):
    k = rng.randrange(len(entries))
    entries[k] = str(QQ(entries[k]) + rng.choice(STEPS))


def mutate(solution, rng):
    kind = rng.choice(MUTATIONS)
    cells = solution["cells"]
    cell = rng.choice(cells)
    region = cell["region"]["halfspaces"]
    if kind == "offset":
        bump(cell["offset"], rng)
    elif kind == "gradient":
        bump(rng.choice(cell["gradient"]), rng)
    elif kind == "region-offset":
        bump(region["offsets"], rng)
    elif kind == "region-normal":
        bump(rng.choice(region["normals"]), rng)
    elif kind == "duplicate":
        cells.insert(rng.randrange(len(cells) + 1), copy.deepcopy(cell))
    else:
        bump(rng.choice(solution["copies"])["center"], rng)


# SHA-256 of the concatenated canonical reports of each file's mutants
# (the error class and message where verification raises), recorded
# before the verifier visited each cell pair once.
MUTANT_REPORTS_SHA256 = {
    "cube": "735a955c3d0dc188c82e047f33c9af06a8bb4ed3bbdcb6e03c5eda7b5f93f8cc",
    "square-hexagon": "bd95924eb3ecef51c64ce6b8bdd08980e8caeeb5607c69a1377e495160c645f7",
    "sym-triangle": "2ae6ed9474695147c1a69adcb31cb4a6fc10e3fe1b0dd3014446851ca338f48b",
    "triangle": "4794b55101337a188304c431a8fab2c185b9230dc1a3e6917e6fa8da15cc3877",
}


def mutant_reports(mutate, per_file):
    """Per honest file, the SHA-256 of the concatenated canonical reports
    of ``per_file`` seeded mutants (the error class and message where
    verification raises), and how many mutants fail each check."""
    failed = dict.fromkeys(CHECKS, 0)
    digests = {}
    for seed, (name, (problem_json, delta)) in enumerate(sorted(MUTANT_BASES.items())):
        problem = load_problem(json.dumps(problem_json))
        honest = json.dumps(encode_solution(solve(problem, QQ(delta))))
        rng = random.Random(seed)
        texts = []
        for _ in range(per_file):
            solution = json.loads(honest)
            mutate(solution, rng)
            try:
                report = verify_solution(problem, load_solution(json.dumps(solution)))
            except Exception as exc:  # pinned by its class and message
                texts.append(f"{type(exc).__name__}: {exc}\n")
                continue
            texts.append(canonical_dumps(encode_report(report)))
            for check in CHECKS:
                failed[check] += bool(report.failures[check])
            # Equal values at every shared vertex give the one reduced jump
            # (0, ..., 0, 1), so hadamard fails only for a pair that fails continuity.
            hadamard, continuity = (
                {x.split(":")[0] for x in report.failures[c]} for c in ("hadamard", "continuity")
            )
            assert hadamard <= continuity, (name, report.failures)
        digests[name] = hashlib.sha256("".join(texts).encode()).hexdigest()
    return digests, failed


def test_seeded_mutants_give_pinned_reports():
    digests, failed = mutant_reports(mutate, MUTANTS_PER_FILE)
    assert digests == MUTANT_REPORTS_SHA256
    assert all(failed[check] >= 3 for check in CHECKS if check != "integral"), failed


# The second set varies what the first leaves alone: it drops a cell
# (its neighbours' facets become unshared), swaps two cells, moves a cell
# to another copy index (one past the last included), rescales a copy, or
# changes the claimed covered measure, the residual or δ.
LAYOUT_MUTATIONS = ("drop", "swap", "copy-index", "copy-scale", "books")
LAYOUT_MUTANTS_PER_FILE = 10
SCALES = (QQ(1, 2), QQ(3, 4), QQ(5, 4), QQ(2))


def mutate_layout(solution, rng):
    kind = rng.choice(LAYOUT_MUTATIONS)
    cells, copies = solution["cells"], solution["copies"]
    if kind == "drop":
        del cells[rng.randrange(len(cells))]
    elif kind == "swap":
        i, j = rng.sample(range(len(cells)), 2)
        cells[i], cells[j] = cells[j], cells[i]
    elif kind == "copy-index":
        cell = rng.choice(cells)
        cell["copy"] = rng.choice([k for k in range(len(copies) + 1) if k != cell["copy"]])
    elif kind == "copy-scale":
        c = rng.choice(copies)
        c["scale"] = str(QQ(c["scale"]) * rng.choice(SCALES))
    else:
        key = rng.choice(("covered", "residual", "delta"))
        solution[key] = str(QQ(solution[key]) + rng.choice(STEPS))


# Recorded before each cell's facets came from its one vertex sign table.
LAYOUT_MUTANT_REPORTS_SHA256 = {
    "cube": "6e151c1c00222ab5d44d1ea8ed50282f1bc47f63d0aadf68b9bb1d78257a103f",
    "square-hexagon": "d024392c0dc834e3308caaea75795b6636cbf6a83229fc051d33adf75c455ed9",
    "sym-triangle": "d0b30822ac5dd8e981e52b1f91a06c1029e264442ca6bc2a4bb720851db09b3f",
    "triangle": "548fb0ae976da2a7f5c75527727b662a51e2b5633d7296bf174ad3d962614c77",
}


def test_seeded_layout_mutants_give_pinned_reports():
    digests, failed = mutant_reports(mutate_layout, LAYOUT_MUTANTS_PER_FILE)
    assert digests == LAYOUT_MUTANT_REPORTS_SHA256
    assert failed["boundary"] >= 3 and failed["coverage"] >= 3, failed


# ------------------------------------- a naive reference verifier, agreed

def reference_failing_checks(problem, pw):
    """The names of the checks a solution fails, by the verifier's rules read
    naively: every pair of cells gets the margin LP (``interiors_intersect``),
    every containment and value is a plain ``Fraction`` comparison, a facet is
    a row's tight vertex set of affine dimension n − 1, and nothing is pruned,
    tabled or memoized."""
    n, d = pw.ambient, pw.value_dim
    failed = set()

    def inside(p, v, strict=False):
        return all(dot(a, v) < c if strict else dot(a, v) <= c for a, c in zip(*rational_rows(p)))

    def value(cell, v):
        g, o = affine(cell)
        return matvec(g, v) + o

    if vertices(pw.omega) != vertices(problem.domain):
        failed.add("wellformed")

    def bounded(p):
        return not any(a.is_zero() for a in rational_rows(p)[0]) and is_bounded(p)

    if not bounded(pw.base):
        failed.add("wellformed")
    cells = list(pw.cells)
    # formed: shaped affine data on a bounded region; usable: formed,
    # full-dimensional and inside Ω.
    formed, usable, verts, facets = [], [], {}, {}
    for i, cell in enumerate(cells):
        rows, m = cell.map
        if len(rows) != d or any(len(r) != n + 1 for r in rows) or m < 1:
            failed.add("wellformed")
            continue
        if not bounded(cell.polytope):
            failed.add("wellformed")
            continue
        formed.append(i)
        verts[i] = vertices(cell.polytope)
        if extent(cell.polytope)[1] == 0 or not all(inside(pw.omega, v) for v in verts[i]):
            failed.add("wellformed")
            continue
        usable.append(i)
        tight = {
            frozenset(k for k, v in enumerate(verts[i]) if dot(a, v) == c)
            for a, c in zip(*rational_rows(cell.polytope))
        }
        facets[i] = [t for t in tight if affine_dim([verts[i][k] for k in t]) == n - 1]

    for i in usable:
        g = affine(cells[i])[0]
        if problem.operator == SYMMETRIZED:
            if g.rows != g.cols:
                failed.add("membership")
                continue
            g = g + transpose(g)
        if g not in set(matrices(problem)):
            failed.add("membership")

    # within[i, j]: the indices of the vertices of usable cell i in usable cell j.
    within = {}
    for i, j in combinations(formed, 2):
        if interiors_intersect(cells[i].polytope, cells[j].polytope):
            failed.add("coverage")
        if i not in usable or j not in usable:
            continue
        jumps = {}
        for owner, other in ((i, j), (j, i)):
            within[owner, other] = {
                k for k, v in enumerate(verts[owner]) if inside(cells[other].polytope, v)
            }
            for k in within[owner, other]:
                v = verts[owner][k]
                if value(cells[owner], v) != value(cells[other], v):
                    failed.add("continuity")
                jumps[v] = value(cells[i], v) - value(cells[j], v)
        if len(set(jumps.values())) > 1 and affine_dim(list(jumps)) == n - 1:
            failed.add("hadamard")

    for i in usable:
        cell = cells[i]
        if not 0 <= cell.copy < len(pw.copies):
            failed.add("boundary")
            continue
        copy_ = pw.copies[cell.copy]
        region = scale_translate(pw.base, *copy_frame(copy_))
        for v in verts[i]:
            if not inside(region, v):
                failed.add("boundary")
            elif not inside(region, v, strict=True) and not value(cell, v).is_zero():
                failed.add("boundary")
        for facet in facets[i]:
            shared = any(facet <= within[i, j] for j in usable if j != i)
            if not shared and any(not value(cell, verts[i][k]).is_zero() for k in facet):
                failed.add("boundary")

    omega = extent(pw.omega)[1]
    covered = sum((extent(cells[i].polytope)[1] for i in formed), QQ(0))
    if covered != pw.covered or covered + pw.residual != omega:
        failed.add("coverage")
    if covered < (1 - pw.delta) * omega:
        failed.add("coverage")

    total = vec(*[0] * d)
    for i in formed:
        measure, first = reference_moments(verts[i], triangulate(*faces(cells[i].polytope)))
        if measure:
            g, o = affine(cells[i])
            total = total + matvec(g, first) + o.scale(measure)
    if problem.operator == SYMMETRIZED and cells and total.is_zero():
        failed.add("integral")
    return failed


def dot(a, x):
    return sum(QQ(u) * v for u, v in zip(a, x))


def move_copy(solution, k, shift, factor):
    """Map copy k and its cells by x ↦ c + factor·(x − c) + shift, c its
    center, values and all: u(x) = s·v((x − c)/s) on the copy, so a cell's
    offset o becomes factor·(o + G·c) − G·c′ for the new center c′."""
    copy_ = solution["copies"][k]
    center = [QQ(x) for x in copy_["center"]]
    moved = [c + t for c, t in zip(center, shift)]
    copy_["center"], copy_["scale"] = [str(x) for x in moved], str(QQ(copy_["scale"]) * factor)
    for cell in solution["cells"]:
        if cell["copy"] != k:
            continue
        region = cell["region"]["halfspaces"]
        region["offsets"] = [
            str(factor * (QQ(c) - dot(a, center)) + dot(a, moved))
            for a, c in zip(region["normals"], region["offsets"])
        ]
        cell["offset"] = [
            str(factor * (QQ(o) + dot(g, center)) - dot(g, moved))
            for g, o in zip(cell["gradient"], cell["offset"])
        ]


def forge_huge_scale(solution):
    solution["copies"][1]["scale"] = str(10**400)


def forge_duplicate_copy(solution):
    # A copy of copy 0 appended, and copy 0's second cell moved onto it.
    solution["copies"].append(copy.deepcopy(solution["copies"][0]))
    solution["cells"][1]["copy"] = len(solution["copies"]) - 1


def forge_centre_onto_neighbour(solution):
    # Copy 1 and its cells, values and all, moved onto copy 0's centre.
    first, second = ([QQ(x) for x in c["center"]] for c in solution["copies"][:2])
    move_copy(solution, 1, [a - b for a, b in zip(first, second)], QQ(1))


def forge_cell_to_another_copy(solution):
    cell = solution["cells"][4]
    cell["copy"] = (cell["copy"] + 1) % len(solution["copies"])


def forge_base_without_facets(solution):
    # The base's rows and 0·x ≤ 0, tight everywhere: the same set, no facet.
    base = solution["base"]["halfspaces"]
    base["normals"].append(["0"] * len(base["normals"][0]))
    base["offsets"].append("0")


def forge_unbounded_base(solution):
    # An unbounded base whose vertices, (−1, 0), (−3/4, −3/4) and (0, −1), span
    # a small triangle near its corner, and copy 1 moved onto copy 0's centre.
    solution["base"] = {"halfspaces": {
        "normals": [["-1", "0"], ["0", "-1"], ["-3", "-1"], ["-1", "-3"]],
        "offsets": ["1", "1", "3", "3"],
    }}
    forge_centre_onto_neighbour(solution)


def split_cells(solution):
    """Cut every cell at half its height along its last row ⟨−f; x⟩ ≤ c, as
    ``assemble_solution`` writes it, into an inner and an outer cell with the
    same map.  The inner cells form the pyramid of half the scale, and none of
    their vertices lies on the copy's boundary."""
    cells = []
    for cell in solution["cells"]:
        region = cell["region"]["halfspaces"]
        cut = QQ(region["offsets"][-1]) - QQ(solution["copies"][cell["copy"]]["scale"]) / 2
        inner, outer = copy.deepcopy(cell), copy.deepcopy(cell)
        inner["region"]["halfspaces"]["offsets"][-1] = str(cut)
        outer["region"]["halfspaces"]["normals"].append([str(-QQ(x)) for x in region["normals"][-1]])
        outer["region"]["halfspaces"]["offsets"].append(str(-cut))
        cells += [inner, outer]
    solution["cells"] = cells


def forge_inner_offset(solution):
    # The split file with the value of one inner cell of copy 1 raised by 1/7:
    # it stays clean, and pulls back like copy 0's cell but for its map.
    split_cells(solution)
    cell = next(cell for cell in solution["cells"] if cell["copy"] == 1)
    cell["offset"] = [str(QQ(x) + QQ(1, 7)) for x in cell["offset"]]


COPY_FORGERIES = {
    "huge-scale": forge_huge_scale,
    "duplicate-copy": forge_duplicate_copy,
    "centre-onto-neighbour": forge_centre_onto_neighbour,
    "cell-to-another-copy": forge_cell_to_another_copy,
    "base-without-facets": forge_base_without_facets,
    "unbounded-base": forge_unbounded_base,
    "split-cells": split_cells,
    "inner-offset": forge_inner_offset,
}
# (file, forgery) -> SHA-256 of the canonical report, recorded before the
# verifier skipped any cell pair by its copies.  Copy 1 at scale 10⁴⁰⁰, the
# duplicate copy and the split cells pass with the honest file's report; the
# moved copy overlaps copy 0, and its cross-copy pairs fail, on either base.
COPY_FORGERY_FILES = {
    "triangle": MUTANT_BASES["triangle"],
    "square-hexagon": MUTANT_BASES["square-hexagon"],
    "half-triangle": (HALF_TRIANGLE_PROBLEM, "1/4"),
}
COPY_FORGERY_REPORT_SHA256 = {
    ("triangle", "huge-scale"): "699f6b80839f38191be69f735a9bb397493d8ad5a60971d72638ba71d562a9ff",
    ("triangle", "duplicate-copy"): "699f6b80839f38191be69f735a9bb397493d8ad5a60971d72638ba71d562a9ff",
    ("triangle", "centre-onto-neighbour"): "54d0b245d343525dcee2a608b1a8f259d9a69ac728a502e95604b49aa4290109",
    ("triangle", "cell-to-another-copy"): "b34f3a4c44f70dd29f6ffef72e6b00e259ec134caf34d51a6019244ad6fbec53",
    ("triangle", "base-without-facets"): "42eb0078fbee14052b3b9e5e087b92cb7d79e0d39a0c5f34c10321dc8f33adce",
    ("triangle", "unbounded-base"): "7841166674f40d62a1d3f068212d1da18651e3cbf641574e6dac837025f013e6",
    ("triangle", "split-cells"): "699f6b80839f38191be69f735a9bb397493d8ad5a60971d72638ba71d562a9ff",
    ("triangle", "inner-offset"): "9be7446966711b59e1ab70e14f072a1b142342ba0ba3c65f1359eb71696fe41d",
    ("square-hexagon", "huge-scale"): "e2ed2f6e91122271d22e06c20fdd9a4741708915892e0edaea57d193280a5e02",
    ("square-hexagon", "duplicate-copy"): "e2ed2f6e91122271d22e06c20fdd9a4741708915892e0edaea57d193280a5e02",
    ("square-hexagon", "centre-onto-neighbour"): "3feb44f846e650d736d15b30e3267ec8370d1bfdbf01f89ccabe512ed4a8c5ef",
    ("square-hexagon", "cell-to-another-copy"): "b3f8a37236ef8b6b1fb50911fe7f15c91a435833ef537078059b889458fe0d16",
    ("square-hexagon", "base-without-facets"): "328b7bd9a6edd1302d51f0613202a73cf8271d9c31285c40e86e2e95b26fb4f4",
    ("square-hexagon", "unbounded-base"): "e39f0323a9ad15b769cfaa5fd3b192cf82627d2806aef38136bacd990805d528",
    ("square-hexagon", "split-cells"): "e2ed2f6e91122271d22e06c20fdd9a4741708915892e0edaea57d193280a5e02",
    ("square-hexagon", "inner-offset"): "4ccf617b4aa61ff559e8eb2447534bf246159b7da26ba3f69dddad68e776142f",
    ("half-triangle", "huge-scale"): "01c8bdb5e021be1c86ff1a6801f6b917f03b548a3dea46596782eab2860f44b4",
    ("half-triangle", "duplicate-copy"): "01c8bdb5e021be1c86ff1a6801f6b917f03b548a3dea46596782eab2860f44b4",
    ("half-triangle", "centre-onto-neighbour"): "d97a39c29b4a4b42eb37e79e82b0ab9b27d16e50e87f3f21f1aa13127e9af847",
    ("half-triangle", "cell-to-another-copy"): "1c37ed48a182846e3863231ddb7bb45329706618c967f2a1b09ef52a803ce4a2",
    ("half-triangle", "base-without-facets"): "8f4d7a0ee1c3ba09c6572a0bc62694ef54d04920df33408c20c058f29e82165a",
    ("half-triangle", "unbounded-base"): "3ed9b47446e28c057b100022be5969d30455bb5a612748e4ca6f7442e50209b1",
    ("half-triangle", "split-cells"): "01c8bdb5e021be1c86ff1a6801f6b917f03b548a3dea46596782eab2860f44b4",
    ("half-triangle", "inner-offset"): "da4ed1f47bf9d8a88197a88ccfb65b81fcc68a57ade954c34729bb6cb0978166",
}


def test_forged_copy_records_never_make_a_pair_pass():
    """The copy lemma skips a pair only for clean cells of two disjoint
    copies, and the pair memo serves only cells that pull back alike in one
    copy: forged copy records, forged bases and a forged map inside one copy
    give the reports pinned before either existed, and the same failing
    checks as the naive reference, which visits every pair."""
    digests = {}
    for name, (problem_json, delta) in COPY_FORGERY_FILES.items():
        problem = load_problem(json.dumps(problem_json))
        honest = json.dumps(encode_solution(solve(problem, QQ(delta))))
        for kind, forge in COPY_FORGERIES.items():
            solution = json.loads(honest)
            forge(solution)
            pw = load_solution(json.dumps(solution))
            report = verify_solution(problem, pw)
            text = canonical_dumps(encode_report(report))
            digests[name, kind] = hashlib.sha256(text.encode()).hexdigest()
            names = {check for check in CHECKS if report.failures[check]}
            assert names == reference_failing_checks(problem, pw), (name, kind, text)
    assert digests == COPY_FORGERY_REPORT_SHA256


REFERENCE_MUTATIONS = (
    "value-offset", "region-offset", "region-normal", "gradient", "copy-index",
    "copy-move", "copy-rescale", "books", "drop", "duplicate", "swap",
)


def reference_mutant(solution, kind, rng):
    """Apply one mutation of ``kind`` to a solution document and load it.  A
    copy index, which the loader range-checks, is changed after loading,
    one past the last copy included."""
    cells, copies = solution["cells"], solution["copies"]
    cell = rng.choice(cells)
    region = cell["region"]["halfspaces"]
    if kind == "value-offset":
        bump(cell["offset"], rng)
    elif kind == "region-offset":
        bump(region["offsets"], rng)
    elif kind == "region-normal":
        bump(rng.choice(region["normals"]), rng)
    elif kind == "gradient":
        bump(rng.choice(cell["gradient"]), rng)
    elif kind in ("copy-move", "copy-rescale"):
        k, n = cell["copy"], len(cell["region"]["halfspaces"]["normals"][0])
        if kind == "copy-move":
            steps = (QQ(0), QQ(1, 2), QQ(-1, 4), QQ(1))
            scale = QQ(copies[k]["scale"])
            move_copy(solution, k, [scale * rng.choice(steps) for _ in range(n)], QQ(1))
        else:
            move_copy(solution, k, [QQ(0)] * n, rng.choice(SCALES))
    elif kind == "books":
        key = rng.choice(("covered", "residual", "delta"))
        solution[key] = str(QQ(solution[key]) + rng.choice(STEPS))
    elif kind == "drop":
        cells.remove(cell)
    elif kind == "duplicate":
        cells.insert(rng.randrange(len(cells) + 1), copy.deepcopy(cell))
    elif kind == "swap":
        i, j = rng.sample(range(len(cells)), 2)
        cells[i], cells[j] = cells[j], cells[i]
    pw = load_solution(json.dumps(solution))
    if kind != "copy-index":
        return pw
    i = cells.index(cell)
    index = rng.choice([k for k in range(len(copies) + 1) if k != cell["copy"]])
    moved = dataclasses.replace(pw.cells[i], copy=index)
    return dataclasses.replace(pw, cells=pw.cells[:i] + (moved,) + pw.cells[i + 1 :])


def test_verifier_agrees_with_the_naive_reference_on_seeded_mutants():
    rng = random.Random(1717)
    seen = dict.fromkeys(CHECKS, 0)
    passed = 0
    # Every mutation on the cube file, each on one of the three larger files
    # in turn, and every file unmutated: about 4 s of LPs.
    larger = sorted(name for name in MUTANT_BASES if name != "cube")
    plan = [(name, None) for name in sorted(MUTANT_BASES)]
    for k, kind in enumerate(REFERENCE_MUTATIONS):
        plan += [("cube", kind), (larger[k % len(larger)], kind)]
    honest = {}
    for name, (problem_json, delta) in MUTANT_BASES.items():
        problem = load_problem(json.dumps(problem_json))
        honest[name] = problem, json.dumps(encode_solution(solve(problem, QQ(delta))))
    for name, kind in plan:
        problem, text = honest[name]
        pw = reference_mutant(json.loads(text), kind, rng)
        report = verify_solution(problem, pw)
        names = {check for check in CHECKS if report.failures[check]}
        assert names == reference_failing_checks(problem, pw), (name, kind)
        assert report.passed == (not names) and (kind or report.passed)
        passed += report.passed
        for check in names:
            seen[check] += 1
    assert passed >= 4 and all(seen[c] >= 2 for c in CHECKS if c != "integral"), (passed, seen)
