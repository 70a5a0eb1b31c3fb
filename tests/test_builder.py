"""Pyramid construction, covering, and solution assembly."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as QQ
from math import gcd, prod
from operator import mul

import pytest

from inclusionkit import builder, geometry
from inclusionkit.builder import (
    DEFAULT_MAX_COPIES,
    MAX_SCALE_LEVELS,
    Cell,
    assemble_solution,
    build_pyramid,
    vitali_cover,
)
from inclusionkit.cli import main as cli_main
from inclusionkit.convexity import PointSet, in_interior_of_hull
from inclusionkit.errors import BudgetExceeded, NotInterior
from inclusionkit.feasibility import (
    FEASIBLE,
    GRADIENT,
    SYMMETRIZED,
    InclusionProblem,
    Verdict,
    decide,
)
from inclusionkit.geometry import (
    CoverCopy,
    Polytope,
    extent,
    faces,
    homothet_normals,
    homothets_overlap,
    integer_points,
    interior_point,
    sign_table,
    unit_box,
    vertices,
)
from inclusionkit.linalg import Mat, Vec, mat, vec, zero_vec
from inclusionkit.products import tensor
from inclusionkit.serialize import decode_solution, encode_solution
from inclusionkit.verify import cell_forms, verify_solution

from test_convexity import mat_rows, transpose
from test_geometry import as_copy, copy_frame, scale_translate


def dot(a: Vec, b: Vec) -> QQ:
    """⟨a; b⟩ in rationals."""
    return sum((x * y for x, y in zip(a, b)), QQ(0))


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(dot(r, x) for r in mat_rows(a)))


def affine(cell: Cell) -> tuple[Mat, Vec]:
    """A cell's map [G | o] over m as its rational gradient and offset."""
    rows, m = cell.map
    gradient = Mat(len(rows), len(rows[0]) - 1, tuple(QQ(x, m) for r in rows for x in r[:-1]))
    return gradient, Vec(tuple(QQ(r[-1], m) for r in rows))


def cell_map(gradient: Mat, offset: Vec) -> tuple:
    """The map x ↦ gradient·x + offset as a ``Cell`` holds it: its rows
    [Gᵢ | oᵢ] over their one denominator, in lowest terms."""
    rows, m = integer_points([[*r, o] for r, o in zip(mat_rows(gradient), offset)])
    return tuple(rows), m


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


TRIANGLE_PROBLEM = {
    "operator": "gradient",
    "m": 2,
    "n": 2,
    "E": [["1", "0", "2", "0"], ["0", "1", "0", "2"], ["-1", "-1", "-2", "-2"]],
}


TRIANGLE = [vec(1, 0), vec(0, 1), vec(-1, -1)]


def rational_rows(p: Polytope) -> tuple[tuple[Vec, ...], tuple[QQ, ...]]:
    """P's rows ⟨a; x⟩ ≤ c as (normals, offsets): each integer row over its lcm."""
    rows = list(zip(p.rows, p.lcms))
    normals = tuple(Vec(tuple(QQ(x, m) for x in r[:-1])) for r, m in rows)
    return normals, tuple(QQ(r[-1], m) for r, m in rows)


def interiors_intersect(p: Polytope, q: Polytope) -> bool:
    """Whether int(P) ∩ int(Q) ≠ ∅, by the margin LP on the rows of both."""
    return interior_point(Polytope(p.ambient, p.rows + q.rows, p.lcms + q.lcms)) is not None


def cover(omega, base, delta, **kwargs):
    """``vitali_cover`` of Ω by copies of the base."""
    return vitali_cover(omega, extent(omega), extent(base), faces(base)[1], delta, **kwargs)


def scalar_solution(factors, omega, delta, **kwargs):
    """The scalar solution: b = (1) and F the factors, no operator."""
    verdict = Verdict(FEASIBLE, b=vec(1), factors=tuple(factors))
    return assemble_solution(verdict, omega, delta, None, **kwargs)


def pyramid(factors):
    """The pyramid's spec, and the pyramid as a function on its base: one copy
    (0, 1) at δ = 0."""
    spec = build_pyramid(factors)
    return spec, scalar_solution(factors, spec.base, 0)


def integral(pw):
    """∫u as a Fraction, for a scalar u: the sum of its cells' integrals."""
    return sum(form.integral[0] for form in cell_forms(pw))


def pyramid_value(spec, x):
    vals = [dot(f, x) + 1 for f in spec.factors]
    return min(vals)


# ----------------------------------------------------------------- pyramid


def test_hat_function_cells():
    spec, pw = pyramid([vec(1), vec(-1)])
    assert spec.redundant == ()
    assert extent(spec.base)[1] == 2
    got = {(g.entries[0], o[0]) for g, o in map(affine, pw.cells)}
    assert got == {(QQ(1), QQ(1)), (QQ(-1), QQ(1))}
    by_grad = {affine(c)[0].entries[0]: c.polytope for c in pw.cells}
    assert by_grad[QQ(1)].contains(vec(QQ(-1, 2)))
    assert by_grad[QQ(-1)].contains(vec(QQ(1, 2)))
    assert integral(pw) == QQ(1)


def test_asymmetric_hat_measure_and_cells():
    spec, pw = pyramid([vec(2), vec(-1)])
    assert extent(spec.base)[1] == QQ(3, 2)
    by_grad = {affine(c)[0].entries[0]: c.polytope for c in pw.cells}
    assert by_grad[QQ(2)].contains(vec(QQ(-1, 4)))
    assert not by_grad[QQ(2)].contains(vec(QQ(1, 4)))
    assert by_grad[QQ(-1)].contains(vec(QQ(1, 2)))
    assert integral(pw) == QQ(3, 4)


def test_square_pyramid_cells_and_integral():
    factors = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]
    spec, pw = pyramid(factors)
    assert len(pw.cells) == 4
    assert extent(spec.base)[1] == 4
    assert integral(pw) == QQ(4, 3)
    assert sum(extent(c.polytope)[1] for c in pw.cells) == 4


def test_redundant_factor_is_reported_and_dropped():
    spec, pw = pyramid([vec(2), vec(-2), vec(1)])
    assert spec.redundant == (2,)
    assert spec.factors[2] == vec(1)
    assert len(pw.cells) == 2


def test_pyramid_matches_min_formula_on_samples():
    rng = random.Random(19)
    factors = [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)]
    spec, pw = pyramid(factors)
    for _ in range(40):
        x = vec(QQ(rng.randint(-8, 8), 9), QQ(rng.randint(-8, 8), 9))
        want = pyramid_value(spec, x)
        hits = [c for c in pw.cells if c.polytope.contains(x)]
        if want < 0:
            assert not hits
            continue
        assert hits
        for g, o in map(affine, hits):
            assert matvec(g, x) + o == vec(want)


def reference_pyramid_cells(factors):
    """(redundant, cells) by the rule of measure: each nonzero factor's region,
    where it attains the min and the pyramid is nonnegative, is built and
    the factor kept when the region has positive volume."""
    fs = list(dict.fromkeys(factors))
    nonzero = [f for f in fs if not f.is_zero()]
    redundant, cells = [], []
    for idx, f in enumerate(fs):
        normals = [f - g for g in nonzero if g != f] + [-f]
        region = Polytope.halfspaces(normals, [QQ(0)] * (len(normals) - 1) + [QQ(1)])
        if f.is_zero() or extent(region)[1] == 0:
            redundant.append(idx)
        else:
            cells.append(Cell(region, cell_map(Mat(1, len(f), f.entries), vec(1)), 0))
    return tuple(redundant), tuple(cells)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_live_factors_are_the_facets_of_the_base(n):
    # Around a simplex of factors with 0 inside: a factor interior to its
    # hull, the midpoint of one of its edges, f/2 beside f, the zero factor
    # and sometimes one more random factor, in a random order.
    rng = random.Random(1900 + n)
    for trial in range(6):
        while True:
            simplex = [Vec(tuple(QQ(rng.randint(-4, 4)) for _ in range(n))) for _ in range(n + 1)]
            if not any(f.is_zero() for f in simplex) and in_interior_of_hull(
                PointSet.from_vecs(simplex, n)
            ):
                break
        weights = [QQ(rng.randint(1, 5)) for _ in simplex]
        interior = sum((f.scale(w) for f, w in zip(simplex, weights)), zero_vec(n))
        midpoint = (simplex[0] + simplex[1]).scale(QQ(1, 2))
        half = simplex[-1].scale(QQ(1, 2))
        extra = [interior.scale(1 / (2 * sum(weights))), midpoint, half, zero_vec(n)]
        if trial % 2:
            extra.append(Vec(tuple(QQ(rng.randint(-4, 4)) for _ in range(n))))
        factors = simplex + extra
        rng.shuffle(factors)
        spec = build_pyramid(factors)
        assert (spec.redundant, spec.cells) == reference_pyramid_cells(factors), factors
        assert len(spec.redundant) >= 3


def test_one_sided_factor_set_is_not_interior():
    with pytest.raises(NotInterior):
        build_pyramid([vec(1)])
    with pytest.raises(NotInterior):
        build_pyramid([vec(1, 0), vec(0, 1)])


def test_zero_factors_are_not_interior():
    # No verdict of ``decide`` has them: only zero factors admit no bounded base.
    with pytest.raises(NotInterior):
        scalar_solution([vec(0, 0)], unit_box(2), QQ(1, 4))


# ------------------------------------------------------------------ cover


def test_interval_cover_single_copy():
    copies = cover(unit_box(1), unit_box(1), QQ(1, 4))
    assert len(copies) == 1
    assert copy_frame(copies[0])[0] == 1


def test_trivial_tolerance_gives_empty_cover():
    assert cover(unit_box(1), unit_box(1), QQ(1)) == ()
    assert cover(unit_box(2), unit_box(2), QQ(3, 2)) == ()


def test_diamond_base_needs_many_disjoint_copies():
    diamond = Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)], [QQ(1)] * 4
    )
    copies = cover(unit_box(2), diamond, QQ(1, 4))
    assert len(copies) > 1
    placed = [scale_translate(diamond, *copy_frame(c)) for c in copies]
    covered = sum(extent(p)[1] for p in placed)
    assert covered >= QQ(3, 4)
    # Pairwise disjoint interiors and containment in the domain.
    for i in range(len(placed)):
        assert all(0 <= x <= 1 for v in vertices(placed[i]) for x in v)
        for j in range(i + 1, len(placed)):
            assert not interiors_intersect(placed[i], placed[j])


def test_copy_budget_is_enforced():
    diamond = Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)], [QQ(1)] * 4
    )
    with pytest.raises(BudgetExceeded):
        cover(unit_box(2), diamond, QQ(1, 3), max_copies=1)


# --------------------------------------------------------------- assembly


def test_scalar_assembly_covers_and_integrates():
    pw = scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1, 4))
    assert pw.covered == 1 and pw.residual == 0
    assert len(pw.copies) == 1
    assert copy_frame(pw.copies[0])[0] == QQ(1, 2)
    assert integral(pw) == QQ(1, 2) ** 2 * QQ(1)


def test_vector_assembly_respects_the_matrix_set():
    b = vec(1, 2)
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [tensor(b, e1), tensor(b, e2), tensor(b, -(e1 + e2))]
    problem = InclusionProblem.gradient(mats)
    verdict = decide(problem)
    pw = assemble_solution(verdict, problem.domain, QQ(1, 4), GRADIENT)
    assert pw.cells
    allowed = set(mats)
    for c in pw.cells:
        assert affine(c)[0] in allowed
    assert pw.covered >= QQ(3, 4)
    assert pw.covered + pw.residual == 1


def test_symmetrized_assembly_has_nonzero_mean():
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    problem = InclusionProblem.symmetrized(mats)
    verdict = decide(problem)
    pw = assemble_solution(verdict, problem.domain, QQ(1, 2), SYMMETRIZED)
    for g, _ in map(affine, pw.cells):
        assert g + transpose(g) in set(mats)
    assert verify_solution(problem, pw).integral_value == vec(QQ(1, 6), 0)


def test_assembly_rejects_non_feasible_verdicts():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    problem = InclusionProblem.gradient([e11, e22, -e11 - e22])
    verdict = decide(problem)
    with pytest.raises(ValueError):
        assemble_solution(verdict, problem.domain, QQ(1, 4), GRADIENT)


def test_copy_rescaling_preserves_gradients_and_zero_boundary():
    pw = scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1, 4))
    s, t = copy_frame(pw.copies[0])
    for c in pw.cells:
        gradient, offset = affine(c)
        assert gradient.entries[0] in (QQ(1), QQ(-1))
        # The rescaled pyramid vanishes where the placed base's boundary is.
        lo, hi = t[0] - s, t[0] + s
        for endpoint in (lo, hi):
            x = vec(endpoint)
            if c.polytope.contains(x):
                assert matvec(gradient, x) + offset == vec(0)


def test_integrate_of_empty_solution_is_zero():
    pw = scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1))
    assert pw.cells == ()
    assert integral(pw) == 0
    assert pw.residual == 1


# SHA-256 of the copies of the triangle base's cover of the unit square
# at δ = 1/8, one "scale center..." line per copy; recorded before the
# ancestor-box clash test replaced the all-pairs LPs.
TRIANGLE_COVER_SHA256 = "552b2a0243e4b1bb16abf86246021640a5a34848148dd75569155148c95b9131"


def test_triangle_cover_at_one_eighth_is_pinned():
    spec = build_pyramid(TRIANGLE)
    copies = cover(unit_box(2), spec.base, QQ(1, 8))
    assert len(copies) == 109
    assert copies_sha256(copies) == TRIANGLE_COVER_SHA256


# SHA-256 of the OBJ and CSV export of the triangle solution at δ = 1/8
# (b = (1, 2), 109 copies, 327 cells), recorded before cell forms, vertex
# values and OBJ heights were computed in integers.
TRIANGLE_EXPORT_SHA256 = {
    "obj": "cc61e7749c7601596ea31a6e50811ebd5295a399ee2bb45109cda526e483a80e",
    "csv": "9438455c105b17f287cb129a3e9d18c353e388771be3afeede516521498c8538",
}


def test_triangle_export_at_one_eighth_is_pinned(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(TRIANGLE_PROBLEM))
    sol, files = tmp_path / "sol.json", {"obj": tmp_path / "u.obj", "csv": tmp_path / "u.csv"}
    assert cli_main(["construct", str(problem), "--delta", "1/8", "--out", str(sol)]) == 0
    assert cli_main(["export", str(sol), *(f"--{key}={path}" for key, path in files.items())]) == 0
    capsys.readouterr()
    assert len(json.loads(sol.read_text())["cells"]) == 327
    digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()}
    assert digests == TRIANGLE_EXPORT_SHA256


def test_construct_enumerates_omega_and_the_base_once(monkeypatch):
    # One ``faces`` call for Ω (through ``extent``) and one for the base,
    # whose sign table tells the live factors without enumerating their cells.
    calls = []
    real = geometry.faces

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(geometry, "faces", counted)
    monkeypatch.setattr(builder, "faces", counted)
    pw = scalar_solution([vec(1, 0), vec(0, 1), vec(-1, -1)], unit_box(2), QQ(1, 8))
    assert len(pw.copies) == 109
    assert calls == [unit_box(2), pw.base]
    assert pw.covered + pw.residual == 1


def test_triangle_cover_copies_per_scale_level():
    # The copy-count law at δ = 1/16: from the third level on each level
    # places three times the copies of the one before, until the bound is met.
    spec = build_pyramid(TRIANGLE)
    copies = cover(unit_box(2), spec.base, QQ(1, 16))
    scales = [copy_frame(c)[0] for c in copies]
    levels = sorted(set(scales), reverse=True)
    assert levels == [QQ(1, 3) / 2**k for k in range(9)]
    per_level = [scales.count(s) for s in levels]
    assert per_level == [1, 1, 3, 9, 27, 81, 243, 729, 556]
    assert len(copies) == 1650


HEXAGON = Polytope.halfspaces(
    [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, 1), vec(-1, -1)], [QQ(1)] * 6
)


def unreduced(text: str) -> str:
    """A rational string p or p/q spelled p·3/q·3: "0" becomes "0/3"."""
    p, _, q = text.partition("/")
    return f"{int(p) * 3}/{int(q or 1) * 3}"


@pytest.mark.parametrize(
    "factors, omega, count",
    [
        (TRIANGLE, unit_box(2), 109),
        ([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], HEXAGON, 6),
        # Factors over 2: every map reaches lowest terms only over its gcd.
        ([f.scale(QQ(1, 2)) for f in TRIANGLE], unit_box(2), 109),
    ],
    ids=["triangle", "square-hexagon", "half-triangle"],
)
def test_copies_are_their_integers_in_lowest_terms(factors, omega, count):
    # One form per copy and per cell map: the builder makes it, a file gives it
    # back, and a file that spells their rationals unreduced decodes to the
    # same copies and cells.
    pw = scalar_solution(factors, omega, QQ(1, 8))
    assert len(pw.copies) == count
    for c in pw.copies:
        assert c.size > 0 and c.den > 0 and gcd(*c.shift, c.size, c.den) == 1
    doc = encode_solution(pw)
    decoded = decode_solution(doc)
    assert decoded.copies == pw.copies and decoded.cells == pw.cells
    for rows, m in (cell.map for cell in pw.cells + decoded.cells):
        assert m > 0 and gcd(m, *(x for r in rows for x in r)) == 1
    for entry in doc["copies"]:
        entry["center"] = [unreduced(x) for x in entry["center"]]
        entry["scale"] = unreduced(entry["scale"])
    for entry in doc["cells"]:
        entry["gradient"] = [[unreduced(x) for x in r] for r in entry["gradient"]]
        entry["offset"] = [unreduced(x) for x in entry["offset"]]
    decoded = decode_solution(doc)
    assert decoded.copies == pw.copies and decoded.cells == pw.cells
    doc["copies"][0] = {"center": ["0/3", "2/4"], "scale": "3/6"}
    assert decode_solution(doc).copies[0] == CoverCopy((0, 1), 1, 2)


def grid_frame(omega, base):
    """(s₀, center): the cover's level-0 scale and the center of its copy of scale s
    in grid box idx, rebuilt in rationals from the vertices of Ω and of the base.
    s₀ is the largest s with s·w_P within Ω's box in every coordinate (w_P the
    base's box widths), and that copy's box has the low corner low_Ω + s·idx∘w_P."""
    (low_o, high_o), (low_p, high_p) = (
        [list(map(f, zip(*vertices(p)))) for f in (min, max)] for p in (omega, base)
    )
    widths = [y - x for x, y in zip(low_p, high_p)]
    s0 = min((y - x) / w for x, y, w in zip(low_o, high_o, widths))

    def center(s, idx):
        return Vec(tuple(o + s * (i * w - z) for o, i, w, z in zip(low_o, idx, widths, low_p)))

    return s0, center


@pytest.mark.parametrize(
    "omega, delta, copies", [(unit_box(2), QQ(1, 8), 109), (HEXAGON, QQ(1, 4), None)]
)
def test_cover_clash_tests_agree_with_homothets_overlap(monkeypatch, omega, delta, copies):
    # Every clash test the cover makes, on integer ⟨a; g⟩ and per-level
    # integer bounds, between two grid candidates (level, idx, ...), against
    # the reference on their centers and scales, rebuilt in rationals.
    spec = build_pyramid(TRIANGLE)
    # Heights over the base's D, so each normal a stands in as D·a.
    points = spec.extent[0]
    normals = [
        (tuple(points[1] * x for x in a), h, g)
        for a, h, g in homothet_normals(points, spec.facets)
    ]
    s0, center = grid_frame(omega, spec.base)
    real = builder._clash
    outcomes = []

    def checked(bounds, first, second):
        (s1, i1), (s2, i2) = ((s0 / 2 ** c[0], c[1]) for c in (first, second))
        outcomes.append(real(bounds, first, second))
        pair = as_copy(s1, center(s1, i1)), as_copy(s2, center(s2, i2))
        assert outcomes[-1] == homothets_overlap(normals, *pair)
        return outcomes[-1]

    monkeypatch.setattr(builder, "_clash", checked)
    placed = cover(omega, spec.base, delta)
    assert copies is None or len(placed) == copies
    assert sum(outcomes) >= 20 and len(outcomes) - sum(outcomes) >= 20, len(outcomes)


def test_omega_spelled_as_a_box_or_as_its_rows_builds_the_same_solution(monkeypatch):
    # A box and the same rows given as halfspaces are the same rows, so
    # every grid line keeps the same copies; only the spelling written back
    # differs.  On the hexagon, too, each grid line keeps only the copies
    # inside Ω, so every candidate, each grid index of scale s that
    # ``builder._grid`` yields, lies in it, and no sign table is made but
    # the base's, one per construct.
    real_grid, real_table, built, tables = builder._grid, builder.sign_table, [], []

    def recorded(rows, counts, s):
        for idx in real_grid(rows, counts, s):
            built.append((s, idx))
            yield idx

    def counted(rows, points):
        tables.append(rows)
        return real_table(rows, points)

    monkeypatch.setattr(builder, "_grid", recorded)
    monkeypatch.setattr(builder, "sign_table", counted)
    triangle = [vec(1, 0), vec(0, 1), vec(-1, -1)]
    box = Polytope.box(vec(0, 0), vec(1, 2))
    rows = Polytope.halfspaces(*rational_rows(box))
    a = scalar_solution(triangle, box, QQ(1, 4))
    built_a, built[:] = built[:], []
    b = scalar_solution(triangle, rows, QQ(1, 4))
    assert (a.copies, a.cells) == (b.copies, b.cells) and len(a.copies) == 18
    assert built_a == built and len(built) > 18
    doc_a, doc_b = encode_solution(a), encode_solution(b)
    assert doc_a.pop("omega") == {"box": {"low": ["0", "0"], "high": ["1", "2"]}}
    assert list(doc_b.pop("omega")) == ["halfspaces"]
    assert doc_a == doc_b
    built[:] = []
    hexagon = scalar_solution(triangle, HEXAGON, QQ(1, 4))
    assert len(hexagon.copies) == 27 and len(built) > 27
    corners = vertices(hexagon.base)
    center = grid_frame(HEXAGON, hexagon.base)[1]
    for s, idx in built:
        placed = [v.scale(s) + center(s, idx) for v in corners]
        table = sign_table(HEXAGON.rows, integer_points(placed))
        assert all(-1 not in row for row in table), (s, idx)
    assert len(tables) == 3


def copies_sha256(copies) -> str:
    """SHA-256 of one "scale center..." line per copy."""
    frames = (copy_frame(c) for c in copies)
    text = "".join(" ".join(str(x) for x in (s, *t)) + "\n" for s, t in frames)
    return hashlib.sha256(text.encode()).hexdigest()


def thin_triangle(eps):
    """Ω = the triangle (0, 0), (1, 1), (1, 1 − ε): its box has area 1, it has ε/2."""
    return Polytope.halfspaces([vec(-1, 1), vec(1, 0), vec(1 - eps, -1)], [0, 1, 0])


@pytest.fixture
def few_sign_tables(monkeypatch):
    """``builder.sign_table`` fails after 1000 calls: a cover that tests each
    grid candidate against Ω's rows in a table of its own fails within seconds."""
    real, calls = builder.sign_table, iter(range(1000))

    def counted(rows, points):
        assert next(calls, None) is not None, "a sign table per candidate copy"
        return real(rows, points)

    monkeypatch.setattr(builder, "sign_table", counted)


# Ω = [0, 1]³ cut by x₁ + x₂ ≤ 1: that row has a zero last coefficient, so it
# keeps or drops whole grid lines.
PRISM = Polytope.halfspaces(
    [vec(-1, 0, 0), vec(0, -1, 0), vec(0, 0, -1), vec(0, 0, 1), vec(1, 1, 0)], [0, 0, 0, 1, 1]
)
SIMPLEX_3 = [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(-1, -1, -1)]
CUBE_3 = [vec(*(e * (i == k) for k in range(3))) for i in range(3) for e in (1, -1)]


SQUARE = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]
HEXAGON_FACTORS = SQUARE + [vec(1, 1), vec(-1, -1)]


# The copies of domains that do not fill their bounding boxes, in
# ``TRIANGLE_COVER_SHA256``'s line format, recorded while every grid candidate
# was still tested against Ω's rows: the hexagon at δ = 1/8, at δ = 1/2 the
# thin triangle with ε = 1/40, whose cover then took about 40 s, and the
# prism covered by the 3-simplex pyramid's base.  Three covers by bases that
# are no simplex follow, whose clash tests read more normals than a simplex
# has: the square base on the hexagon (48 copies, 2,402 clash tests), the
# hexagon base on the unit box, which fills its box (214, 9,614), and the cube
# base on the prism (170, 2,000).
@pytest.mark.parametrize(
    "omega, factors, delta, count, digest",
    [
        (
            HEXAGON,
            TRIANGLE,
            QQ(1, 8),
            327,
            "488086c7373b2af96878e29d2fb34250cf9e2eee61794ffbac04d8d24cab0d6e",
        ),
        (
            thin_triangle(QQ(1, 40)),
            TRIANGLE,
            QQ(1, 2),
            1639,
            "4715373c90eec29aba9a58d3bdf3d314fe38f7f727199945708c410c967358d6",
        ),
        (
            PRISM,
            SIMPLEX_3,
            QQ(1, 2),
            47,
            "1a1a3312bd67cc0ff1d66025e3436e50410dac1434e853c1f6a07e5dc6e17729",
        ),
        (
            HEXAGON,
            SQUARE,
            QQ(1, 64),
            48,
            "501b98dcbd36df0c3d53872ad5354c8f604c2b47648508a0128032d3717b05ce",
        ),
        (
            unit_box(2),
            HEXAGON_FACTORS,
            QQ(1, 32),
            214,
            "49535dddc71dbccea52a23a3f897020c927667546426a2882d2ee62cd9a338bb",
        ),
        (
            PRISM,
            CUBE_3,
            QQ(1, 16),
            170,
            "b76466b96c1fa4a04d98cb96f07103d75d838102cbf9b07d6b883e4e0f715c9c",
        ),
    ],
    ids=[
        "hexagon", "thin triangle", "prism", "square on hexagon", "hexagon on box", "cube on prism"
    ],
)
def test_cover_of_a_domain_that_does_not_fill_its_box_is_pinned(
    few_sign_tables, omega, factors, delta, count, digest
):
    copies = cover(omega, build_pyramid(factors).base, delta)
    assert len(copies) == count
    assert copies_sha256(copies) == digest


def test_cover_of_a_thinner_triangle_exceeds_the_copy_cap_quickly(few_sign_tables):
    with pytest.raises(BudgetExceeded):
        cover(thin_triangle(QQ(1, 160)), build_pyramid(TRIANGLE).base, QQ(1, 2))


def test_base_far_thinner_than_omega_exceeds_the_copy_cap_before_its_grid():
    # A feasible problem whose base is 2⁷⁰ times taller than wide: level 0's grid
    # on Ω = [0, 1/10]² has about 10²¹ columns, and the 4096 copies the cap allows,
    # none larger than level 0's, cover far less than half of Ω.
    factors = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(2**70, -1)]
    omega = Polytope.box(vec(0, 0), vec("1/10", "1/10"))
    problem = InclusionProblem.gradient([Mat(1, 2, f.entries) for f in factors], omega)
    verdict = decide(problem)
    assert verdict.status == FEASIBLE
    with pytest.raises(BudgetExceeded, match="^copy cap 4096 cannot be met: 4096 more copies"):
        assemble_solution(verdict, omega, QQ(1, 2), GRADIENT)


def reference_cover(
    omega, omega_extent, base_extent, base_facets, delta, max_copies=DEFAULT_MAX_COPIES
):
    """``vitali_cover`` in ``Fraction``s, as it was before it ran on grid indices:
    every candidate is a ``CoverCopy`` on rational grid axes, each grid line's
    interval comes from Ω's rows in rationals, the clash bounds are the rational
    bounds of ``homothets_overlap`` floored and ceiled over the step, and each
    candidate probes one ancestor key per level.  An Ω that fills its bounding
    box reads no rows here, so the package's intervals from a box's own rows
    are checked against the full grid."""
    ((xs_o, d), vol_omega), ((xs_p, q), vol_base) = omega_extent, base_extent
    if delta >= 1:
        return ()
    target = (1 - delta) * vol_omega
    n = omega.ambient
    low_o, high_o = (list(map(f, zip(*xs_o))) for f in (min, max))
    l, high_p = (list(map(f, zip(*xs_p))) for f in (min, max))
    widths_o = [QQ(y - x, d) for x, y in zip(low_o, high_o)]
    low_o = [QQ(x, d) for x in low_o]
    w = [y - x for x, y in zip(l, high_p)]
    fills_box = vol_omega == prod(widths_o)
    rows = [] if fills_box else [
        (r[:-1], r[-1], QQ(max(sum(map(mul, r, x)) for x in xs_p), q)) for r in omega.rows
    ]
    s0 = min(wo * q / y for wo, y in zip(widths_o, w))
    normals = [(a, QQ(h, q), QQ(hn, q)) for a, h, hn in homothet_normals((xs_p, q), base_facets)]
    by_box, covered = {}, QQ(0)
    for level in range(MAX_SCALE_LEVELS):
        s = s0 / 2**level
        left = max_copies - len(by_box)
        if covered + left * s**n * vol_base < target:
            raise BudgetExceeded(
                f"copy cap {max_copies} cannot be met: {left} more copies of scale "
                f"at most {s} leave more than the bound {delta * vol_omega} uncovered"
            )
        step = s / q
        counts = [int(wo // (step * y)) for wo, y in zip(widths_o, w)]
        bounds = []
        for k in range(level):
            s1 = s0 / 2**k
            pair = [(-(s1 * hn + s * h), s1 * h + s * hn) for _, h, hn in normals]
            bounds.append((2 ** (level - k), [(lo // step, -(-hi // step)) for lo, hi in pair]))
        axes = [
            [o + step * (j * y - z) for j in range(c)] for o, y, z, c in zip(low_o, w, l, counts)
        ]
        for head in itertools.product(*(range(c) for c in counts[:-1])):
            lo, hi, t0 = 0, counts[-1], Vec(tuple(axis[i] for axis, i in zip(axes, (*head, 0))))
            for a, c, h in rows:
                room, rate = c - s * h - sum(map(mul, a, t0)), a[-1] * step * w[-1]
                if rate > 0:
                    hi = min(hi, room // rate + 1)
                elif rate < 0:
                    lo = max(lo, -(room // -rate))
                elif room < 0:
                    hi = 0
            for idx in ((*head, j) for j in range(lo, hi)):
                g = [i * y - z for i, y, z in zip(idx, w, l)]
                t = Vec(tuple(axis[i] for axis, i in zip(axes, idx)))
                cand = (as_copy(s, t), [sum(map(mul, a, g)) for a, _, _ in normals])

                def clash(k):
                    f, limits = bounds[k]
                    first = by_box[k, tuple(i >> (level - k) for i in idx)][1]
                    pairs = zip(limits, first, cand[1])
                    return all(lo < v - u * f < hi for (lo, hi), u, v in pairs)

                boxes = ((k, tuple(i >> (level - k) for i in idx)) for k in range(level))
                if any(b in by_box and clash(b[0]) for b in boxes):
                    continue
                if len(by_box) >= max_copies:
                    raise BudgetExceeded(
                        f"copy cap {max_copies} reached at uncovered measure "
                        f"{vol_omega - covered} (bound {delta * vol_omega})"
                    )
                by_box[level, idx] = cand
                covered += s**n * vol_base
                if covered >= target:
                    return tuple(copy for copy, _ in by_box.values())
    raise BudgetExceeded(
        f"scale floor reached at uncovered measure {vol_omega - covered} "
        f"(bound {delta * vol_omega})"
    )


def random_base(rng, n):
    """The base of a random pyramid: n + 1 to n + 3 small rational factors with 0
    interior to their hull."""
    while True:
        factors = [
            Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
            for _ in range(rng.randint(n + 1, n + 3))
        ]
        nonzero = [f for f in factors if not f.is_zero()]
        if nonzero and in_interior_of_hull(PointSet.from_vecs(nonzero, n)):
            return build_pyramid(factors).base


def random_domain(rng, n):
    """A random rational box, or that box cut by one or two halfspaces through
    points inside it, kept only when the cut leaves Ω short of its box."""
    low = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    high = [x + QQ(rng.randint(1, 8), rng.randint(1, 4)) for x in low]
    box = Polytope.box(Vec(tuple(low)), Vec(tuple(high)))
    if rng.random() < 0.3:
        return box
    while True:
        normals, offsets = rational_rows(box)
        for _ in range(rng.randint(1, 2)):
            a = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
            if a.is_zero():
                continue
            mid = Vec(tuple(x + (y - x) * QQ(rng.randint(1, 3), 4) for x, y in zip(low, high)))
            normals, offsets = (*normals, a), (*offsets, dot(a, mid))
        omega = Polytope.halfspaces(normals, offsets)
        corners = [list(map(f, zip(*vertices(omega)))) for f in (min, max)]
        if 0 < extent(omega)[1] < prod(y - x for x, y in zip(*corners)):
            return omega


def test_integer_cover_matches_the_fraction_reference():
    # Seeded differential: pyramid bases in n = 2 and n = 3 (the triangle, the
    # 3-simplex, the cube, or random), Ω the hexagon, the prism, a random box
    # or a random polytope short of its box, several δ and small caps.  Both
    # covers give the same copies in the same order, or raise BudgetExceeded
    # with the same message; no cover has more copies than its cap.
    rng = random.Random(2028)
    outcomes = Counter()
    for trial in range(90):
        n = 2 if trial % 3 else 3
        fixed = [TRIANGLE] if n == 2 else [SIMPLEX_3, CUBE_3]
        base = build_pyramid(rng.choice(fixed)).base if rng.random() < 0.4 else random_base(rng, n)
        omega = rng.choice([HEXAGON, PRISM][n - 2:n - 1] + [random_domain(rng, n)])
        delta = rng.choice([QQ(9, 10), QQ(3, 4), QQ(1, 2), QQ(2, 5), QQ(1, 4)])
        cap = rng.choice([1, 4, 12, 40, 300])
        args = (omega, extent(omega), extent(base), faces(base)[1], delta, cap)
        results = []
        for build in (vitali_cover, reference_cover):
            try:
                results.append(build(*args))
            except BudgetExceeded as exc:
                results.append(str(exc))
        assert results[0] == results[1], (trial, results)
        copies = isinstance(results[0], tuple)
        assert not copies or len(results[0]) <= cap
        outcomes[n, "copies" if copies else results[0].split(" ")[3]] += 1
    assert all(outcomes[n, kind] >= 3 for n in (2, 3) for kind in ("copies", "cannot")), outcomes
