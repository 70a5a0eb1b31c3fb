"""Pyramid construction, covering, and solution assembly."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as QQ

import pytest

from inclusionkit import builder, geometry
from inclusionkit.builder import (
    Cell,
    build_pyramid,
    build_scalar_solution,
    assemble_solution,
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
    decide,
)
from inclusionkit.geometry import (
    Polytope,
    extent,
    homothet_normals,
    homothets_overlap,
    integer_points,
    sign_table,
    unit_box,
    vertices,
    volume,
)
from inclusionkit.linalg import Mat, Vec, mat, unique, unit_vec, vec, zero_vec
from inclusionkit.products import tensor
from inclusionkit.serialize import encode_solution
from inclusionkit.verify import integrate

from test_geometry import scale_translate


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(a.row(i).dot(x) for i in range(a.rows)))


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


def cover(omega, base, delta, **kwargs):
    """``vitali_cover`` of Ω by copies of the base."""
    return vitali_cover(omega, extent(omega), extent(base), delta, **kwargs)


def pyramid(factors):
    """The pyramid's spec, and the pyramid as a function on its base: one copy
    (0, 1) at δ = 0."""
    spec = build_pyramid(factors)
    return spec, build_scalar_solution(factors, spec.base, 0)


def pyramid_value(spec, x):
    vals = [f.dot(x) + 1 for f in spec.factors]
    return min(vals)


# ----------------------------------------------------------------- pyramid


def test_hat_function_cells():
    spec, pw = pyramid([vec(1), vec(-1)])
    assert spec.redundant == ()
    assert volume(spec.base) == 2
    got = {(c.gradient.entry(0, 0), c.offset[0]) for c in pw.cells}
    assert got == {(QQ(1), QQ(1)), (QQ(-1), QQ(1))}
    by_grad = {c.gradient.entry(0, 0): c.polytope for c in pw.cells}
    assert by_grad[QQ(1)].contains(vec(QQ(-1, 2)))
    assert by_grad[QQ(-1)].contains(vec(QQ(1, 2)))
    assert integrate(pw) == QQ(1)


def test_asymmetric_hat_measure_and_cells():
    spec, pw = pyramid([vec(2), vec(-1)])
    assert volume(spec.base) == QQ(3, 2)
    by_grad = {c.gradient.entry(0, 0): c.polytope for c in pw.cells}
    assert by_grad[QQ(2)].contains(vec(QQ(-1, 4)))
    assert not by_grad[QQ(2)].contains(vec(QQ(1, 4)))
    assert by_grad[QQ(-1)].contains(vec(QQ(1, 2)))
    assert integrate(pw) == QQ(3, 4)


def test_square_pyramid_cells_and_integral():
    factors = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]
    spec, pw = pyramid(factors)
    assert len(pw.cells) == 4
    assert volume(spec.base) == 4
    assert integrate(pw) == QQ(4, 3)
    assert sum(volume(c.polytope) for c in pw.cells) == 4


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
        for c in hits:
            assert matvec(c.gradient, x) + c.offset == vec(want)


def reference_pyramid_cells(factors):
    """(redundant, cells) by the rule of measure: each nonzero factor's region,
    where it attains the min and the pyramid is nonnegative, is built and
    the factor kept when the region has positive volume."""
    fs = list(unique(factors, lambda f: f.entries))
    nonzero = [f for f in fs if not f.is_zero()]
    redundant, cells = [], []
    for idx, f in enumerate(fs):
        normals = [f - g for g in nonzero if g != f] + [-f]
        region = Polytope.halfspaces(normals, [QQ(0)] * (len(normals) - 1) + [QQ(1)])
        if f.is_zero() or volume(region) == 0:
            redundant.append(idx)
        else:
            cells.append(Cell(region, Mat(1, len(f), f.entries), vec(1), 0))
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


def test_zero_factors_give_the_zero_function():
    pw = build_scalar_solution([vec(0, 0)], unit_box(2), QQ(1, 4))
    assert pw.cells == () and pw.copies == ()
    assert pw.covered == 0 and pw.residual == 1


# ------------------------------------------------------------------ cover


def test_interval_cover_single_copy():
    copies = cover(unit_box(1), unit_box(1), QQ(1, 4))
    assert len(copies) == 1
    assert copies[0].scale == 1


def test_trivial_tolerance_gives_empty_cover():
    assert cover(unit_box(1), unit_box(1), QQ(1)) == ()
    assert cover(unit_box(2), unit_box(2), QQ(3, 2)) == ()


def test_diamond_base_needs_many_disjoint_copies():
    diamond = Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)], [QQ(1)] * 4
    )
    copies = cover(unit_box(2), diamond, QQ(1, 4))
    assert len(copies) > 1
    placed = [scale_translate(diamond, c.scale, c.center) for c in copies]
    covered = sum(volume(p) for p in placed)
    assert covered >= QQ(3, 4)
    # Pairwise disjoint interiors and containment in the domain.
    from inclusionkit.geometry import interiors_intersect, bounding_box

    for i in range(len(placed)):
        low, high = bounding_box(vertices(placed[i]))
        assert all(x >= 0 for x in low) and all(x <= 1 for x in high)
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
    pw = build_scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1, 4))
    assert pw.covered == 1 and pw.residual == 0
    assert len(pw.copies) == 1
    assert pw.copies[0].scale == QQ(1, 2)
    assert integrate(pw) == QQ(1, 2) ** 2 * QQ(1)


def test_vector_assembly_respects_the_matrix_set():
    b = vec(1, 2)
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [tensor(b, e1), tensor(b, e2), tensor(b, -(e1 + e2))]
    problem = InclusionProblem.gradient(mats)
    verdict = decide(problem)
    pw = assemble_solution(verdict, problem.domain, QQ(1, 4), GRADIENT)
    assert pw.cells
    allowed = set(mats)
    for c in pw.cells:
        assert c.gradient in allowed
    assert pw.covered >= QQ(3, 4)
    assert pw.covered + pw.residual == 1


def test_symmetrized_assembly_has_nonzero_mean():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    problem = InclusionProblem.symmetrized(mats)
    verdict = decide(problem)
    pw = assemble_solution(verdict, problem.domain, QQ(1, 2), SYMMETRIZED)
    for c in pw.cells:
        assert c.gradient + c.gradient.transpose() in set(mats)
    total = integrate(pw)
    assert total == vec(QQ(1, 6), 0)


def test_assembly_rejects_non_feasible_verdicts():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    problem = InclusionProblem.gradient([e11, e22, -e11 - e22])
    verdict = decide(problem)
    with pytest.raises(ValueError):
        assemble_solution(verdict, problem.domain, QQ(1, 4), GRADIENT)


def test_copy_rescaling_preserves_gradients_and_zero_boundary():
    pw = build_scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1, 4))
    copy = pw.copies[0]
    for c in pw.cells:
        g = c.gradient.entry(0, 0)
        assert g in (QQ(1), QQ(-1))
        # The rescaled pyramid vanishes where the placed base's boundary is.
        lo = copy.center[0] - copy.scale
        hi = copy.center[0] + copy.scale
        for endpoint in (lo, hi):
            x = vec(endpoint)
            if c.polytope.contains(x):
                assert matvec(c.gradient, x) + c.offset == vec(0)


def test_integrate_of_empty_solution_is_zero():
    pw = build_scalar_solution([vec(1), vec(-1)], unit_box(1), QQ(1))
    assert pw.cells == ()
    assert integrate(pw) == 0
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
    pw = build_scalar_solution([vec(1, 0), vec(0, 1), vec(-1, -1)], unit_box(2), QQ(1, 8))
    assert len(pw.copies) == 109
    assert calls == [unit_box(2), pw.base]
    assert pw.covered + pw.residual == 1


def test_triangle_cover_copies_per_scale_level():
    # The copy-count law at δ = 1/16: from the third level on each level
    # places three times the copies of the one before, until the bound is met.
    spec = build_pyramid(TRIANGLE)
    copies = cover(unit_box(2), spec.base, QQ(1, 16))
    levels = sorted({c.scale for c in copies}, reverse=True)
    assert levels == [QQ(1, 3) / 2**k for k in range(9)]
    per_level = [sum(c.scale == s for c in copies) for s in levels]
    assert per_level == [1, 1, 3, 9, 27, 81, 243, 729, 556]
    assert len(copies) == 1650


HEXAGON = Polytope.halfspaces(
    [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, 1), vec(-1, -1)], [QQ(1)] * 6
)


@pytest.mark.parametrize(
    "omega, delta, copies", [(unit_box(2), QQ(1, 8), 109), (HEXAGON, QQ(1, 4), None)]
)
def test_cover_clash_tests_agree_with_homothets_overlap(monkeypatch, omega, delta, copies):
    # Every clash test the cover makes, on integer ⟨a; g⟩ and per-level
    # integer bounds, against the reference on the copies' centers and
    # scales.
    spec = build_pyramid(TRIANGLE)
    normals = homothet_normals(vertices(spec.base))
    real = builder._clash
    outcomes = []

    def checked(bounds, first, second):
        (c1, _), (c2, _) = first, second
        outcomes.append(real(bounds, first, second))
        assert outcomes[-1] == homothets_overlap(normals, c1.center, c1.scale, c2.center, c2.scale)
        return outcomes[-1]

    monkeypatch.setattr(builder, "_clash", checked)
    placed = cover(omega, spec.base, delta)
    assert copies is None or len(placed) == copies
    assert sum(outcomes) >= 20 and len(outcomes) - sum(outcomes) >= 20, len(outcomes)


def test_omega_spelled_as_a_box_or_as_its_rows_builds_the_same_solution(monkeypatch):
    # A box and the same rows given as halfspaces fill their bounding box,
    # so no candidate copy is tested against Ω's rows; only the spelling
    # written back differs.  The hexagon does not fill its box: each grid
    # line keeps only the copies inside Ω, so every candidate built lies in
    # it, and no sign table is made but the base's, one per construct.
    real_copy, real_table, built, tables = builder.CoverCopy, builder.sign_table, [], []

    def recorded(center, scale):
        built.append(real_copy(center, scale))
        return built[-1]

    def counted(rows, points):
        tables.append(rows)
        return real_table(rows, points)

    monkeypatch.setattr(builder, "CoverCopy", recorded)
    monkeypatch.setattr(builder, "sign_table", counted)
    triangle = [vec(1, 0), vec(0, 1), vec(-1, -1)]
    box = Polytope.box(vec(0, 0), vec(1, 2))
    rows = Polytope.halfspaces(*rational_rows(box))
    a = build_scalar_solution(triangle, box, QQ(1, 4))
    built_a, built[:] = built[:], []
    b = build_scalar_solution(triangle, rows, QQ(1, 4))
    assert (a.copies, a.cells) == (b.copies, b.cells) and len(a.copies) == 18
    assert built_a == built and len(built) > 18
    doc_a, doc_b = encode_solution(a), encode_solution(b)
    assert doc_a.pop("omega") == {"box": {"low": ["0", "0"], "high": ["1", "2"]}}
    assert list(doc_b.pop("omega")) == ["halfspaces"]
    assert doc_a == doc_b
    built[:] = []
    hexagon = build_scalar_solution(triangle, HEXAGON, QQ(1, 4))
    assert len(hexagon.copies) == 27 and len(built) > 27
    corners = vertices(hexagon.base)
    for copy in built:
        placed = [v.scale(copy.scale) + copy.center for v in corners]
        table = sign_table(HEXAGON.rows, integer_points(placed))
        assert all(-1 not in row for row in table), copy
    assert len(tables) == 3


def copies_sha256(copies) -> str:
    """SHA-256 of one "scale center..." line per copy."""
    text = "".join(" ".join(str(x) for x in (c.scale, *c.center)) + "\n" for c in copies)
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


# The copies of domains that do not fill their bounding boxes, in
# ``TRIANGLE_COVER_SHA256``'s line format, recorded while every grid candidate
# was still tested against Ω's rows: the hexagon at δ = 1/8, at δ = 1/2 the
# thin triangle with ε = 1/40, whose cover then took about 40 s, and the
# prism covered by the 3-simplex pyramid's base.
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
    ],
    ids=["hexagon", "thin triangle", "prism"],
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
