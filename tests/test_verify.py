"""Independent verification: round trips and injected faults."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from fractions import Fraction as QQ

import pytest

from inclusionkit.builder import assemble_solution, build_scalar_solution
from inclusionkit.cli import main as cli_main
from inclusionkit.errors import Unbounded
from inclusionkit.feasibility import (
    GRADIENT,
    SYMMETRIZED,
    InclusionProblem,
    decide,
)
from inclusionkit.geometry import Polytope, is_bounded, unit_box, vertices
from inclusionkit.linalg import mat, unit_vec, vec
from inclusionkit.products import sym_product, tensor
from inclusionkit.verify import measure, verify_solution


def scalar_problem():
    return InclusionProblem.gradient([mat([[1]]), mat([[-1]])])


def planar_problem():
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    return InclusionProblem.gradient([mat(r) for r in rows])


def sym_problem():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    return InclusionProblem.symmetrized(mats)


def solve(problem, delta):
    verdict = decide(problem)
    return assemble_solution(verdict, problem.domain, delta, problem.operator)


def failures(report):
    out = []
    for name in (
        "wellformed", "membership", "continuity", "hadamard",
        "boundary", "coverage", "integral",
    ):
        out.extend(getattr(report, name).failures)
    return out


# ---------------------------------------------------------------- measure


def test_measure_examples():
    assert measure(unit_box(3)) == 1
    assert measure(Polytope.box(vec(0, 0), vec(2, 3))) == 6
    with pytest.raises(Unbounded):
        measure(Polytope.halfspaces([vec(1)], [QQ(1)]))


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
    bad = dataclasses.replace(cells[0], gradient=cells[0].gradient.scale(QQ(2)))
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
    shifted = dataclasses.replace(cells[0], offset=cells[0].offset + vec(QQ(1, 7)))
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
    target = next(i for i, c in enumerate(cells) if c.gradient.entry(0, 0) == 1)
    # Replace the whole affine piece consistently so only membership trips.
    alien = dataclasses.replace(
        cells[target],
        gradient=mat([[3]]),
        offset=cells[target].offset,
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
        cells[0], polytope=cells[0].polytope.scale_translate(QQ(2), vec(0))
    )
    cells[0] = grown
    broken = dataclasses.replace(pw, cells=tuple(cells))
    report = verify_solution(p, broken)
    assert not report.passed


def test_zero_mean_symmetrized_fault_is_caught():
    p = sym_problem()
    pw = solve(p, QQ(1, 2))
    flipped = []
    for c in pw.cells:
        flipped.append(dataclasses.replace(c, gradient=-c.gradient, offset=-c.offset))
    # Negating u keeps every pointwise constraint but flips the mean; zeroing
    # it out instead is simulated by dropping all cells while keeping claims.
    broken = dataclasses.replace(pw, cells=tuple(flipped))
    report = verify_solution(p, broken)
    # -u still solves the inclusion (E is symmetric) with nonzero mean.
    assert report.passed
    assert report.integral_value == vec(QQ(-1, 6), 0)


def test_report_shape():
    p = scalar_problem()
    pw = solve(p, QQ(1, 4))
    report = verify_solution(p, pw)
    for name in (
        "wellformed", "membership", "continuity", "hadamard",
        "boundary", "coverage", "integral",
    ):
        check = getattr(report, name)
        assert check.passed and check.failures == ()


def test_solution_for_another_domain_is_caught():
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    small = Polytope.box(vec(0, 0), vec(QQ(1, 10), QQ(1, 10)))
    pw = solve(InclusionProblem.gradient([mat(r) for r in rows], small), QQ(1, 4))
    report = verify_solution(planar_problem(), pw)
    assert not report.passed
    assert not report.wellformed.passed
    assert any("domain differs" in m for m in failures(report))


def triangle_problem():
    return InclusionProblem.gradient([mat([[1, 0]]), mat([[0, 1]]), mat([[-1, -1]])])


def unbounded_forgery(cell):
    """Replace facet BC of the triangular cell ABC by two halfspaces through
    B and C, both parallel to (B+C)/2 - A: an unbounded region with the
    same three vertices."""
    sides = list(zip(cell.polytope.normals, cell.polytope.offsets))[:-1]
    verts = vertices(cell.polytope)
    apex = next(v for v in verts if all(a.dot(v) == c for a, c in sides))
    b, c = (v for v in verts if v != apex)
    d = (b + c).scale(QQ(1, 2)) - apex
    normal = vec(-d[1], d[0])
    for p in (b, c):
        sign = 1 if normal.dot(apex) <= normal.dot(p) else -1
        sides.append((normal.scale(QQ(sign)), sign * normal.dot(p)))
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
        assert f"cell {i}: unbounded region" in report.wellformed.failures


def test_region_with_zero_normals_fails_wellformed():
    p = planar_problem()
    pw = solve(p, QQ(1, 4))
    zero = vec(0, 0)
    cell = pw.cells[0]
    padded = Polytope.halfspaces(
        cell.polytope.normals + (zero,), cell.polytope.offsets + (QQ(1),)
    )
    only_zero = Polytope.halfspaces([zero], [QQ(1)])
    for region in (padded, only_zero):
        cells = (dataclasses.replace(cell, polytope=region),) + pw.cells[1:]
        report = verify_solution(p, dataclasses.replace(pw, cells=cells))
        assert not report.wellformed.passed
        assert "cell 0: unbounded region" in report.wellformed.failures
    report = verify_solution(p, dataclasses.replace(pw, base=only_zero))
    assert "base polytope is unbounded" in report.wellformed.failures


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
