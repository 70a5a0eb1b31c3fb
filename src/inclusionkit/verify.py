"""Independent verification of piecewise-affine solutions.

The verifier trusts nothing the builder computed.  Cell vertices are
re-enumerated from the halfspace data and each cell is triangulated
once over them, coverage and ∫u are re-measured cell by cell from that
triangulation, and membership is re-checked against the problem's
matrix set.  Every check is an exact rational comparison; a report
either passes outright or names the failing check and the offending
cell.

Checks, per solution:

  wellformed   Ω is the problem's domain; the base and every cell are
               bounded; cells are full-dimensional, inside Ω, with
               consistent shapes.
  membership   the gradient of every cell, pushed through the
               operator, is an element of E.
  continuity   any vertex of one cell lying in another cell gets the
               same value from both affine maps.
  hadamard     gradient jumps across shared facets are rank-one along
               the facet normal.
  boundary     values vanish where a cell meets its covering copy's
               boundary, and on any cell facet not shared with another
               cell (the edge of the covered region).
  coverage     cells are pairwise interior-disjoint, their measures sum
               to the claimed coverage, covered + residual = |Ω|, and
               the uncovered part is at most δ·|Ω|.
  integral     ∫u is recomputed; symmetrized solutions with at least
               one cell must integrate to a nonzero vector.

Pairs of cells are found once, by a sort-and-sweep over the closed
bounding boxes of the re-enumerated vertices (``geometry.box_pairs``):
two cells whose boxes do not meet share no vertex, facet or interior
point, so every pairwise check (continuity, hadamard, the unshared-facet
scan of boundary, and overlap) visits only the listed pairs, in
lexicographic order.  Hadamard runs only on pairs with a value mismatch,
since maps that agree on a shared facet jump along its normal.  Overlap
first looks for a row of one cell with every vertex of the other on its
far side (``geometry.facet_separates``) and solves the exact
``interiors_intersect`` LP only when no row separates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .builder import PiecewiseAffine
from .errors import Unbounded
from .feasibility import SYMMETRIZED, InclusionProblem
from .geometry import (
    Polytope,
    affine_dim,
    box_pairs,
    facet_separates,
    interiors_intersect,
    is_bounded,
    moments,
    normals_positively_span,
    triangulate,
    vertices,
    volume,
)
from .linalg import Mat, Vec, kernel, span_of, zero_vec


def measure(p: Polytope) -> Fraction:
    """Exact Lebesgue measure; raises Unbounded on unbounded input."""
    if not is_bounded(p):
        raise Unbounded("polytope is unbounded")
    return volume(p)


def _bounded(p: Polytope) -> bool:
    """Whether the region's normals positively span QQⁿ; a zero normal fails.

    A nonempty region is bounded exactly then.
    """
    return not any(a.is_zero() for a in p.normals) and normals_positively_span(p)


@dataclass(frozen=True, slots=True)
class CheckResult:
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Report:
    """Verification outcome; ``passed`` is the conjunction of all checks."""

    passed: bool
    wellformed: CheckResult
    membership: CheckResult
    continuity: CheckResult
    hadamard: CheckResult
    boundary: CheckResult
    coverage: CheckResult
    integral: CheckResult
    covered: Fraction
    omega_measure: Fraction
    integral_value: Vec


def _facet_normal(points: list[Vec], n: int) -> Vec | None:
    """A normal direction of an (n-1)-dimensional affine hull."""
    p0 = points[0]
    rows = [list((p - p0).entries) for p in points[1:]]
    if not rows:
        if n == 1:
            return Vec((Fraction(1),))
        return None
    k = kernel(Mat.from_rows(rows))
    if k.dim != 1:
        return None
    return k.basis[0]


def verify_solution(
    problem: InclusionProblem,
    pw: PiecewiseAffine,
    delta: Fraction | None = None,
) -> Report:
    """Check a serialized solution against its problem, exactly."""
    if delta is None:
        delta = pw.delta
    n = pw.ambient
    d = pw.value_dim
    omega_measure = measure(pw.omega)
    e_set = set(problem.matrices)

    wf_fail: list[str] = []
    mem_fail: list[str] = []
    cont_fail: list[str] = []
    had_fail: list[str] = []
    bnd_fail: list[str] = []
    cov_fail: list[str] = []

    # measure() raised on an unbounded Ω and the problem's domain is
    # bounded, so equal vertex lists mean equal sets.
    if vertices(pw.omega) != vertices(problem.domain):
        wf_fail.append("domain differs from the problem's domain")
    if not _bounded(pw.base):
        wf_fail.append("base polytope is unbounded")

    cells = list(pw.cells)
    cell_verts: list[list[Vec]] = []
    cell_vols: list[Fraction] = []
    usable: list[bool] = []
    total = zero_vec(d)
    for i, cell in enumerate(cells):
        ok = True
        if cell.gradient.rows != d or cell.gradient.cols != n or len(cell.offset) != d:
            reason = "affine data has wrong shape"
        elif not _bounded(cell.polytope):
            reason = "unbounded region"
        else:
            reason = None
        if reason:
            wf_fail.append(f"cell {i}: {reason}")
            cell_verts.append([])
            cell_vols.append(Fraction(0))
            usable.append(False)
            continue
        # One vertex list and one moments pass per cell give its measure
        # and its ∫(G·x + o) = G·∫x + |P|·o.  triangulate returns no
        # simplices, so zero measure, exactly when the cell is not
        # full-dimensional.
        verts = vertices(cell.polytope)
        vol, first = moments(triangulate(cell.polytope, verts))
        cell_verts.append(verts)
        cell_vols.append(vol)
        if vol == 0:
            wf_fail.append(f"cell {i}: degenerate (lower-dimensional) cell")
            ok = False
        else:
            total = total + cell.gradient.matvec(first) + cell.offset.scale(vol)
        for v in verts:
            if not pw.omega.contains(v):
                wf_fail.append(f"cell {i}: vertex outside the domain")
                ok = False
                break
        usable.append(ok)

    def value_at(i: int, x: Vec) -> Vec:
        return cells[i].gradient.matvec(x) + cells[i].offset

    # Membership of each usable cell's gradient, through the operator.
    for i, cell in enumerate(cells):
        if not usable[i]:
            continue
        g = cell.gradient
        if problem.operator == SYMMETRIZED:
            if g.rows != g.cols:
                mem_fail.append(f"cell {i}: gradient is not square under the symmetrized operator")
                continue
            image = g + g.transpose()
        else:
            image = g
        if image not in e_set:
            mem_fail.append(f"cell {i}: gradient image is not an element of E")

    # Candidate pairs: cells of positive measure whose closed vertex
    # boxes meet.  No other pair shares a point.
    pairs = box_pairs([cell_verts[i] if cell_vols[i] else [] for i in range(len(cells))])
    near: list[list[int]] = [[] for _ in cells]
    for i, j in pairs:
        near[i].append(j)
        near[j].append(i)

    # Pairwise value agreement and facet jump directions.  inside[i, j]
    # lists the vertices of cell i that lie in cell j.
    inside: dict[tuple[int, int], list[Vec]] = {}
    for i, j in pairs:
        if not (usable[i] and usable[j]):
            continue
        shared: list[Vec] = []
        mismatch = False
        for owner, other in ((i, j), (j, i)):
            found = [v for v in cell_verts[owner] if cells[other].polytope.contains(v)]
            inside[owner, other] = found
            for v in found:
                if value_at(i, v) != value_at(j, v):
                    cont_fail.append(f"cells {i}/{j}: value mismatch at a shared vertex")
                    mismatch = True
                if v not in shared:
                    shared.append(v)
        # Maps that agree on n affinely spanning points of a shared facet
        # agree on its hull, so the jump lies in span(ν): only a pair with
        # a mismatch can fail here.
        if not mismatch or affine_dim(shared) != n - 1:
            continue
        nu = _facet_normal(shared, n)
        if nu is None:
            had_fail.append(f"cells {i}/{j}: shared facet has no unique normal")
            continue
        diff = cells[i].gradient - cells[j].gradient
        span_nu = span_of([nu], n)
        for r in range(d):
            row = diff.row(r)
            if not row.is_zero() and not span_nu.contains_vector(row):
                had_fail.append(
                    f"cells {i}/{j}: gradient jump is not aligned with the facet normal"
                )
                break

    # Boundary: zero on the covering copy's boundary, and on any facet
    # that borders the uncovered region.
    copy_polys: list[Polytope] = [
        pw.base.scale_translate(c.scale, c.center) for c in pw.copies
    ]
    for i, cell in enumerate(cells):
        if not usable[i]:
            continue
        if not 0 <= cell.copy < len(copy_polys):
            bnd_fail.append(f"cell {i}: copy index out of range")
            continue
        qrows = copy_polys[cell.copy].rows()
        for v in cell_verts[i]:
            if not copy_polys[cell.copy].contains(v):
                bnd_fail.append(f"cell {i}: vertex outside its covering copy")
                break
            on_boundary = any(a.dot(v) == c for a, c in qrows)
            if on_boundary and not value_at(i, v).is_zero():
                bnd_fail.append(f"cell {i}: nonzero value on the copy boundary")
                break
        # Facets not shared with any other cell border the zero region.
        for a, c in cell.polytope.rows():
            tight = [v for v in cell_verts[i] if a.dot(v) == c]
            if affine_dim(tight) != n - 1:
                continue
            covered_by_other = any(
                all(v in inside[i, j] for v in tight) for j in near[i] if usable[j]
            )
            if covered_by_other:
                continue
            if any(not value_at(i, v).is_zero() for v in tight):
                bnd_fail.append(f"cell {i}: nonzero value on an unshared facet")
                break

    # Coverage accounting, re-measured from the cells themselves.
    covered = sum((cell_vols[i] for i in range(len(cells))), Fraction(0))
    for i, j in pairs:
        p, q = cells[i].polytope, cells[j].polytope
        if facet_separates(p, cell_verts[j]) or facet_separates(q, cell_verts[i]):
            continue
        if interiors_intersect(p, q):
            cov_fail.append(f"cells {i}/{j}: interiors overlap")
    if covered != pw.covered:
        cov_fail.append(
            f"claimed covered measure {pw.covered} disagrees with the re-measured {covered}"
        )
    if covered + pw.residual != omega_measure:
        cov_fail.append(
            f"measure books do not add up: {covered} + {pw.residual} != {omega_measure}"
        )
    if covered < (1 - delta) * omega_measure:
        cov_fail.append(
            f"covered measure {covered} is below the bound (1 - {delta})*{omega_measure}"
        )

    int_fail: list[str] = []
    if problem.operator == SYMMETRIZED and cells and total.is_zero():
        int_fail.append("symmetrized solution integrates to zero")

    results = {
        "wellformed": CheckResult(not wf_fail, tuple(wf_fail)),
        "membership": CheckResult(not mem_fail, tuple(mem_fail)),
        "continuity": CheckResult(not cont_fail, tuple(cont_fail)),
        "hadamard": CheckResult(not had_fail, tuple(had_fail)),
        "boundary": CheckResult(not bnd_fail, tuple(bnd_fail)),
        "coverage": CheckResult(not cov_fail, tuple(cov_fail)),
        "integral": CheckResult(not int_fail, tuple(int_fail)),
    }
    return Report(
        passed=all(r.passed for r in results.values()),
        covered=covered,
        omega_measure=omega_measure,
        integral_value=total,
        **results,
    )
