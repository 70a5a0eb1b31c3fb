"""Independent verification of piecewise-affine solutions.

The verifier trusts nothing the builder computed.  Each cell's vertices
and facets are re-derived from its halfspace data by one
``geometry.faces`` call, the cell is triangulated once over them,
coverage and ∫u are re-measured cell by cell from that triangulation,
and membership is re-checked against the problem's matrix set.  Every
check is an exact rational comparison; a report either passes outright
or names the failing check and the offending cell.

Checks, per solution:

  wellformed   Ω is the problem's domain; the base and every cell are
               bounded; cells are full-dimensional, inside Ω, with
               consistent shapes.
  membership   the gradient of every cell, pushed through the
               operator, is an element of E.
  continuity   any vertex of one cell lying in another cell gets the
               same value from both affine maps.
  hadamard     gradient jumps across shared facets are rank-one along
               the facet normal: the jump value_i − value_j is constant
               on the vertices the two cells share.
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
point.  Each listed pair is visited once, in lexicographic order, and
every pairwise check reads the same two sign tables
(``geometry.sign_table``): the rows of each cell at the vertices of the
other, from integer forms of both built once per cell.
A column with no −1 is a vertex inside the other cell (continuity,
hadamard, and the unshared-facet scan of boundary, which loops over
each cell's facets from ``faces``); a row with no +1 separates the two
cells, and the exact ``interiors_intersect`` LP runs only for a pair
that no row separates (overlap).  Each cell's values at its own
vertices are computed once; only a vertex of one cell evaluated by the
other cell's map is computed on the spot.
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
    faces,
    integer_points,
    integer_rows,
    interiors_intersect,
    is_bounded,
    moments,
    normals_positively_span,
    sign_table,
    triangulate,
    vertices,
    volume,
)
from .linalg import Vec, zero_vec


def measure(p: Polytope) -> Fraction:
    """Exact Lebesgue measure; raises Unbounded on unbounded input."""
    if not is_bounded(p):
        raise Unbounded("polytope is unbounded")
    return volume(p)


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
    if not is_bounded(pw.omega):
        raise Unbounded("polytope is unbounded")
    omega_verts, omega_facets = faces(pw.omega)
    omega_measure = moments(triangulate(omega_verts, omega_facets))[0]
    e_set = set(problem.matrices)

    wf_fail: list[str] = []
    mem_fail: list[str] = []
    cont_fail: list[str] = []
    had_fail: list[str] = []
    bnd_fail: list[str] = []
    cov_fail: list[str] = []

    # Ω and the problem's domain are bounded, so equal vertex lists mean
    # equal sets.
    if omega_verts != vertices(problem.domain):
        wf_fail.append("domain differs from the problem's domain")

    # A nonempty region is bounded exactly when its normals positively
    # span QQⁿ; a zero normal fails.  That depends on the normals alone,
    # and the cells of a cover repeat a few normal lists, so each list is
    # decided once.  A box has no normals and is always bounded.
    bounded: dict[tuple, bool] = {}

    def region_bounded(p: Polytope) -> bool:
        key = (p.kind, p.ambient, p.normals)
        if key not in bounded:
            bounded[key] = not any(a.is_zero() for a in p.normals) and normals_positively_span(p)
        return bounded[key]

    if not region_bounded(pw.base):
        wf_fail.append("base polytope is unbounded")

    cells = list(pw.cells)
    omega_rows = integer_rows(pw.omega)
    cell_verts: list[list[Vec]] = []
    # Each cell's rows and vertices in integer form, for every sign table.
    cell_rows: dict[int, list[list[int]]] = {}
    cell_points: dict[int, tuple[list[tuple[int, ...]], int]] = {}
    cell_facets: list[list[frozenset[int]]] = []
    cell_vols: list[Fraction] = []
    usable: list[bool] = []
    total = zero_vec(d)
    for i, cell in enumerate(cells):
        ok = True
        if cell.gradient.rows != d or cell.gradient.cols != n or len(cell.offset) != d:
            reason = "affine data has wrong shape"
        elif not region_bounded(cell.polytope):
            reason = "unbounded region"
        else:
            reason = None
        if reason:
            wf_fail.append(f"cell {i}: {reason}")
            cell_verts.append([])
            cell_facets.append([])
            cell_vols.append(Fraction(0))
            usable.append(False)
            continue
        # One faces call and one moments pass per cell give its measure
        # and its ∫(G·x + o) = G·∫x + |P|·o.  A cell that is not
        # full-dimensional has no facets, so no simplices and zero measure.
        verts, facets = faces(cell.polytope)
        vol, first = moments(triangulate(verts, facets))
        cell_verts.append(verts)
        cell_rows[i], cell_points[i] = integer_rows(cell.polytope), integer_points(verts)
        cell_facets.append(facets)
        cell_vols.append(vol)
        if vol == 0:
            wf_fail.append(f"cell {i}: degenerate (lower-dimensional) cell")
            ok = False
        else:
            total = total + cell.gradient.matvec(first) + cell.offset.scale(vol)
        if any(-1 in row for row in sign_table(omega_rows, cell_points[i])):
            wf_fail.append(f"cell {i}: vertex outside the domain")
            ok = False
        usable.append(ok)

    def value_at(i: int, x: Vec) -> Vec:
        return cells[i].gradient.matvec(x) + cells[i].offset

    # Each usable cell's values at its own vertices, computed once.
    cell_vals = [
        [value_at(i, v) for v in cell_verts[i]] if usable[i] else [] for i in range(len(cells))
    ]

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

    # One visit per pair: overlap, value agreement and facet jumps all
    # read the same two sign tables.  inside[i] holds, for each usable
    # cell paired with usable cell i, the indices of the vertices of
    # cell i that lie in it.
    inside: list[list[frozenset[int]]] = [[] for _ in cells]
    for i, j in pairs:
        # at[owner, other]: the rows of ``other`` at the vertices of ``owner``.
        at = {
            (owner, other): sign_table(cell_rows[other], cell_points[owner])
            for owner, other in ((i, j), (j, i))
        }
        # A row of one cell with no vertex of the other strictly inside
        # it separates their interiors; only unseparated pairs need an LP.
        separated = any(1 not in row for table in at.values() for row in table)
        if not separated and interiors_intersect(cells[i].polytope, cells[j].polytope):
            cov_fail.append(f"cells {i}/{j}: interiors overlap")
        if not (usable[i] and usable[j]):
            continue
        # The jump value_i − value_j at each shared vertex.
        jumps: dict[Vec, Vec] = {}
        for (owner, other), table in at.items():
            found = [k for k, col in enumerate(zip(*table)) if -1 not in col]
            inside[owner].append(frozenset(found))
            for k in found:
                v = cell_verts[owner][k]
                own, theirs = cell_vals[owner][k], value_at(other, v)
                if own != theirs:
                    cont_fail.append(f"cells {i}/{j}: value mismatch at a shared vertex")
                jumps[v] = own - theirs if owner == i else theirs - own
        # The jump is affine, (G_i − G_j)·x + (o_i − o_j), and its rows lie
        # along the facet normal exactly when it is constant on a shared
        # facet, that is on n affinely spanning shared vertices.
        if len(set(jumps.values())) > 1 and affine_dim(list(jumps)) == n - 1:
            had_fail.append(f"cells {i}/{j}: gradient jump is not aligned with the facet normal")

    # Boundary: zero on the covering copy's boundary, and on any facet
    # that borders the uncovered region.
    copy_rows = [integer_rows(pw.base.scale_translate(c.scale, c.center)) for c in pw.copies]
    for i, cell in enumerate(cells):
        if not usable[i]:
            continue
        if not 0 <= cell.copy < len(copy_rows):
            bnd_fail.append(f"cell {i}: copy index out of range")
            continue
        for k, col in enumerate(zip(*sign_table(copy_rows[cell.copy], cell_points[i]))):
            if -1 in col:
                bnd_fail.append(f"cell {i}: vertex outside its covering copy")
                break
            if 0 in col and not cell_vals[i][k].is_zero():
                bnd_fail.append(f"cell {i}: nonzero value on the copy boundary")
                break
        # Facets not shared with any other cell border the zero region.
        for facet in cell_facets[i]:
            if any(found >= facet for found in inside[i]):
                continue
            if any(not cell_vals[i][k].is_zero() for k in facet):
                bnd_fail.append(f"cell {i}: nonzero value on an unshared facet")
                break

    # Coverage accounting, re-measured from the cells themselves.
    covered = sum((cell_vols[i] for i in range(len(cells))), Fraction(0))
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
