"""Independent verification of piecewise-affine solutions.

The verifier trusts nothing the builder computed.  Each cell is turned
once into its checked form (``Form``) from its halfspace data alone:
``geometry.shape_form`` gives its vertices, facets, simplices, measure and
centroid c, in ints from rows to points, hence its integral |P|·(G·c + o),
once per cell shape.  It reads the cell pulled back through its copy,
which is exact for any copy, so a forged copy or cell costs only a memo
miss.  The form also holds the vertices of that shape and of the cell in
integer form, for the sign tables, its affine map [G | o] over one
denominator m, and the map's value at each vertex X/D as an integer
vector over m·D.  A copy t + s·B of the
base B is read only through its cells' shapes, as x ∈ t + s·B exactly
when (x − t)/s ∈ B.  Coverage is re-measured and ∫u re-summed from the
forms, and membership is re-checked against the problem's matrix set in
the pass that builds them.  The forms are the only reader of solution
cells: ``cell_forms`` serves the CLI's writers.  Every
check is an exact rational comparison; a report holds one failures
mapping, keyed by ``CHECKS`` in report order, and a check passes when it
names no failure.

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

Pairs of cells are found once, by a sort-and-sweep over the closed integer
bounding boxes of the re-enumerated vertices (``geometry.box_pairs``): two
cells whose boxes do not meet share no vertex, facet or interior point.
Each listed pair is visited once, in lexicographic order, and every
pairwise check reads the same two sign tables (``geometry.sign_table``):
the rows of each cell at the vertices of the other's form.
A column with no −1 is a vertex inside the other cell (continuity,
hadamard, and the unshared-facet scan of boundary, which loops over
each cell's facets); a row with no +1 separates the two cells, and the
exact ``interiors_intersect`` LP runs only for a pair that no row
separates (overlap).  A cell's values at its own vertices come from its
form; a vertex X/D of one cell is evaluated by the other cell's integer
map on the spot, over its m·D.  Values agree when they cross-multiply to
the same integers, jumps are compared in lowest terms, and the shared
vertices' affine rank is the rank of their integer differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .builder import Cell, PiecewiseAffine
from .errors import Unbounded
from .feasibility import SYMMETRIZED, InclusionProblem
from .geometry import (
    Polytope,
    box_pairs,
    extent,
    integer_points,
    integer_values,
    interiors_intersect,
    is_bounded,
    normals_positively_span,
    shape_form,
    sign_table,
    vertices,
)
from .linalg import Vec, _reduce, zero_vec

CHECKS = ("wellformed", "membership", "continuity", "hadamard", "boundary", "coverage", "integral")


@dataclass(frozen=True, slots=True)
class Report:
    """Verification outcome: each check's failures, keyed in ``CHECKS`` order.

    A check passes when its tuple is empty; ``passed`` when all of them do.
    """

    passed: bool
    failures: dict[str, tuple[str, ...]]
    covered: Fraction
    omega_measure: Fraction
    integral_value: Vec


@dataclass(frozen=True, slots=True)
class Form:
    """A cell as the checks and the writers read it: its ``geometry.shape_form``
    but the centroid, its integral, its map [G | o] over m and values over m·D."""

    shape: tuple[list[tuple[int, ...]], int]
    points: tuple[list[tuple[int, ...]], int]
    facets: list[frozenset[int]]
    simplices: list[tuple[int, ...]]
    measure: Fraction
    integral: Vec
    map: tuple[list[tuple[int, ...]], int]
    values: list[list[int]]


def _form(cell: Cell, pw: PiecewiseAffine, memo: dict) -> Form:
    # The cell's ``shape_form`` through its copy (x ↦ x for a copy index out
    # of range).  ∫(G·x + o) is |P| times G·x + o at the centroid C/c, over
    # m·c; a cell without volume has no centroid and a zero integral.
    g, o = cell.gradient, cell.offset
    copy = pw.copies[cell.copy] if 0 <= cell.copy < len(pw.copies) else None
    s, t = (copy.scale, copy.center) if copy else (Fraction(1), zero_vec(pw.ambient))
    shape, points, facets, simplices, measure, centroid = shape_form(cell.polytope, s, t, memo)
    gmap = integer_points([[*g.row(i), x] for i, x in enumerate(o)])
    (value,) = integer_values(gmap[0], centroid) or [[0] * len(o)]
    integral = Vec(tuple(measure * v / (gmap[1] * centroid[1]) for v in value))
    values = integer_values(gmap[0], points)
    return Form(shape, points, facets, simplices, measure, integral, gmap, values)


def cell_forms(pw: PiecewiseAffine) -> list[Form]:
    """Each cell's ``Form``, with one memo: the cells of a cover are
    enumerated and triangulated once per shape."""
    memo: dict = {}
    return [_form(cell, pw, memo) for cell in pw.cells]


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
    omega_points, omega_measure = extent(pw.omega)
    e_set = set(problem.matrices)
    fail: dict[str, list[str]] = {name: [] for name in CHECKS}

    # Ω and the problem's domain are bounded, so equal vertex lists mean
    # equal sets; equal rows do too, and then no second enumeration is needed.
    if problem.domain != pw.omega and omega_points != integer_points(vertices(problem.domain)):
        fail["wellformed"].append("domain differs from the problem's domain")

    # A nonempty region is bounded exactly when its normals positively
    # span QQⁿ; a zero normal fails.  That depends on the normals'
    # directions alone, which the cells of a cover repeat, so each list of
    # integer normals over their gcds (free of the offsets' denominators)
    # is decided once.
    bounded: dict[tuple, bool] = {}

    def region_bounded(p: Polytope) -> bool:
        key = tuple(tuple(x // (gcd(*r[:-1]) or 1) for x in r[:-1]) for r in p.rows)
        if key not in bounded:
            bounded[key] = all(map(any, key)) and normals_positively_span(p)
        return bounded[key]

    if not region_bounded(pw.base):
        fail["wellformed"].append("base polytope is unbounded")

    cells = list(pw.cells)
    # One checked form per cell; None for a cell that has none.
    forms: list[Form | None] = []
    memo: dict = {}
    usable: list[bool] = []
    for i, cell in enumerate(cells):
        form, reasons = None, []
        if cell.gradient.rows != d or cell.gradient.cols != n or len(cell.offset) != d:
            reasons.append("affine data has wrong shape")
        elif not region_bounded(cell.polytope):
            reasons.append("unbounded region")
        else:
            form = _form(cell, pw, memo)
            if form.measure == 0:
                reasons.append("degenerate (lower-dimensional) cell")
            if any(-1 in row for row in sign_table(pw.omega.rows, form.points)):
                reasons.append("vertex outside the domain")
        fail["wellformed"].extend(f"cell {i}: {reason}" for reason in reasons)
        forms.append(form)
        usable.append(not reasons)
        if reasons:
            continue
        # Membership of the usable cell's gradient, through the operator.
        g = cell.gradient
        if problem.operator == SYMMETRIZED and g.rows != g.cols:
            fail["membership"].append(
                f"cell {i}: gradient is not square under the symmetrized operator"
            )
        elif (g + g.transpose() if problem.operator == SYMMETRIZED else g) not in e_set:
            fail["membership"].append(f"cell {i}: gradient image is not an element of E")

    # Candidate pairs: cells of positive measure whose closed vertex
    # boxes meet.  No other pair shares a point.
    pairs = box_pairs([f.points if f and f.measure else ([], 1) for f in forms])

    # One visit per pair: overlap, value agreement and facet jumps all
    # read the same two sign tables.  inside[i] holds, for each usable
    # cell paired with usable cell i, the indices of the vertices of
    # cell i that lie in it.
    inside: list[list[frozenset[int]]] = [[] for _ in cells]
    for i, j in pairs:
        # at[owner, other]: the rows of ``other`` at the vertices of ``owner``.
        at = {
            (owner, other): sign_table(cells[other].polytope.rows, forms[owner].points)
            for owner, other in ((i, j), (j, i))
        }
        # A row of one cell with no vertex of the other strictly inside
        # it separates their interiors; only unseparated pairs need an LP.
        separated = any(1 not in row for table in at.values() for row in table)
        if not separated and interiors_intersect(cells[i].polytope, cells[j].polytope):
            fail["coverage"].append(f"cells {i}/{j}: interiors overlap")
        if not (usable[i] and usable[j]):
            continue
        # The jump value_i − value_j at each shared vertex X/D, cross-multiplied
        # over m_i·m_j·D and reduced by its gcd.
        mi, mj = forms[i].map[1], forms[j].map[1]
        shared, jumps = [], set()
        for (owner, other), table in at.items():
            found = [k for k, col in enumerate(zip(*table)) if -1 not in col]
            inside[owner].append(frozenset(found))
            xs, den = forms[owner].points
            for k in found:
                own = forms[owner].values[k]
                theirs = integer_values(forms[other].map[0], ([xs[k]], den))[0]
                vi, vj = (own, theirs) if owner == i else (theirs, own)
                jump = [x * mj - y * mi for x, y in zip(vi, vj)] + [mi * mj * den]
                if any(jump[:-1]):
                    fail["continuity"].append(f"cells {i}/{j}: value mismatch at a shared vertex")
                g = gcd(*jump)
                jumps.add(tuple(x // g for x in jump))
                shared.append((xs[k], den))
        # The jump is affine, (G_i − G_j)·x + (o_i − o_j), and its rows lie
        # along the facet normal exactly when it is constant on a shared
        # facet, that is on n affinely spanning shared vertices.  Their affine
        # rank is that of the differences X/D − X₀/D₀, each over D·D₀.
        if len(jumps) > 1:
            (x0, d0), *rest = shared
            if len(_reduce([[x * d0 - y * e for x, y in zip(v, x0)] for v, e in rest])) == n - 1:
                fail["hadamard"].append(
                    f"cells {i}/{j}: gradient jump is not aligned with the facet normal"
                )

    # Boundary: zero on the covering copy's boundary, and on any facet
    # that borders the uncovered region.  A vertex has the signs against
    # its copy that its pull-back, in the cell's shape, has against the base.
    for i, cell in enumerate(cells):
        if not usable[i]:
            continue
        form = forms[i]
        if not 0 <= cell.copy < len(pw.copies):
            fail["boundary"].append(f"cell {i}: copy index out of range")
            continue
        for k, col in enumerate(zip(*sign_table(pw.base.rows, form.shape))):
            if -1 in col:
                fail["boundary"].append(f"cell {i}: vertex outside its covering copy")
                break
            if 0 in col and any(form.values[k]):
                fail["boundary"].append(f"cell {i}: nonzero value on the copy boundary")
                break
        # Facets not shared with any other cell border the zero region.
        for facet in form.facets:
            if any(found >= facet for found in inside[i]):
                continue
            if any(any(form.values[k]) for k in facet):
                fail["boundary"].append(f"cell {i}: nonzero value on an unshared facet")
                break

    # Coverage accounting, re-measured from the cells themselves.
    formed = [f for f in forms if f]
    covered = sum((f.measure for f in formed), Fraction(0))
    if covered != pw.covered:
        fail["coverage"].append(
            f"claimed covered measure {pw.covered} disagrees with the re-measured {covered}"
        )
    if covered + pw.residual != omega_measure:
        fail["coverage"].append(
            f"measure books do not add up: {covered} + {pw.residual} != {omega_measure}"
        )
    if covered < (1 - delta) * omega_measure:
        fail["coverage"].append(
            f"covered measure {covered} is below the bound (1 - {delta})*{omega_measure}"
        )

    total = sum((f.integral for f in formed), zero_vec(d))
    if problem.operator == SYMMETRIZED and cells and total.is_zero():
        fail["integral"].append("symmetrized solution integrates to zero")

    failures = {name: tuple(fail[name]) for name in CHECKS}
    return Report(
        passed=not any(failures.values()),
        failures=failures,
        covered=covered,
        omega_measure=omega_measure,
        integral_value=total,
    )
