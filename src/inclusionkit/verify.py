"""Independent verification of piecewise-affine solutions.

The verifier trusts nothing the builder computed.  Each cell is turned
once into its checked form (``Form``) from its halfspace data alone:
``geometry.shape_form`` gives its vertices, facets, simplices, measure and
centroid c, in ints from rows to points, once per cell shape; the cell's
integer map [G | o] over m (``builder.Cell``) gives its values and its
integral |P|·(G·c + o), and no check relies on m being in lowest terms:
each is homogeneous in m.  It reads the cell pulled back through its copy
t + s·B, as x ∈ t + s·B exactly when (x − t)/s ∈ B, which is exact for any
copy, so a forged copy or cell costs only a memo miss.  A copy is its
integers in lowest terms, t = T/L and s = S/L with gcd(T, S, L) = 1
(``geometry.CoverCopy``), as a file's copy decodes.  Coverage is
re-measured and ∫u re-summed from the forms; membership and each cell's
copy check run in the pass that builds them, and ``cell_forms`` serves
the CLI's writers.  Every check is an exact rational comparison; a report
holds one failures mapping, keyed by ``CHECKS`` in report order, and a
check passes when it names no failure.

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

Pairs of cells are listed once, by a sort-and-sweep over the closed integer
bounding boxes of the re-enumerated vertices (``geometry.box_pairs``), and
visited in lexicographic order.  Every pairwise check reads the same two
sign tables (``geometry.sign_table``), the rows of each cell at the
vertices of the other's form.  A column with no −1 is a vertex inside the
other cell (continuity, hadamard, and the unshared-facet scan of
boundary); a row with no +1 separates the two cells.  Any other pair
overlaps exactly when the rows of both cut out a polytope with facets
(``geometry.faces``): it is bounded, as both cells are, and ``faces``
gives a bounded polytope facets exactly when it is full-dimensional; no
LP runs in the pair loop.  A vertex X/D of one cell is evaluated by the
other cell's integer map over its m·D; values agree when they
cross-multiply to the same integers, jumps are compared in lowest terms,
and the shared vertices' affine rank is the rank of their integer
differences.

Clean cells (usable, and passing the copy check) are visited in fewer pairs.
The copy lemma: let x ∈ i ∩ j, with i ⊂ A and j ⊂ B for copies A ≠ B with
disjoint interiors (``geometry.homothets_overlap``, once per copy pair).
Then x lies in ∂A ∩ ∂B.  u_i(x) = 0 by i's copy check, as u_i vanishes at
the vertices of i's face on a row of A tight at x.  u_j vanishes on the face
of j on the tight row of B, so u_j(x) = 0.  Every jump is therefore 0, the
interiors do not meet, and any facet shared across copies lies in ∂A, where
its values are already zero: such a pair is skipped.  Inside one copy each
pairwise check is invariant under the pull-back y = (x − t)/s, u ↦
u(t + s·y)/s, so a pair's outcome is kept under both cells' pulled-back
shapes and maps.  An unbounded base skips nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .builder import Cell, PiecewiseAffine
from .errors import Unbounded
from .feasibility import SYMMETRIZED, InclusionProblem
from .geometry import (
    CoverCopy,
    Polytope,
    box_pairs,
    extent,
    faces,
    homothet_normals,
    homothets_overlap,
    integer_values,
    is_bounded,
    normals_positively_span,
    shape_form,
    sign_table,
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
    but the centroid, its integral, and its values over m·D at its points X/D,
    m the denominator of the cell's map."""

    shape: tuple[list[tuple[int, ...]], int]
    points: tuple[list[tuple[int, ...]], int]
    facets: list[frozenset[int]]
    simplices: list[tuple[int, ...]]
    measure: Fraction
    integral: Vec
    values: list[list[int]]


def _form(cell: Cell, pw: PiecewiseAffine, memo: dict) -> Form:
    # The cell's ``shape_form`` through its copy (x ↦ x for a copy index out
    # of range).  ∫(G·x + o) is |P| times G·x + o at the centroid C/c, over
    # m·c; a cell without volume has no centroid and a zero integral.
    rows, m = cell.map
    known = 0 <= cell.copy < len(pw.copies)
    copy = pw.copies[cell.copy] if known else CoverCopy((0,) * pw.ambient, 1, 1)
    shape, points, facets, simplices, measure, centroid = shape_form(cell.polytope, copy, memo)
    (value,) = integer_values(rows, centroid) or [[0] * len(rows)]
    integral = Vec(tuple(measure * v / (m * centroid[1]) for v in value))
    values = integer_values(rows, points)
    return Form(shape, points, facets, simplices, measure, integral, values)


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
    # E's cleared rows with the shape they share: a gradient's image is a
    # member exactly when its flat entries clear to one of them.
    e_set = {(problem.m, problem.n, f, r) for r, f in zip(problem.rows, problem.lcms)}
    fail: dict[str, list[str]] = {name: [] for name in CHECKS}

    # Ω and the problem's domain are bounded, so equal vertex lists mean
    # equal sets; equal rows do too, and then no second enumeration is needed.
    if problem.domain != pw.omega and omega_points != faces(problem.domain)[0]:
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
    # One form per cell, or None; a usable cell's copy-check failure edge[i],
    # a clean one's pull-back pulled[i].
    forms: list[Form | None] = []
    memo: dict = {}
    usable: list[bool] = []
    edge, pulled = {}, {}
    for i, cell in enumerate(cells):
        form, reasons, (rows, m) = None, [], cell.map
        if len(rows) != d or any(len(r) != n + 1 for r in rows) or m < 1:
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
        # Membership of the usable cell's gradient G/m, through the operator:
        # the image's flat entries over m, over their gcd with m.
        if problem.operator == SYMMETRIZED and d != n:
            fail["membership"].append(
                f"cell {i}: gradient is not square under the symmetrized operator"
            )
        else:
            if problem.operator == SYMMETRIZED:
                flat = [r[j] + rows[j][k] for k, r in enumerate(rows) for j in range(n)]
            else:
                flat = [x for r in rows for x in r[:-1]]
            g = gcd(m, *flat)
            if (d, n, m // g, tuple(x // g for x in flat)) not in e_set:
                fail["membership"].append(f"cell {i}: gradient image is not an element of E")
        # Zero on the covering copy's boundary: a vertex has the signs against
        # its copy that its pull-back, in the cell's shape, has against the base.
        if not 0 <= cell.copy < len(pw.copies):
            edge[i] = "copy index out of range"
            continue
        for k, col in enumerate(zip(*sign_table(pw.base.rows, form.shape))):
            if -1 in col or 0 in col and any(form.values[k]):
                edge[i] = "vertex outside its covering copy" if -1 in col else (
                    "nonzero value on the copy boundary"
                )
                break
        else:  # Clean: its shape, and [G | o] over m pulled back, [G·S | G·T + o·L] over m·S.
            (xs, den), c = form.shape, pw.copies[cell.copy]
            flat = [x * c.size for r in rows for x in r[:-1]]
            flat += integer_values(rows, ([c.shift], c.den))[0]
            g = gcd(m * c.size, *flat)
            pulled[i] = tuple(xs), den, tuple(x // g for x in flat), m * c.size // g

    # Candidate pairs: cells of positive measure whose closed vertex
    # boxes meet.  No other pair shares a point.
    pairs = box_pairs([f.points if f and f.measure else ([], 1) for f in forms])

    @cache
    def normals() -> list:
        # The base's ``homothet_normals`` (a, H, H⁻) over its vertices' D, as (D·a, H, H⁻);
        # none (every pair of copies overlaps) when unbounded.
        if not region_bounded(pw.base):
            return []
        points, facets = faces(pw.base)
        return [
            (tuple(points[1] * x for x in a), h, g) for a, h, g in homothet_normals(points, facets)
        ]

    @cache
    def apart(a: int, b: int) -> bool:  # disjoint interiors
        return not homothets_overlap(normals(), pw.copies[a], pw.copies[b])

    def visit(i: int, j: int) -> tuple[list[tuple[str, str]], list[frozenset[int]]]:
        # The pair's failures as (check, line), and the vertices of each usable
        # cell inside the other: at[owner, other], the rows of other at owner's.
        at = {
            (owner, other): sign_table(cells[other].polytope.rows, forms[owner].points)
            for owner, other in ((i, j), (j, i))
        }
        lines, found_sets = [], []
        # A row of one cell with no vertex of the other strictly inside
        # it separates their interiors; otherwise they overlap exactly when
        # the rows of both bound a polytope with facets.
        p, q = cells[i].polytope, cells[j].polytope
        separated = any(1 not in row for table in at.values() for row in table)
        if not separated and faces(Polytope(n, p.rows + q.rows, p.lcms + q.lcms))[1]:
            lines.append(("coverage", "interiors overlap"))
        if not (usable[i] and usable[j]):
            return lines, found_sets
        # The jump value_i − value_j at each shared vertex X/D, cross-multiplied
        # over m_i·m_j·D and reduced by its gcd.
        mi, mj = cells[i].map[1], cells[j].map[1]
        shared, jumps = [], set()
        for (owner, other), table in at.items():
            found = [k for k, col in enumerate(zip(*table)) if -1 not in col]
            found_sets.append(frozenset(found))
            xs, den = forms[owner].points
            for k in found:
                own = forms[owner].values[k]
                theirs = integer_values(cells[other].map[0], ([xs[k]], den))[0]
                vi, vj = (own, theirs) if owner == i else (theirs, own)
                jump = [x * mj - y * mi for x, y in zip(vi, vj)] + [mi * mj * den]
                if any(jump[:-1]):
                    lines.append(("continuity", "value mismatch at a shared vertex"))
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
                lines.append(("hadamard", "gradient jump is not aligned with the facet normal"))
        return lines, found_sets

    # Listed pairs in order, keyed on their pull-back inside one copy.  inside[i]:
    # for each usable cell paired with usable cell i, the vertices of i in it.
    inside: list[list[frozenset[int]]] = [[] for _ in cells]
    outcomes: dict[tuple, tuple] = {}
    for i, j in pairs:
        a, b = cells[i].copy, cells[j].copy
        clean = i in pulled and j in pulled
        if clean and a != b and apart(a, b):
            continue
        key = (pulled[i], pulled[j]) if clean and a == b else None
        lines, found_sets = outcomes[key] if key in outcomes else visit(i, j)
        if key:
            outcomes[key] = lines, found_sets
        for check, line in lines:
            fail[check].append(f"cells {i}/{j}: {line}")
        for owner, found in zip((i, j), found_sets):
            inside[owner].append(found)

    # Boundary: the copy check's line, then zero on any unshared facet.
    for i, cell in enumerate(cells):
        if not usable[i]:
            continue
        if i in edge:
            fail["boundary"].append(f"cell {i}: {edge[i]}")
        if not 0 <= cell.copy < len(pw.copies):
            continue
        for facet in forms[i].facets:
            if any(found >= facet for found in inside[i]):
                continue
            if any(any(forms[i].values[k]) for k in facet):
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
