"""Exact convex position of the origin relative to a finite point set.

Everything here is decided by a two-phase simplex over the rationals
with Bland's anti-cycling rule: no tolerances, no floats, and the same
input always walks the same pivot sequence.  The phase-1 artificials
exist only as basis indices: no pivot reads a column of theirs, so the
tableau holds none.  One core, ``solve_tableau``, runs it on integer
rows, row i Fᵢ times its rational row with a phase-1 weight ∝ 1/Fᵢ, and
takes the pivots of the rational rows.  The hull programs read a point
set's rows as its builder cleared them (``decide`` passes E's rows) and
a span's integer echelon rows; the one test of 0 ∈ int co S,
``in_interior_of_hull``, also runs on ``geometry``'s integer normals.

The origin lies in the relative interior of the convex hull of a
finite set S iff it is a convex combination of *all* points of S with
strictly positive weights.  That is the linear program

    max ε   s.t.   Σ tᵢ zᵢ = 0,  Σ tᵢ = 1,  tᵢ ≥ ε ≥ 0,

whose optimum is positive exactly on relative-interior instances; the
optimal weights are a full-support certificate.  When the optimum is
zero or the program is infeasible, a separating functional exists
instead: some P in span S, P ≠ 0, with ⟨z; P⟩ ≥ 0 for every z in S and
at least one strict.  The two outcomes are mutually exclusive, and the
separator is found by solving the dual system as its own exact
feasibility program, so the two verdicts never share a code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, ZeroInSet
from .linalg import Subspace, Vec, _integer_rows, _pivot, span_of, subspace_equal, zero_vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class PointSet:
    """Finite set of rational points, held as their integer rows: point i is
    rowsᵢ/factorsᵢ, cleared as ``_integer_rows`` clears it; duplicates are
    dropped on load.  The programs read only these rows (``decide`` hands
    over E's rows), so no point is built as a ``Vec``."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]

    @classmethod
    def from_vecs(cls, vecs: Sequence[Vec], ambient: int | None = None) -> "PointSet":
        vs = list(vecs)
        if ambient is None:
            if not vs:
                raise ValueError("ambient dimension required for an empty point set")
            ambient = len(vs[0])
        for v in vs:
            if len(v) != ambient:
                raise DimensionMismatch(f"point length {len(v)} in ambient {ambient}")
        rows, factors = _integer_rows(vs)
        # A point's cleared row and factor are unique to it: the first occurrence wins.
        seen = dict.fromkeys(zip(map(tuple, rows), factors))
        return cls(ambient, tuple(r for r, _ in seen), tuple(f for _, f in seen))

    def __len__(self) -> int:
        return len(self.rows)

    def span(self) -> Subspace:
        return span_of(self.rows, self.ambient)


@dataclass(frozen=True, slots=True)
class CaratheodoryCertificate:
    """Full-support convex combination of the origin.

    ``indices`` select points of the deduplicated set, ``weights`` are
    the matching coefficients: all positive, summing to 1, with
    Σ wᵢ zᵢ = 0 and span of the selected points equal to the span of
    the whole set.
    """

    indices: tuple[int, ...]
    weights: tuple[Fraction, ...]


def certificate_valid(ps: PointSet, cert: CaratheodoryCertificate) -> bool:
    """Re-check a certificate from scratch, exactly."""
    if len(cert.indices) != len(cert.weights):
        return False
    if any(w <= 0 for w in cert.weights):
        return False
    if sum(cert.weights, Fraction(0)) != 1:
        return False
    # Σ wᵢ zᵢ in rational vectors, apart from the programs' integer rows.
    combo = zero_vec(ps.ambient)
    chosen = []
    for i, w in zip(cert.indices, cert.weights):
        if not 0 <= i < len(ps.rows):
            return False
        combo = combo + Vec(tuple(Fraction(x, ps.factors[i]) for x in ps.rows[i])).scale(w)
        chosen.append(ps.rows[i])
    if not combo.is_zero():
        return False
    return subspace_equal(span_of(chosen, ps.ambient), ps.span())


def _run_simplex(t: list[list[int]], basis: list[int], ncols: int) -> str:
    """Pivot to optimality with Bland's rule over columns 0..ncols-1.

    ``t`` is an integer tableau, each row a positive multiple of the
    rational row it stands for (see ``linalg._pivot``): one row per basic
    variable, whose value is its right-hand side over its entry in the
    basic column, then the cost row of reduced costs (enter while any is
    > 0).  The last column is the right-hand side.  A basis index ≥ ncols
    is an artificial, which has no column.  Returns OPTIMAL or UNBOUNDED.
    """
    while True:
        cost = t[-1]
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for i in range(len(basis)):
            a = t[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # Ratios rhs/a, each read within one row, compared by cross-multiplying.
                lhs, rhs = t[i][-1] * t[leave][enter], t[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(t, leave, enter)
        basis[leave] = enter


def solve_tableau(
    t: list[list[int]], weights: Sequence[int], ncols: int, objective: Sequence[int]
) -> tuple[str, list[Fraction] | None]:
    """Maximize objective·x subject to A·x = b, x ≥ 0, for the integer rows
    ``t`` = [A | b] over ``ncols`` columns, every b ≥ 0; ``t`` is consumed.

    Row i is Fᵢ times its rational row and weightᵢ > 0 is proportional to
    1/Fᵢ, so the phase-1 cost row Σ weightᵢ·rowᵢ is a positive multiple of
    the sum of the rational rows and Bland's rule takes their pivots;
    ``objective`` is a positive multiple of the rational one.  Row i's
    artificial is basis index ncols + i.  Returns the status and, when
    OPTIMAL, the ncols values of x.
    """
    k = len(t)
    basis = [ncols + i for i in range(k)]
    # Priced out against the artificial basis, the phase-1 cost row is the
    # weighted row sum, and 0 under every artificial.
    t.append([sum(w * row[j] for w, row in zip(weights, t)) for j in range(ncols + 1)])
    _run_simplex(t, basis, ncols)
    if t[-1][-1] != 0:
        return INFEASIBLE, None

    # Drive leftover artificials out of the basis (on a pivot of either sign); drop redundant rows.
    keep: list[int] = []
    for i in range(k):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if t[i][j] != 0), None)
            if pivot_col is None:
                continue
            _pivot(t, i, pivot_col)
            basis[i] = pivot_col
        keep.append(i)
    t = [t[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective, priced out against the basis by one pivot
    # per row, each touching only the cost row.
    t.append([*objective, 0])
    for i, bi in enumerate(basis):
        _pivot(t, i, bi)
    if _run_simplex(t, basis, ncols) == UNBOUNDED:
        return UNBOUNDED, None
    x = [Fraction(0)] * ncols
    for bi, row in zip(basis, t):
        x[bi] = Fraction(row[-1], row[bi])
    return OPTIMAL, x


def _reject_zero(ps: PointSet) -> None:
    for r in ps.rows:
        if not any(r):
            raise ZeroInSet("the origin is itself a member of the point set")


def in_relative_interior_of_hull(ps: PointSet) -> CaratheodoryCertificate | None:
    """Full-support certificate that 0 ∈ ri(co S), or None.

    Solves max ε subject to Σ tᵢ zᵢ = 0, Σ tᵢ = 1, tᵢ ≥ ε ≥ 0 via the
    substitution tᵢ = uᵢ + ε.  A positive optimum yields the weights;
    zero optimum or infeasibility means the origin sits on the relative
    boundary or outside the hull.
    """
    _reject_zero(ps)
    m = len(ps.rows)
    x = _hull_weights(ps.rows, ps.factors)
    if x is None:
        return None
    return CaratheodoryCertificate(tuple(range(m)), tuple(u + x[m] for u in x[:m]))


def _hull_weights(ints: Sequence[Sequence[int]], factors: Sequence[int]) -> list[Fraction] | None:
    """The optimal (u₁, …, u_m, ε) of the relative-interior program on the
    points zᵢ = intsᵢ/factorsᵢ when ε > 0, else None (always for no points)."""
    # Coordinate row r is common·(z₁[r], …, z_m[r], z̄[r] | 0) over the points'
    # clearing factors, made primitive by its gcd g: F = common/g, weight g.
    m = len(ints)
    common = lcm(*factors)
    scale = [common // f for f in factors]
    t, weights = [], []
    for col in zip(*ints):
        row = [*map(mul, scale, col)]
        row += [sum(row), 0]
        g = gcd(*row) or 1
        t.append([x // g for x in row])
        weights.append(g)
    t.append([1] * m + [m, 1])
    weights.append(common)
    status, x = solve_tableau(t, weights, m + 1, [0] * m + [1])
    return x if status == OPTIMAL and x[m] > 0 else None


def in_interior_of_hull(ps: PointSet) -> bool:
    """True iff 0 ∈ int(co S) in the full ambient space: S spans QQⁿ, tested
    first, so a lower-dimensional S runs no LP, and 0 ∈ ri(co S) (no certificate).
    """
    _reject_zero(ps)
    return ps.span().dim == ps.ambient and _hull_weights(ps.rows, ps.factors) is not None


def separating_functional(ps: PointSet, span: Subspace | None = None) -> Vec | None:
    """P ∈ span S, P ≠ 0, with ⟨z; P⟩ ≥ 0 for every z ∈ S, or None.

    Solves the dual system of the relative-interior program as its own
    feasibility LP: coordinates y over a basis of span S with
    ⟨zᵢ; P⟩ = wᵢ ≥ 0 and Σ wᵢ = 1.  Feasible exactly when
    0 ∉ ri(co S); the normalization forces some ⟨z; P⟩ > 0, so P ≠ 0.
    Returns None when the origin is in the relative interior (or the
    set is empty, where no nonzero P exists in the span).  ``span``, when
    given, is span S with its canonical basis, which a caller that holds
    it passes to skip the reduction.
    """
    _reject_zero(ps)
    m = len(ps.rows)
    if m == 0:
        return None
    span = span or ps.span()
    k = span.dim
    # Columns y₁⁺, y₁⁻, …, y_k⁺, y_k⁻, w₁, …, w_m.  Row i is zfᵢ·common times
    # ⟨zᵢ; bⱼ⟩ split ± and −1 at wᵢ, one integer dot product per entry; the
    # span's row j is bfⱼ·bⱼ, bfⱼ its pivot entry.
    zs, zf = ps.rows, ps.factors
    bs, bf = span.rows, span.pivots
    common = lcm(*bf)
    scale = [common // f for f in bf]
    t = []
    for i, z in enumerate(zs):
        dots = [s * sum(map(mul, z, b)) for b, s in zip(bs, scale)]
        t.append([v for d in dots for v in (d, -d)] + [0] * (m + 1))
        t[i][2 * k + i] = -zf[i] * common
    t.append([0] * (2 * k) + [1] * (m + 1))
    top = lcm(*zf)
    weights = [top // f for f in zf] + [top * common]
    status, x = solve_tableau(t, weights, 2 * k + m, [0] * (2 * k + m))
    if status != OPTIMAL:
        return None
    y = [(x[2 * j] - x[2 * j + 1]) / f for j, f in enumerate(bf)]
    return Vec(tuple(sum(map(mul, y, col)) for col in zip(*bs)))
