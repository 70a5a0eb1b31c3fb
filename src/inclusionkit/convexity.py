"""Exact convex position of the origin relative to a finite point set.

Everything here is decided by a two-phase simplex over the rationals
with Bland's anti-cycling rule: no tolerances, no floats, and the same
input always walks the same pivot sequence.  The phase-1 artificials
exist only as basis indices: no pivot reads a column of theirs, so the
tableau holds none.

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
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, ZeroInSet
from .linalg import Subspace, Vec, _integer_rows, _pivot, span_of, subspace_equal, zero_vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class LPResult:
    """Outcome of an exact linear program (maximization)."""

    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None


@dataclass(frozen=True, slots=True)
class PointSet:
    """Finite set of rational points; duplicates dropped on load."""

    ambient: int
    points: tuple[Vec, ...]

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
        return cls(ambient, tuple(dict.fromkeys(vs)))

    def __len__(self) -> int:
        return len(self.points)

    def span(self) -> Subspace:
        return span_of(self.points, self.ambient)


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
    combo = zero_vec(ps.ambient)
    chosen = []
    for i, w in zip(cert.indices, cert.weights):
        if not 0 <= i < len(ps.points):
            return False
        combo = combo + ps.points[i].scale(w)
        chosen.append(ps.points[i])
    if not combo.is_zero():
        return False
    return subspace_equal(span_of(chosen, ps.ambient), ps.span())


def _run_simplex(t: list[list[int]], basis: list[int], d: int, ncols: int) -> tuple[str, int]:
    """Pivot to optimality with Bland's rule over columns 0..ncols-1.

    ``t`` is an integer tableau standing for t/d with d > 0: one row per
    basic variable, then the cost row of reduced costs (enter while any
    is > 0).  The last column is the right-hand side.  A basis index
    ≥ ncols is an artificial, which has no column.  Returns OPTIMAL or
    UNBOUNDED and the final denominator.
    """
    while True:
        cost = t[-1]
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i in range(len(basis)):
            a = t[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # Ratios rhs/a compared by cross-multiplying positive a's.
                lhs, rhs = t[i][-1] * t[leave][enter], t[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED, d
        d = _pivot(t, d, leave, enter)
        basis[leave] = enter


def simplex_solve(
    objective: Sequence[Fraction],
    constraints: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    nonneg: Sequence[bool] | None = None,
) -> LPResult:
    """Maximize objective·x subject to constraints·x = rhs.

    Variables are nonnegative where ``nonneg`` says so (default: all);
    free variables are split internally into positive parts.  Exact
    two-phase simplex, Bland's rule for both entering and leaving
    choices, fully deterministic.  Row i's artificial is basis index
    ncols + i and has no tableau column.
    """
    nvars = len(objective)
    if nonneg is None:
        nonneg = [True] * nvars
    if len(nonneg) != nvars:
        raise DimensionMismatch("nonneg flags must match the variable count")
    for row in constraints:
        if len(row) != nvars:
            raise DimensionMismatch("constraint row length must match the variable count")
    if len(rhs) != len(constraints):
        raise DimensionMismatch("rhs length must match the constraint count")

    # Internal columns: one per nonnegative variable, two per free one.
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(nvars):
        if nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(row: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * ncols
        for j, a in enumerate(row):
            pos, neg = col_of[j]
            out[pos] = a
            if neg is not None:
                out[neg] = -a
        return out

    k = len(constraints)
    rows = []
    for row, b in zip(constraints, rhs):
        erow = expand(row) + [b]
        rows.append([-a for a in erow] if b < 0 else erow)
    t, factors = _integer_rows(rows)
    basis = [ncols + i for i in range(k)]

    # Phase 1: maximize -(sum of artificials) of the unscaled rows.  Row i
    # was scaled by factors[i], so its artificial costs 1/factors[i], all
    # times the factors' lcm: the reduced costs stay a positive multiple
    # of the unscaled ones, and Bland's rule picks the same columns.
    # Priced out against the artificial basis, the cost row is
    # Σ (lcm // factors[i])·rowᵢ, and 0 under every artificial.
    common = lcm(*factors)
    weights = [common // f for f in factors]
    t.append([sum(w * row[j] for w, row in zip(weights, t)) for j in range(ncols + 1)])
    _, d = _run_simplex(t, basis, 1, ncols)
    if t[-1][-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(k):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if t[i][j] != 0), None)
            if pivot_col is None:
                continue
            d = _pivot(t, d, i, pivot_col)
            basis[i] = pivot_col
        keep.append(i)
    if d < 0:
        # A drive-out pivot may be negative; the sign tests below need d > 0.
        t = [[-x for x in row] for row in t]
        d = -d
    t = [t[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective over the internal columns, priced out
    # against the basis into reduced costs d·obj − Σ obj[bᵢ]·rowᵢ.
    obj = _integer_rows([expand(list(objective))])[0][0]
    t.append([d * c for c in obj] + [0])
    for i, bi in enumerate(basis):
        _pivot(t, d, i, bi)
    status, d = _run_simplex(t, basis, d, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    xin = [Fraction(0)] * ncols
    for bi, row in zip(basis, t):
        xin[bi] = Fraction(row[-1], d)
    x = []
    for j in range(nvars):
        pos, neg = col_of[j]
        x.append(xin[pos] - (xin[neg] if neg is not None else Fraction(0)))
    value = sum((o * v for o, v in zip(objective, x)), Fraction(0))
    return LPResult(OPTIMAL, value, tuple(x))


def _reject_zero(ps: PointSet) -> None:
    for p in ps.points:
        if p.is_zero():
            raise ZeroInSet("the origin is itself a member of the point set")


def in_relative_interior_of_hull(ps: PointSet) -> CaratheodoryCertificate | None:
    """Full-support certificate that 0 ∈ ri(co S), or None.

    Solves max ε subject to Σ tᵢ zᵢ = 0, Σ tᵢ = 1, tᵢ ≥ ε ≥ 0 via the
    substitution tᵢ = uᵢ + ε.  A positive optimum yields the weights;
    zero optimum or infeasibility means the origin sits on the relative
    boundary or outside the hull.
    """
    _reject_zero(ps)
    m = len(ps.points)
    if m == 0:
        return None
    nvars = m + 1  # u_1..u_m, eps
    # Row r ends in zbar[r] = Σ zᵢ[r], summed on integer rows over the factors' lcm.
    ints, factors = _integer_rows(ps.points)
    common = lcm(*factors)
    weights = [common // f for f in factors]
    rows = [
        list(col) + [Fraction(sum(map(mul, weights, icol)), common)]
        for col, icol in zip(zip(*ps.points), zip(*ints))
    ]
    rows.append([Fraction(1)] * m + [Fraction(m)])
    rhs = [Fraction(0)] * ps.ambient + [Fraction(1)]
    objective = [Fraction(0)] * m + [Fraction(1)]
    res = simplex_solve(objective, rows, rhs)
    if res.status != OPTIMAL or res.value is None or res.value <= 0:
        return None
    eps = res.x[m]
    weights = tuple(res.x[i] + eps for i in range(m))
    return CaratheodoryCertificate(tuple(range(m)), weights)


def in_interior_of_hull(ps: PointSet) -> bool:
    """True iff 0 ∈ int(co S) in the full ambient space.

    Interior = relative interior plus a full-dimensional span.
    """
    cert = in_relative_interior_of_hull(ps)
    return cert is not None and ps.span().dim == ps.ambient


def separating_functional(ps: PointSet) -> Vec | None:
    """P ∈ span S, P ≠ 0, with ⟨z; P⟩ ≥ 0 for every z ∈ S, or None.

    Solves the dual system of the relative-interior program as its own
    feasibility LP: coordinates y over a basis of span S with
    ⟨zᵢ; P⟩ = wᵢ ≥ 0 and Σ wᵢ = 1.  Feasible exactly when
    0 ∉ ri(co S); the normalization forces some ⟨z; P⟩ > 0, so P ≠ 0.
    Returns None when the origin is in the relative interior (or the
    set is empty, where no nonzero P exists in the span).
    """
    _reject_zero(ps)
    m = len(ps.points)
    if m == 0:
        return None
    basis = ps.span().basis
    k = len(basis)
    nvars = k + m  # y_1..y_k free, w_1..w_m >= 0
    # ⟨zᵢ; bⱼ⟩ as one integer dot product over both rows' clearing factors.
    zs, zf = _integer_rows(ps.points)
    bs, bf = _integer_rows(basis)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        row = [Fraction(sum(map(mul, zs[i], b)), zf[i] * f) for b, f in zip(bs, bf)]
        row += [Fraction(-1) if t == i else Fraction(0) for t in range(m)]
        rows.append(row)
        rhs.append(Fraction(0))
    rows.append([Fraction(0)] * k + [Fraction(1)] * m)
    rhs.append(Fraction(1))
    objective = [Fraction(0)] * nvars
    nonneg = [False] * k + [True] * m
    res = simplex_solve(objective, rows, rhs, nonneg)
    if res.status != OPTIMAL:
        return None
    p = zero_vec(ps.ambient)
    for j in range(k):
        p = p + basis[j].scale(res.x[j])
    return p
