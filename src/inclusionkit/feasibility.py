"""The decision procedure for first-order inclusions with finite matrix sets.

Given a finite set E of m×n matrices with 0 ∉ E, the gradient inclusion
Du ∈ E and the symmetrized inclusion Du + Duᵀ ∈ E with a nonzero
average (u vanishing on the boundary of a bounded domain) are solvable
in the minimal-dimension regime dim span E = n exactly when

  * span E is a slice through some direction b: b ⊗ QQⁿ for the
    gradient, QQⁿ ∨ b for the symmetrized operator, and
  * 0 is a full-support convex combination of E.

``decide`` applies that one criterion to both operators; only the slice
test differs.  The tensor slice is found from the combined column space
of a basis of span E, taken over the flat entries.  The symmetric slice
is found from the common kernel of the orthogonal complement of span E
inside the symmetric matrices; that span is taken in the n(n+1)/2
coordinates of Sym(n), where the complement is one small null space.
The convexity programs always run on the flat points.

Verdicts are certificates either way: a feasible answer carries the
direction b, the factor set F with E = b⊗F (resp. b∨F), and the convex
weights; an infeasible answer carries the datum that refutes
solvability (the span dimension, the complement basis, or a separating
functional P with ⟨A; P⟩ ≥ 0 on E).  Spans strictly larger than n are
out of scope for the criterion and are reported as such, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .convexity import (
    CaratheodoryCertificate,
    PointSet,
    in_relative_interior_of_hull,
    separating_functional,
)
from .errors import InclusionKitError, InvalidInput
from .geometry import Polytope, interior_point, is_bounded, unit_box
from .linalg import Mat, Vec, span_of, unique, zero_vec
from .products import (
    common_kernel_direction,
    detect_rank_one_span,
    sym_coords,
    symmetric_complement,
)

GRADIENT = "gradient"
SYMMETRIZED = "symmetrized"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OUT_OF_SCOPE = "out_of_scope"

DIMENSION_TOO_SMALL = "DimensionTooSmall"
SPAN_NOT_RANK_ONE = "SpanNotRankOne"
COMMON_KERNEL_TRIVIAL = "CommonKernelTrivial"
NOT_RELATIVE_INTERIOR = "NotRelativeInterior"


@dataclass(frozen=True, slots=True)
class InclusionProblem:
    """A finite inclusion instance: operator, matrix set, domain.

    Matrices are deduplicated on load (first occurrence wins); the zero
    matrix is rejected, and symmetrized instances must consist of
    symmetric square matrices.
    """

    operator: str
    m: int
    n: int
    matrices: tuple[Mat, ...]
    domain: Polytope

    @classmethod
    def gradient(
        cls, matrices: Sequence[Mat], domain: Polytope | None = None
    ) -> "InclusionProblem":
        mats = _load_matrices(matrices)
        m, n = mats[0].rows, mats[0].cols
        for a in mats:
            if (a.rows, a.cols) != (m, n):
                raise InvalidInput("all matrices must share one shape")
        dom = _load_domain(domain, n)
        return cls(GRADIENT, m, n, mats, dom)

    @classmethod
    def symmetrized(
        cls, matrices: Sequence[Mat], domain: Polytope | None = None
    ) -> "InclusionProblem":
        mats = _load_matrices(matrices)
        n = mats[0].rows
        for a in mats:
            if (a.rows, a.cols) != (n, n):
                raise InvalidInput("symmetrized instances need square matrices")
            if not a.is_symmetric():
                raise InvalidInput("symmetrized instances need symmetric matrices")
        dom = _load_domain(domain, n)
        return cls(SYMMETRIZED, n, n, mats, dom)


def _load_matrices(matrices: Sequence[Mat]) -> tuple[Mat, ...]:
    if not matrices:
        raise InvalidInput("the matrix set must be nonempty")
    for a in matrices:
        if a.is_zero():
            raise InvalidInput("the zero matrix is not admitted (0 in E)")
    return unique(matrices, lambda a: (a.cols, *a.entries))


def _load_domain(domain: Polytope | None, n: int) -> Polytope:
    if domain is None:
        return unit_box(n)
    if domain.ambient != n:
        raise InvalidInput(f"domain ambient {domain.ambient} does not match n = {n}")
    if not is_bounded(domain):
        raise InvalidInput("domain must be bounded")
    if interior_point(domain) is None:
        raise InvalidInput("domain must have nonempty interior")
    return domain


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a decision, with checkable payloads.

    feasible: b, factors (F with E = b⊗F or b∨F), certificate.
    infeasible: reason plus its datum (span_dim, separator, or
        complement_basis).
    out_of_scope: span_dim > n; the minimal-dimension criterion does
        not apply and nothing is claimed either way.
    """

    status: str
    b: Vec | None = None
    factors: tuple[Vec, ...] | None = None
    certificate: CaratheodoryCertificate | None = None
    reason: str | None = None
    span_dim: int | None = None
    separator: Vec | None = None
    complement_basis: tuple[Vec, ...] | None = None


def _factors(matrices: Sequence[Mat], b: Vec, operator: str) -> tuple[Vec, ...]:
    """F with A = b⊗f (gradient) or A = b∨f (symmetrized), read off each A of E
    once span E is the slice through b, whose first nonzero entry is 1.

    Row k of b⊗f is b_k·f, so f is A's row at that entry.  (b∨f)b =
    |b|²f + ⟨f; b⟩b and ⟨(b∨f)b; b⟩ = 2|b|²⟨f; b⟩, so f is
    (Ab − ⟨Ab; b⟩/(2|b|²)·b)/|b|².
    """
    if operator == GRADIENT:
        lead = next(i for i, x in enumerate(b) if x != 0)
        return tuple(a.row(lead) for a in matrices)
    bb = b.dot(b)
    out = []
    for a in matrices:
        ab = a.matvec(b)
        out.append((ab - b.scale(ab.dot(b) / (2 * bb))).scale(1 / bb))
    return tuple(out)


def decide(problem: InclusionProblem) -> Verdict:
    """Decide the problem's inclusion in the minimal-dimension regime dim span E = n.

    One criterion for both operators: span E is the slice through some
    direction b, and 0 is a full-support convex combination of E.  Only
    the span's coordinates and the slice test depend on the operator:
    the combined column space of the flat span for b ⊗ QQⁿ, the common
    kernel of the complement in Sym(n) of the ``sym_coords`` span for
    QQⁿ ∨ b.
    """
    m, n = problem.m, problem.n
    flat = [a.flatten() for a in problem.matrices]
    if problem.operator == GRADIENT:
        span = span_of(flat, m * n)
    else:
        span = span_of([sym_coords(a) for a in problem.matrices], n * (n + 1) // 2)
    if span.dim < n:
        return Verdict(INFEASIBLE, reason=DIMENSION_TOO_SMALL, span_dim=span.dim)
    if span.dim > n:
        return Verdict(OUT_OF_SCOPE, span_dim=span.dim)
    if problem.operator == GRADIENT:
        b = detect_rank_one_span(span, (m, n))
        if b is None:
            return Verdict(INFEASIBLE, reason=SPAN_NOT_RANK_ONE, span_dim=span.dim)
    else:
        # The complement doubles as the CommonKernelTrivial certificate.
        comp = symmetric_complement(span, n)
        b = common_kernel_direction(comp, n)
        if b is None:
            return Verdict(
                INFEASIBLE,
                reason=COMMON_KERNEL_TRIVIAL,
                span_dim=span.dim,
                complement_basis=comp.basis,
            )
    # The matrices are distinct, so point i is matrix i and has factor i.
    points = PointSet(m * n, tuple(flat))
    cert = in_relative_interior_of_hull(points)
    if cert is None:
        sep = separating_functional(points)
        return Verdict(INFEASIBLE, reason=NOT_RELATIVE_INTERIOR, separator=sep)
    factors = _factors(problem.matrices, b, problem.operator)
    # E is a linear image of F, so the certificate's weights also balance F,
    # and F spans QQⁿ: 0 is interior to co F.
    combo = zero_vec(n)
    for i, w in zip(cert.indices, cert.weights):
        combo = combo + factors[i].scale(w)
    if not combo.is_zero() or span_of(factors, n).dim != n:
        raise InclusionKitError("internal inconsistency: factor set lost the interior property")
    return Verdict(FEASIBLE, b=b, factors=factors, certificate=cert)
