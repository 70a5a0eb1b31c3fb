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

E is only its integer rows: each matrix's flat entries as one integer
row over their lcm (``InclusionProblem.rows`` and ``.lcms``), cleared
once, where the problem is built (``InclusionProblem.from_rows``; the
decoder clears them from the parsed ints, and the matrix constructors
from their ``Mat``s).  The dedupe key, the zero and symmetry checks, both
spans, the slice tests, the convexity programs and the final factor check
read those integers; ``Fraction``s are built only for the values a
verdict carries.

Verdicts are certificates either way: a feasible answer carries the
direction b, the factor set F with E = b⊗F (resp. b∨F), and the convex
weights; an infeasible answer carries the datum that refutes
solvability (the span dimension, the complement basis, or a separating
functional P with ⟨A; P⟩ ≥ 0 on E).  Spans strictly larger than n are
out of scope for the criterion and are reported as such, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .convexity import (
    CaratheodoryCertificate,
    PointSet,
    in_relative_interior_of_hull,
    separating_functional,
)
from .errors import InclusionKitError, InvalidInput
from .geometry import Polytope, interior_point, is_bounded, unit_box
from .linalg import Mat, Vec, _integer_rows, span_of
from .products import (
    common_kernel_direction,
    detect_rank_one_span,
    flat_from_sym,
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

    E is only its integer rows: each m×n matrix's flat row-major entries
    times ``lcms``, the lcm of their denominators, as ``_integer_rows``
    clears them (see the module docstring).  One builder, ``from_rows``,
    makes every problem: the matrices are deduplicated (first occurrence
    wins), the zero matrix is rejected, and symmetrized instances must
    consist of symmetric square matrices.
    """

    operator: str
    m: int
    n: int
    domain: Polytope
    rows: tuple[tuple[int, ...], ...]
    lcms: tuple[int, ...]

    @classmethod
    def gradient(
        cls, matrices: Sequence[Mat], domain: Polytope | None = None
    ) -> "InclusionProblem":
        m, n = (matrices[0].rows, matrices[0].cols) if matrices else (0, 0)
        for a in matrices:
            if (a.rows, a.cols) != (m, n):
                raise InvalidInput("all matrices must share one shape")
        return cls.from_rows(
            GRADIENT, m, n, *_integer_rows(a.flatten() for a in matrices), domain
        )

    @classmethod
    def symmetrized(
        cls, matrices: Sequence[Mat], domain: Polytope | None = None
    ) -> "InclusionProblem":
        n = matrices[0].rows if matrices else 0
        for a in matrices:
            if (a.rows, a.cols) != (n, n):
                raise InvalidInput("symmetrized instances need square matrices")
        return cls.from_rows(
            SYMMETRIZED, n, n, *_integer_rows(a.flatten() for a in matrices), domain
        )

    @classmethod
    def from_rows(
        cls,
        operator: str,
        m: int,
        n: int,
        rows: Sequence[Sequence[int]],
        lcms: Sequence[int],
        domain: Polytope | None,
    ) -> "InclusionProblem":
        """The problem whose m×n matrices are rowsᵢ/lcmsᵢ, each row cleared as
        ``_integer_rows`` clears it.  A matrix's cleared row and lcm are unique
        to its entries, so, as all share one shape, they are its dedupe key
        (the first occurrence wins)."""
        if not rows:
            raise InvalidInput("the matrix set must be nonempty")
        if not all(map(any, rows)):
            raise InvalidInput("the zero matrix is not admitted (0 in E)")
        lcms, rows = zip(*dict.fromkeys(zip(lcms, map(tuple, rows))))
        if operator == SYMMETRIZED:
            for r in rows:
                if any(r[i * n + j] != r[j * n + i] for i in range(n) for j in range(i + 1, n)):
                    raise InvalidInput("symmetrized instances need symmetric matrices")
        return cls(operator, m, n, _load_domain(domain, n), rows, lcms)


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


def _factors(
    rows: Sequence[Sequence[int]], lcms: Sequence[int], b: Vec, operator: str
) -> tuple[Sequence[Sequence[int]], Sequence[int]]:
    """F with A = b⊗f (gradient) or A = b∨f (symmetrized), read off E's
    cleared rows once span E is the slice through b, whose first nonzero
    entry is 1: each f as an integer row and its denominator.

    Row k of b⊗f is b_k·f, so f is A's row at that entry.  (b∨f)b =
    |b|²f + ⟨f; b⟩b and ⟨(b∨f)b; b⟩ = 2|b|²⟨f; b⟩, so f is (Ab − ⟨Ab; b⟩/(2|b|²)·b)/|b|²:
    β(2|B|²u − ⟨u; B⟩B)/(2α|B|⁴) in integers, for b = B/β, A = A'/α and u = A'B.
    """
    if operator == GRADIENT:
        lead = next(i for i, x in enumerate(b) if x != 0)
        n = len(rows[0]) // len(b)
        return [r[lead * n : (lead + 1) * n] for r in rows], lcms
    n = len(b)
    (bs,), (beta,) = _integer_rows([b])
    bb = sum(x * x for x in bs)
    out, dens = [], []
    for a, alpha in zip(rows, lcms):
        u = [sum(map(mul, a[r * n : (r + 1) * n], bs)) for r in range(n)]
        ub = sum(map(mul, u, bs))
        out.append([beta * (2 * bb * x - ub * y) for x, y in zip(u, bs)])
        dens.append(2 * alpha * bb * bb)
    return out, dens


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
    rows = problem.rows
    if problem.operator == GRADIENT:
        span = span_of(rows, m * n)
    else:
        span = span_of([sym_coords(r, n) for r in rows], n * (n + 1) // 2)
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
    points = PointSet(m * n, rows, problem.lcms)
    cert = in_relative_interior_of_hull(points)
    if cert is None:
        if problem.operator != GRADIENT:
            span = flat_from_sym(span, n)
        sep = separating_functional(points, span)
        return Verdict(INFEASIBLE, reason=NOT_RELATIVE_INTERIOR, separator=sep)
    fs, dens = _factors(rows, problem.lcms, b, problem.operator)
    # E is a linear image of F, so the certificate's weights also balance F,
    # and F spans QQⁿ: 0 is interior to co F.  Σ wᵢfᵢ is checked in integers,
    # the weights over one denominator and each factor's row brought to the
    # factors' common one.
    (ws,), _ = _integer_rows([cert.weights])
    common = lcm(*dens)
    scaled = [(w * (common // dens[i]), fs[i]) for i, w in zip(cert.indices, ws)]
    combo = [sum(s * f[k] for s, f in scaled) for k in range(n)]
    if any(combo) or span_of(fs, n).dim != n:
        raise InclusionKitError("internal inconsistency: factor set lost the interior property")
    factors = tuple(Vec(tuple(Fraction(x, d) for x in f)) for f, d in zip(fs, dens))
    return Verdict(FEASIBLE, b=b, factors=factors, certificate=cert)
