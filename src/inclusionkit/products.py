"""Rank-one products and the two slice tests.

For column vectors a, b the two products are

    a ⊗ b = a bᵀ            (tensor, shape len(a) × len(b))
    a ∨ b = a⊗b + b⊗a       (symmetric, square)

and the slices through a fixed direction b, the spans that
``feasibility.decide`` looks for, are

    b ⊗ QQⁿ = {b ⊗ x}       dimension n (gradient operator),
    QQⁿ ∨ b = {x ∨ b}       dimension n (symmetrized operator).

Detection goes through two exact reductions.  A subspace of m×n
matrices lies in b ⊗ QQⁿ for some b iff the combined column space of its
basis has dimension 1 (``detect_rank_one_span``).  For the symmetric
slice the key identity is, for symmetric A,

    ⟨A; x ∨ b⟩ = 2⟨Ab; x⟩,

so A is orthogonal to the whole slice iff Ab = 0: the slice direction
is a common kernel vector of the orthogonal complement of the subspace
inside the symmetric matrices (``common_kernel_direction``).  With
dim span E = n, any such b gives span E = QQⁿ ∨ b.  Among all n×n
matrices the orthogonal complement of Sym(n) is the skew matrices, so
the complement of the subspace inside Sym(n) is one null space: that of
its basis stacked on the skew generators E_ij − E_ji
(``symmetric_complement``).  The decision builds it once and reuses it
as the certificate when the common kernel is trivial.

Both tests read the flat basis: column j of a flattened m×n matrix v is
v[j::n], E_ij − E_ji is the flat row with +1 at i·n+j and −1 at j·n+i,
and a flat basis of n×n matrices read as rows of n entries is the stack
of its matrices' rows.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import Mat, Subspace, Vec, kernel, span_of


def tensor(a: Vec, b: Vec) -> Mat:
    """a ⊗ b = a bᵀ."""
    return Mat(len(a), len(b), tuple(x * y for x in a for y in b))


def sym_product(a: Vec, b: Vec) -> Mat:
    """a ∨ b = a⊗b + b⊗a; requires equal lengths."""
    if len(a) != len(b):
        raise DimensionMismatch("symmetric product needs vectors of equal length")
    return tensor(a, b) + tensor(b, a)


def _check_ambient(s: Subspace, rows: int, cols: int) -> None:
    if s.ambient != rows * cols:
        raise DimensionMismatch(f"subspace ambient {s.ambient} is not {rows}x{cols} flattened")


def detect_rank_one_span(s: Subspace, shape: tuple[int, int]) -> Vec | None:
    """Direction b with s ⊆ b ⊗ QQⁿ, or None.

    The combined column space of all basis matrices must have dimension
    exactly 1; its canonical basis vector, whose first nonzero
    coordinate is 1, is b.  When dim s = cols this pins s = b ⊗ QQⁿ.
    """
    m, n = shape
    _check_ambient(s, m, n)
    colspace = span_of([Vec(v.entries[j::n]) for v in s.basis for j in range(n)], m)
    return colspace.basis[0] if colspace.dim == 1 else None


def symmetric_complement(s: Subspace, n: int) -> Subspace:
    """The orthogonal complement of s inside Sym(n), for s ⊆ Sym(n): the null
    space of s's basis stacked on the skew generators E_ij − E_ji (i < j)."""
    _check_ambient(s, n, n)
    rows = [v.entries for v in s.basis]
    for i in range(n):
        for j in range(i + 1, n):
            skew = [Fraction(0)] * (n * n)
            skew[i * n + j], skew[j * n + i] = Fraction(1), Fraction(-1)
            rows.append(skew)
    return kernel(Mat(len(rows), n * n, tuple(x for r in rows for x in r)))


def common_kernel_direction(comp: Subspace, n: int) -> Vec | None:
    """A nonzero vector killed by every n×n matrix of ``comp``, or None.

    It is the first canonical kernel basis vector, so its first nonzero
    coordinate is 1."""
    _check_ambient(comp, n, n)
    k = kernel(Mat(n * comp.dim, n, tuple(x for v in comp.basis for x in v.entries)))
    return k.basis[0] if k.dim else None
