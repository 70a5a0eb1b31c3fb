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
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .linalg import (
    Mat,
    Subspace,
    Vec,
    kernel,
    normalize_direction,
    span_of,
    unit_vec,
)


def tensor(a: Vec, b: Vec) -> Mat:
    """a ⊗ b = a bᵀ."""
    return Mat(len(a), len(b), tuple(x * y for x in a for y in b))


def sym_product(a: Vec, b: Vec) -> Mat:
    """a ∨ b = a⊗b + b⊗a; requires equal lengths."""
    if len(a) != len(b):
        raise DimensionMismatch("symmetric product needs vectors of equal length")
    return tensor(a, b) + tensor(b, a)


def _basis_as_matrices(s: Subspace, rows: int, cols: int) -> list[Mat]:
    if s.ambient != rows * cols:
        raise DimensionMismatch(
            f"subspace ambient {s.ambient} is not {rows}x{cols} flattened"
        )
    return [Mat(rows, cols, v.entries) for v in s.basis]


def detect_rank_one_span(s: Subspace, shape: tuple[int, int]) -> Vec | None:
    """Direction b with s ⊆ b ⊗ QQⁿ, or None.

    The combined column space of all basis matrices must have dimension
    exactly 1; its generator, normalized so the first nonzero
    coordinate is 1, is b.  When dim s = cols this pins s = b ⊗ QQⁿ.
    """
    m, n = shape
    mats = _basis_as_matrices(s, m, n)
    columns = [a.col(j) for a in mats for j in range(n)]
    colspace = span_of(columns, m) if columns else Subspace.zero(m)
    if colspace.dim != 1:
        return None
    return normalize_direction(colspace.basis[0])


def symmetric_complement(s: Subspace, n: int) -> Subspace:
    """The orthogonal complement of s inside Sym(n), for s ⊆ Sym(n): the null
    space of s's basis stacked on the skew generators E_ij − E_ji (i < j)."""
    e = [unit_vec(i, n) for i in range(n)]
    mats = _basis_as_matrices(s, n, n) + [
        tensor(e[i], e[j]) - tensor(e[j], e[i]) for i in range(n) for j in range(i + 1, n)
    ]
    return kernel(Mat(len(mats), n * n, tuple(x for a in mats for x in a.entries)))


def common_kernel_direction(comp: Subspace, n: int) -> Vec | None:
    """A normalized nonzero vector killed by every n×n matrix of ``comp``, or None."""
    mats = _basis_as_matrices(comp, n, n)
    if not mats:
        return normalize_direction(unit_vec(0, n)) if n >= 1 else None
    rows: list[list] = []
    for a in mats:
        rows.extend(list(a.row(i).entries) for i in range(a.rows))
    k = kernel(Mat.from_rows(rows))
    if k.dim == 0:
        return None
    return normalize_direction(k.basis[0])

