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
dim span E = n, any such b gives span E = QQⁿ ∨ b.  The complement is
one null space in the n(n+1)/2 coordinates of Sym(n), the upper
triangle read row by row (``sym_coords``): since

    ⟨C; A⟩ = Σ A_ii c_ii + 2 Σ_{i<j} A_ij c_ij,

it is the kernel of the span's basis with its off-diagonal coordinates
doubled (``symmetric_complement``).  The decision builds it once and
reuses it as the certificate when the common kernel is trivial.

The complement is handed back as flat n×n matrices.  The first nonzero
flat entry of a symmetric matrix lies in the upper triangle, and the
upper triangle read row by row keeps the flat order, so the canonical
rows in Sym(n) coordinates, written back, are the flat canonical rows
(``flat_from_sym``): the same integers, so still primitive and positive
at the pivot.  That holds for span E too, which ``decide`` hands to the
separator as it is.

Both slice tests read a subspace's integer echelon rows (each a positive
multiple of its canonical basis vector), with no Fraction: column j of a
flattened m×n matrix r is r[j::n], and flat n×n matrices read as rows of
n entries are the stack of their rows.  Fractions are built only where
b is returned.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch
from .linalg import Mat, Subspace, Vec, kernel, span_of


def tensor(a: Vec, b: Vec) -> Mat:
    """a ⊗ b = a bᵀ."""
    return Mat(len(a), len(b), tuple(x * y for x in a for y in b))


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
    colspace = span_of([r[j::n] for r in s.rows for j in range(n)], m)
    return colspace.basis[0] if colspace.dim == 1 else None


def sym_coords(flat: Sequence, n: int) -> tuple:
    """The n(n+1)/2 coordinates in Sym(n) of a symmetric n×n matrix given by
    its flat entries: the upper triangle (i, j), i ≤ j, read row by row."""
    return tuple(flat[i * n + j] for i in range(n) for j in range(i, n))


def symmetric_complement(s: Subspace, n: int) -> Subspace:
    """The orthogonal complement inside Sym(n) of s ⊆ Sym(n), given and
    returned as described in the module docstring: s in ``sym_coords``,
    the complement as flat n×n matrices."""
    if s.ambient != n * (n + 1) // 2:
        raise DimensionMismatch(f"subspace ambient {s.ambient} is not Sym({n})")
    diagonal = [i == j for i in range(n) for j in range(i, n)]
    weighted = [[x if d else 2 * x for d, x in zip(diagonal, r)] for r in s.rows]
    return flat_from_sym(kernel(weighted, s.ambient), n)


def flat_from_sym(s: Subspace, n: int) -> Subspace:
    """A subspace of Sym(n) given in ``sym_coords``, as flat n×n matrices:
    coordinate (i, j) written at (i, j) and (j, i).  Canonical rows stay
    canonical (see the module docstring)."""
    at = [0] * (n * n)
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        at[i * n + j] = at[j * n + i] = k
    return Subspace(n * n, tuple(tuple(r[k] for k in at) for r in s.rows))


def common_kernel_direction(comp: Subspace, n: int) -> Vec | None:
    """A nonzero vector killed by every n×n matrix of ``comp``, or None.

    It is the first canonical kernel basis vector, so its first nonzero
    coordinate is 1."""
    _check_ambient(comp, n, n)
    k = kernel([r[i * n : (i + 1) * n] for r in comp.rows for i in range(n)], n)
    return k.basis[0] if k.dim else None
