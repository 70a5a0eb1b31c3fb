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
basis in Sym(n) coordinates, written back, is the flat canonical basis.

Both slice tests read the flat basis: column j of a flattened m×n
matrix v is v[j::n], and a flat basis of n×n matrices read as rows of n
entries is the stack of its matrices' rows.
"""

from __future__ import annotations

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
    colspace = span_of([Vec(v.entries[j::n]) for v in s.basis for j in range(n)], m)
    return colspace.basis[0] if colspace.dim == 1 else None


def sym_coords(a: Mat) -> Vec:
    """The n(n+1)/2 coordinates of a symmetric n×n matrix in Sym(n): its
    upper triangle (i, j), i ≤ j, read row by row."""
    n = a.rows
    return Vec(tuple(a.entries[i * n + j] for i in range(n) for j in range(i, n)))


def symmetric_complement(s: Subspace, n: int) -> Subspace:
    """The orthogonal complement inside Sym(n) of s ⊆ Sym(n), given and
    returned as described in the module docstring: s in ``sym_coords``,
    the complement as flat n×n matrices."""
    if s.ambient != n * (n + 1) // 2:
        raise DimensionMismatch(f"subspace ambient {s.ambient} is not Sym({n})")
    # The flat positions of each coordinate: (i, j) and its mirror (j, i).
    pos = [(i * n + j, j * n + i) for i in range(n) for j in range(i, n)]
    weighted = tuple(x if u == v else 2 * x for row in s.basis for (u, v), x in zip(pos, row))
    at = [0] * (n * n)
    for k, (u, v) in enumerate(pos):
        at[u] = at[v] = k
    comp = kernel(Mat(s.dim, s.ambient, weighted))
    return Subspace(n * n, tuple(Vec(tuple(c[k] for k in at)) for c in comp.basis))


def common_kernel_direction(comp: Subspace, n: int) -> Vec | None:
    """A nonzero vector killed by every n×n matrix of ``comp``, or None.

    It is the first canonical kernel basis vector, so its first nonzero
    coordinate is 1."""
    _check_ambient(comp, n, n)
    k = kernel(Mat(n * comp.dim, n, tuple(x for v in comp.basis for x in v.entries)))
    return k.basis[0] if k.dim else None
