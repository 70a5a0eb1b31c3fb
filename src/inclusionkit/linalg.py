"""Exact linear algebra over the rationals.

Vectors, matrices and subspaces hold ``fractions.Fraction`` entries at
every API boundary, and no float ever enters a computation, so rank,
kernel, and subspace comparisons are decisions, not estimates.

Inside, every row reduction goes through one fraction-free
Gauss–Jordan step, :func:`_pivot`.  It works on integer rows that stand
for rows/d and divides exactly by the previous pivot (Bareiss 1968), so
no gcd is taken between steps.  Rank, echelon bases, kernels (each null
space read off one reduction), square solves, simplex volumes and the
simplex tableau of ``convexity`` all call it; values turn back into
Fractions only where they leave it.

Subspaces are stored through a canonical basis: the reduced row echelon
form of any spanning set, rows ordered by pivot column, each pivot
normalized to 1.  Two subspaces are equal iff their canonical bases are
syntactically equal, which makes ``subspace_equal`` a tuple comparison.

Matrices are flattened row-major into vectors of length rows*cols when
they are treated as points of a subspace; symmetry is an invariant of
the entries, not a compressed coordinate system.  ``products.sym_coords``
gives the n(n+1)/2 coordinates of Sym(n) where a caller wants them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
import re
from typing import Iterable, Iterator, Sequence, Union

from .errors import AmbientMismatch

QQ = Fraction

RatLike = Union[Fraction, int, str]

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(x: RatLike) -> Fraction:
    """Coerce an int, canonical string ``p/q``, or Fraction to a Fraction.

    Floats (and float-formatted strings) are rejected: exactness is a
    contract, not a default.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _RAT_RE.fullmatch(x)
        if not m:
            raise ValueError(f"not a canonical rational string: {x!r}")
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {x!r}") from None
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def rat_str(x: Fraction) -> str:
    """Canonical string form ``p/q``, with ``/q`` omitted when q == 1."""
    return str(x)


@dataclass(frozen=True, slots=True)
class Vec:
    """Immutable rational vector."""

    entries: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        if len(self) != len(other):
            raise AmbientMismatch(f"vector lengths {len(self)} != {len(other)}")
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        if len(self) != len(other):
            raise AmbientMismatch(f"vector lengths {len(self)} != {len(other)}")
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.entries))

    def scale(self, c: Fraction) -> "Vec":
        return Vec(tuple(c * a for a in self.entries))

    def dot(self, other: "Vec") -> Fraction:
        if len(self) != len(other):
            raise AmbientMismatch(f"vector lengths {len(self)} != {len(other)}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def vec(*xs: RatLike) -> Vec:
    """Build a Vec, coercing each entry through :func:`rat`."""
    if len(xs) == 1 and isinstance(xs[0], (list, tuple)):
        xs = tuple(xs[0])  # type: ignore[assignment]
    return Vec(tuple(rat(x) for x in xs))


def zero_vec(n: int) -> Vec:
    return Vec((Fraction(0),) * n)


def unit_vec(i: int, n: int) -> Vec:
    return Vec(tuple(Fraction(1 if j == i else 0) for j in range(n)))


@dataclass(frozen=True, slots=True)
class Mat:
    """Immutable rational matrix, entries flat in row-major order."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RatLike]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(rat(x) for x in row)
        return cls(r, c, tuple(flat))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return Vec(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> Vec:
        return Vec(tuple(self.entries[i * self.cols + j] for i in range(self.rows)))

    def row_list(self) -> list[Vec]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def matvec(self, x: Vec) -> Vec:
        if len(x) != self.cols:
            raise AmbientMismatch(f"matrix has {self.cols} columns, vector length {len(x)}")
        return Vec(tuple(self.row(i).dot(x) for i in range(self.rows)))

    def flatten(self) -> Vec:
        """Row-major flattening into a vector of length rows*cols."""
        return Vec(self.entries)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("matrix shapes differ")
        return Mat(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("matrix shapes differ")
        return Mat(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: Fraction) -> "Mat":
        return Mat(self.rows, self.cols, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )


def mat(rows: Sequence[Sequence[RatLike]]) -> Mat:
    """Build a Mat from nested rows, coercing entries through :func:`rat`."""
    return Mat.from_rows(rows)


def mat_from_flat(rows: int, cols: int, flat: Sequence[RatLike]) -> Mat:
    if len(flat) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
    return Mat(rows, cols, tuple(rat(x) for x in flat))


def _integer_rows(rows: Iterable[Iterable[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the least positive integer that clears its denominators.

    Returns the integer rows and those factors.
    """
    out: list[list[int]] = []
    factors: list[int] = []
    for row in rows:
        row = list(row)
        f = lcm(*{x.denominator for x in row})
        out.append([x.numerator * (f // x.denominator) for x in row])
        factors.append(f)
    return out, factors


def _pivot(rows: list[list[int]], d: int, r: int, c: int) -> int:
    """One fraction-free Gauss–Jordan step, in place; the only code that combines rows.

    ``rows`` are integers standing for rows/d, where d is the previous
    pivot (1 for rows that no step has touched).  Clears column c from
    every row but r and returns the new denominator, rows[r][c]: row r
    over it is the old row r scaled to a unit pivot.  Every division is
    exact (Bareiss 1968, Edmonds 1967).
    """
    pr = rows[r]
    p = pr[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(x * p - f * y) // d for x, y in zip(row, pr)]
        elif p != d:
            rows[i] = [x * p // d for x in row]
    return p


def _reduce(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Row-reduce integer rows in place, pivoting column by column.

    Each column pivots on its first nonzero entry at or below the next
    pivot row.  Returns the final denominator d and the pivot columns:
    the first len(pivots) rows over d are the reduced row echelon form,
    the other rows are zero, and |d| is the determinant's absolute value
    when the rows are square and of full rank.
    """
    d = 1
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        d = _pivot(rows, d, r, c)
        pivots.append(c)
    return d, pivots


def _rref(rows: Iterable[Iterable[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ints, _ = _integer_rows(rows)
    d, pivots = _reduce(ints)
    return [[Fraction(x, d) for x in row] for row in ints[: len(pivots)]], pivots


def _rank(rows: Iterable[Iterable[Fraction]]) -> int:
    return len(_reduce(_integer_rows(rows)[0])[1])


def rank(m: Mat) -> int:
    """Row rank over the rationals, computed exactly."""
    return _rank(m.row_list())


@dataclass(frozen=True, slots=True)
class Subspace:
    """Linear subspace of QQ^ambient with a canonical echelon basis."""

    ambient: int
    basis: tuple[Vec, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Vec], ambient: int | None = None) -> "Subspace":
        vs = list(vectors)
        if ambient is None:
            if not vs:
                raise ValueError("ambient dimension required for an empty spanning set")
            ambient = len(vs[0])
        for v in vs:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector length {len(v)} in ambient {ambient}")
        reduced, _ = _rref(vs)
        return cls(ambient, tuple(Vec(tuple(r)) for r in reduced))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors([unit_vec(i, ambient) for i in range(ambient)], ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Vec) -> bool:
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector length {len(v)} in ambient {self.ambient}")
        return _rank(self.basis + (v,)) == self.dim


def span_of(vectors: Iterable[Vec], ambient: int | None = None) -> Subspace:
    return Subspace.from_vectors(vectors, ambient)


def kernel(m: Mat) -> Subspace:
    """Null space {x : Mx = 0}, canonical basis, exact.

    dim kernel + rank == cols, always.  The columns are reduced in reverse
    order, so a pivot row is zero at every column right of its pivot:
    the null vector of free column j is 1 at j, 0 at the other free columns
    and 0 left of j, which makes the list in ascending j the canonical basis.
    """
    n = m.cols
    reduced, pivots = _rref(m.row(i).entries[::-1] for i in range(m.rows))
    pivots = [n - 1 - p for p in pivots]
    basis = []
    for j in sorted(set(range(n)) - set(pivots)):
        x = [Fraction(0)] * n
        x[j] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            x[pc] = -r[n - 1 - j]
        basis.append(Vec(tuple(x)))
    return Subspace(n, tuple(basis))


def subspace_equal(s: Subspace, t: Subspace) -> bool:
    """Equality via canonical bases; ambient spaces must match."""
    if s.ambient != t.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return s.basis == t.basis


def solve_square(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve a square linear system exactly; None if singular."""
    n = len(a)
    rows, _ = _integer_rows([list(row) + [rhs] for row, rhs in zip(a, b)])
    d, pivots = _reduce(rows)
    if pivots[:n] != list(range(n)):
        return None
    return [Fraction(row[n], d) for row in rows]
