"""Exact linear algebra over the rationals.

Vectors, matrices and subspaces hold ``fractions.Fraction`` entries at
every API boundary, and no float ever enters a computation, so rank,
kernel, and subspace comparisons are decisions, not estimates.

Inside, every row reduction goes through one fraction-free
Gauss–Jordan step, :func:`_pivot`.  It keeps each integer row primitive
(its entries coprime), a positive multiple of the rational row it stands
for, so a value is an entry over its own row's pivot and no denominator
is shared between rows.  Rank, echelon bases, kernels (each null space
read off one reduction), square solves and the simplex tableau of
``convexity`` all call it; values turn back into Fractions only where
they leave it.

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
from math import gcd, lcm
import re
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import AmbientMismatch

RatLike = Union[Fraction, int, str]

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(x: RatLike) -> Fraction:
    """Coerce an int, canonical string ``p/q``, or Fraction to a Fraction.

    Floats (and float-formatted strings) are rejected: exactness is a
    contract, not a default.  A plain ``str``, as decoded, is tested first.
    """
    if type(x) is not str:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a rational")
        if isinstance(x, int):
            return Fraction(x)
        if not isinstance(x, str):
            raise TypeError(f"cannot coerce {type(x).__name__} to a rational")
    m = _RAT_RE.fullmatch(x)
    if not m:
        raise ValueError(f"not a canonical rational string: {x!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Canonical string form ``p/q``, with ``/q`` omitted when q == 1."""
    return str(x)


def unique(items: Iterable, key: Callable[..., Iterable[Fraction]]) -> tuple:
    """The items at their first occurrence, compared by the (numerator,
    denominator) pairs of ``key``: cheaper to hash than Fractions, whose hash
    takes a modular inverse."""
    seen: dict = {}
    for item in items:
        seen.setdefault(tuple((x.numerator, x.denominator) for x in key(item)), item)
    return tuple(seen.values())


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

    def row_list(self) -> list[Vec]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

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


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """One fraction-free Gauss–Jordan step, in place; the only code that combines rows.

    Makes row r primitive with a positive entry p in column c, and
    replaces each other row with an entry f ≠ 0 there by the primitive
    form of p·row − f·row r (p and f over their gcd); a row with f = 0
    is left as it is.  Each row stays a positive multiple of the rational
    row it stands for, so every sign and every ratio of two of its
    entries is that row's.
    """
    pr = rows[r]
    g = gcd(*pr) if pr[c] > 0 else -gcd(*pr)
    if g != 1:
        rows[r] = pr = [x // g for x in pr]
    p = pr[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(row, pr)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _reduce(rows: list[list[int]]) -> list[int]:
    """Row-reduce integer rows in place, pivoting column by column.

    Each column pivots on its first nonzero entry at or below the next
    pivot row.  Returns the pivot columns: the first len(pivots) rows,
    each over its pivot entry, are the reduced row echelon form, and the
    other rows are zero.
    """
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
    return pivots


def _rref(rows: Iterable[Iterable[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ints, _ = _integer_rows(rows)
    pivots = _reduce(ints)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(ints, pivots)], pivots


def rank(m: Mat) -> int:
    """Row rank over the rationals, computed exactly."""
    return len(_reduce(_integer_rows(m.row_list())[0]))


@dataclass(frozen=True, slots=True)
class Subspace:
    """Linear subspace of QQ^ambient with a canonical echelon basis."""

    ambient: int
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def span_of(vectors: Iterable[Vec], ambient: int | None = None) -> Subspace:
    """The span of the vectors, in QQ^ambient (by default the length of the first)."""
    vs = list(vectors)
    if ambient is None:
        if not vs:
            raise ValueError("ambient dimension required for an empty spanning set")
        ambient = len(vs[0])
    for v in vs:
        if len(v) != ambient:
            raise AmbientMismatch(f"vector length {len(v)} in ambient {ambient}")
    reduced, _ = _rref(vs)
    return Subspace(ambient, tuple(Vec(tuple(r)) for r in reduced))


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


def solve_square(system: Sequence[Sequence[int]]) -> list[Fraction] | None:
    """Solve the square linear system whose n integer rows are [A | b]
    exactly; None if singular."""
    n = len(system)
    rows = [list(row) for row in system]
    if _reduce(rows)[:n] != list(range(n)):
        return None
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]
