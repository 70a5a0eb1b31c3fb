"""Exact linear algebra over the rationals.

Vectors and matrices hold ``fractions.Fraction`` entries, subspaces hold
integer rows, and no float ever enters a computation, so rank, kernel,
and subspace comparisons are decisions, not estimates.

Inside, every row reduction goes through one fraction-free
Gauss–Jordan step, :func:`_pivot`.  It keeps each integer row primitive
(its entries coprime), a positive multiple of the rational row it stands
for, so a value is an entry over its own row's pivot and no denominator
is shared between rows.  Rank, echelon bases, kernels (each null space
read off one reduction), square solves and the simplex tableau of
``convexity`` all call it.

A subspace is only its canonical integer echelon rows: each row of the
reduced row echelon form of any spanning set, as its primitive integer
multiple, positive at its pivot, rows ordered by pivot column.  That form
is unique, and it is exactly what ``_integer_rows`` makes of the rational
row, so two subspaces are equal iff their rows are, which makes
``subspace_equal`` a tuple comparison.  ``span_of`` and ``kernel`` take
integer rows (any nonzero multiples of the rows they stand for) and are
the only entry points; the rational basis (``Subspace.basis``, each row
over its pivot) is built only where a value leaves.

Matrices are flattened row-major into vectors of length rows*cols when
they are treated as points of a subspace; symmetry is an invariant of
the entries, not a compressed coordinate system.  ``products.sym_coords``
gives the n(n+1)/2 coordinates of Sym(n) where a caller wants them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import AmbientMismatch

RatLike = Union[Fraction, int, str]


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
        return Fraction(*parse_rat(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def parse_rat(text: str) -> tuple[int, int]:
    """The numerator and positive denominator, coprime, of a canonical string
    ``p`` or ``p/q``: the one parser of rational strings.  Raises ValueError."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    # An ASCII string is a digit string exactly when it is [0-9]+.
    canonical = digits.isascii() and digits.isdigit()
    if not (canonical and (not slash or den.isascii() and den.isdigit())):
        raise ValueError(f"not a canonical rational string: {text!r}")
    p = int(num)
    if not slash:
        return p, 1
    q = int(den)
    # Checked before reducing: gcd(1, 0) = 1 would pass 1/0 as 1/0.
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = gcd(p, q)
    return p // g, q // g


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

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def vec(*xs: RatLike) -> Vec:
    """Build a Vec, coercing each entry through :func:`rat`."""
    if len(xs) == 1 and isinstance(xs[0], (list, tuple)):
        xs = tuple(xs[0])  # type: ignore[assignment]
    return Vec(tuple(rat(x) for x in xs))


def zero_vec(n: int) -> Vec:
    return Vec((Fraction(0),) * n)


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


def mat(rows: Sequence[Sequence[RatLike]]) -> Mat:
    """Build a Mat from nested rows, coercing entries through :func:`rat`."""
    return Mat.from_rows(rows)


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


@dataclass(frozen=True, slots=True)
class Subspace:
    """Linear subspace of QQ^ambient, as its canonical integer echelon rows
    (see the module docstring)."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> list[int]:
        """Each row's pivot entry: its first nonzero, positive."""
        return [next(filter(None, r)) for r in self.rows]

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The canonical rational basis: the reduced row echelon form, each row over its pivot."""
        return tuple(Vec(tuple(Fraction(x, p) for x in r)) for r, p in zip(self.rows, self.pivots))


def span_of(rows: Iterable[Sequence[int]], ambient: int | None = None) -> Subspace:
    """The span of integer rows in QQ^ambient (by default the length of the first)."""
    ints = [list(r) for r in rows]
    if ambient is None:
        if not ints:
            raise ValueError("ambient dimension required for an empty spanning set")
        ambient = len(ints[0])
    for r in ints:
        if len(r) != ambient:
            raise AmbientMismatch(f"vector length {len(r)} in ambient {ambient}")
    pivots = _reduce(ints)
    return Subspace(ambient, tuple(map(tuple, ints[: len(pivots)])))


def kernel(rows: Iterable[Sequence[int]], cols: int) -> Subspace:
    """Null space {x : Mx = 0} of the matrix with these integer rows, exact.

    dim kernel + rank == cols, always.  The columns are reduced in reverse
    order, so a pivot row is zero at every column right of its pivot:
    the null vector of free column j is 1 at j, 0 at the other free columns
    and 0 left of j, which makes the list in ascending j the canonical
    basis.  Its entry at pivot column c is −(entry at j)/(pivot entry) of
    c's row, so the vector is cleared by the lcm of those pivot entries.
    """
    ints = [list(r[::-1]) for r in rows]
    for r in ints:
        if len(r) != cols:
            raise AmbientMismatch(f"row length {len(r)} in a matrix of {cols} columns")
    reversed_pivots = _reduce(ints)
    free = sorted(set(range(cols)) - {cols - 1 - p for p in reversed_pivots})
    out = []
    for j in free:
        at = cols - 1 - j
        terms = [(cols - 1 - p, r[at], r[p]) for r, p in zip(ints, reversed_pivots) if r[at]]
        f = lcm(*(p for _, _, p in terms))
        x = [0] * cols
        x[j] = f
        for c, a, p in terms:
            x[c] = -a * (f // p)
        g = gcd(*x)
        out.append(tuple(v // g for v in x))
    return Subspace(cols, tuple(out))


def subspace_equal(s: Subspace, t: Subspace) -> bool:
    """Equality via canonical rows; ambient spaces must match."""
    if s.ambient != t.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return s.rows == t.rows
