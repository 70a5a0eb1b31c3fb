"""Exact linear algebra: rationals, vectors, matrices, subspaces."""

from __future__ import annotations

import random
from fractions import Fraction as QQ
from math import gcd

import pytest

from inclusionkit.errors import AmbientMismatch
from inclusionkit.linalg import (
    Mat,
    Subspace,
    Vec,
    _integer_rows,
    _pivot,
    kernel,
    mat,
    rat,
    span_of,
    subspace_equal,
    vec,
    zero_vec,
)
from inclusionkit.geometry import _solve, integer_points
from inclusionkit.products import sym_coords, symmetric_complement, tensor

from test_convexity import ints, mat_rows, transpose
from test_geometry import solve_square


def dot(a: Vec, b: Vec) -> QQ:
    """⟨a; b⟩ in rationals."""
    return sum((x * y for x, y in zip(a, b)), QQ(0))


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(dot(r, x) for r in mat_rows(a)))


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


def normalize_direction(v: Vec) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    return v.scale(1 / next(x for x in v if x != 0))


def rand_vec(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> Vec:
    return Vec(tuple(QQ(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)))


def rand_mat(rng: random.Random, m: int, n: int) -> Mat:
    return Mat(m, n, tuple(QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m * n)))


def contains(s: Subspace, t: Subspace) -> bool:
    """Whether t ⊆ s: adding t's basis to s's does not raise the rank."""
    rows = s.basis + t.basis
    return span_of(ints(rows), s.ambient).dim == s.dim


# ------------------------------------------------------------- rationals


def test_rat_accepts_ints_strings_fractions():
    assert rat(3) == QQ(3)
    assert rat("-7") == QQ(-7)
    assert rat("3/4") == QQ(3, 4)
    assert rat("-10/4") == QQ(-5, 2)
    assert rat(QQ(2, 6)) == QQ(1, 3)


def test_rat_rejects_floats_bools_and_junk():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat([1])
    for bad in ("1.5", "1e3", "a/b", "1/2/3", "", "+3", "1 / 2", "5\n", "٣", "３/４"):
        with pytest.raises(ValueError):
            rat(bad)
    with pytest.raises(ValueError):
        rat("1/0")


def test_rat_accepts_a_str_subclass():
    class Text(str):
        pass

    assert rat(Text("-3/6")) == QQ(-1, 2)
    with pytest.raises(ValueError):
        rat(Text("0.5"))


# ------------------------------------------------------ vectors, matrices


def test_vec_algebra():
    a = vec(1, 2, 3)
    b = vec("1/2", 0, -1)
    assert a + b == vec("3/2", 2, 2)
    assert a - b == vec("1/2", 2, 4)
    assert -b == vec("-1/2", 0, 1)
    assert a.scale(QQ(2)) == vec(2, 4, 6)
    assert zero_vec(3).is_zero()
    assert not a.is_zero()
    assert list(a) == [QQ(1), QQ(2), QQ(3)]


def test_mat_algebra_and_predicates():
    a = mat([[1, 2], [3, 4]])
    assert a.entries[1 * a.cols + 0] == QQ(3)
    assert mat_rows(a)[0] == vec(1, 2)
    assert mat_rows(transpose(a))[1] == vec(2, 4)
    assert transpose(a) == mat([[1, 3], [2, 4]])
    assert a.flatten() == vec(1, 2, 3, 4)
    assert (a - a).is_zero()
    assert a + a == a.scale(QQ(2))
    assert transpose(mat([[1, 2], [2, 5]])) == mat([[1, 2], [2, 5]])
    assert transpose(a) != a


def test_mat_shape_validation():
    with pytest.raises(Exception):
        Mat(2, 2, (QQ(1), QQ(2), QQ(3)))


# ------------------------------------------------------------------ rank


def test_rank_examples():
    assert span_of(ints([vec(1, 0), vec(0, 1)])).dim == 2
    assert span_of(ints([vec(1, 2), vec(2, 4)])).dim == 1
    assert span_of(ints([vec(0, 0), vec(0, 0)])).dim == 0
    assert span_of(ints([vec(1, 2, 3), vec(4, 5, 6), vec(7, 8, 9)])).dim == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n)
        r = span_of(ints(mat_rows(a)), n).dim
        assert r + kernel(ints(mat_rows(a)), n).dim == n
        assert r == span_of(ints(mat_rows(transpose(a))), m).dim


def is_positive_multiple(row: list[int], target: list[QQ]) -> bool:
    j = next((j for j, x in enumerate(target) if x), None)
    if j is None:
        return not any(row)
    scale = row[j] / target[j]
    return scale > 0 and all(x == scale * y for x, y in zip(row, target))


def test_pivot_keeps_rows_primitive_positive_multiples():
    """One step on integer rows with common factors and 20-bit entries: the
    pivot row comes out primitive with a positive pivot, a row that is 0 in
    the pivot column is left as it is (the same list), and every other row
    is the primitive positive multiple of its rational elimination."""
    rng = random.Random(2026)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [rng.choice((0, 6 * rng.randint(-4, 4), rng.randint(-(2**20), 2**20))) for _ in range(n)]
            for _ in range(m)
        ]
        r, c = rng.randrange(m), rng.randrange(n)
        if rows[r][c] == 0:
            continue
        before, old = [list(row) for row in rows], list(rows)
        pr, p = before[r], before[r][c]
        _pivot(rows, r, c)
        assert gcd(*rows[r]) == 1 and rows[r][c] > 0
        assert is_positive_multiple(rows[r], [QQ(x, p) for x in pr])
        for i, row in enumerate(rows):
            f = before[i][c]
            if i == r:
                continue
            if f == 0:
                assert row is old[i]
                continue
            assert gcd(*row) in (0, 1) and row[c] == 0
            assert is_positive_multiple(row, [x - QQ(f, p) * y for x, y in zip(before[i], pr)])


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        for k in kernel(ints(mat_rows(a)), a.cols).basis:
            assert matvec(a, k).is_zero()


def test_kernel_basis_is_canonical():
    # 20-bit rationals, sparse entries, zero, repeated and dependent rows,
    # no rows at all, wide and tall shapes.
    rng = random.Random(12)

    def entry() -> QQ:
        if rng.random() < 0.3:
            return QQ(0)
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))

    for _ in range(300):
        cols = rng.randint(1, 7)
        rows: list[list[QQ]] = []
        for _ in range(rng.randint(0, 7)):
            pick = rng.random()
            if pick < 0.15:
                rows.append([QQ(0)] * cols)
            elif pick < 0.3 and rows:
                rows.append(list(rng.choice(rows)))
            elif pick < 0.5 and rows:
                u, w, c = rng.choice(rows), rng.choice(rows), entry()
                rows.append([x + c * y for x, y in zip(u, w)])
            else:
                rows.append([entry() for _ in range(cols)])
        a = Mat(len(rows), cols, tuple(x for row in rows for x in row))
        k = kernel(ints(rows), cols)
        assert span_of(ints(k.basis), cols).basis == k.basis
        assert all(matvec(a, v).is_zero() for v in k.basis)
        assert k.dim == cols - span_of(ints(map(vec, rows)), cols).dim


# ------------------------------------------------------------- subspaces


def test_span_canonical_basis_is_representation_free():
    s = span_of(ints([vec(1, 1, 0), vec(0, 1, 1)]))
    t = span_of(ints([vec(1, 2, 1), vec(2, 3, 1), vec(1, 0, -1)]))
    assert subspace_equal(s, t)
    assert s.basis == t.basis


def test_subspace_equal_matches_double_containment():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        s = span_of(ints([rand_vec(rng, n) for _ in range(rng.randint(0, n + 1))] or [zero_vec(n)]), n)
        t = span_of(ints([rand_vec(rng, n) for _ in range(rng.randint(0, n + 1))] or [zero_vec(n)]), n)
        both = contains(s, t) and contains(t, s)
        assert subspace_equal(s, t) == both


def test_contains_and_coordinates_round_trip():
    s = span_of(ints([vec(1, 1, 0), vec(0, 0, 1)]))
    v = vec(2, 2, -3)
    assert contains(s, span_of(ints([v])))
    assert not contains(s, span_of(ints([vec(1, 0, 0)])))


def test_zero_and_full_subspaces():
    z = Subspace(3, ())
    f = span_of(ints([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]))
    assert z.dim == 0 and f.dim == 3
    assert contains(f, z)
    assert subspace_equal(span_of(ints([vec(1, 1, 0), vec(0, 1, 1), vec(1, 0, 1)])), f)


def reference_rref(rows: list[list[QQ]], cols: int) -> list[list[QQ]]:
    """Reference: Gauss–Jordan elimination in Fractions, each pivot scaled
    to 1; the nonzero rows of the reduced row echelon form."""
    rows = [list(r) for r in rows]
    done = 0
    for c in range(cols):
        i = next((i for i in range(done, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[done], rows[i] = rows[i], rows[done]
        pr = [x / rows[done][c] for x in rows[done]]
        rows[done] = pr
        for k, row in enumerate(rows):
            if k != done and row[c] != 0:
                rows[k] = [x - row[c] * y for x, y in zip(row, pr)]
        done += 1
    return rows[:done]


def reference_null_space(rows: list[list[QQ]], cols: int) -> list[list[QQ]]:
    """Reference: the null space of the rows, canonical: each free column
    j's vector eⱼ − Σ Rᵢⱼ·e_pᵢ of the reference form R, brought to its own
    reduced row echelon form."""
    reduced = reference_rref(rows, cols)
    pivots = [next(c for c, x in enumerate(r) if x != 0) for r in reduced]
    vectors = []
    for j in sorted(set(range(cols)) - set(pivots)):
        x = [QQ(0)] * cols
        x[j] = QQ(1)
        for r, p in zip(reduced, pivots):
            x[p] = -r[j]
        vectors.append(x)
    return reference_rref(vectors, cols)


def test_integer_echelon_rows_match_the_fraction_reference():
    """On seeded row sets (zero, repeated and dependent rows, 20-bit
    denominators, no rows at all), ``span_of`` and ``kernel`` give the
    Fraction reference's canonical bases; every stored row is primitive,
    positive at its pivot, and exactly ``_integer_rows`` of its basis row;
    and ``subspace_equal`` holds exactly when the references are equal."""
    rng = random.Random(3001)

    def entry() -> QQ:
        roll = rng.random()
        if roll < 0.3:
            return QQ(0)
        if roll < 0.55:
            return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))
        return QQ(rng.randint(-6, 6), rng.randint(1, 4))

    def row_set(cols: int, count: int) -> list[list[QQ]]:
        rows: list[list[QQ]] = []
        for _ in range(count):
            pick = rng.random()
            if pick < 0.15:
                rows.append([QQ(0)] * cols)
            elif pick < 0.3 and rows:
                c = rng.choice((1, -1, QQ(2, 3)))
                rows.append([c * x for x in rng.choice(rows)])
            elif pick < 0.5 and rows:
                u, w, c = rng.choice(rows), rng.choice(rows), entry()
                rows.append([x + c * y for x, y in zip(u, w)])
            else:
                rows.append([entry() for _ in range(cols)])
        return rows

    def canonical(s: Subspace, ref: list[list[QQ]]) -> None:
        assert s.basis == tuple(Vec(tuple(r)) for r in ref)
        for r, v in zip(s.rows, s.basis):
            assert next(x for x in r if x) > 0 and gcd(*r) == 1
            assert list(r) == _integer_rows([v])[0][0]

    seen = {True: 0, False: 0}
    for trial in range(300):
        cols = rng.randint(1, 6)
        rows = row_set(cols, rng.randint(0, 6) if trial % 10 else 0)
        s, k = span_of(ints(rows), cols), kernel(ints(rows), cols)
        ref = reference_rref(rows, cols)
        canonical(s, ref)
        canonical(k, reference_null_space(rows, cols))
        # A second set: combinations of the first's rows (often the same
        # span), or fresh rows.
        if rows and rng.random() < 0.6:
            other = []
            for _ in range(rng.randint(1, len(rows) + 2)):
                coeffs = [entry() for _ in rows]
                other.append([sum((c * r[j] for c, r in zip(coeffs, rows)), QQ(0)) for j in range(cols)])
        else:
            other = row_set(cols, rng.randint(0, 4))
        t = span_of(ints(other), cols)
        equal = ref == reference_rref(other, cols)
        assert subspace_equal(s, t) == equal, trial
        seen[equal] += 1
    assert min(seen.values()) >= 30, seen


def gram_complement(s: Subspace, within: Subspace) -> Subspace:
    """Reference complement: the kernel of the Gram matrix ⟨sᵢ; wⱼ⟩ gives
    the coefficients of the complement in the basis of ``within``."""
    if s.dim == 0:
        return within
    coeffs = kernel(ints([dot(u, w) for w in within.basis] for u in s.basis), within.dim)
    vectors = []
    for c in coeffs.basis:
        x = zero_vec(within.ambient)
        for cj, w in zip(c, within.basis):
            x = x + w.scale(cj)
        vectors.append(x)
    return span_of(ints(vectors), within.ambient) if vectors else Subspace(within.ambient, ())


def test_orthogonal_complement_matches_gram_reference():
    rng = random.Random(97)

    def wide() -> QQ:
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))

    def combination(within: Subspace) -> Vec:
        u, w = rng.sample(within.basis, 2) if within.dim > 1 else within.basis * 2
        return u.scale(wide()) + w.scale(wide())

    for n in range(2, 6):
        e = [vec([int(i == j) for j in range(n)]) for i in range(n)]
        gens = [sym_product(e[i], e[j]).flatten() for i in range(n) for j in range(i, n)]
        within = span_of(ints(gens), n * n)
        sizes = sorted({0, 1, within.dim // 2, within.dim - 1})
        subs = [span_of(ints([combination(within) for _ in range(k)]), n * n) for k in sizes]
        for s in subs + [within]:
            coords = [sym_coords(r, n) for r in s.rows]
            c = symmetric_complement(span_of(ints(coords), n * (n + 1) // 2), n)
            assert subspace_equal(c, gram_complement(s, within))
            assert c.dim == within.dim - s.dim
            assert contains(within, c)
            assert all(dot(u, w) == 0 for u in s.basis for w in c.basis)


def test_ambient_mismatch_is_rejected():
    with pytest.raises(AmbientMismatch):
        subspace_equal(span_of(ints([vec(1, 0)])), span_of(ints([vec(1, 0, 0)])))


def test_normalize_direction():
    assert normalize_direction(vec(0, -2, 4)) == vec(0, 1, -2)
    assert normalize_direction(vec("2/3", 2)) == vec(1, 3)


# ---------------------------------------------------------- linear solve


def test_solve_square_exact_and_singular():
    # The rational reference rule and the integer kernel of ``geometry.faces``,
    # which returns the solution as a primitive integer point (X, D).
    sol = solve_square([[2, 1, 5], [1, 3, 10]])
    assert sol == [QQ(1), QQ(3)]
    assert solve_square([[1, 2, 1], [2, 4, 2]]) is None
    assert _solve([[2, 1, 5], [1, 3, 10]]) == ((1, 3), 1)
    assert _solve([[2, 1, 1], [1, 3, 1]]) == ((2, 1), 5)
    assert _solve([[1, 2, 1], [2, 4, 2]]) is None


def test_solve_square_random_round_trip():
    rng = random.Random(59)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = rand_mat(rng, n, n)
        if span_of(ints(mat_rows(a)), n).dim < n:
            continue
        x = rand_vec(rng, n)
        rhs = matvec(a, x)
        system = _integer_rows([*r, y] for r, y in zip(mat_rows(a), rhs))[0]
        sol = solve_square(system)
        assert sol == list(x)
        (xs,), d = integer_points([x])
        assert _solve(system) == (xs, d)
        done += 1
