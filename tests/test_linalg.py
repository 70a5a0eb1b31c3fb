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
    mat_from_flat,
    rank,
    rat,
    rat_str,
    solve_square,
    span_of,
    subspace_equal,
    unit_vec,
    vec,
    zero_vec,
)
from inclusionkit.products import sym_coords, symmetric_complement, tensor


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
    return rank(Mat(len(rows), s.ambient, tuple(x for v in rows for x in v))) == s.dim


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


def test_rat_str_is_canonical():
    assert rat_str(QQ(1, 2)) == "1/2"
    assert rat_str(QQ(4, 2)) == "2"
    assert rat_str(QQ(-3, 9)) == "-1/3"
    assert rat_str(QQ(0)) == "0"


# ------------------------------------------------------ vectors, matrices


def test_vec_algebra():
    a = vec(1, 2, 3)
    b = vec("1/2", 0, -1)
    assert a + b == vec("3/2", 2, 2)
    assert a - b == vec("1/2", 2, 4)
    assert -b == vec("-1/2", 0, 1)
    assert a.scale(QQ(2)) == vec(2, 4, 6)
    assert a.dot(b) == QQ(1, 2) - 3
    assert zero_vec(3).is_zero()
    assert not a.is_zero()
    assert unit_vec(1, 3) == vec(0, 1, 0)
    assert list(a) == [QQ(1), QQ(2), QQ(3)]


def test_mat_algebra_and_predicates():
    a = mat([[1, 2], [3, 4]])
    assert a.entry(1, 0) == QQ(3)
    assert a.row(0) == vec(1, 2)
    assert a.transpose().row(1) == vec(2, 4)
    assert a.transpose() == mat([[1, 3], [2, 4]])
    assert a.matvec(vec(1, 1)) == vec(3, 7)
    assert a.flatten() == vec(1, 2, 3, 4)
    assert (a - a).is_zero()
    assert a + a == a.scale(QQ(2))
    assert a.flatten().dot(a.flatten()) == QQ(1 + 4 + 9 + 16)
    assert mat([[1, 2], [2, 5]]).is_symmetric()
    assert not a.is_symmetric()
    assert mat_from_flat(2, 2, [1, 2, 3, 4]) == a


def test_mat_shape_validation():
    with pytest.raises(Exception):
        Mat(2, 2, (QQ(1), QQ(2), QQ(3)))


# ------------------------------------------------------------------ rank


def test_rank_examples():
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[0, 0], [0, 0]])) == 0
    assert rank(mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n)
        assert rank(a) + kernel(a).dim == n
        assert rank(a) == rank(a.transpose())


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
        for k in kernel(a).basis:
            assert a.matvec(k).is_zero()


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
        k = kernel(a)
        assert span_of(k.basis, cols).basis == k.basis
        assert all(a.matvec(v).is_zero() for v in k.basis)
        assert k.dim == cols - rank(a)


# ------------------------------------------------------------- subspaces


def test_span_canonical_basis_is_representation_free():
    s = span_of([vec(1, 1, 0), vec(0, 1, 1)])
    t = span_of([vec(1, 2, 1), vec(2, 3, 1), vec(1, 0, -1)])
    assert subspace_equal(s, t)
    assert s.basis == t.basis


def test_subspace_equal_matches_double_containment():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        s = span_of([rand_vec(rng, n) for _ in range(rng.randint(0, n + 1))] or [zero_vec(n)], n)
        t = span_of([rand_vec(rng, n) for _ in range(rng.randint(0, n + 1))] or [zero_vec(n)], n)
        both = contains(s, t) and contains(t, s)
        assert subspace_equal(s, t) == both


def test_contains_and_coordinates_round_trip():
    s = span_of([vec(1, 1, 0), vec(0, 0, 1)])
    v = vec(2, 2, -3)
    assert contains(s, span_of([v]))
    assert not contains(s, span_of([vec(1, 0, 0)]))


def test_zero_and_full_subspaces():
    z = Subspace(3, ())
    f = span_of([unit_vec(i, 3) for i in range(3)])
    assert z.dim == 0 and f.dim == 3
    assert contains(f, z)
    assert subspace_equal(span_of([vec(1, 1, 0), vec(0, 1, 1), vec(1, 0, 1)]), f)


def gram_complement(s: Subspace, within: Subspace) -> Subspace:
    """Reference complement: the kernel of the Gram matrix ⟨sᵢ; wⱼ⟩ gives
    the coefficients of the complement in the basis of ``within``."""
    if s.dim == 0:
        return within
    coeffs = kernel(Mat.from_rows([[u.dot(w) for w in within.basis] for u in s.basis]))
    vectors = []
    for c in coeffs.basis:
        x = zero_vec(within.ambient)
        for cj, w in zip(c, within.basis):
            x = x + w.scale(cj)
        vectors.append(x)
    return span_of(vectors, within.ambient) if vectors else Subspace(within.ambient, ())


def test_orthogonal_complement_matches_gram_reference():
    rng = random.Random(97)

    def wide() -> QQ:
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))

    def combination(within: Subspace) -> Vec:
        u, w = rng.sample(within.basis, 2) if within.dim > 1 else within.basis * 2
        return u.scale(wide()) + w.scale(wide())

    for n in range(2, 6):
        e = [unit_vec(i, n) for i in range(n)]
        gens = [sym_product(e[i], e[j]).flatten() for i in range(n) for j in range(i, n)]
        within = span_of(gens, n * n)
        sizes = sorted({0, 1, within.dim // 2, within.dim - 1})
        subs = [span_of([combination(within) for _ in range(k)], n * n) for k in sizes]
        for s in subs + [within]:
            coords = [sym_coords(Mat(n, n, v.entries)) for v in s.basis]
            c = symmetric_complement(span_of(coords, n * (n + 1) // 2), n)
            assert subspace_equal(c, gram_complement(s, within))
            assert c.dim == within.dim - s.dim
            assert contains(within, c)
            assert all(u.dot(w) == 0 for u in s.basis for w in c.basis)


def test_ambient_mismatch_is_rejected():
    with pytest.raises(AmbientMismatch):
        subspace_equal(span_of([vec(1, 0)]), span_of([vec(1, 0, 0)]))


def test_normalize_direction():
    assert normalize_direction(vec(0, -2, 4)) == vec(0, 1, -2)
    assert normalize_direction(vec("2/3", 2)) == vec(1, 3)


# ---------------------------------------------------------- linear solve


def test_solve_square_exact_and_singular():
    sol = solve_square([[2, 1, 5], [1, 3, 10]])
    assert sol == [QQ(1), QQ(3)]
    assert solve_square([[1, 2, 1], [2, 4, 2]]) is None


def test_solve_square_random_round_trip():
    rng = random.Random(59)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = rand_mat(rng, n, n)
        if rank(a) < n:
            continue
        x = rand_vec(rng, n)
        rhs = a.matvec(x)
        sol = solve_square(_integer_rows([*a.row(i), rhs[i]] for i in range(n))[0])
        assert sol == list(x)
        done += 1
