"""Tensor and symmetric products; the two slice tests."""

from __future__ import annotations

import random
from fractions import Fraction as QQ

import pytest

from inclusionkit.errors import AmbientMismatch, DimensionMismatch
from inclusionkit.linalg import (
    Mat,
    Subspace,
    Vec,
    kernel,
    mat,
    rank,
    span_of,
    subspace_equal,
    unit_vec,
    vec,
)
from inclusionkit.products import (
    common_kernel_direction,
    detect_rank_one_span,
    sym_coords,
    symmetric_complement,
    tensor,
)


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


def rand_vec(rng: random.Random, n: int):
    return Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))


def rand_nonzero(rng: random.Random, n: int):
    while True:
        v = rand_vec(rng, n)
        if not v.is_zero():
            return v


def slice_span(product, b, n: int):
    """The slice b ⊗ QQⁿ or QQⁿ ∨ b, spanned by the products with the unit vectors."""
    return span_of([product(b, unit_vec(j, n)).flatten() for j in range(n)], len(b) * n)


def sym_span(s, n: int):
    """A flat span of symmetric n×n matrices, in the ``sym_coords`` of Sym(n)."""
    return span_of([sym_coords(Mat(n, n, v.entries)) for v in s.basis], n * (n + 1) // 2)


def sym_matrix(c, n: int) -> Mat:
    """The symmetric n×n matrix with ``sym_coords`` c."""
    it = iter(c)
    rows = [[QQ(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return Mat.from_rows(rows)


def sym_slice_direction(s, n: int):
    """The symmetric slice test of ``feasibility.decide``, on a flat span."""
    return common_kernel_direction(symmetric_complement(sym_span(s, n), n), n)


def skew_kernel_complement(s, n: int):
    """Reference: the complement of a flat s ⊆ Sym(n) inside Sym(n), as the null
    space of s's basis stacked on the skew generators E_ij − E_ji (i < j)."""
    rows = [v.entries for v in s.basis]
    for i in range(n):
        for j in range(i + 1, n):
            skew = [QQ(0)] * (n * n)
            skew[i * n + j], skew[j * n + i] = QQ(1), QQ(-1)
            rows.append(skew)
    return kernel(Mat(len(rows), n * n, tuple(x for r in rows for x in r)))


# -------------------------------------------------------------- products


def test_tensor_example():
    assert tensor(vec(1, 2), vec(3, 4)) == mat([[3, 4], [6, 8]])
    assert tensor(vec(1, 2, 3), vec(1, -1)) == mat([[1, -1], [2, -2], [3, -3]])


def test_sym_product_example():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    assert sym_product(e1, e1 + e2) == mat([[2, 1], [1, 0]])
    assert sym_product(e2, e2) == mat([[0, 0], [0, 2]])


def test_product_symmetry_properties():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        a, b = rand_vec(rng, n), rand_vec(rng, n)
        assert sym_product(a, b) == sym_product(b, a)
        assert sym_product(a, b).is_symmetric()
        assert sym_product(a, b) == tensor(a, b) + tensor(b, a)
        assert rank(tensor(a, b)) <= 1


def test_square_products_reject_mixed_lengths():
    # a⊗b and b⊗a have transposed shapes, which the matrix sum rejects.
    with pytest.raises(AmbientMismatch):
        sym_product(vec(1, 0), vec(1, 0, 0))


def test_pairing_identities():
    # <A; x v b> = 2<Ab; x> for symmetric A.
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 4)
        x, b = rand_vec(rng, n), rand_vec(rng, n)
        raw = Mat(n, n, tuple(QQ(rng.randint(-4, 4)) for _ in range(n * n)))
        sym = raw + raw.transpose()
        assert sym.flatten().dot(sym_product(x, b).flatten()) == 2 * sym.matvec(b).dot(x)


# ---------------------------------------------------------------- slices


def test_matrix_space_dimensions():
    for n in range(1, 6):
        sym_dim = n * (n + 1) // 2
        assert symmetric_complement(Subspace(sym_dim, ()), n).dim == sym_dim
    with pytest.raises(DimensionMismatch):
        symmetric_complement(Subspace(4, ()), 2)


def test_sym_coords_read_the_upper_triangle_row_by_row():
    assert sym_coords(mat([[1, 2, 3], [2, 4, 5], [3, 5, 6]])) == vec(1, 2, 3, 4, 5, 6)
    assert sym_coords(mat([[7]])) == vec(7)


def test_symmetric_complement_matches_skew_kernel_reference():
    # Every dimension k of every Sym(n), n = 1..5, with 20-bit rationals: the
    # same canonical basis as the reference.  Spanning vector i owns the
    # shuffled coordinate order[i] and meets the last sym_dim − k coordinates
    # at random, so the span has dimension k and its pivots fall anywhere.
    rng = random.Random(101)

    def wide() -> QQ:
        return QQ(rng.choice((-1, 1)) * rng.randint(1, 2**20), rng.randint(1, 2**20))

    for n in range(1, 6):
        sym_dim = n * (n + 1) // 2
        for k in range(sym_dim + 1):
            order = rng.sample(range(sym_dim), sym_dim)
            coords = []
            for i in range(k):
                c = [QQ(0)] * sym_dim
                for j in [order[i]] + [j for j in order[k:] if rng.random() < 0.5]:
                    c[j] = wide()
                coords.append(Vec(tuple(c)))
            flat = [sym_matrix(c, n).flatten() for c in coords]
            s = span_of(flat, n * n)
            assert s.dim == k
            comp = symmetric_complement(span_of(coords, sym_dim), n)
            assert comp.basis == skew_kernel_complement(s, n).basis
            assert comp.dim == sym_dim - k


# -------------------------------------------------------------- detection


def test_detect_rank_one_span_round_trip():
    rng = random.Random(41)
    done = 0
    while done < 25:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        b = rand_nonzero(rng, m)
        factors = [rand_vec(rng, n) for _ in range(n)]
        if span_of(factors, n).dim < n:
            continue
        s = span_of([tensor(b, f).flatten() for f in factors], m * n)
        found = detect_rank_one_span(s, (m, n))
        assert found is not None
        # Normalized to leading coordinate 1: a positive multiple of b or -b.
        lead = next(x for x in b if x != 0)
        assert found == b.scale(1 / lead)
        assert subspace_equal(s, slice_span(tensor, found, n))
        done += 1


def test_detect_rank_one_span_negative():
    s = span_of([mat([[1, 0], [0, 0]]).flatten(), mat([[0, 0], [0, 1]]).flatten()])
    assert detect_rank_one_span(s, (2, 2)) is None


def test_detect_sym_slice_round_trip():
    rng = random.Random(47)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        b = rand_nonzero(rng, n)
        s = span_of([sym_product(b, unit_vec(i, n)).flatten() for i in range(n)], n * n)
        if s.dim != n:
            continue
        found = sym_slice_direction(s, n)
        assert found is not None
        lead = next(x for x in b if x != 0)
        assert found == b.scale(1 / lead)
        assert subspace_equal(s, slice_span(sym_product, found, n))
        done += 1


def test_slice_directions_have_a_leading_one():
    # Both tests return a canonical basis vector as it stands: its first
    # nonzero coordinate is 1, on slices, sub-spans of slices and other spans.
    rng = random.Random(53)
    found = {"rank one": 0, "symmetric": 0}
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        b = rand_nonzero(rng, m)
        gens = [tensor(b, rand_vec(rng, n)).flatten() for _ in range(rng.randint(1, n))]
        if rng.random() < 0.3:
            gens.append(Mat(m, n, tuple(rand_vec(rng, m * n))).flatten())
        direction = detect_rank_one_span(span_of(gens, m * n), (m, n))
        if direction is not None:
            assert next(x for x in direction if x != 0) == 1
            found["rank one"] += 1
        n = rng.randint(2, 4)
        b = rand_nonzero(rng, n)
        gens = [sym_product(b, rand_vec(rng, n)).flatten() for _ in range(rng.randint(1, n))]
        if rng.random() < 0.3:
            raw = Mat(n, n, tuple(rand_vec(rng, n * n)))
            gens.append((raw + raw.transpose()).flatten())
        direction = sym_slice_direction(span_of(gens, n * n), n)
        if direction is not None:
            assert next(x for x in direction if x != 0) == 1
            found["symmetric"] += 1
    assert min(found.values()) >= 50, found


def non_slice_span():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    w1 = sym_product(e1, e1 + e2)
    w2 = sym_product(e2, e2)
    return span_of([w1.flatten(), w2.flatten()], 4)


def test_dependent_pair_span_is_not_a_slice():
    # A two-dimensional span of symmetric rank-two products that is not
    # R^2 v b for any b, yet meets every slice nontrivially.
    w = non_slice_span()
    assert w.dim == 2
    assert sym_slice_direction(w, 2) is None
    rng = random.Random(61)
    for _ in range(25):
        x = rand_nonzero(rng, 2)
        t = slice_span(sym_product, x, 2)
        # dim(w ∩ t) = dim w + dim t - dim(w + t) >= 1.
        assert span_of(w.basis + t.basis, 4).dim < w.dim + t.dim
