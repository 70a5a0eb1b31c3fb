"""Decision procedures: verdicts, certificates, and factor recovery."""

from __future__ import annotations

import random
import time
from fractions import Fraction as QQ

import pytest

from inclusionkit import feasibility
from inclusionkit.convexity import PointSet, certificate_valid
from inclusionkit.errors import InclusionKitError, InvalidInput
from inclusionkit.feasibility import (
    COMMON_KERNEL_TRIVIAL,
    DIMENSION_TOO_SMALL,
    FEASIBLE,
    GRADIENT,
    INFEASIBLE,
    NOT_RELATIVE_INTERIOR,
    OUT_OF_SCOPE,
    SPAN_NOT_RANK_ONE,
    SYMMETRIZED,
    InclusionProblem,
    decide,
)
from inclusionkit.geometry import Polytope, unit_box
from inclusionkit.linalg import (
    Mat,
    Subspace,
    Vec,
    mat,
    rank,
    span_of,
    subspace_equal,
    unit_vec,
    vec,
)
from inclusionkit.products import tensor


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


def normalize_direction(v: Vec) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    return v.scale(1 / next(x for x in v if x != 0))


def in_span(s: Subspace, v: Vec) -> bool:
    """Whether v ∈ s: adding v to the basis of s keeps its dimension."""
    return span_of([*s.basis, v], s.ambient).dim == s.dim


def grad(mats):
    return InclusionProblem.gradient(mats)


def symm(mats):
    return InclusionProblem.symmetrized(mats)


def check_separator(verdict, matrices):
    p = verdict.separator
    assert p is not None and not p.is_zero()
    flats = [a.flatten() for a in matrices]
    assert in_span(span_of(flats, len(p)), p)
    assert all(z.dot(p) >= 0 for z in flats)


# ------------------------------------------------------- gradient verdicts


def test_scalar_two_point_inclusion_is_feasible():
    v = decide(grad([mat([[1]]), mat([[-1]])]))
    assert v.status == FEASIBLE
    assert v.b == vec(1)
    assert set(v.factors) == {vec(1), vec(-1)}
    assert v.certificate.weights == (QQ(1, 2), QQ(1, 2))


def test_diagonal_set_breaks_rank_one_despite_interior_origin():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    v = decide(grad([e11, e22, -e11 - e22]))
    assert v.status == INFEASIBLE
    assert v.reason == SPAN_NOT_RANK_ONE


def test_rank_one_family_with_interior_origin_is_feasible():
    b = vec(1, 2)
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [tensor(b, e1), tensor(b, e2), tensor(b, -(e1 + e2))]
    v = decide(grad(mats))
    assert v.status == FEASIBLE
    assert normalize_direction(v.b) == normalize_direction(b)
    assert set(v.factors) == {e1, e2, -(e1 + e2)}
    assert v.certificate.weights == (QQ(1, 3), QQ(1, 3), QQ(1, 3))


def test_one_sided_rank_one_family_is_infeasible_with_separator():
    b = vec(1, 1)
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [tensor(b, e1), tensor(b, e2), tensor(b, e1 + e2)]
    v = decide(grad(mats))
    assert v.status == INFEASIBLE
    assert v.reason == NOT_RELATIVE_INTERIOR
    check_separator(v, mats)


def test_small_span_is_dimension_too_small():
    i2 = mat([[1, 0], [0, 1]])
    v = decide(grad([i2, -i2]))
    assert v.status == INFEASIBLE
    assert v.reason == DIMENSION_TOO_SMALL
    assert v.span_dim == 1


def test_large_span_is_out_of_scope():
    mats = [
        mat([[1, 0], [0, 0]]),
        mat([[0, 0], [0, 1]]),
        mat([[0, 1], [0, 0]]),
        mat([[-1, -1], [0, -1]]),
    ]
    v = decide(grad(mats))
    assert v.status == OUT_OF_SCOPE
    assert v.span_dim == 3


def test_scalar_target_bypasses_rank_one_detection():
    # m = 1: the slice is automatic with b = (1).
    mats = [mat([[1, 0]]), mat([[-1, 0]]), mat([[0, 1]]), mat([[0, -1]])]
    v = decide(grad(mats))
    assert v.status == FEASIBLE
    assert v.b == vec(1)
    assert set(v.factors) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)}


def test_feasible_certificate_re_verifies():
    mats = [mat([[1]]), mat([[-2]])]
    v = decide(grad(mats))
    assert v.status == FEASIBLE
    ps = PointSet.from_vecs([a.flatten() for a in mats], 1)
    assert certificate_valid(ps, v.certificate)


def test_reconstruction_reproduces_the_matrix_set():
    rng = random.Random(71)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(m)))
        if b.is_zero() or next(x for x in b if x != 0) < 0:
            continue
        g = Mat(n, n, tuple(QQ(rng.randint(-3, 3)) for _ in range(n * n)))
        if rank(g) < n:
            continue
        factors = [g.row(i) for i in range(n)]
        factors.append(-sum(factors[1:], factors[0]))
        mats = [tensor(b, f) for f in factors]
        v = decide(grad(mats))
        assert v.status == FEASIBLE
        rebuilt = {tensor(v.b, f) for f in v.factors}
        assert rebuilt == set(mats)


# ---------------------------------------------------- symmetrized verdicts


def test_symmetric_cross_is_feasible():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    v = decide(symm(mats))
    assert v.status == FEASIBLE
    assert v.b == e1
    assert set(v.factors) == {e1, -e1, e2, -e2}
    assert subspace_equal(
        span_of([a.flatten() for a in mats], 4),
        span_of([sym_product(v.b, unit_vec(j, 2)).flatten() for j in range(2)], 4),
    )


def test_dependent_pair_span_has_trivial_common_kernel():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    w1 = sym_product(e1, e1 + e2)
    w2 = sym_product(e2, e2)
    v = decide(symm([w1, -w1, w2, -w2]))
    assert v.status == INFEASIBLE
    assert v.reason == COMMON_KERNEL_TRIVIAL
    assert len(v.complement_basis) == 1
    assert normalize_direction(v.complement_basis[0]) == vec(1, -1, -1, 0)


def test_common_kernel_trivial_reports_the_complement_in_sym():
    # Diagonal matrices span an n-dimensional space that is no slice
    # QQⁿ ∨ b; the certificate is its complement inside Sym(n).
    for n in range(2, 5):
        mats = []
        for i in range(n):
            d = sym_product(unit_vec(i, n), unit_vec(i, n)).scale(QQ(i + 1, 3))
            mats += [d, -d]
        v = decide(symm(mats))
        assert v.status == INFEASIBLE and v.reason == COMMON_KERNEL_TRIVIAL
        comp = v.complement_basis
        assert len(comp) == rank(Mat.from_rows([list(c) for c in comp]))
        assert len(comp) == n * (n + 1) // 2 - n
        for c in comp:
            assert Mat(n, n, c.entries).is_symmetric()
            assert all(c.dot(a.flatten()) == 0 for a in mats)


def test_one_sided_symmetric_family_is_infeasible():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [sym_product(e1, e1), sym_product(e1, e2)]
    v = decide(symm(mats))
    assert v.status == INFEASIBLE
    assert v.reason == NOT_RELATIVE_INTERIOR
    check_separator(v, mats)


def test_symmetric_small_and_large_spans():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    s = sym_product(e1, e1)
    v = decide(symm([s, -s]))
    assert v.status == INFEASIBLE and v.reason == DIMENSION_TOO_SMALL
    mats = [sym_product(e1, e1), sym_product(e2, e2), sym_product(e1, e2)]
    big = decide(symm([a for m_ in mats for a in (m_, -m_)]))
    assert big.status == OUT_OF_SCOPE
    assert big.span_dim == 3


def test_symmetrized_scalar_has_an_empty_complement():
    # Sym(1) is the whole line: any nonzero E spans it, the complement inside
    # Sym(1) is zero, so its common kernel is everything and b = (1).
    v = decide(symm([mat([[1]]), mat([[-2]])]))
    assert v.status == FEASIBLE
    assert v.b == vec(1)
    assert v.factors == (vec(QQ(1, 2)), vec(-1))
    assert v.certificate.weights == (QQ(2, 3), QQ(1, 3))
    mats = [mat([[1]]), mat([[3]])]
    v = decide(symm(mats))
    assert v.status == INFEASIBLE and v.reason == NOT_RELATIVE_INTERIOR
    check_separator(v, mats)


def test_factor_set_is_rechecked_against_the_certificate(monkeypatch):
    # A factor set that the certificate's weights do not balance, or that
    # does not span QQⁿ, is an internal fault, never a feasible verdict.
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    mats = [sym_product(e1, e1), -sym_product(e1, e1), sym_product(e1, e2), -sym_product(e1, e2)]
    for forged in ((e1, -e1, e2, e2), (e1, -e1, e1, -e1)):
        monkeypatch.setattr(feasibility, "_factors", lambda *args, f=forged: f)
        with pytest.raises(InclusionKitError, match="interior property"):
            decide(symm(mats))


def test_decide_dispatches_on_operator():
    p = grad([mat([[1]]), mat([[-1]])])
    assert decide(p).status == FEASIBLE
    e1 = unit_vec(0, 2)
    q = symm([sym_product(e1, e1), -sym_product(e1, e1)])
    assert decide(q).status == INFEASIBLE


# --------------------------------------------------------- factor recovery


def test_factor_slice_tensor_example():
    f = feasibility._factors([tensor(vec(1, 2), vec(3, 4))], vec(1, 2), GRADIENT)
    assert f == (vec(3, 4),)


def test_factor_slice_symmetric_example():
    e1, e2 = unit_vec(0, 2), unit_vec(1, 2)
    f = feasibility._factors([sym_product(e1, e2)], e1, SYMMETRIZED)
    assert f == (e2,)


def test_factor_slice_round_trips_randomly():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(m)))
        if b.is_zero():
            continue
        # The slice test hands over b with its first nonzero entry 1.
        b = normalize_direction(b)
        fs = [Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n))) for _ in range(3)]
        mats = [tensor(b, f) for f in fs]
        assert feasibility._factors(mats, b, GRADIENT) == tuple(fs)
        c = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
        if c.is_zero():
            continue
        smats = [sym_product(c, f) for f in fs]
        rec = feasibility._factors(smats, c, SYMMETRIZED)
        assert tuple(sym_product(c, f) for f in rec) == tuple(smats)


# --------------------------------------------------------------- loading


def test_zero_matrix_is_rejected():
    with pytest.raises(InvalidInput):
        grad([mat([[0]])])
    with pytest.raises(InvalidInput):
        grad([mat([[1]]), mat([[0]])])


def test_empty_set_is_rejected():
    with pytest.raises(InvalidInput):
        grad([])


def test_mixed_shapes_are_rejected():
    with pytest.raises(InvalidInput):
        grad([mat([[1]]), mat([[1, 0]])])


def test_symmetrized_requires_symmetric_matrices():
    with pytest.raises(InvalidInput):
        symm([mat([[0, 1], [0, 0]])])
    with pytest.raises(InvalidInput):
        symm([mat([[1, 0]])])


def test_duplicates_are_dropped():
    p = grad([mat([[1]]), mat([[1]]), mat([[-1]])])
    assert len(p.matrices) == 2
    # First occurrence wins, and thousands of matrices load in well under a second.
    distinct = [Mat(2, 2, (QQ(i), QQ(1, i), QQ(-i), QQ(1))) for i in range(1, 4001)]
    mats = []
    for i, a in enumerate(distinct):
        mats.append(a)
        if i % 3 == 0:
            mats.append(distinct[i // 2])
    start = time.perf_counter()
    p = grad(mats)
    ps = PointSet.from_vecs([a.flatten() for a in mats], 4)
    assert time.perf_counter() - start < 1
    assert p.matrices == tuple(distinct)
    assert ps.points == tuple(a.flatten() for a in distinct)


def test_default_domain_is_the_unit_box():
    p = grad([mat([[1]]), mat([[-1]])])
    assert p.domain == unit_box(1)
    assert p.domain.corners == (vec(0), vec(1))


def test_domain_validation():
    with pytest.raises(InvalidInput):
        InclusionProblem.gradient(
            [mat([[1]]), mat([[-1]])], Polytope.box(vec(1), vec(0))
        )
    with pytest.raises(InvalidInput):
        InclusionProblem.gradient(
            [mat([[1]]), mat([[-1]])],
            Polytope.halfspaces([vec(1)], [QQ(1)]),
        )
    with pytest.raises(InvalidInput):
        InclusionProblem.gradient(
            [mat([[1, 0]]), mat([[-1, 0]])], Polytope.box(vec(0), vec(1))
        )
    with pytest.raises(InvalidInput):
        InclusionProblem.gradient(
            [mat([[1, 0]]), mat([[-1, 0]])], Polytope.box(vec(0, 1), vec(1, 1))
        )


def test_custom_bounded_domain_is_accepted():
    diamond = Polytope.halfspaces(
        [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)], [QQ(1)] * 4
    )
    p = InclusionProblem.gradient([mat([[1, 0]]), mat([[-1, 0]])], diamond)
    assert p.domain is diamond


# ------------------------------------------------------------- properties


def test_random_low_dimensional_spans_are_rejected():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randint(2, 3)
        b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
        if b.is_zero():
            continue
        # Factors drawn from a proper subspace keep dim span E < n.
        fs = [Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n - 1)) + (QQ(0),)) for _ in range(4)]
        mats = [tensor(b, f) for f in fs if not f.is_zero()]
        if not mats:
            continue
        v = decide(grad(mats))
        assert v.status in (INFEASIBLE, OUT_OF_SCOPE)
        if v.status == INFEASIBLE:
            assert v.reason == DIMENSION_TOO_SMALL
            assert v.span_dim < n


def test_infeasible_never_carries_feasible_payload():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    v = decide(grad([e11, e22, -e11 - e22]))
    assert v.b is None and v.factors is None and v.certificate is None
