"""Decision procedures: verdicts, certificates, and factor recovery."""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import partial
from fractions import Fraction as QQ

import pytest

from inclusionkit import convexity, feasibility, products
from inclusionkit.convexity import PointSet, certificate_valid, separating_functional
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
    _integer_rows,
    mat,
    span_of,
    subspace_equal,
    vec,
)
from inclusionkit.products import flat_from_sym, sym_coords, tensor

from test_convexity import ints, mat_rows, point_vecs, transpose


def dot(a: Vec, b: Vec) -> QQ:
    """⟨a; b⟩ in rationals."""
    return sum((x * y for x, y in zip(a, b)), QQ(0))


def sym_product(a, b):
    """a ∨ b = a⊗b + b⊗a."""
    return tensor(a, b) + tensor(b, a)


def normalize_direction(v: Vec) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    return v.scale(1 / next(x for x in v if x != 0))


def in_span(s: Subspace, v: Vec) -> bool:
    """Whether v ∈ s: adding v to the basis of s keeps its dimension."""
    return span_of(ints([*s.basis, v]), s.ambient).dim == s.dim


def matrices(problem: InclusionProblem) -> tuple[Mat, ...]:
    """E as matrices, rebuilt from the problem's cleared rows and lcms."""
    m, n = problem.m, problem.n
    return tuple(Mat(m, n, tuple(QQ(x, f) for x in r)) for r, f in zip(problem.rows, problem.lcms))


def grad(mats):
    return InclusionProblem.gradient(mats)


def symm(mats):
    return InclusionProblem.symmetrized(mats)


def check_separator(verdict, matrices):
    p = verdict.separator
    assert p is not None and not p.is_zero()
    flats = [a.flatten() for a in matrices]
    assert in_span(span_of(ints(flats), len(p)), p)
    assert all(dot(z, p) >= 0 for z in flats)


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
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [tensor(b, e1), tensor(b, e2), tensor(b, -(e1 + e2))]
    v = decide(grad(mats))
    assert v.status == FEASIBLE
    assert normalize_direction(v.b) == normalize_direction(b)
    assert set(v.factors) == {e1, e2, -(e1 + e2)}
    assert v.certificate.weights == (QQ(1, 3), QQ(1, 3), QQ(1, 3))


def test_one_sided_rank_one_family_is_infeasible_with_separator():
    b = vec(1, 1)
    e1, e2 = vec(1, 0), vec(0, 1)
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
        if span_of(ints(mat_rows(g)), n).dim < n:
            continue
        factors = mat_rows(g)
        factors.append(-sum(factors[1:], factors[0]))
        mats = [tensor(b, f) for f in factors]
        v = decide(grad(mats))
        assert v.status == FEASIBLE
        rebuilt = {tensor(v.b, f) for f in v.factors}
        assert rebuilt == set(mats)


# ---------------------------------------------------- symmetrized verdicts


def test_symmetric_cross_is_feasible():
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    v = decide(symm(mats))
    assert v.status == FEASIBLE
    assert v.b == e1
    assert set(v.factors) == {e1, -e1, e2, -e2}
    assert subspace_equal(
        span_of(ints([a.flatten() for a in mats]), 4),
        span_of(ints([sym_product(v.b, e).flatten() for e in (e1, e2)]), 4),
    )


def test_dependent_pair_span_has_trivial_common_kernel():
    e1, e2 = vec(1, 0), vec(0, 1)
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
            e = vec([int(i == j) for j in range(n)])
            d = sym_product(e, e).scale(QQ(i + 1, 3))
            mats += [d, -d]
        v = decide(symm(mats))
        assert v.status == INFEASIBLE and v.reason == COMMON_KERNEL_TRIVIAL
        comp = v.complement_basis
        assert len(comp) == span_of(ints(comp), n * n).dim
        assert len(comp) == n * (n + 1) // 2 - n
        for c in comp:
            assert transpose(Mat(n, n, c.entries)) == Mat(n, n, c.entries)
            assert all(dot(c, a.flatten()) == 0 for a in mats)


def test_one_sided_symmetric_family_is_infeasible():
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [sym_product(e1, e1), sym_product(e1, e2)]
    v = decide(symm(mats))
    assert v.status == INFEASIBLE
    assert v.reason == NOT_RELATIVE_INTERIOR
    check_separator(v, mats)


def test_symmetric_small_and_large_spans():
    e1, e2 = vec(1, 0), vec(0, 1)
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
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [sym_product(e1, e1), -sym_product(e1, e1), sym_product(e1, e2), -sym_product(e1, e2)]
    for forged in ((e1, -e1, e2, e2), (e1, -e1, e1, -e1)):
        monkeypatch.setattr(feasibility, "_factors", lambda *args, f=forged: _integer_rows(f))
        with pytest.raises(InclusionKitError, match="interior property"):
            decide(symm(mats))


def test_decide_dispatches_on_operator():
    p = grad([mat([[1]]), mat([[-1]])])
    assert decide(p).status == FEASIBLE
    e1 = vec(1, 0)
    q = symm([sym_product(e1, e1), -sym_product(e1, e1)])
    assert decide(q).status == INFEASIBLE


# --------------------------------------------------------- factor recovery


def factors(matrices, b: Vec, operator: str) -> tuple[Vec, ...]:
    """``feasibility._factors`` on the matrices' cleared rows, as Vecs."""
    fs, dens = feasibility._factors(*_integer_rows(a.entries for a in matrices), b, operator)
    return tuple(Vec(tuple(QQ(x, d) for x in f)) for f, d in zip(fs, dens))


def test_factor_slice_tensor_example():
    f = factors([tensor(vec(1, 2), vec(3, 4))], vec(1, 2), GRADIENT)
    assert f == (vec(3, 4),)


def test_factor_slice_symmetric_example():
    e1, e2 = vec(1, 0), vec(0, 1)
    f = factors([sym_product(e1, e2)], e1, SYMMETRIZED)
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
        assert factors(mats, b, GRADIENT) == tuple(fs)
        c = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
        if c.is_zero():
            continue
        smats = [sym_product(c, f) for f in fs]
        rec = factors(smats, c, SYMMETRIZED)
        assert tuple(sym_product(c, f) for f in rec) == tuple(smats)


def vec_formula_factors(matrices, b: Vec, operator: str) -> tuple[Vec, ...]:
    """F read off E in Vec arithmetic: A's row at b's first nonzero entry, or
    (Ab − ⟨Ab; b⟩/(2|b|²)·b)/|b|²."""
    if operator == GRADIENT:
        lead = next(i for i, x in enumerate(b) if x != 0)
        return tuple(mat_rows(a)[lead] for a in matrices)
    bb = dot(b, b)
    out = []
    for a in matrices:
        ab = Vec(tuple(dot(r, b) for r in mat_rows(a)))
        out.append((ab - b.scale(dot(ab, b) / (2 * bb))).scale(1 / bb))
    return tuple(out)


def wide_q(rng: random.Random, wide: bool) -> QQ:
    """A 20-bit rational when ``wide``, else a small one or zero."""
    if wide:
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))
    return QQ(rng.randint(-3, 3), rng.randint(1, 3))


def slice_problem(rng: random.Random, operator: str, n: int, wide: bool, interior: bool):
    """E = b⊗F or b∨F for n independent factors and one more: minus (or, when
    not ``interior``, plus) a positive combination of them."""
    while True:
        fs = [Vec(tuple(wide_q(rng, wide) for _ in range(n))) for _ in range(n)]
        b = Vec(tuple(wide_q(rng, wide) for _ in range(n if operator == SYMMETRIZED else n + 1)))
        if span_of(ints(fs), n).dim == n and not b.is_zero():
            break
    last = fs[0].scale(QQ(0))
    for f in fs:
        last = last + f.scale(QQ(rng.randint(1, 3), rng.randint(1, 3)))
    fs.append(-last if interior else last)
    if operator == GRADIENT:
        return InclusionProblem.gradient([tensor(b, f) for f in fs])
    return InclusionProblem.symmetrized([sym_product(b, f) for f in fs])


def test_factors_equal_the_vec_formula():
    """On seeded feasible problems of both operators, a third with 20-bit
    entries, and on random symmetric A with 20-bit entries, the integer F
    equals the Vec-arithmetic one."""
    rng = random.Random(2310)
    for trial in range(80):
        operator, wide = (GRADIENT, SYMMETRIZED)[trial % 2], trial % 3 == 0
        problem = slice_problem(rng, operator, rng.randint(1, 4), wide, True)
        v = decide(problem)
        assert v.status == FEASIBLE, trial
        assert v.factors == vec_formula_factors(matrices(problem), v.b, operator), trial
    for _ in range(40):
        n = rng.randint(1, 4)
        b = normalize_direction(Vec(tuple(wide_q(rng, True) for _ in range(n))))
        a = Mat(n, n, tuple(wide_q(rng, True) for _ in range(n * n)))
        a = a + transpose(a)
        assert factors([a], b, SYMMETRIZED) == vec_formula_factors([a], b, SYMMETRIZED)


def test_sym_span_written_back_is_the_flat_span():
    rng = random.Random(2311)
    for _ in range(60):
        n = rng.randint(1, 4)
        mats = []
        for _ in range(rng.randint(1, n * (n + 1) // 2 + 1)):
            a = Mat(n, n, tuple(wide_q(rng, rng.random() < 0.25) for _ in range(n * n)))
            mats.append(a + transpose(a))
        sym = span_of(ints([sym_coords(a.entries, n) for a in mats]), n * (n + 1) // 2)
        assert flat_from_sym(sym, n) == span_of(ints([a.flatten() for a in mats]), n * n)


def test_not_relative_interior_reduces_the_span_once(monkeypatch):
    """decide hands its span to the separator: ``span_of``, the one entry
    point that reduces rows to a span, runs once on E (in decide) and
    otherwise only on the gradient slice test's column slices, and the
    separator is the same as one that reduces the flat points itself."""
    rng = random.Random(2312)
    real = span_of
    for trial in range(24):
        operator = (GRADIENT, SYMMETRIZED)[trial % 2]
        problem = slice_problem(rng, operator, rng.randint(1, 4), trial % 3 == 0, False)
        calls = []

        def counted(rows, ambient=None, module=""):
            calls.append((module, ambient))
            return real(rows, ambient)

        with monkeypatch.context() as patch:
            for module in (feasibility, convexity, products):
                patch.setattr(module, "span_of", partial(counted, module=module.__name__))
            v = decide(problem)
        m, n = problem.m, problem.n
        if operator == GRADIENT:
            expected = [(feasibility.__name__, m * n), (products.__name__, m)]
        else:
            expected = [(feasibility.__name__, n * (n + 1) // 2)]
        assert v.reason == NOT_RELATIVE_INTERIOR and calls == expected, (trial, calls)
        flat = [a.flatten() for a in matrices(problem)]
        assert v.separator == separating_functional(PointSet.from_vecs(flat))


def matmul(a: Mat, b: Mat) -> Mat:
    """a·b."""
    return Mat(a.rows, b.cols, tuple(
        sum((x * y for x, y in zip(r, c)), QQ(0))
        for r in mat_rows(a)
        for c in mat_rows(transpose(b))
    ))


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x."""
    return Vec(tuple(dot(r, x) for r in mat_rows(a)))


def invertible(rng: random.Random, n: int) -> Mat:
    """A random invertible n×n integer matrix."""
    while True:
        a = Mat(n, n, tuple(QQ(rng.randint(-2, 2)) for _ in range(n * n)))
        if span_of(ints(mat_rows(a)), n).dim == n:
            return a


def test_verdicts_invariant_under_a_linear_change_of_variables():
    """v(y) = Q·u(A⁻¹y) has Dv = Q·Du·A⁻¹, and v(y) = Aᵀ·u(A·y) has
    Dv + Dvᵀ = Aᵀ·(Du + Duᵀ)·A: so E ↦ Q·E·A (gradient, A⁻¹ renamed A) and
    E ↦ Aᵀ·E·A (symmetrized), for random invertible integer Q and A, keep the
    status, the reason and the span dimension, on seeded problems of all six
    kinds.  A feasible certificate moves by the same rule: b⊗f ↦ Q·b ⊗ Aᵀ·f
    and b∨f ↦ Aᵀ·b ∨ Aᵀ·f, so decide's own b′ is the mapped b over its first
    nonzero entry c, each f′ is the mapped f times c, and the weights decide
    finds for E′ balance F′."""
    rng = random.Random(2701)
    seen: Counter = Counter()
    for trial in range(200):
        operator, n, kind = (GRADIENT, SYMMETRIZED)[trial % 2], rng.randint(1, 3), trial // 2 % 4
        if kind < 2:
            problem = slice_problem(rng, operator, n, False, kind == 0)
        else:
            # k random matrices and their negatives: a span of dimension up to
            # k around n, with 0 in the relative interior.
            m = n if operator == SYMMETRIZED else rng.randint(2, 3)
            mats = []
            for _ in range(rng.randint(max(n - 1, 1), n + 1)):
                a = Mat(m, n, tuple(QQ(rng.randint(-2, 2)) for _ in range(m * n)))
                a = a + transpose(a) if operator == SYMMETRIZED else a
                mats += [a, -a] if not a.is_zero() else []
            if not mats:
                continue
            problem = grad(mats) if operator == GRADIENT else symm(mats)
        a = invertible(rng, n)
        if operator == GRADIENT:
            q = invertible(rng, problem.m)
            mapped = grad([matmul(matmul(q, e), a) for e in matrices(problem)])
        else:
            mapped = symm([matmul(matmul(transpose(a), e), a) for e in matrices(problem)])
        before, after = decide(problem), decide(mapped)
        key = before.status, before.reason, before.span_dim
        assert (after.status, after.reason, after.span_dim) == key, trial
        seen[before.reason or before.status] += 1
        if before.status == FEASIBLE:
            mapped_b = matvec(q if operator == GRADIENT else transpose(a), before.b)
            c = next(x for x in mapped_b if x != 0)
            assert after.b == mapped_b.scale(1 / c), trial
            mapped_f = tuple(matvec(transpose(a), f).scale(c) for f in before.factors)
            assert after.factors == mapped_f, trial
            w = after.certificate.weights
            assert all(x > 0 for x in w) and sum(w) == 1, trial
            assert all(sum(x * f[k] for x, f in zip(w, after.factors)) == 0 for k in range(n)), trial
    assert len(seen) == 6 and min(seen.values()) >= 5, seen


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
    assert len(matrices(p)) == 2
    # Equal values spelled apart are one matrix; 1/2 and 1 clear to the same
    # integer row over different lcms, and stay two.
    p = grad([mat([["1/2", 0]]), mat([[1, "-0"]]), mat([["2/4", "0/3"]]), mat([["1", 0]])])
    assert matrices(p) == (mat([["1/2", 0]]), mat([[1, 0]]))
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
    assert matrices(p) == tuple(distinct)
    assert point_vecs(ps) == tuple(a.flatten() for a in distinct)


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
