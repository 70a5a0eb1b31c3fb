"""Exact simplex LP, relative-interior membership, separating functionals."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as QQ
from math import gcd, lcm

import pytest

from inclusionkit import convexity
from inclusionkit.convexity import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    CaratheodoryCertificate,
    LPResult,
    PointSet,
    certificate_valid,
    in_interior_of_hull,
    in_relative_interior_of_hull,
    separating_functional,
    simplex_solve,
)
from inclusionkit.errors import ZeroInSet
from inclusionkit.linalg import Subspace, Vec, _integer_rows, mat, rank, span_of, vec, zero_vec


def normalize_direction(v: Vec) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    return v.scale(1 / next(x for x in v if x != 0))


def in_span(s: Subspace, v: Vec) -> bool:
    """Whether v ∈ s: adding v to the basis of s keeps its dimension."""
    return span_of([*s.basis, v], s.ambient).dim == s.dim


def rand_vec(rng: random.Random, n: int) -> Vec:
    return Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))


def rand_point_set(rng: random.Random, n: int, k: int) -> PointSet:
    pts = []
    while len(pts) < k:
        v = rand_vec(rng, n)
        if not v.is_zero():
            pts.append(v)
    return PointSet.from_vecs(pts, n)


# ----------------------------------------------------------------- simplex


def test_simplex_basic_maximization():
    # max x + y s.t. x + y = 1, x,y >= 0: optimum 1.
    r = simplex_solve([QQ(1), QQ(1)], [[QQ(1), QQ(1)]], [QQ(1)])
    assert r.status == OPTIMAL
    assert r.value == 1
    assert sum(r.x) == 1


def test_simplex_weighted_objective():
    # max 2x + 3y s.t. x + y = 1: put all weight on y.
    r = simplex_solve([QQ(2), QQ(3)], [[QQ(1), QQ(1)]], [QQ(1)])
    assert r.status == OPTIMAL
    assert r.value == 3
    assert r.x == (QQ(0), QQ(1))


def test_simplex_infeasible():
    # x + y = -1 with x,y >= 0 has no solution.
    r = simplex_solve([QQ(0), QQ(0)], [[QQ(1), QQ(1)]], [QQ(-1)])
    assert r.status == INFEASIBLE


def test_simplex_unbounded():
    # max x - y s.t. x - y = free direction: x + 0y = anything... use
    # a single constraint leaving the objective direction unconstrained.
    r = simplex_solve([QQ(1), QQ(0)], [[QQ(0), QQ(1)]], [QQ(1)])
    assert r.status == UNBOUNDED


def test_simplex_free_variables():
    # max -x with x free and x = -5 forced: optimum 5 at x = -5.
    r = simplex_solve([QQ(-1)], [[QQ(1)]], [QQ(-5)], nonneg=[False])
    assert r.status == OPTIMAL
    assert r.value == 5
    assert r.x == (QQ(-5),)


def test_simplex_exact_fractions():
    # max x s.t. 3x = 1: exact 1/3, no rounding anywhere.
    r = simplex_solve([QQ(1)], [[QQ(3)]], [QQ(1)])
    assert r.status == OPTIMAL
    assert r.value == QQ(1, 3)


def test_simplex_degenerate_cycling_guard():
    # Klee-Minty-flavored degeneracy: Bland's rule must terminate.
    rows = [
        [QQ(1), QQ(0), QQ(0), QQ(1), QQ(0), QQ(0)],
        [QQ(4), QQ(1), QQ(0), QQ(0), QQ(1), QQ(0)],
        [QQ(8), QQ(4), QQ(1), QQ(0), QQ(0), QQ(1)],
    ]
    obj = [QQ(4), QQ(2), QQ(1), QQ(0), QQ(0), QQ(0)]
    r = simplex_solve(obj, rows, [QQ(5), QQ(25), QQ(125)])
    assert r.status == OPTIMAL
    assert r.value == 125


def bareiss_pivot(rows, d, r, c, on_pivot=None) -> int:
    """The fraction-free step of Bareiss (1968): ``rows`` stand for rows/d,
    every row is rescaled, and the new denominator rows[r][c] is returned."""
    pr = rows[r]
    p = pr[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(x * p - f * y) // d for x, y in zip(row, pr)]
    if on_pivot is not None:
        on_pivot(rows, r, c)
    return p


def bareiss_run_simplex(t, basis, d, ncols, on_pivot) -> tuple[str, int]:
    """Bland's rule over t/d with d > 0; returns the status and the final d."""
    while True:
        enter = next((j for j in range(ncols) if t[-1][j] > 0), None)
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i in range(len(basis)):
            a = t[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = t[i][-1] * t[leave][enter], t[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED, d
        d = bareiss_pivot(t, d, leave, enter, on_pivot)
        basis[leave] = enter


def reference_simplex_solve(objective, constraints, rhs, nonneg=None, on_pivot=None) -> LPResult:
    """The two-phase simplex with one identity column per artificial in the
    tableau and k pricing pivots forming the phase-1 cost row, on Bareiss
    steps over one shared denominator.  ``on_pivot(rows, r, c)`` sees every
    later pivot, with the rows cut to the real columns and the right-hand side."""
    nvars = len(objective)
    nonneg = [True] * nvars if nonneg is None else nonneg
    col_of, ncols = [], 0
    for j in range(nvars):
        col_of.append((ncols, ncols + 1 if not nonneg[j] else None))
        ncols += 1 if nonneg[j] else 2
    report = None if on_pivot is None else (
        lambda t, r, c: on_pivot([row[:ncols] + row[-1:] for row in t], r, c))

    def expand(row):
        out = [QQ(0)] * ncols
        for j, a in enumerate(row):
            pos, neg = col_of[j]
            out[pos] = a
            if neg is not None:
                out[neg] = -a
        return out

    k = len(constraints)
    rows = []
    for row, b in zip(constraints, rhs):
        erow = expand(row) + [b]
        rows.append([-a for a in erow] if b < 0 else erow)
    rows, factors = _integer_rows(rows)
    t = [row[:-1] + [int(i == j) for j in range(k)] + row[-1:] for i, row in enumerate(rows)]
    basis = [ncols + i for i in range(k)]
    common = lcm(*factors)
    t.append([0] * ncols + [-(common // f) for f in factors] + [0])
    for i in range(k):
        bareiss_pivot(t, 1, i, ncols + i)
    _, d = bareiss_run_simplex(t, basis, 1, ncols, report)
    if t[-1][-1] != 0:
        return LPResult(INFEASIBLE, None, None)
    keep = []
    for i in range(k):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if t[i][j] != 0), None)
            if pivot_col is None:
                continue
            d = bareiss_pivot(t, d, i, pivot_col, report)
            basis[i] = pivot_col
        keep.append(i)
    if d < 0:
        t = [[-x for x in row] for row in t]
        d = -d
    t = [t[i] for i in keep]
    basis = [basis[i] for i in keep]
    obj = _integer_rows([expand(list(objective))])[0][0]
    t.append([d * c for c in obj] + [0] * (k + 1))
    for i, bi in enumerate(basis):
        bareiss_pivot(t, d, i, bi, report)
    status, d = bareiss_run_simplex(t, basis, d, ncols, report)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    xin = [QQ(0)] * ncols
    for bi, row in zip(basis, t):
        xin[bi] = QQ(row[-1], d)
    x = tuple(xin[pos] - (xin[neg] if neg is not None else 0) for pos, neg in col_of)
    return LPResult(OPTIMAL, sum((o * v for o, v in zip(objective, x)), QQ(0)), x)


def wide_q(rng: random.Random) -> QQ:
    """A 20-bit rational a quarter of the time, else a small one or zero."""
    if rng.random() < 0.25:
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))
    return QQ(rng.randint(-3, 3), rng.randint(1, 3))


def wide_point_set(rng: random.Random, n: int, m: int, dim: int) -> PointSet:
    """m nonzero points in a random subspace of dimension at most dim; some
    sets also hold a negative combination of their points."""
    gens = []
    while len(gens) < dim:
        g = Vec(tuple(wide_q(rng) for _ in range(n)))
        if not g.is_zero():
            gens.append(g)
    pts = []
    while len(pts) < m:
        if pts and rng.random() < 0.2:
            v = zero_vec(n)
            for p in rng.sample(pts, rng.randint(1, len(pts))):
                v = v - p.scale(QQ(rng.randint(1, 3)))
        else:
            v = zero_vec(n)
            for g in gens:
                v = v + g.scale(wide_q(rng))
        if not v.is_zero():
            pts.append(v)
    return PointSet.from_vecs(pts, n)


def hull_programs(ps: PointSet) -> list[tuple]:
    """The relative-interior and separator LPs of ``ps`` as (objective,
    rows, rhs, nonneg), built with Vec sums and Vec.dot."""
    m, basis = len(ps), ps.span().basis
    zbar = zero_vec(ps.ambient)
    for p in ps.points:
        zbar = zbar + p
    interior = [[p[r] for p in ps.points] + [zbar[r]] for r in range(ps.ambient)]
    interior.append([QQ(1)] * m + [QQ(m)])
    separator = [[p.dot(b) for b in basis] + [QQ(-int(t == i)) for t in range(m)]
                 for i, p in enumerate(ps.points)]
    separator.append([QQ(0)] * len(basis) + [QQ(1)] * m)
    return [
        ([QQ(0)] * m + [QQ(1)], interior, [QQ(0)] * ps.ambient + [QQ(1)], None),
        ([QQ(0)] * (len(basis) + m), separator, [QQ(0)] * m + [QQ(1)],
         [False] * len(basis) + [True] * m),
    ]


def test_simplex_matches_the_artificial_column_reference():
    rng = random.Random(20251018)
    statuses: Counter = Counter()
    for trial in range(800):
        shape = trial % 4
        if shape < 2:
            # The two programs of decide: ambient rows that are redundant
            # whenever the points span less, and free variables.
            ps = wide_point_set(rng, rng.randint(2, 6), rng.randint(2, 7), rng.randint(1, 4))
            objective, rows, rhs, nonneg = hull_programs(ps)[shape]
        else:
            # Generic programs: degenerate feasible ones, infeasible and
            # unbounded ones, negative right-hand sides, redundant rows.
            nvars, k = rng.randint(1, 6), rng.randint(0, 6)
            rows = [[wide_q(rng) for _ in range(nvars)] for _ in range(k)]
            for i in range(1, k):
                if rng.random() < 0.3:
                    rows[i] = [rng.randint(-2, 2) * a for a in rows[rng.randrange(i)]]
            if rng.random() < 0.6:
                x0 = [QQ(rng.choice((0, 0, 1, 2))) for _ in range(nvars)]
                rhs = [sum((a * x for a, x in zip(row, x0)), QQ(0)) for row in rows]
            else:
                rhs = [wide_q(rng) for _ in range(k)]
            # A zero objective returns the vertex where phase 1 stopped.
            zero = rng.random() < 0.4
            objective = [QQ(0) if zero else wide_q(rng) for _ in range(nvars)]
            nonneg = [rng.random() < 0.7 for _ in range(nvars)]
        res = simplex_solve(objective, rows, rhs, nonneg)
        assert res == reference_simplex_solve(objective, rows, rhs, nonneg), trial
        statuses[res.status] += 1
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 10, statuses


def wide_program(rng: random.Random, trial: int) -> tuple:
    """A seeded LP with 20-bit rationals: on two trials in three, one of the
    two hull programs of decide, else one with redundant rows and either a
    degenerate vertex (x0 with zeros) or a random right-hand side."""
    if trial % 3 < 2:
        ps = wide_point_set(rng, rng.randint(2, 5), rng.randint(2, 8), rng.randint(1, 4))
        return hull_programs(ps)[trial % 3]
    nvars, k = rng.randint(2, 7), rng.randint(2, 6)
    rows = [[wide_q(rng) for _ in range(nvars)] for _ in range(k)]
    for i in range(1, k):
        if rng.random() < 0.3:
            a, b = rng.randrange(i), rng.randrange(i)
            rows[i] = [wide_q(rng) * x + y for x, y in zip(rows[a], rows[b])]
    if rng.random() < 0.7:
        x0 = [QQ(rng.choice((0, 0, 1, 2))) for _ in range(nvars)]
        rhs = [sum((a * x for a, x in zip(row, x0)), QQ(0)) for row in rows]
    else:
        rhs = [wide_q(rng) for _ in range(k)]
    objective = [wide_q(rng) for _ in range(nvars)]
    return objective, rows, rhs, [rng.random() < 0.7 for _ in range(nvars)]


def is_primitive(row: list[int]) -> bool:
    return gcd(*row) in (0, 1)


def traced_pivots(monkeypatch, program, log: list) -> LPResult:
    """``simplex_solve`` with every ``_pivot`` call checked and logged as
    (row, column, pivot entry and right-hand side before the call, largest
    entry after it)."""
    real = convexity._pivot

    def checked(rows, r, c):
        before, p, b = list(rows), rows[r][c], rows[r][-1]
        real(rows, r, c)
        assert is_primitive(rows[r]) and rows[r][c] > 0
        for old, row in zip(before, rows):
            assert row is old if old[c] == 0 else is_primitive(row)
        log.append((r, c, p, b, max(abs(x) for row in rows for x in row)))

    with monkeypatch.context() as m:
        m.setattr(convexity, "_pivot", checked)
        return simplex_solve(*program)


def test_simplex_takes_the_reference_pivots_on_primitive_rows(monkeypatch):
    """Primitive rows are positive multiples of the Bareiss rows, so every
    sign test and ratio comparison agrees: the same pivots in the same
    order, and no entry larger than the reference's at the same step."""
    rng = random.Random(20261019)
    seen: Counter = Counter()
    for trial in range(300):
        program = wide_program(rng, trial)
        ref_log: list = []
        ref = reference_simplex_solve(
            *program, on_pivot=lambda rows, r, c: ref_log.append(
                (r, c, max(abs(x) for row in rows for x in row))))
        log: list = []
        assert traced_pivots(monkeypatch, program, log) == ref, trial
        assert [entry[:2] for entry in log] == [entry[:2] for entry in ref_log], trial
        assert all(top <= ref_top for (*_, top), (*_, ref_top) in zip(log, ref_log)), trial
        seen["negative drive-out pivot"] += sum(p < 0 for _, _, p, _, _ in log)
        seen["degenerate pivot"] += sum(b == 0 for _, _, _, b, _ in log)
        seen["redundant rows"] += rank(mat(program[1])) < len(program[1])
        seen[ref.status] += 1
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


def test_separator_tableau_is_smaller_than_bareiss(monkeypatch):
    """On one seeded 20-bit separator LP of decide's size (38 pivots), the
    largest tableau entry is at most the Bareiss reference's: 435 bits
    against 2325."""
    rng = random.Random(5)
    ps = wide_point_set(rng, 5, 10, 4)
    program = hull_programs(ps)[1]
    ref_top = [0]

    def widest(rows, r, c):
        ref_top[0] = max(ref_top[0], *(abs(x) for row in rows for x in row))

    ref = reference_simplex_solve(*program, on_pivot=widest)
    log: list = []
    assert traced_pivots(monkeypatch, program, log) == ref
    top = max(entry for *_, entry in log)
    assert len(log) >= 20 and top <= ref_top[0], (len(log), top.bit_length())


# --------------------------------------------------- relative interior LP


def test_relative_interior_cross():
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], 2)
    cert = in_relative_interior_of_hull(ps)
    assert cert is not None
    assert certificate_valid(ps, cert)
    assert sum(cert.weights) == 1
    assert all(w > 0 for w in cert.weights)


def test_relative_interior_triangle_weights():
    ps = PointSet.from_vecs([vec(1, 0), vec(0, 1), vec(-1, -1)], 2)
    cert = in_relative_interior_of_hull(ps)
    assert cert is not None
    assert cert.weights == (QQ(1, 3), QQ(1, 3), QQ(1, 3))


def test_relative_interior_on_a_line_segment():
    # 0 lies in the relative interior of [-e1, e1] though not in the
    # plane interior.
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0)], 2)
    cert = in_relative_interior_of_hull(ps)
    assert cert is not None
    assert cert.weights == (QQ(1, 2), QQ(1, 2))
    assert not in_interior_of_hull(ps)


def test_boundary_is_not_relative_interior():
    ps = PointSet.from_vecs([vec(1, 0), vec(0, 1), vec(1, 1)], 2)
    assert in_relative_interior_of_hull(ps) is None


def test_interior_of_hull_full_dimensional():
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], 2)
    assert in_interior_of_hull(ps)


def test_zero_point_rejected():
    with pytest.raises(ZeroInSet):
        in_relative_interior_of_hull(PointSet.from_vecs([vec(0, 0), vec(1, 0)], 2))
    with pytest.raises(ZeroInSet):
        separating_functional(PointSet.from_vecs([zero_vec(1)], 1))


# ------------------------------------------------------------- separation


def test_separating_functional_canonical_example():
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0), vec(0, 1)], 2)
    p = separating_functional(ps)
    assert p is not None
    assert normalize_direction(p) == vec(0, 1)


def test_separating_functional_validity():
    ps = PointSet.from_vecs([vec(1, 0), vec(0, 1), vec(1, 1)], 2)
    p = separating_functional(ps)
    assert p is not None
    assert not p.is_zero()
    assert in_span(ps.span(), p)
    assert all(z.dot(p) >= 0 for z in ps.points)


def test_no_separator_when_origin_interior():
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], 2)
    assert separating_functional(ps) is None


def test_hull_programs_match_vec_references():
    # The integer zbar and separator rows hand simplex_solve the same
    # rationals as sums and dot products taken in Vec arithmetic.
    rng = random.Random(20251019)
    kinds: Counter = Counter()
    for _ in range(120):
        ps = wide_point_set(rng, rng.randint(2, 6), rng.randint(2, 7), rng.randint(1, 4))
        m, basis = len(ps), ps.span().basis
        interior, separator = (simplex_solve(*lp) for lp in hull_programs(ps))
        cert = in_relative_interior_of_hull(ps)
        if interior.status == OPTIMAL and interior.value > 0:
            assert cert.weights == tuple(interior.x[i] + interior.x[m] for i in range(m))
        else:
            assert cert is None
        expected = None
        if separator.status == OPTIMAL:
            expected = zero_vec(ps.ambient)
            for b, y in zip(basis, separator.x):
                expected = expected + b.scale(y)
        assert separating_functional(ps) == expected
        kinds[expected is None] += 1
    assert min(kinds.values()) >= 20, kinds


def test_dichotomy_on_random_point_sets():
    rng = random.Random(97)
    for _ in range(80):
        ps = rand_point_set(rng, rng.randint(1, 3), rng.randint(1, 6))
        cert = in_relative_interior_of_hull(ps)
        sep = separating_functional(ps)
        assert (cert is None) != (sep is None)
        if cert is not None:
            assert certificate_valid(ps, cert)
        else:
            assert sep is not None and not sep.is_zero()
            assert in_span(ps.span(), sep)
            assert all(z.dot(sep) >= 0 for z in ps.points)


def test_verdicts_invariant_under_positive_scaling():
    rng = random.Random(101)
    for _ in range(30):
        ps = rand_point_set(rng, 2, rng.randint(1, 5))
        scaled = PointSet.from_vecs([p.scale(QQ(3, 7)) for p in ps.points], 2)
        assert (in_relative_interior_of_hull(ps) is None) == (
            in_relative_interior_of_hull(scaled) is None
        )


# ------------------------------------------------------------ certificates


def test_certificate_valid_rejects_tampering():
    ps = PointSet.from_vecs([vec(1, 0), vec(0, 1), vec(-1, -1)], 2)
    cert = in_relative_interior_of_hull(ps)
    assert cert is not None and certificate_valid(ps, cert)
    bad_sum = CaratheodoryCertificate(cert.indices, (QQ(1, 2),) + cert.weights[1:])
    assert not certificate_valid(ps, bad_sum)
    negative = CaratheodoryCertificate(cert.indices, (QQ(-1, 3), QQ(2, 3), QQ(2, 3)))
    assert not certificate_valid(ps, negative)


def test_certificate_valid_requires_spanning_support():
    # Weights on a proper sub-span must not certify the whole set.
    ps = PointSet.from_vecs([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], 2)
    cert = CaratheodoryCertificate((0, 1), (QQ(1, 2), QQ(1, 2)))
    assert not certificate_valid(ps, cert)


def test_point_set_deduplicates():
    ps = PointSet.from_vecs([vec(1, 0), vec(1, 0), vec(0, 1)], 2)
    assert len(ps) == 2
