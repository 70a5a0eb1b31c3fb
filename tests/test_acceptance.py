"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Every check is an exact rational comparison; the only timed quantities
are the stated runtime budgets.  Independent oracles live in this file
and share no code with the routines they judge.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from fractions import Fraction as QQ

from inclusionkit.builder import assemble_solution, build_pyramid
from inclusionkit.cli import main
from inclusionkit.convexity import (
    PointSet,
    in_relative_interior_of_hull,
    separating_functional,
)
from inclusionkit.feasibility import (
    COMMON_KERNEL_TRIVIAL,
    FEASIBLE,
    INFEASIBLE,
    SPAN_NOT_RANK_ONE,
    InclusionProblem,
    Verdict,
    decide,
)
from inclusionkit.linalg import (
    Subspace,
    Vec,
    mat,
    span_of,
    subspace_equal,
    vec,
    zero_vec,
)
from inclusionkit.products import tensor
from inclusionkit.verify import cell_forms, verify_solution

from test_builder import affine
from test_convexity import ints, point_vecs
from test_feasibility import matrices


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


def conclude(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, detail or f"criterion {num} ({name}) failed"


def exact_rank(rows: list[list[QQ]]) -> int:
    """Gaussian elimination over Fraction, local to this file."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c] / work[r][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def rand_rat(rng: random.Random, lo: int = -5, hi: int = 5) -> QQ:
    return QQ(rng.randint(2 * lo, 2 * hi), 2)


# --------------------------------------------------------------------- 1


def test_criterion_1_tensor_rank():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        p = rng.randint(1, min(m, n))
        while True:
            a_rows = [[rand_rat(rng) for _ in range(n)] for _ in range(p)]
            if exact_rank(a_rows) == p:
                break
        bs = []
        for _ in range(p):
            while True:
                b = Vec(tuple(rand_rat(rng) for _ in range(m)))
                if not b.is_zero():
                    bs.append(b)
                    break
        prods = [tensor(bs[i], Vec(tuple(a_rows[i]))) for i in range(p)]
        got = span_of(ints([q.flatten() for q in prods]), m * n).dim
        assert got == p, f"rank {got} != {p} for m={m} n={n}"
    elapsed = time.monotonic() - t0
    conclude(1, "tensor rank of independent families", elapsed < 5.0,
             f"took {elapsed:.2f}s (budget 5s)")


# --------------------------------------------------------------------- 2


def _hull_ccw(pts: list[tuple[QQ, QQ]]) -> list[tuple[QQ, QQ]]:
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[QQ, QQ]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[QQ, QQ]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def origin_in_ri_hull_oracle(points: list[tuple[QQ, QQ]]) -> bool:
    """Exact planar decision of 0 in ri(co S), by dimension cases."""
    pts = sorted(set(points))
    p0 = pts[0]
    dirs = [(x - p0[0], y - p0[1]) for x, y in pts[1:]]
    lead = next((d for d in dirs if d != (QQ(0), QQ(0))), None)
    if lead is None:
        return p0 == (QQ(0), QQ(0))
    if all(d[0] * lead[1] - d[1] * lead[0] == 0 for d in dirs):
        # Collinear: locate 0 on the carrier line, strictly inside.
        if p0[0] * lead[1] - p0[1] * lead[0] != 0:
            return False
        axis = 0 if lead[0] != 0 else 1
        t_origin = -p0[axis] / lead[axis]
        ts = [(x - p0[0], y - p0[1])[axis] / lead[axis] for x, y in pts]
        return min(ts) < t_origin < max(ts)
    hull = _hull_ccw(pts)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        turn = (b[0] - a[0]) * (-a[1]) - (b[1] - a[1]) * (-a[0])
        if turn <= 0:
            return False
    return True


def test_criterion_2_interior_oracle_agreement():
    rng = random.Random(211)
    t0 = time.monotonic()
    crafted = [
        [(QQ(1), QQ(1)), (QQ(-1), QQ(-1)), (QQ(2), QQ(0))],
        [(QQ(1), QQ(0)), (QQ(-1), QQ(0))],
        [(QQ(1), QQ(0)), (QQ(2), QQ(0))],
        [(QQ(1), QQ(0)), (QQ(-2), QQ(0)), (QQ(0), QQ(3)), (QQ(0), QQ(-1))],
        [(QQ(1), QQ(1))],
        [(QQ(2), QQ(1)), (QQ(-2), QQ(-1)), (QQ(4), QQ(2))],
        [(QQ(1), QQ(0)), (QQ(-1), QQ(0)), (QQ(0), QQ(1))],
    ]
    instances = list(crafted)
    while len(instances) < len(crafted) + 300:
        k = rng.randint(1, 5)
        pts = []
        while len(pts) < k:
            p = (QQ(rng.randint(-4, 4), rng.randint(1, 3)),
                 QQ(rng.randint(-4, 4), rng.randint(1, 3)))
            if p != (QQ(0), QQ(0)):
                pts.append(p)
        instances.append(pts)
    disagreements = 0
    for pts in instances:
        ps = PointSet.from_vecs([vec(x, y) for x, y in pts], 2)
        lp_says = in_relative_interior_of_hull(ps) is not None
        oracle_says = origin_in_ri_hull_oracle(pts)
        if lp_says != oracle_says:
            disagreements += 1
    elapsed = time.monotonic() - t0
    conclude(2, "relative-interior oracle agreement",
             disagreements == 0 and elapsed < 30.0,
             f"{disagreements} disagreements, {elapsed:.2f}s (budget 30s)")


# --------------------------------------------------------------------- 3


def test_criterion_3_dichotomy_certificates():
    rng = random.Random(307)
    bad = 0
    for _ in range(500):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        k = rng.randint(1, 8)
        points = []
        while len(points) < k:
            q = Vec(tuple(QQ(rng.randint(-4, 4), rng.randint(1, 2))
                          for _ in range(m * n)))
            if not q.is_zero():
                points.append(q)
        ps = PointSet.from_vecs(points, m * n)
        cert = in_relative_interior_of_hull(ps)
        sep = separating_functional(ps)
        if (cert is None) == (sep is None):
            bad += 1
            continue
        full = span_of(ints(list(point_vecs(ps))), m * n)
        if cert is not None:
            ws = cert.weights
            chosen = [point_vecs(ps)[i] for i in cert.indices]
            total = zero_vec(m * n)
            for w, z in zip(ws, chosen):
                total = total + z.scale(w)
            if not (
                all(w > 0 for w in ws)
                and sum(ws) == 1
                and total.is_zero()
                and subspace_equal(span_of(ints(chosen), m * n), full)
            ):
                bad += 1
        else:
            if not (
                not sep.is_zero()
                and in_span(full, sep)
                and all(dot(z, sep) >= 0 for z in point_vecs(ps))
            ):
                bad += 1
    conclude(3, "certificate dichotomy re-verifies", bad == 0,
             f"{bad} of 500 instances failed re-verification")


# --------------------------------------------------------------------- 4


def test_criterion_4_gradient_round_trip():
    rng = random.Random(409)
    bad = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        while True:
            b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(m)))
            if not b.is_zero():
                break
        lead = next(x for x in b if x != 0)
        if lead < 0:
            b = -b
        while True:
            rows = [[QQ(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if exact_rank(rows) == n:
                break
        fset = {Vec(tuple(r)) for r in rows}
        total = zero_vec(n)
        for f in fset:
            total = total + f
        fset.add(-total)
        for _ in range(rng.randint(0, 2)):
            extra = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
            if not extra.is_zero():
                fset.add(extra)
        problem = InclusionProblem.gradient([tensor(b, f) for f in fset])
        v = decide(problem)
        if v.status != FEASIBLE:
            bad += 1
            continue
        i0 = next(i for i, x in enumerate(b) if x != 0)
        lam = v.b[i0] / b[i0]
        if not (lam > 0 and v.b == b.scale(lam)):
            bad += 1
            continue
        if set(v.factors) != {f.scale(1 / lam) for f in fset}:
            bad += 1
    broken_bad = 0
    for _ in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(2, 3)
        while True:
            b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(m)))
            if not b.is_zero():
                break
        while True:
            rows = [[QQ(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n - 1)]
            if exact_rank(rows) == n - 1:
                break
        while True:
            c = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(m)))
            if not c.is_zero() and exact_rank([list(b.entries), list(c.entries)]) == 2:
                break
        while True:
            g = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
            if not g.is_zero():
                break
        mats = [tensor(b, Vec(tuple(r))) for r in rows] + [tensor(c, g)]
        v = decide(InclusionProblem.gradient(mats))
        if not (v.status == INFEASIBLE and v.reason == SPAN_NOT_RANK_ONE):
            broken_bad += 1
    conclude(4, "feasible and broken round trips", bad == 0 and broken_bad == 0,
             f"{bad} feasible and {broken_bad} broken instances misdecided")


# --------------------------------------------------------------------- 5


def test_criterion_5_symmetric_criterion():
    rng = random.Random(503)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 3)
        while True:
            b = Vec(tuple(QQ(rng.randint(-3, 3)) for _ in range(n)))
            if not b.is_zero():
                break
        mats = []
        units = [vec([int(i == j) for j in range(n)]) for i in range(n)]
        for e in units:
            s = sym_product(b, e)
            mats.extend([s, -s])
        problem = InclusionProblem.symmetrized(mats)
        v = decide(problem)
        if v.status != FEASIBLE:
            bad += 1
            continue
        span = span_of(ints([a.flatten() for a in matrices(problem)]), n * n)
        sym_slice = span_of(ints([sym_product(e, b).flatten() for e in units]), n * n)
        if not subspace_equal(span, sym_slice):
            bad += 1
            continue
        if normalize_direction(v.b) != normalize_direction(b):
            bad += 1
    w1 = sym_product(vec(1, 0), vec(1, 1))
    w2 = sym_product(vec(0, 1), vec(0, 1))
    v = decide(InclusionProblem.symmetrized([w1, -w1, w2, -w2]))
    example_ok = (
        v.status == INFEASIBLE
        and v.reason == COMMON_KERNEL_TRIVIAL
        and len(v.complement_basis) == 1
        and normalize_direction(v.complement_basis[0]) == vec(1, -1, -1, 0)
    )
    conclude(5, "symmetric slice criterion", bad == 0 and example_ok,
             f"{bad} random instances misdecided, example_ok={example_ok}")


# --------------------------------------------------------------------- 6


def test_criterion_6_construction_validity():
    t0 = time.monotonic()
    p1 = InclusionProblem.gradient([mat([[1]]), mat([[-1]])])
    v1 = decide(p1)
    pw1 = assemble_solution(v1, p1.domain, QQ(1, 100), p1.operator)
    r1 = verify_solution(p1, pw1)
    allowed1 = {mat([[1]]), mat([[-1]])}
    ok1 = (
        r1.passed
        and r1.covered >= QQ(99, 100) * r1.omega_measure
        and all(affine(c)[0] in allowed1 for c in pw1.cells)
        and not r1.failures["boundary"]
    )
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    p2 = InclusionProblem.gradient([mat(r) for r in rows])
    v2 = decide(p2)
    pw2 = assemble_solution(v2, p2.domain, QQ(1, 10), p2.operator)
    r2 = verify_solution(p2, pw2)
    allowed2 = set(matrices(p2))
    ok2 = (
        r2.passed
        and r2.covered >= QQ(9, 10) * r2.omega_measure
        and all(affine(c)[0] in allowed2 for c in pw2.cells)
        and not r2.failures["boundary"]
    )
    t2 = time.monotonic() - t0
    conclude(6, "constructed solutions verify", ok1 and ok2 and t1 < 10.0 and t2 < 60.0,
             f"ok1={ok1} ({t1:.2f}s, budget 10s), ok2={ok2} ({t2:.2f}s, budget 60s)")


# --------------------------------------------------------------------- 7


def test_criterion_7_nonzero_mean():
    e1, e2 = vec(1, 0), vec(0, 1)
    mats = [
        sym_product(e1, e1), -sym_product(e1, e1),
        sym_product(e1, e2), -sym_product(e1, e2),
    ]
    problem = InclusionProblem.symmetrized(mats)
    verdict = decide(problem)
    u = assemble_solution(verdict, problem.domain, QQ(1, 4), problem.operator)
    v_scalar = assemble_solution(replace(verdict, b=vec(1)), problem.domain, QQ(1, 4), None)
    int_u = verify_solution(problem, u).integral_value
    int_v = sum(QQ(x, den) for ((x,), den) in (form.integral for form in cell_forms(v_scalar)))
    ok = int_v > 0 and int_u == verdict.b.scale(int_v) and not int_u.is_zero()
    conclude(7, "symmetrized mean is (scalar mean) times b", ok,
             f"int_u={int_u}, int_v={int_v}, b={verdict.b}")


# --------------------------------------------------------------------- 8


def test_criterion_8_fault_detection(tmp_path, capsys):
    prob_doc = {
        "operator": "gradient",
        "m": 1,
        "n": 2,
        "E": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
    }
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(prob_doc))
    sol = tmp_path / "good.json"
    assert main(["construct", str(prob), "--delta", "1/4", "--out", str(sol)]) == 0
    capsys.readouterr()
    good = json.loads(sol.read_text())
    assert main(["verify", str(prob), str(sol)]) == 0
    capsys.readouterr()

    rng = random.Random(809)
    kinds = ["grad-scale", "grad-negate", "offset-shift", "cell-drop", "covered-inflate"]
    caught = 0
    for trial in range(100):
        doc = json.loads(json.dumps(good))
        kind = kinds[trial % len(kinds)]
        j = rng.randrange(len(doc["cells"]))
        if kind == "grad-scale":
            row = doc["cells"][j]["gradient"][0]
            k = next(i for i, s in enumerate(row) if QQ(s) != 0)
            row[k] = str(QQ(row[k]) * rng.choice([2, 3, 5]))
        elif kind == "grad-negate":
            doc["cells"][j]["gradient"] = [
                [str(-QQ(s)) for s in row] for row in doc["cells"][j]["gradient"]
            ]
        elif kind == "offset-shift":
            off = doc["cells"][j]["offset"]
            off[0] = str(QQ(off[0]) + QQ(rng.randint(1, 5), 7))
        elif kind == "cell-drop":
            del doc["cells"][j]
        else:
            doc["covered"] = str(QQ(doc["covered"]) + QQ(1, rng.randint(2, 9)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(prob), str(bad)])
        out = capsys.readouterr().out
        report = json.loads(out)
        named = [k for k, v in report["checks"].items() if not v["pass"]]
        if code == 11 and report["pass"] is False and named:
            caught += 1
    conclude(8, "single-fault corruptions rejected", caught == 100,
             f"caught {caught} of 100")


# --------------------------------------------------------------------- 9


def test_criterion_9_pyramid_integral():
    factors = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]
    spec = build_pyramid(factors)
    verdict = Verdict(FEASIBLE, b=vec(1), factors=tuple(factors))
    pyramid = assemble_solution(verdict, spec.base, 0, None)
    value = sum(QQ(x, den) for ((x,), den) in (form.integral for form in cell_forms(pyramid)))
    conclude(9, "square pyramid integral is 4/3", value == QQ(4, 3), f"got {value}")
