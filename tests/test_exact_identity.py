"""Byte identity of the exact elimination results on seeded random input.

Row reduction, square solves, simplex volumes (the determinant) and the
two-phase simplex run on a few hundred seeded inputs.  The SHA-256 of
the ``str`` of every result is pinned: any change to a pivot choice, a
reduced form or a certificate shows up as a different digest.  The
inputs cover redundant and zero rows, singular systems, degenerate
simplices, degenerate, infeasible and unbounded LPs, free variables,
negative right-hand sides and 20-bit denominators.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction as QQ

from inclusionkit.convexity import simplex_solve
from inclusionkit.geometry import simplex_volume
from inclusionkit.linalg import Vec, _integer_rows, _rref, solve_square

DIGEST = "9aa3aa3b5f9f73b271a0c7aa0ff283fa1710248d55d5cc5d7119296c400260a7"


def rand_q(rng: random.Random) -> QQ:
    if rng.random() < 0.25:
        return QQ(rng.randint(-(2**20), 2**20), rng.randint(1, 2**20))
    if rng.random() < 0.3:
        return QQ(0)
    return QQ(rng.randint(-6, 6), rng.randint(1, 4))


def rand_rows(rng: random.Random, m: int, n: int) -> list[list[QQ]]:
    rows = [[rand_q(rng) for _ in range(n)] for _ in range(m)]
    # Redundant rows: a combination of earlier rows, or zero.
    for i in range(1, m):
        roll = rng.random()
        if roll < 0.2:
            a, b = rng.randrange(i), rng.randrange(i)
            s, t = rand_q(rng), rand_q(rng)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
        elif roll < 0.25:
            rows[i] = [QQ(0)] * n
    return rows


def results(statuses: Counter) -> list[str]:
    rng = random.Random(20250801)
    out = [str(_rref([]))]
    for _ in range(150):
        out.append(str(_rref(rand_rows(rng, rng.randint(1, 6), rng.randint(1, 6)))))
    for _ in range(150):
        n = rng.randint(1, 5)
        a, b = rand_rows(rng, n, n), [rand_q(rng) for _ in range(n)]
        out.append(str(solve_square(_integer_rows([*r, c] for r, c in zip(a, b))[0])))
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = [Vec(tuple(row)) for row in rand_rows(rng, n + 1, n)]
        out.append(str(simplex_volume(pts)))
    for _ in range(400):
        nvars, k = rng.randint(1, 6), rng.randint(0, 5)
        rows = rand_rows(rng, k, nvars)
        if rng.random() < 0.6:
            # Feasible by construction; zeros in x0 make it degenerate.
            x0 = [QQ(rng.choice((0, 0, 1, 2, 3))) for _ in range(nvars)]
            rhs = [sum((a * x for a, x in zip(row, x0)), QQ(0)) for row in rows]
        else:
            rhs = [QQ(0) if rng.random() < 0.4 else rand_q(rng) for _ in range(k)]
        # A zero objective returns the vertex where phase 1 stopped.
        zero = rng.random() < 0.4
        objective = [QQ(0) if zero else rand_q(rng) for _ in range(nvars)]
        nonneg = [rng.random() < 0.7 for _ in range(nvars)]
        res = simplex_solve(objective, rows, rhs, nonneg)
        statuses[res.status] += 1
        out.append(str(res))
    return out


def test_elimination_results_are_byte_identical():
    statuses: Counter = Counter()
    blob = "\n".join(results(statuses)).encode()
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert hashlib.sha256(blob).hexdigest() == DIGEST
