"""The decide-mix problem family.

Every problem is built so that its verdict follows from how it
was built, not from what the program answers:

  feasible    E = b⊗F (or F∨b) with F spanning QQⁿ and 0 a positive
              combination of all of F.
  dim         F lies in a span of n - 1 vectors: DimensionTooSmall.
  notr1       n independent matrices, one of them c⊗g with c ∦ b:
              SpanNotRankOne (gradient, m ≥ 2).
  ckt         span E = Pᵀ·diag·P, whose complement inside the symmetric
              matrices has a trivial common kernel: CommonKernelTrivial.
  nri         F spans QQⁿ but every f has ⟨f; e₁⟩ > 0:
              NotRelativeInterior.
  oos         n + 1 independent matrices: out of scope.

The family is stratified so that the mix of operators, n, |E|, m,
verdict kinds and wide rationals is the same for every seed; the seed
picks one of the pool's contents for each slot.  Digests of every pool
entry were recorded once, so every seed's sample can be checked.

Seeds from 0 up draw from variants 0-5 of each slot.  Negative seeds
draw from variants 6-7, which no tuning run sees: a claim made on
ordinary seeds can be re-checked on --seed -1.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

GRADIENT = "gradient"
SYMMETRIZED = "symmetrized"

FAMILIES = (
    (GRADIENT, "feasible"),
    (GRADIENT, "dim"),
    (GRADIENT, "notr1"),
    (GRADIENT, "nri"),
    (GRADIENT, "oos"),
    (SYMMETRIZED, "feasible"),
    (SYMMETRIZED, "dim"),
    (SYMMETRIZED, "ckt"),
    (SYMMETRIZED, "nri"),
    (SYMMETRIZED, "oos"),
)
DIMENSIONS = (2, 3, 4, 5)
# Problems per (family, n); |E| runs from n + 1 to 2n + 2 across them.
# The families decided before any LP get twice the slots, so the
# median check falls inside that group instead of on the gap between
# LP-free and LP-bound checks, where it would jump from seed to seed.
CHEAP = ("dim", "notr1", "oos")
SLOTS_CHEAP = 12
SLOTS_LP = 6
WIDE_EVERY = 4  # slots 2, 6, 10 use wide rationals
WIDE_BITS = 20
POOL_VARIANTS = 8
REGULAR_VARIANTS = range(0, 6)
HELD_OUT_VARIANTS = range(6, 8)

# Verdict kind per family: (exit code, status, reason).
EXPECTED = {
    "feasible": (0, "feasible", None),
    "dim": (10, "infeasible", "DimensionTooSmall"),
    "notr1": (10, "infeasible", "SpanNotRankOne"),
    "ckt": (10, "infeasible", "CommonKernelTrivial"),
    "nri": (10, "infeasible", "NotRelativeInterior"),
    "oos": (12, "out_of_scope", None),
}


# ------------------------------------------------------------ arithmetic


def _rat(rng: random.Random, wide: bool) -> Fraction:
    if wide:
        bound = 1 << WIDE_BITS
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def _nonzero(rng: random.Random, wide: bool) -> Fraction:
    while True:
        x = _rat(rng, wide)
        if x != 0:
            return x


def _positive(rng: random.Random, wide: bool) -> Fraction:
    return abs(_nonzero(rng, wide))


def _vec(rng: random.Random, n: int, wide: bool) -> list[Fraction]:
    while True:
        v = [_rat(rng, wide) for _ in range(n)]
        if any(v):
            return v


def _independent(rng: random.Random, n: int, wide: bool, positive_first: bool = False):
    """Rows of L·U: L lower triangular with nonzero diagonal, U upper
    unitriangular, so the n rows are independent.  The first column of
    L·U is the first column of L, which positive_first makes positive."""
    low = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = _rat(rng, wide)
        low[i][i] = _nonzero(rng, wide)
        if positive_first:
            low[i][0] = _positive(rng, wide)
    up = [
        [Fraction(int(i == j)) if j <= i else _rat(rng, wide) for j in range(n)]
        for i in range(n)
    ]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _combination(rng: random.Random, basis, wide: bool) -> list[Fraction]:
    coeffs = [_nonzero(rng, wide) for _ in basis]
    return [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(len(basis[0]))]


def tensor(a, b) -> list[Fraction]:
    return [x * y for x in a for y in b]


def sym(a, b) -> list[Fraction]:
    n = len(a)
    return [a[i] * b[j] + b[i] * a[j] for i in range(n) for j in range(n)]


def _add_distinct(out: list, item: list) -> None:
    """Append a nonzero item not yet present: 0 ∉ E and no duplicates."""
    if any(item) and item not in out:
        out.append(item)


def _fill(out: list, size: int, make) -> list:
    while len(out) < size:
        _add_distinct(out, make())
    return out


def _parallel(a, b) -> bool:
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


# ---------------------------------------------------------------- factors


def _feasible_factors(rng, n, size, wide):
    basis = _independent(rng, n, wide)
    weights = [_positive(rng, wide) for _ in range(n)]
    out: list = []
    for v in basis:
        _add_distinct(out, v)
    _add_distinct(out, [-sum(w * v[j] for w, v in zip(weights, basis)) for j in range(n)])
    return _fill(out, size, lambda: _vec(rng, n, wide))


def _flat_factors(rng, n, size, wide):
    gens = [_vec(rng, n, wide) for _ in range(n - 1)]
    return _fill([], size, lambda: _combination(rng, gens, wide))


def _halfspace_factors(rng, n, size, wide):
    out: list = []
    for v in _independent(rng, n, wide, positive_first=True):
        _add_distinct(out, v)

    def extra():
        v = _vec(rng, n, wide)
        v[0] = _positive(rng, wide)
        return v

    return _fill(out, size, extra)


def _two_directions(rng, m, wide):
    b = _vec(rng, m, wide)
    while True:
        c = _vec(rng, m, wide)
        if not _parallel(b, c):
            return b, c


# --------------------------------------------------------------- problems


def _gradient_matrices(rng, family, m, n, size, wide):
    b = _vec(rng, m, wide)
    if family == "feasible":
        return [tensor(b, f) for f in _feasible_factors(rng, n, size, wide)]
    if family == "dim":
        return [tensor(b, f) for f in _flat_factors(rng, n, size, wide)]
    if family == "nri":
        return [tensor(b, f) for f in _halfspace_factors(rng, n, size, wide)]
    b, c = _two_directions(rng, m, wide)
    fs = _independent(rng, n, wide)
    if family == "notr1":
        basis = [tensor(b, f) for f in fs[:-1]] + [tensor(c, fs[-1])]
    else:  # oos
        basis = [tensor(b, f) for f in fs] + [tensor(c, _vec(rng, n, wide))]
    return _fill(list(basis), size, lambda: _combination(rng, basis, wide))


def _symmetrized_matrices(rng, family, n, size, wide):
    b = _vec(rng, n, wide)
    if family == "feasible":
        return [sym(f, b) for f in _feasible_factors(rng, n, size, wide)]
    if family == "dim":
        return [sym(f, b) for f in _flat_factors(rng, n, size, wide)]
    if family == "nri":
        return [sym(f, b) for f in _halfspace_factors(rng, n, size, wide)]
    if family == "ckt":
        p = _independent(rng, n, wide)
        # Pᵀ·E_ii·P = row i of P tensored with itself.
        basis = [tensor(p[i], p[i]) for i in range(n)]
    else:  # oos
        b, c = _two_directions(rng, n, wide)
        basis = [sym(f, b) for f in _independent(rng, n, wide)] + [sym(c, c)]
    return _fill(list(basis), size, lambda: _combination(rng, basis, wide))


def slot_plan():
    """Every slot of one decide-mix pass: (kind, n, slot, m, |E|, wide)."""
    plan = []
    for operator, family in FAMILIES:
        for n in DIMENSIONS:
            slots = SLOTS_CHEAP if family in CHEAP else SLOTS_LP
            for slot in range(slots):
                size = n + 1 + (slot * (n + 1) + slots - 2) // (slots - 1)
                if operator == SYMMETRIZED:
                    m = n
                elif family in ("notr1", "oos"):
                    m = 2 + slot % 2
                else:
                    m = 1 + slot % 3
                wide = slot % WIDE_EVERY == WIDE_EVERY // 2
                plan.append((operator, family, n, slot, m, size, wide))
    return plan


def pool_key(operator: str, family: str, n: int, slot: int, variant: int) -> str:
    return f"{operator}/{family}/n{n}/s{slot}/v{variant}"


def make_problem(operator, family, n, slot, m, size, wide, variant) -> dict:
    """One pool entry, a pure function of its key."""
    rng = random.Random(pool_key(operator, family, n, slot, variant))
    if operator == GRADIENT:
        mats = _gradient_matrices(rng, family, m, n, size, wide)
    else:
        mats = _symmetrized_matrices(rng, family, n, size, wide)
    rng.shuffle(mats)
    problem = {"operator": operator, "n": n, "E": [[str(x) for x in a] for a in mats]}
    if operator == GRADIENT:
        problem["m"] = m
    return problem


def problem_bytes(problem: dict) -> bytes:
    return (json.dumps(problem, sort_keys=True) + "\n").encode()


def decide_mix(seed: int) -> list[dict]:
    """The seed's sample: one pool variant per slot, in a seeded order.

    Each item holds the pool key, the verdict kind and the problem."""
    rng = random.Random(seed)
    variants = HELD_OUT_VARIANTS if seed < 0 else REGULAR_VARIANTS
    out = []
    for operator, family, n, slot, m, size, wide in slot_plan():
        variant = rng.choice(variants)
        out.append(
            {
                "key": pool_key(operator, family, n, slot, variant),
                "kind": f"{operator}-{family}",
                "expected": EXPECTED[family],
                "problem": make_problem(operator, family, n, slot, m, size, wide, variant),
            }
        )
    rng.shuffle(out)
    return out


def pool_keys() -> list[str]:
    """Every pool entry's key, in the order digests.json lists them."""
    return [
        pool_key(operator, family, n, slot, variant)
        for operator, family, n, slot, *_ in slot_plan()
        for variant in range(POOL_VARIANTS)
    ]


def full_pool():
    """Every pool entry, for recording digests: (key, expected, problem)."""
    for operator, family, n, slot, m, size, wide in slot_plan():
        for variant in range(POOL_VARIANTS):
            yield (
                pool_key(operator, family, n, slot, variant),
                EXPECTED[family],
                make_problem(operator, family, n, slot, m, size, wide, variant),
            )
