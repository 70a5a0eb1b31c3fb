"""The fixed instances of cover-ladder and verify-mix, and the forgeries.

Each forgery's expected verdict follows from how it was forged: every
one of them breaks a property the verifier promises to check, so the
right answer is exit 11 whatever a given version of the verifier says.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

from gen import sym, tensor

E1, E2 = [1, 0], [0, 1]
TRIANGLE_F = [E1, E2, [-1, -1]]
TRIANGLE_B = [1, 2]


def _strs(rows):
    return [[str(Fraction(x)) for x in row] for row in rows]


def _unit_vectors(n):
    out = []
    for i in range(n):
        for sign in (1, -1):
            e = [0] * n
            e[i] = sign
            out.append(e)
    return out


# |x| <= 1, |y| <= 1, |x + y| <= 1.
HEXAGON = {
    "halfspaces": {
        "normals": _strs([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]),
        "offsets": ["1"] * 6,
    }
}

PROBLEMS = {
    "triangle": {
        "operator": "gradient",
        "m": 2,
        "n": 2,
        "E": _strs(tensor(TRIANGLE_B, f) for f in TRIANGLE_F),
    },
    "sym-triangle": {
        "operator": "symmetrized",
        "n": 2,
        "E": _strs(sym(f, TRIANGLE_B) for f in TRIANGLE_F),
    },
    "square-hexagon": {
        "operator": "gradient",
        "m": 1,
        "n": 2,
        "E": _strs(_unit_vectors(2)),
        "domain": HEXAGON,
    },
    "triangle-hexagon": {
        "operator": "gradient",
        "m": 2,
        "n": 2,
        "E": _strs(tensor(TRIANGLE_B, f) for f in TRIANGLE_F),
        "domain": HEXAGON,
    },
    "cube": {"operator": "gradient", "m": 1, "n": 3, "E": _strs(_unit_vectors(3))},
    # The square problem on [0, 1/10]², whose solution is then checked
    # against the unit-box "square" problem.
    "square-small": {
        "operator": "gradient",
        "m": 1,
        "n": 2,
        "E": _strs(_unit_vectors(2)),
        "domain": {"box": {"low": ["0", "0"], "high": ["1/10", "1/10"]}},
    },
    "square": {"operator": "gradient", "m": 1, "n": 2, "E": _strs(_unit_vectors(2))},
}

# Rungs: name -> (problem, delta).  The three triangle deltas record the
# chain delta -> copies -> cells on one instance.
RUNGS = {
    "triangle-1/4": ("triangle", "1/4"),
    "triangle-1/5": ("triangle", "1/5"),
    "triangle-1/6": ("triangle", "1/6"),
    "sym-triangle-1/4": ("sym-triangle", "1/4"),
    "square-hexagon-1/8": ("square-hexagon", "1/8"),
    "triangle-hexagon-1/4": ("triangle-hexagon", "1/4"),
    "cube-1/4": ("cube", "1/4"),
    # Built only for the domain-mismatch forgery.
    "square-small-1/4": ("square-small", "1/4"),
}
COVER_LADDER = tuple(r for r in RUNGS if r != "square-small-1/4")

# verify-mix honest files, all of them cover-ladder rungs.
HONEST = ("triangle-1/4", "sym-triangle-1/4", "square-hexagon-1/8", "cube-1/4")

# The two verifier holes the seed is known to accept.
KNOWN_HOLES = ("domain-mismatch", "unbounded-cell")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -------------------------------------------------------------- forgeries


def forge_gradient(solution: dict, cell: int) -> dict:
    """Double one cell's gradient and offset: the function stays affine
    on the cell, but 2·(b⊗f) is not in E for the triangle."""
    out = copy.deepcopy(solution)
    target = out["cells"][cell]
    target["gradient"] = [[str(2 * Fraction(x)) for x in row] for row in target["gradient"]]
    target["offset"] = [str(2 * Fraction(x)) for x in target["offset"]]
    return out


def forge_drop(solution: dict, cell: int) -> dict:
    """Drop one cell; the claimed coverage no longer adds up."""
    out = copy.deepcopy(solution)
    del out["cells"][cell]
    return out


def forge_covered(solution: dict, share: int) -> dict:
    """Claim 1/share of |Ω| more coverage, keeping covered + residual =
    |Ω|; the cells no longer measure up to the claim."""
    out = copy.deepcopy(solution)
    eps = (Fraction(out["covered"]) + Fraction(out["residual"])) / share
    out["covered"] = str(Fraction(out["covered"]) + eps)
    out["residual"] = str(Fraction(out["residual"]) - eps)
    return out


def _meet(r1, r2):
    (a1, c1), (a2, c2) = r1, r2
    det = a1[0] * a2[1] - a1[1] * a2[0]
    return ((c1 * a2[1] - a1[1] * c2) / det, (a1[0] * c2 - c1 * a2[0]) / det)


def forge_unbounded(solution: dict, cell: int) -> dict:
    """Replace the base facet BC of a triangular cell ABC by two
    halfspaces through B and C, both parallel to (B+C)/2 - A.  The region
    keeps the vertices A, B, C but is unbounded."""
    out = copy.deepcopy(solution)
    region = out["cells"][cell]["region"]["halfspaces"]
    rows = [
        ([Fraction(x) for x in a], Fraction(c))
        for a, c in zip(region["normals"], region["offsets"])
    ]
    base, sides = rows[-1], rows[:-1]
    apex = _meet(*sides)
    b, c = _meet(base, sides[0]), _meet(base, sides[1])
    d = ((b[0] + c[0]) / 2 - apex[0], (b[1] + c[1]) / 2 - apex[1])
    normal = (-d[1], d[0])
    new = []
    for p in (b, c):
        offset = normal[0] * p[0] + normal[1] * p[1]
        if normal[0] * apex[0] + normal[1] * apex[1] > offset:
            new.append(((-normal[0], -normal[1]), -offset))
        else:
            new.append((normal, offset))
    rows = sides + new
    region["normals"] = [[str(x) for x in a] for a, _ in rows]
    region["offsets"] = [str(c) for _, c in rows]
    return out
