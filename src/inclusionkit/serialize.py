"""Exact JSON serialization for problems, verdicts, solutions, reports.

Rationals travel as strings "p" or "p/q" (plain JSON integers are also
accepted on input).  Floats and booleans are rejected wherever a
rational is expected: exactness is the whole point, and a float in the
input is always a mistake.  Rejections carry a JSON-pointer path to
the offending value, e.g. "/E/0/2".

Output is canonical: keys sorted, two-space indent, one trailing
newline, rationals rendered by str(Fraction).  Identical data gives
identical bytes.

``decode_problem`` and ``decode_solution`` parse each distinct rational
string once per call, through one ``memo`` dict from plain string to
Fraction; a failed parse is never stored.  A region's rows and a copy are
cleared from those Fractions, no vector built, and written from their
integers, each entry x over its denominator l as x/l in lowest terms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any

from .builder import Cell, PiecewiseAffine
from .errors import SchemaError
from .feasibility import GRADIENT, SYMMETRIZED, InclusionProblem, Verdict
from .geometry import CoverCopy, Polytope, integer_points
from .linalg import Mat, Vec, rat, rat_str
from .verify import Report

OPERATORS = (GRADIENT, SYMMETRIZED)


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- values


def rat_from_json(value: Any, pointer: str, memo: dict | None = None) -> Fraction:
    if type(value) is str and memo is not None:
        if value not in memo:
            memo[value] = rat_from_json(value, pointer)
        return memo[value]
    if isinstance(value, bool):
        raise SchemaError(pointer, "booleans are not rationals")
    if isinstance(value, float):
        raise SchemaError(pointer, 'floats are rejected; write rationals as "p/q" strings')
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return rat(value)
        except ValueError as exc:
            raise SchemaError(pointer, str(exc)) from None
    raise SchemaError(pointer, f"expected a rational, got {type(value).__name__}")


def _int_from_json(value: Any, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, f"expected an integer, got {type(value).__name__}")
    return value


def _list_from_json(value: Any, pointer: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(pointer, f"expected an array, got {type(value).__name__}")
    return value


def _dict_from_json(value: Any, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def vec_to_json(v: Vec) -> list[str]:
    return [rat_str(x) for x in v]


def vec_from_json(
    value: Any, pointer: str, length: int | None = None, memo: dict | None = None
) -> Vec:
    return Vec(_rats_from_json(value, pointer, length, memo))


def _rats_from_json(value: Any, pointer: str, length: int | None, memo: dict | None) -> tuple:
    items = _list_from_json(value, pointer)
    if length is not None and len(items) != length:
        raise SchemaError(pointer, f"expected {length} entries, got {len(items)}")
    memo = {} if memo is None else memo
    try:
        # The keys are plain strings, so no int, bool or float finds one.
        return tuple(memo[x] if x in memo else _parse(x, memo) for x in items)
    except (TypeError, ValueError):
        # Re-read entry by entry for the failing entry's pointer and message.
        return tuple(rat_from_json(x, f"{pointer}/{i}", memo) for i, x in enumerate(items))


def _parse(x: Any, memo: dict) -> Fraction:
    q = rat(x)
    if type(x) is str:
        memo[x] = q
    return q


def mat_to_json(a: Mat) -> list[list[str]]:
    return [[rat_str(x) for x in a.row(i)] for i in range(a.rows)]


def mat_from_json(value: Any, pointer: str, rows: int, cols: int, memo: dict | None = None) -> Mat:
    items = _list_from_json(value, pointer)
    if len(items) != rows:
        raise SchemaError(pointer, f"expected {rows} rows, got {len(items)}")
    parsed = [_rats_from_json(row, f"{pointer}/{i}", cols, memo) for i, row in enumerate(items)]
    return Mat(rows, cols, tuple(x for row in parsed for x in row))


# -------------------------------------------------------------- polytopes


def encode_polytope(p: Polytope) -> dict:
    if p.corners is not None:
        low, high = p.corners
        return {"box": {"low": vec_to_json(low), "high": vec_to_json(high)}}
    rows = [[_ratio(x, l) for x in r] for r, l in zip(p.rows, p.lcms)]
    return {"halfspaces": {"normals": [r[:-1] for r in rows], "offsets": [r[-1] for r in rows]}}


def _ratio(x: int, l: int) -> str:
    """x/l for l > 0, as str(Fraction(x, l)) writes it."""
    return str(x // g) if (g := gcd(x, l)) == l else f"{x // g}/{l // g}"


def decode_polytope(value: Any, pointer: str, ambient: int, memo: dict | None = None) -> Polytope:
    obj = _dict_from_json(value, pointer)
    if set(obj) == {"box"}:
        box = _dict_from_json(obj["box"], f"{pointer}/box")
        if set(box) != {"low", "high"}:
            raise SchemaError(f"{pointer}/box", 'expected exactly the keys "low" and "high"')
        low = vec_from_json(box["low"], f"{pointer}/box/low", ambient, memo)
        high = vec_from_json(box["high"], f"{pointer}/box/high", len(low), memo)
        return Polytope.box(low, high)
    if set(obj) == {"halfspaces"}:
        hs = _dict_from_json(obj["halfspaces"], f"{pointer}/halfspaces")
        if set(hs) != {"normals", "offsets"}:
            raise SchemaError(
                f"{pointer}/halfspaces", 'expected exactly the keys "normals" and "offsets"'
            )
        rows = _list_from_json(hs["normals"], f"{pointer}/halfspaces/normals")
        if not rows:
            raise SchemaError(f"{pointer}/halfspaces/normals", "at least one halfspace required")
        normals = [
            _rats_from_json(row, f"{pointer}/halfspaces/normals/{i}", ambient, memo)
            for i, row in enumerate(rows)
        ]
        offs = _list_from_json(hs["offsets"], f"{pointer}/halfspaces/offsets")
        if len(offs) != len(normals):
            raise SchemaError(f"{pointer}/halfspaces/offsets", "one offset per normal required")
        offsets = _rats_from_json(offs, f"{pointer}/halfspaces/offsets", None, memo)
        return Polytope.halfspaces(normals, offsets)
    raise SchemaError(pointer, 'expected exactly one of the keys "box" or "halfspaces"')


# --------------------------------------------------------------- problems


def decode_problem(value: Any) -> InclusionProblem:
    obj = _dict_from_json(value, "")
    allowed = {"operator", "m", "n", "E", "domain"}
    extra = set(obj) - allowed
    if extra:
        raise SchemaError(f"/{sorted(extra)[0]}", "unknown key")
    operator = obj.get("operator")
    if operator not in OPERATORS:
        raise SchemaError("/operator", f'expected "{GRADIENT}" or "{SYMMETRIZED}"')
    if "n" not in obj:
        raise SchemaError("/n", "missing")
    n = _int_from_json(obj["n"], "/n")
    if n < 1:
        raise SchemaError("/n", "dimension must be positive")
    if operator == GRADIENT:
        if "m" not in obj:
            raise SchemaError("/m", "missing")
        m = _int_from_json(obj["m"], "/m")
        if m < 1:
            raise SchemaError("/m", "dimension must be positive")
    else:
        m = _int_from_json(obj.get("m", n), "/m")
        if m != n:
            raise SchemaError("/m", "symmetrized instances require m = n")
    if "E" not in obj:
        raise SchemaError("/E", "missing")
    rows = _list_from_json(obj["E"], "/E")
    if not rows:
        raise SchemaError("/E", "the matrix set must be nonempty")
    memo: dict[str, Fraction] = {}
    matrices = []
    for i, row in enumerate(rows):
        matrices.append(Mat(m, n, _rats_from_json(row, f"/E/{i}", m * n, memo)))
    domain = None
    if "domain" in obj:
        domain = decode_polytope(obj["domain"], "/domain", n, memo)
    if operator == GRADIENT:
        return InclusionProblem.gradient(matrices, domain)
    return InclusionProblem.symmetrized(matrices, domain)


def load_problem(text: str) -> InclusionProblem:
    try:
        value = json.loads(text)
    # JSONDecodeError, an int literal over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    return decode_problem(value)


# --------------------------------------------------------------- verdicts


def encode_verdict(v: Verdict) -> dict:
    out: dict[str, Any] = {"status": v.status}
    if v.b is not None:
        out["b"] = vec_to_json(v.b)
    if v.factors is not None:
        out["F"] = [vec_to_json(f) for f in v.factors]
    if v.certificate is not None:
        out["indices"] = list(v.certificate.indices)
        out["weights"] = [rat_str(w) for w in v.certificate.weights]
    if v.reason is not None:
        out["reason"] = v.reason
    if v.separator is not None:
        out["P"] = vec_to_json(v.separator)
    if v.span_dim is not None:
        out["span_dim"] = v.span_dim
    if v.complement_basis is not None:
        out["complement_basis"] = [vec_to_json(w) for w in v.complement_basis]
    return out


# -------------------------------------------------------------- solutions


def encode_solution(pw: PiecewiseAffine) -> dict:
    return {
        "operator": pw.operator,
        "ambient": pw.ambient,
        "value_dim": pw.value_dim,
        "b": vec_to_json(pw.b),
        "omega": encode_polytope(pw.omega),
        "base": encode_polytope(pw.base),
        "delta": rat_str(pw.delta),
        "covered": rat_str(pw.covered),
        "residual": rat_str(pw.residual),
        "copies": [
            {"center": [_ratio(x, c.den) for x in c.shift], "scale": _ratio(c.size, c.den)}
            for c in pw.copies
        ],
        "cells": [
            {
                "copy": cell.copy,
                "region": encode_polytope(cell.polytope),
                "gradient": mat_to_json(cell.gradient),
                "offset": vec_to_json(cell.offset),
            }
            for cell in pw.cells
        ],
    }


def decode_solution(value: Any) -> PiecewiseAffine:
    obj = _dict_from_json(value, "")
    required = {
        "operator", "ambient", "value_dim", "b", "omega", "base",
        "delta", "covered", "residual", "copies", "cells",
    }
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"/{sorted(missing)[0]}", "missing")
    extra = set(obj) - required
    if extra:
        raise SchemaError(f"/{sorted(extra)[0]}", "unknown key")
    operator = obj["operator"]
    if operator is not None and operator not in OPERATORS:
        raise SchemaError("/operator", f'expected "{GRADIENT}", "{SYMMETRIZED}", or null')
    ambient = _int_from_json(obj["ambient"], "/ambient")
    if ambient < 1:
        raise SchemaError("/ambient", "dimension must be positive")
    value_dim = _int_from_json(obj["value_dim"], "/value_dim")
    if value_dim < 1:
        raise SchemaError("/value_dim", "dimension must be positive")
    memo: dict[str, Fraction] = {}
    b = vec_from_json(obj["b"], "/b", value_dim, memo)
    omega = decode_polytope(obj["omega"], "/omega", ambient, memo)
    base = decode_polytope(obj["base"], "/base", ambient, memo)
    delta = rat_from_json(obj["delta"], "/delta", memo)
    covered = rat_from_json(obj["covered"], "/covered", memo)
    residual = rat_from_json(obj["residual"], "/residual", memo)
    copies = []
    for i, item in enumerate(_list_from_json(obj["copies"], "/copies")):
        entry = _dict_from_json(item, f"/copies/{i}")
        if set(entry) != {"center", "scale"}:
            raise SchemaError(f"/copies/{i}", 'expected exactly the keys "center" and "scale"')
        center = _rats_from_json(entry["center"], f"/copies/{i}/center", ambient, memo)
        scale = rat_from_json(entry["scale"], f"/copies/{i}/scale", memo)
        if scale <= 0:
            raise SchemaError(f"/copies/{i}/scale", "scale must be positive")
        (shift, (size,)), den = integer_points([center, (scale,)])
        copies.append(CoverCopy(shift, size, den))
    cells = []
    for i, item in enumerate(_list_from_json(obj["cells"], "/cells")):
        entry = _dict_from_json(item, f"/cells/{i}")
        if set(entry) != {"copy", "region", "gradient", "offset"}:
            raise SchemaError(
                f"/cells/{i}",
                'expected exactly the keys "copy", "region", "gradient", "offset"',
            )
        copy = _int_from_json(entry["copy"], f"/cells/{i}/copy")
        if not 0 <= copy < len(copies):
            raise SchemaError(f"/cells/{i}/copy", "copy index out of range")
        region = decode_polytope(entry["region"], f"/cells/{i}/region", ambient, memo)
        gradient = mat_from_json(
            entry["gradient"], f"/cells/{i}/gradient", value_dim, ambient, memo
        )
        offset = vec_from_json(entry["offset"], f"/cells/{i}/offset", value_dim, memo)
        cells.append(Cell(region, gradient, offset, copy))
    return PiecewiseAffine(
        ambient=ambient,
        value_dim=value_dim,
        operator=operator,
        b=b,
        omega=omega,
        base=base,
        copies=tuple(copies),
        cells=tuple(cells),
        covered=covered,
        residual=residual,
        delta=delta,
    )


def load_solution(text: str) -> PiecewiseAffine:
    try:
        value = json.loads(text)
    # JSONDecodeError, an int literal over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    return decode_solution(value)


# ---------------------------------------------------------------- reports


def encode_report(rep: Report) -> dict:
    return {
        "pass": rep.passed,
        "checks": {
            name: {"pass": not failures, "failures": list(failures)}
            for name, failures in rep.failures.items()
        },
        "covered": rat_str(rep.covered),
        "omega_measure": rat_str(rep.omega_measure),
        "integral": vec_to_json(rep.integral_value),
    }
