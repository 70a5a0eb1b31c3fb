"""Exact JSON serialization for problems, verdicts, solutions, reports.

Rationals travel as strings "p" or "p/q" (plain JSON integers are also
accepted on input).  Floats and booleans are rejected wherever a
rational is expected: exactness is the whole point, and a float in the
input is always a mistake.  Rejections carry a JSON-pointer path to
the offending value, e.g. "/E/0/2".

Output is canonical: keys sorted, two-space indent, one trailing
newline, rationals rendered by str(Fraction).  Identical data gives
identical bytes.  ``canonical_dumps`` is the one writer: the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, from a
recursive walk whose strings go through json's C escaper, as ``indent``
would otherwise select json's pure-Python encoder.

``_pair`` is the one reader of a rational.  It parses each distinct string
once per decode call (``linalg.parse_rat``), through one ``memo`` dict that
maps a plain string to its reduced (numerator, denominator) ints and holds
nothing else; a failed parse is never stored.  An array is read in one pass
over its memo hits, and re-read only to name a failing entry.  E's rows, a
region's rows, a copy and a cell's map are cleared straight from those ints.
A ``Fraction`` is built only where a value leaves (b, δ, covered, residual,
box corners), from its pair.  Rows, copies and maps are written from their
integers, each entry x over its denominator l as x/l in lowest terms
(``_ratio``, which spells it as str(Fraction) does).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from math import gcd, lcm
from typing import Any

from .builder import Cell, PiecewiseAffine
from .errors import SchemaError
from .feasibility import GRADIENT, SYMMETRIZED, InclusionProblem, Verdict
from .geometry import CoverCopy, Polytope
from .linalg import Vec, parse_rat
from .verify import Report

OPERATORS = (GRADIENT, SYMMETRIZED)


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for a tree of dict
    (string keys), list, str, int, bool and None, without the pure-Python
    encoder that ``indent`` selects: anything else raises ``TypeError``."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj: Any, nl: str) -> str:
    """obj as json writes it at the indentation of ``nl``, a newline and its indent."""
    t = type(obj)
    if t is str:
        return _escape(obj)
    inner = nl + "  "
    if t is list:
        if not obj:
            return "[]"
        if type(obj[0]) is str:
            try:
                return "[" + inner + ("," + inner).join(map(_escape, obj)) + nl + "]"
            except TypeError:  # not all strings
                pass
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        items = [_escape(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# ---------------------------------------------------------------- values


def rat_from_json(value: Any, pointer: str, memo: dict | None = None) -> Fraction:
    return Fraction(*_pair(value, pointer, {} if memo is None else memo))


def _pair(value: Any, pointer: str, memo: dict) -> tuple[int, int]:
    """One rational as its reduced (numerator, denominator), or a ``SchemaError``
    at ``pointer``: the decoder's one reader of a rational.  A plain string is
    looked up in ``memo`` once, and stored to it when it parses."""
    if isinstance(value, str):
        pair = memo.get(value)
        if pair is None:
            try:
                memo[value] = pair = parse_rat(value)
            except ValueError as exc:
                raise SchemaError(pointer, str(exc)) from None
        return pair
    if isinstance(value, bool):
        raise SchemaError(pointer, "booleans are not rationals")
    if isinstance(value, float):
        raise SchemaError(pointer, 'floats are rejected; write rationals as "p/q" strings')
    if isinstance(value, int):
        return value, 1
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
    return list(map(str, v))


def vec_from_json(
    value: Any, pointer: str, length: int | None = None, memo: dict | None = None
) -> Vec:
    return Vec(tuple([Fraction(*x) for x in _pairs(value, pointer, length, memo)]))


def _pairs(value: Any, pointer: str, length: int | None, memo: dict | None) -> list:
    """An array of rationals, each as ``_pair`` reads it."""
    items = _list_from_json(value, pointer)
    if length is not None and len(items) != length:
        raise SchemaError(pointer, f"expected {length} entries, got {len(items)}")
    memo = {} if memo is None else memo
    try:
        # The keys are plain strings, so no int, bool or float finds one.
        return [memo[x] if x in memo else _pair(x, pointer, memo) for x in items]
    except (SchemaError, TypeError):
        # Re-read entry by entry, only to name the failing entry.
        return [_pair(x, f"{pointer}/{i}", memo) for i, x in enumerate(items)]


def _cleared(pairs: list) -> tuple[tuple[int, ...], int]:
    """A row of (numerator, denominator) pairs times l, the lcm of its
    denominators, and l: the row and factor ``linalg._integer_rows`` makes."""
    l = lcm(*[q for _, q in pairs])
    return tuple([p * (l // q) for p, q in pairs]), l


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


def map_to_json(cell_map: tuple) -> dict[str, list]:
    """A cell's map [G | o] over m as its "gradient" rows and its "offset"."""
    rows, m = cell_map
    return {
        "gradient": [[_ratio(x, m) for x in r[:-1]] for r in rows],
        "offset": [_ratio(r[-1], m) for r in rows],
    }


def _map_from_json(entry: dict, pointer: str, d: int, n: int, memo: dict) -> tuple:
    """A cell's "gradient" (d rows of n) and "offset" (d entries) as its map:
    the rows [Gᵢ | oᵢ] over the lcm of all their reduced denominators, which
    leaves them in lowest terms."""
    items = _list_from_json(entry["gradient"], f"{pointer}/gradient")
    if len(items) != d:
        raise SchemaError(f"{pointer}/gradient", f"expected {d} rows, got {len(items)}")
    gradient = [_pairs(row, f"{pointer}/gradient/{i}", n, memo) for i, row in enumerate(items)]
    offset = _pairs(entry["offset"], f"{pointer}/offset", d, memo)
    flat, m = _cleared([x for g, o in zip(gradient, offset) for x in (*g, o)])
    return tuple(flat[i : i + n + 1] for i in range(0, len(flat), n + 1)), m


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
            _pairs(row, f"{pointer}/halfspaces/normals/{i}", ambient, memo)
            for i, row in enumerate(rows)
        ]
        offs = _list_from_json(hs["offsets"], f"{pointer}/halfspaces/offsets")
        if len(offs) != len(normals):
            raise SchemaError(f"{pointer}/halfspaces/offsets", "one offset per normal required")
        offsets = _pairs(offs, f"{pointer}/halfspaces/offsets", None, memo)
        cleared = [_cleared([*a, c]) for a, c in zip(normals, offsets)]
        return Polytope(ambient, tuple(r for r, _ in cleared), tuple(l for _, l in cleared))
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
    memo: dict = {}
    cleared = [_cleared(_pairs(row, f"/E/{i}", m * n, memo)) for i, row in enumerate(rows)]
    domain = None
    if "domain" in obj:
        domain = decode_polytope(obj["domain"], "/domain", n, memo)
    return InclusionProblem.from_rows(
        operator, m, n, [r for r, _ in cleared], [l for _, l in cleared], domain
    )


def _loads(text: str) -> Any:
    """The JSON value of ``text``, or a ``SchemaError`` at the root."""
    try:
        return json.loads(text)
    # JSONDecodeError, an int literal over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None


def load_problem(text: str) -> InclusionProblem:
    return decode_problem(_loads(text))


# --------------------------------------------------------------- verdicts


def encode_verdict(v: Verdict) -> dict:
    out: dict[str, Any] = {"status": v.status}
    if v.b is not None:
        out["b"] = vec_to_json(v.b)
    if v.factors is not None:
        out["F"] = [vec_to_json(f) for f in v.factors]
    if v.certificate is not None:
        out["indices"] = list(v.certificate.indices)
        out["weights"] = list(map(str, v.certificate.weights))
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
        "delta": str(pw.delta),
        "covered": str(pw.covered),
        "residual": str(pw.residual),
        "copies": [
            {"center": [_ratio(x, c.den) for x in c.shift], "scale": _ratio(c.size, c.den)}
            for c in pw.copies
        ],
        "cells": [
            {
                "copy": cell.copy,
                "region": encode_polytope(cell.polytope),
                **map_to_json(cell.map),
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
    memo: dict = {}
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
        center = _pairs(entry["center"], f"/copies/{i}/center", ambient, memo)
        scale = _pair(entry["scale"], f"/copies/{i}/scale", memo)
        if scale[0] <= 0:
            raise SchemaError(f"/copies/{i}/scale", "scale must be positive")
        # Over the lcm of reduced denominators the integers have no common factor.
        (*shift, size), den = _cleared([*center, scale])
        copies.append(CoverCopy(tuple(shift), size, den))
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
        cell_map = _map_from_json(entry, f"/cells/{i}", value_dim, ambient, memo)
        cells.append(Cell(region, cell_map, copy))
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
    return decode_solution(_loads(text))


# ---------------------------------------------------------------- reports


def encode_report(rep: Report) -> dict:
    return {
        "pass": rep.passed,
        "checks": {
            name: {"pass": not failures, "failures": list(failures)}
            for name, failures in rep.failures.items()
        },
        "covered": str(rep.covered),
        "omega_measure": str(rep.omega_measure),
        "integral": vec_to_json(rep.integral_value),
    }
