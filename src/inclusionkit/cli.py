"""Command-line front door.

Subcommands:

  check PROBLEM                 decide and print the verdict JSON
  construct PROBLEM --out PATH  build a solution file (--delta, default 1/100)
  verify PROBLEM SOLUTION       re-check a solution file, print report
  export SOLUTION               write OBJ (n ≤ 2) and/or CSV views

Exit codes: 0 feasible/pass, 2 invalid input or schema violation,
10 infeasible, 11 verification failure, 12 out of scope (dim span E
exceeds n), 20 covering budget exceeded.  All JSON output is canonical
(sorted keys, two-space indent, rationals as "p/q" strings), so equal
inputs give byte-identical outputs.

The OBJ and CSV writers read the cells' integer maps and their
``verify.cell_forms``, and ``_fmt_float`` divides each number's two ints
as ``float(Fraction)`` would.

The environment variable INCLUSIONKIT_MAX_COPIES caps the number of
covering copies per construction (default 4096).  --seed is reserved
for randomized harnesses around the CLI; the commands themselves are
deterministic and ignore it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Sequence

from .builder import DEFAULT_MAX_COPIES, PiecewiseAffine, assemble_solution
from .errors import BudgetExceeded, InclusionKitError, InvalidInput, SchemaError
from .feasibility import FEASIBLE, INFEASIBLE, OUT_OF_SCOPE, decide
from .geometry import integer_points
from .linalg import rat
from .serialize import (
    canonical_dumps,
    encode_report,
    encode_solution,
    encode_verdict,
    load_problem,
    load_solution,
    map_to_json,
)
from .verify import Form, cell_forms, verify_solution

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 10
EXIT_VERIFY_FAILED = 11
EXIT_OUT_OF_SCOPE = 12
EXIT_BUDGET = 20

MAX_COPIES_ENV = "INCLUSIONKIT_MAX_COPIES"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InvalidInput(f"{path} is not UTF-8 text") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _max_copies() -> int:
    raw = os.environ.get(MAX_COPIES_ENV)
    if raw is None:
        return DEFAULT_MAX_COPIES
    # int() alone would also take "1_2", " 12 " and non-ASCII digits; it
    # raises on more digits than the int-string limit.
    try:
        if not re.fullmatch(r"-?[0-9]+", raw):
            raise ValueError(raw)
        cap = int(raw)
    except ValueError:
        raise InvalidInput(f"{MAX_COPIES_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidInput(f"{MAX_COPIES_ENV} must be positive, got {cap}")
    return cap


def _parse_delta(text: str) -> Fraction:
    try:
        delta = rat(text)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"--delta: {exc}") from None
    if delta <= 0:
        raise InvalidInput("--delta must be positive (delta >= 1 yields the zero solution)")
    return delta


def _verdict_exit(status: str) -> int:
    if status == FEASIBLE:
        return EXIT_OK
    if status == INFEASIBLE:
        return EXIT_INFEASIBLE
    if status == OUT_OF_SCOPE:
        return EXIT_OUT_OF_SCOPE
    raise InclusionKitError(f"unknown verdict status {status!r}")


def _fmt_float(num: int, den: int) -> str:
    """num/den to 17 digits: int/int true division rounds as ``float(Fraction)`` does."""
    return format(num / den, ".17g")


def write_obj(pw: PiecewiseAffine, path: str, forms: list[Form]) -> None:
    """Wavefront OBJ of the scalar graph surface; ambient must be <= 2.

    A vertex line is the point and the height of the graph over it,
    padded with zeros to three coordinates.  The height is v itself for
    scalar solutions and the b-component <u; b>/|b|^2 for vector ones
    (u = v*b by construction), so b must be nonzero.  In integers, with
    b = B/β and the value of a vertex X/D over m·D (``Form.values``, m the
    denominator of the cell's map), it is ⟨B; value⟩·β/(m·D·|B|²).  Each
    simplex of a cell's ``Form`` is one element: a line (l) for n = 1, a
    face (f) for n = 2.  A number beyond the float range is invalid input,
    and no file is written.  ``forms`` are the cells' ``cell_forms``.
    """
    if pw.ambient > 2:
        raise InvalidInput("OBJ export is defined for ambient dimension <= 2")
    (b,), beta = integer_points([pw.b])
    bb = sum(x * x for x in b)
    if bb == 0:
        raise InvalidInput("OBJ export needs a nonzero value direction b")
    lines = ["# piecewise-affine graph surface"]
    offset = 0
    elements: list[str] = []
    for cell, form in zip(pw.cells, forms):
        (xs, d), m = form.points, cell.map[1]
        for x, value in zip(xs, form.values):
            h = sum(map(mul, b, value)) * beta
            try:
                coords = [_fmt_float(c, d) for c in x] + [_fmt_float(h, m * d * bb)]
            except OverflowError:
                raise InvalidInput("OBJ vertex or height beyond the float range") from None
            lines.append("v " + " ".join(coords + ["0"] * (2 - pw.ambient)))
        for simplex in form.simplices:
            kind = "l" if len(simplex) == 2 else "f"
            elements.append(" ".join([kind] + [str(offset + i + 1) for i in simplex]))
        offset += len(xs)
    lines.extend(elements)
    _write_text(path, "\n".join(lines) + "\n")


def write_csv(pw: PiecewiseAffine, path: str, forms: list[Form]) -> None:
    """Cell table: one row per cell with exact rational fields, its map as the
    solution file writes it (``serialize.map_to_json``), the measure from the
    cells' ``cell_forms``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "copy", "gradient", "offset", "measure"])
        for i, (cell, form) in enumerate(zip(pw.cells, forms)):
            affine = map_to_json(cell.map)
            gradient, offset = json.dumps(affine["gradient"]), json.dumps(affine["offset"])
            writer.writerow([i, cell.copy, gradient, offset, str(form.measure)])


def cmd_check(args: argparse.Namespace) -> int:
    problem = load_problem(_read_text(args.problem))
    verdict = decide(problem)
    sys.stdout.write(canonical_dumps(encode_verdict(verdict)))
    return _verdict_exit(verdict.status)


def cmd_construct(args: argparse.Namespace) -> int:
    problem = load_problem(_read_text(args.problem))
    delta = _parse_delta(args.delta)
    verdict = decide(problem)
    if verdict.status != FEASIBLE:
        sys.stdout.write(canonical_dumps(encode_verdict(verdict)))
        return _verdict_exit(verdict.status)
    solution = assemble_solution(
        verdict, problem.domain, delta, problem.operator, _max_copies()
    )
    # The OBJ goes first: write_obj may refuse the solution, and a refused
    # construct leaves no file behind, so a failed --out takes the OBJ with it.
    if args.obj is not None:
        write_obj(solution, args.obj, cell_forms(solution))
    try:
        _write_text(args.out, canonical_dumps(encode_solution(solution)))
    except BaseException:
        if args.obj is not None:
            os.remove(args.obj)
        raise
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = load_problem(_read_text(args.problem))
    solution = load_solution(_read_text(args.solution))
    delta = _parse_delta(args.delta) if args.delta is not None else None
    report = verify_solution(problem, solution, delta)
    sys.stdout.write(canonical_dumps(encode_report(report)))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    solution = load_solution(_read_text(args.solution))
    if args.obj is None and args.csv is None:
        raise InvalidInput("export needs --obj and/or --csv")
    forms = cell_forms(solution)
    if args.obj is not None:
        write_obj(solution, args.obj, forms)
    if args.csv is not None:
        write_csv(solution, args.csv, forms)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclusionkit",
        description="Decide and construct solutions of first-order differential inclusions.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved for randomized harnesses; commands are deterministic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide feasibility, print the verdict JSON")
    p_check.add_argument("problem", help="problem JSON file")

    p_construct = sub.add_parser("construct", help="build a piecewise-affine solution file")
    p_construct.add_argument("problem", help="problem JSON file")
    p_construct.add_argument(
        "--delta", default="1/100", help='uncovered-measure bound as a rational, e.g. "1/8"'
    )
    p_construct.add_argument("--out", required=True, help="output solution JSON file")
    p_construct.add_argument("--obj", default=None, help="also write an OBJ surface (n <= 2)")

    p_verify = sub.add_parser("verify", help="re-check a solution file, print the report JSON")
    p_verify.add_argument("problem", help="problem JSON file")
    p_verify.add_argument("solution", help="solution JSON file")
    p_verify.add_argument(
        "--delta", default=None, help="coverage bound override (defaults to the file's delta)"
    )

    p_export = sub.add_parser("export", help="write OBJ and/or CSV views of a solution file")
    p_export.add_argument("solution", help="solution JSON file")
    p_export.add_argument("--obj", default=None, help="OBJ surface output path (n <= 2)")
    p_export.add_argument("--csv", default=None, help="CSV cell-table output path")

    return parser


PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    # The handler is looked up when called, so a rebound cmd_* is the
    # one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except SchemaError as exc:
        print(f"schema error at {exc.pointer or '/'}: {exc.message}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InclusionKitError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
