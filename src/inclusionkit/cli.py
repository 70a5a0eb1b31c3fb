"""Command-line front door.

Subcommands:

  check PROBLEM                 decide and print the verdict JSON
  construct PROBLEM --out PATH  build a solution file (needs --delta)
  verify PROBLEM SOLUTION       re-check a solution file, print report
  export SOLUTION               write OBJ (n ≤ 2) and/or CSV views

Exit codes: 0 feasible/pass, 2 invalid input or schema violation,
10 infeasible, 11 verification failure, 12 out of scope (dim span E
exceeds n), 20 covering budget exceeded.  All JSON output is canonical
(sorted keys, two-space indent, rationals as "p/q" strings), so equal
inputs give byte-identical outputs.

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
import sys
from fractions import Fraction
from typing import Sequence

from .builder import DEFAULT_MAX_COPIES, PiecewiseAffine, assemble_solution
from .errors import BudgetExceeded, InclusionKitError, InvalidInput, SchemaError
from .feasibility import FEASIBLE, INFEASIBLE, OUT_OF_SCOPE, decide
from .geometry import triangulate, vertices, volume
from .linalg import rat, rat_str
from .serialize import (
    canonical_dumps,
    encode_report,
    encode_solution,
    encode_verdict,
    load_problem,
    load_solution,
    mat_to_json,
    vec_to_json,
)
from .verify import verify_solution

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 10
EXIT_VERIFY_FAILED = 11
EXIT_OUT_OF_SCOPE = 12
EXIT_BUDGET = 20

MAX_COPIES_ENV = "INCLUSIONKIT_MAX_COPIES"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _max_copies() -> int:
    raw = os.environ.get(MAX_COPIES_ENV)
    if raw is None:
        return DEFAULT_MAX_COPIES
    try:
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


def _scalar_height(pw: PiecewiseAffine, cell_index: int, point) -> Fraction:
    # Height of the graph surface: v itself for scalar solutions, the
    # b-component <u; b>/|b|^2 for vector ones (u = v*b by construction).
    cell = pw.cells[cell_index]
    value = cell.gradient.matvec(point) + cell.offset
    bb = pw.b.dot(pw.b)
    return value.dot(pw.b) / bb


def _fmt_float(x: Fraction) -> str:
    return format(float(x), ".17g")


def write_obj(pw: PiecewiseAffine, path: str) -> None:
    """Wavefront OBJ of the scalar graph surface; ambient must be <= 2."""
    if pw.ambient > 2:
        raise InvalidInput("OBJ export is defined for ambient dimension <= 2")
    lines = ["# piecewise-affine graph surface"]
    offset = 0
    elements: list[str] = []
    for k in range(len(pw.cells)):
        verts = vertices(pw.cells[k].polytope)
        if pw.ambient == 1:
            for v in verts:
                h = _scalar_height(pw, k, v)
                lines.append(f"v {_fmt_float(v[0])} {_fmt_float(h)} 0")
            if len(verts) == 2:
                elements.append(f"l {offset + 1} {offset + 2}")
            offset += len(verts)
        else:
            index = {v: i for i, v in enumerate(verts)}
            for v in verts:
                h = _scalar_height(pw, k, v)
                lines.append(f"v {_fmt_float(v[0])} {_fmt_float(v[1])} {_fmt_float(h)}")
            for simplex in triangulate(pw.cells[k].polytope, verts):
                a, b, c = (offset + index[v] + 1 for v in simplex)
                elements.append(f"f {a} {b} {c}")
            offset += len(verts)
    lines.extend(elements)
    _write_text(path, "\n".join(lines) + "\n")


def write_csv(pw: PiecewiseAffine, path: str) -> None:
    """Cell table: one row per cell with exact rational fields."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "copy", "gradient", "offset", "measure"])
        for i, cell in enumerate(pw.cells):
            writer.writerow(
                [
                    i,
                    cell.copy,
                    json.dumps(mat_to_json(cell.gradient)),
                    json.dumps(vec_to_json(cell.offset)),
                    rat_str(volume(cell.polytope)),
                ]
            )


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
    _write_text(args.out, canonical_dumps(encode_solution(solution)))
    if args.obj is not None:
        write_obj(solution, args.obj)
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
    if args.obj is not None:
        write_obj(solution, args.obj)
    if args.csv is not None:
        write_csv(solution, args.csv)
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
