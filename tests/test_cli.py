"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import inclusionkit.builder as builder
import inclusionkit.cli as cli
import inclusionkit.geometry as geometry
from inclusionkit.cli import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_OUT_OF_SCOPE,
    EXIT_VERIFY_FAILED,
    _fmt_float,
    main,
)
from inclusionkit.geometry import extent, faces, rational_points, triangulate
from inclusionkit.linalg import Mat, Vec
from inclusionkit.serialize import load_problem, load_solution, vec_to_json

from test_builder import affine
from test_convexity import mat_rows
from test_serialize import reference_problem_rows


def dot(a: Vec, b: Vec) -> Fraction:
    """⟨a; b⟩ in rationals."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(a: Mat, x: Vec) -> Vec:
    """a·x, row by row."""
    return Vec(tuple(dot(r, x) for r in mat_rows(a)))


SCALAR = {"operator": "gradient", "m": 1, "n": 1, "E": [["1"], ["-1"]]}
PLANAR = {
    "operator": "gradient",
    "m": 1,
    "n": 2,
    "E": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
}
DIAMOND = {
    "operator": "gradient",
    "m": 1,
    "n": 2,
    "E": [["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]],
}
CUBE = {
    "operator": "gradient",
    "m": 1,
    "n": 3,
    "E": [
        ["1", "0", "0"], ["-1", "0", "0"],
        ["0", "1", "0"], ["0", "-1", "0"],
        ["0", "0", "1"], ["0", "0", "-1"],
    ],
}
NON_SLICE_SYM = {
    "operator": "symmetrized",
    "n": 2,
    "E": [
        ["2", "1", "1", "0"],
        ["-2", "-1", "-1", "0"],
        ["0", "0", "0", "2"],
        ["0", "0", "0", "-2"],
    ],
}
# E = {b⊗f : f ∈ {e₁, e₂, −e₁−e₂}}, b = (1, 2): three pyramid cells per copy.
TRIANGLE = {
    "operator": "gradient",
    "m": 2,
    "n": 2,
    "E": [["1", "0", "2", "0"], ["0", "1", "0", "2"], ["-1", "-1", "-2", "-2"]],
}
TOO_BIG = {
    "operator": "gradient",
    "m": 2,
    "n": 2,
    "E": [
        ["1", "0", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "1", "0", "0"],
    ],
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------ check


def test_check_feasible(tmp_path, capsys):
    code = main(["check", write_json(tmp_path, "p.json", SCALAR)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "feasible"
    assert doc["b"] == ["1"]


def test_check_infeasible(tmp_path, capsys):
    code = main(["check", write_json(tmp_path, "w.json", NON_SLICE_SYM)])
    out = capsys.readouterr().out
    assert code == EXIT_INFEASIBLE
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert doc["reason"] == "CommonKernelTrivial"


def test_check_out_of_scope(tmp_path, capsys):
    code = main(["check", write_json(tmp_path, "b.json", TOO_BIG)])
    out = capsys.readouterr().out
    assert code == EXIT_OUT_OF_SCOPE
    assert json.loads(out)["status"] == "out_of_scope"


# Equal values spelled differently ("1/2", "2/4" and "007/014", "-0", "0"
# and "-0/3", 3, "3" and 3·2²⁰⁰ over 2²⁰⁰): E is cleared of its denominators
# once, on load, and the dedupe key, the zero check and the symmetry check
# read those integers.
SPELLED_DUPLICATES = {
    "operator": "gradient",
    "m": 1,
    "n": 2,
    "E": [
        ["1/2", "0"], ["2/4", "0"], ["-1", "-0"], ["-1", "0"],
        [3, "1"], ["3", 1], ["0", "-1"], ["-3/3", "-0/5"],
        ["007/014", "-0/3"], [f"{3 * 2**200}/{2**200}", f"{2**20}/{2**20}"],
        [f"-{2**20}/{2**20}", "000"],
    ],
}
# Unreduced, zero-padded, 20-bit and 200-bit spellings and JSON ints, the
# last four rows repeating the first three.
SPELLED_WIDE = {
    "operator": "gradient",
    "m": 1,
    "n": 2,
    "E": [
        ["4/6", "0"], ["000", str(2**200)], [f"-{2**21}/{3 * 2**20}", f"-{2**200}"],
        [f"{2**21}/{3 * 2**20}", "-0/3"], [0, 2**200], ["-4/6", f"-{2**201}/2"],
        ["-0", "007"],
    ],
}
SPELLED_ZERO = {"operator": "gradient", "m": 1, "n": 2, "E": [["1", "0"], ["0/7", "-0"]]}
SPELLED_MIRROR = {
    "operator": "symmetrized",
    "n": 2,
    "E": [
        ["4/2", "0", "-0", "0/5"], ["-2", "0/3", "0", "0"],
        ["0", "2/2", 1, "0"], ["0", "-1", "-3/3", "-0"],
    ],
}


def test_check_reads_equal_values_spelled_differently_alike(tmp_path, capsys):
    """The first-occurrence dedupe, the zero check and the symmetry check
    see values, not spellings; the stdout digests are the ones recorded
    before E was kept as integer rows, and the wide spellings' digest before
    the decoder parsed rationals into integers."""
    code = main(["check", write_json(tmp_path, "dup.json", SPELLED_DUPLICATES)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["F"] == [["1/2", "0"], ["-1", "0"], ["3", "1"], ["0", "-1"]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e628eb401af84c7ffdf575d3199de4d8db2c19e0baddeb5161efd9b749336397"
    )
    code = main(["check", write_json(tmp_path, "zero.json", SPELLED_ZERO)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert captured.err == "invalid input: the zero matrix is not admitted (0 in E)\n"
    code = main(["check", write_json(tmp_path, "mirror.json", SPELLED_MIRROR)])
    out = capsys.readouterr().out
    assert code == EXIT_OK and json.loads(out)["status"] == "feasible"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b7d95053ceb3c37ee8ea0756c0ae5aaa3f7fd6784cebfec0e09c58606480646"
    )
    code = main(["check", write_json(tmp_path, "wide.json", SPELLED_WIDE)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["F"] == [["2/3", "0"], ["0", str(2**200)], ["-2/3", f"-{2**200}"], ["0", "7"]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a30c2fd9d3a7b9393891f2d1bc153954ef0e0008dae584b055fdf1c50f6856a6"
    )
    # E's rows and lcms are what ``_integer_rows`` makes of ``rat`` of the same strings.
    for doc in (SPELLED_DUPLICATES, SPELLED_MIRROR, SPELLED_WIDE):
        problem = load_problem(json.dumps(doc))
        assert (problem.rows, problem.lcms) == reference_problem_rows(doc["E"])


def test_check_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", PLANAR)
    assert main(["check", path]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_seed_flag_is_accepted(tmp_path, capsys):
    code = main(["--seed", "7", "check", write_json(tmp_path, "p.json", SCALAR)])
    capsys.readouterr()
    assert code == EXIT_OK


# ------------------------------------------------------------- bad inputs


def test_float_entry_is_a_schema_error(tmp_path, capsys):
    bad = {"operator": "gradient", "m": 1, "n": 1, "E": [["1"], [0.5]]}
    code = main(["check", write_json(tmp_path, "p.json", bad)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "schema error at /E/1/0" in err


def test_zero_matrix_is_invalid(tmp_path, capsys):
    bad = {"operator": "gradient", "m": 1, "n": 1, "E": [["1"], ["0"]]}
    code = main(["check", write_json(tmp_path, "p.json", bad)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "invalid input" in err


def test_missing_file_is_invalid(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "file error" in err


def test_malformed_json_is_a_schema_error(tmp_path, capsys):
    # Each malformed file in each input slot: exit 2, nothing on stdout and
    # one stderr line, never a traceback.
    ok = write_json(tmp_path, "ok.json", SCALAR)
    malformed = {
        "truncated": b"{broken",
        "not UTF-8": json.dumps(SCALAR).encode("utf-16"),  # starts with ff fe
        "deep": b"[" * 100_000 + b"]" * 100_000,
    }
    slots = {
        "check problem": lambda bad: ["check", bad],
        "verify problem": lambda bad: ["verify", bad, ok],
        "verify solution": lambda bad: ["verify", ok, bad],
        "export solution": lambda bad: ["export", bad, "--csv", str(tmp_path / "out.csv")],
    }
    for kind, data in malformed.items():
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        for slot, argv in slots.items():
            code = main(argv(str(bad)))
            out, err = capsys.readouterr()
            case = f"{kind} {slot}"
            assert code == EXIT_INVALID, case
            assert out == "", case
            assert "Traceback" not in err and err.count("\n") == 1, case
            if kind == "truncated":
                assert "not valid JSON" in err, case
            if kind == "not UTF-8":
                assert "is not UTF-8 text" in err, case


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this Python parses a 5000-digit integer literal",
)
def test_oversized_integer_literal_is_a_schema_error(tmp_path, capsys, monkeypatch):
    huge = "1" + "0" * 4999
    prob = tmp_path / "p.json"
    prob.write_text('{"operator": "gradient", "m": 1, "n": 1, "E": [[%s], ["-1"]]}' % huge)
    sol = tmp_path / "sol.json"
    sol.write_text('{"ambient": %s}' % huge)
    ok = write_json(tmp_path, "s.json", SCALAR)
    for argv in (["check", str(prob)], ["verify", ok, str(sol)]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID, argv
        assert "schema error at /: not valid JSON" in err
    # The same limit met by the copy cap read from the environment.
    monkeypatch.setenv("INCLUSIONKIT_MAX_COPIES", huge)
    assert main(["construct", ok, "--out", str(tmp_path / "out.json")]) == EXIT_INVALID
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this Python parses a 5000-digit integer string",
)
def test_oversized_rational_string_is_a_schema_error(tmp_path, capsys):
    huge = "1" + "0" * 4999
    for entry in (f"{huge}/3", f"1/{huge}"):
        prob = tmp_path / "p.json"
        prob.write_text('{"operator": "gradient", "m": 1, "n": 1, "E": [["%s"], ["-1"]]}' % entry)
        code = main(["check", str(prob)])
        out, err = capsys.readouterr()
        assert code == EXIT_INVALID
        assert out == ""
        assert "schema error at /E/0/0:" in err and "Traceback" not in err


NO_HALFSPACE = {"halfspaces": {"normals": [], "offsets": []}}


def with_domain(doc: dict, normals: list[list[str]], offsets: list[str]) -> dict:
    """The problem ``doc`` on the domain {x : ⟨normalᵢ; x⟩ ≤ offsetᵢ}."""
    return {**doc, "domain": {"halfspaces": {"normals": normals, "offsets": offsets}}}


# name -> (the file changed, the change, its one stderr line); a solution is
# the scalar problem's at delta 1/2.
SCHEMA_REFUSALS = {
    "E not an array": (
        "problem", lambda doc: {**doc, "E": "1"}, "schema error at /E: expected an array, got str"
    ),
    "problem not an object": (
        "problem", lambda doc: [doc], "schema error at /: expected an object, got list"
    ),
    "region without halfspaces": (
        "problem",
        lambda doc: {**doc, "domain": NO_HALFSPACE},
        "schema error at /domain/halfspaces/normals: at least one halfspace required",
    ),
    "n = 0": (
        "problem", lambda doc: {**doc, "n": 0}, "schema error at /n: dimension must be positive"
    ),
    "m = 0": (
        "problem", lambda doc: {**doc, "m": 0}, "schema error at /m: dimension must be positive"
    ),
    "E empty": (
        "problem",
        lambda doc: {**doc, "E": []},
        "schema error at /E: the matrix set must be nonempty",
    ),
    # The domain loader's two refusals.  The half-line, the line and the zero
    # row reach is_bounded's margin program; it finds only the zero row empty.
    "domain a half-line": (
        "problem",
        lambda doc: with_domain(doc, [["1"]], ["1"]),
        "invalid input: domain must be bounded",
    ),
    "domain a line in the plane": (
        "problem",
        lambda doc: with_domain(PLANAR, [["1", "0"], ["-1", "0"]], ["0", "0"]),
        "invalid input: domain must be bounded",
    ),
    "domain a zero row": (
        "problem",
        lambda doc: with_domain(doc, [["0"]], ["-1"]),
        "invalid input: domain must have nonempty interior",
    ),
    "domain a point": (
        "problem",
        lambda doc: with_domain(doc, [["1"], ["-1"]], ["0", "0"]),
        "invalid input: domain must have nonempty interior",
    ),
    "domain an empty interval": (
        "problem",
        lambda doc: with_domain(doc, [["1"], ["-1"]], ["0", "-1"]),
        "invalid input: domain must have nonempty interior",
    ),
    "solution operator": (
        "solution",
        lambda doc: {**doc, "operator": "curl"},
        'schema error at /operator: expected "gradient", "symmetrized", or null',
    ),
    "copy keys": (
        "solution",
        lambda doc: {**doc, "copies": [{**doc["copies"][0], "shift": "0"}]},
        'schema error at /copies/0: expected exactly the keys "center" and "scale"',
    ),
}


@pytest.mark.parametrize("name", SCHEMA_REFUSALS)
def test_schema_refusals_have_their_stderr_lines(name, tmp_path, capsys):
    kind, change, line = SCHEMA_REFUSALS[name]
    prob = write_json(tmp_path, "p.json", SCALAR)
    if kind == "problem":
        argv = ["check", write_json(tmp_path, "bad.json", change(SCALAR))]
    else:
        sol = tmp_path / "sol.json"
        assert main(["construct", prob, "--delta", "1/2", "--out", str(sol)]) == EXIT_OK
        capsys.readouterr()
        bad = change(json.loads(sol.read_text()))
        argv = ["verify", prob, write_json(tmp_path, "bad.json", bad)]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr() == ("", line + "\n")


# -------------------------------------------------------------- construct


def test_construct_writes_canonical_solution(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--delta", "1/4", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["operator"] == "gradient"
    assert doc["cells"]
    assert out.read_text().endswith("\n")


def test_construct_is_byte_deterministic(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(a)]) == EXIT_OK
    assert main(["construct", prob, "--delta", "1/4", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_construct_infeasible_leaves_no_file(tmp_path, capsys):
    prob = write_json(tmp_path, "w.json", NON_SLICE_SYM)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_INFEASIBLE
    assert json.loads(stdout)["status"] == "infeasible"
    assert not out.exists()


def test_construct_rejects_nonpositive_delta(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--delta", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_INVALID


def test_construct_trivial_delta_yields_zero_solution(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--delta", "1/1", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["cells"] == [] and doc["copies"] == []
    assert main(["verify", prob, str(out)]) == EXIT_OK
    capsys.readouterr()


def test_construct_budget_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INCLUSIONKIT_MAX_COPIES", "1")
    prob = write_json(tmp_path, "d.json", DIAMOND)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--delta", "1/3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err
    assert not out.exists()


def test_construct_obj_in_three_dimensions_leaves_no_file(tmp_path, capsys):
    prob = write_json(tmp_path, "c.json", CUBE)
    out, obj = tmp_path / "sol.json", tmp_path / "u.obj"
    code = main(["construct", prob, "--delta", "1/2", "--out", str(out), "--obj", str(obj)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "ambient dimension <= 2" in err
    assert not out.exists() and not obj.exists()


def test_construct_with_an_unwritable_out_leaves_no_obj(tmp_path, capsys):
    # The OBJ is written first; when --out then fails, it goes too.
    prob = write_json(tmp_path, "p.json", PLANAR)
    out, obj = tmp_path / "outdir", tmp_path / "u.obj"
    out.mkdir()
    code = main(["construct", prob, "--delta", "1/4", "--obj", str(obj), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "file error" in err
    assert not obj.exists() and list(out.iterdir()) == []


def test_bad_budget_env_is_invalid(tmp_path, capsys, monkeypatch):
    prob = write_json(tmp_path, "p.json", SCALAR)
    out = tmp_path / "sol.json"
    # int() reads the last three as 12; only ASCII digits with an optional sign pass.
    for raw in ("zero", "1_2", " 12 ", "\uff11\uff12"):
        monkeypatch.setenv("INCLUSIONKIT_MAX_COPIES", raw)
        code = main(["construct", prob, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID, raw
        assert "must be an integer" in err
        assert not out.exists()


# 0 lies on the hull's edge from e₁ to −e₁, so 0 is no relative interior
# point of co E, and the verdict carries the separator P = (0, 1).
NOT_INTERIOR = {"operator": "gradient", "m": 1, "n": 2, "E": [["1", "0"], ["0", "1"], ["-1", "0"]]}
NOT_INTERIOR_SHA256 = "b2b01b1781d35ab3dddbb30c908c14f94b42058461ef028a65deaede304a8460"


def test_not_relative_interior_verdict_is_pinned_and_writes_no_file(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", NOT_INTERIOR)
    out = tmp_path / "sol.json"
    for argv in (["check", prob], ["construct", prob, "--out", str(out)]):
        code = main(argv)
        stdout, stderr = capsys.readouterr()
        assert (code, stderr) == (EXIT_INFEASIBLE, ""), argv
        doc = json.loads(stdout)
        assert (doc["reason"], doc["P"]) == ("NotRelativeInterior", ["0", "1"])
        assert hashlib.sha256(stdout.encode()).hexdigest() == NOT_INTERIOR_SHA256
        assert not out.exists()


def test_construct_out_of_scope_writes_no_file(tmp_path, capsys):
    prob = write_json(tmp_path, "b.json", TOO_BIG)
    out = tmp_path / "sol.json"
    code = main(["construct", prob, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert (code, stderr) == (EXIT_OUT_OF_SCOPE, "")
    assert json.loads(stdout) == {"span_dim": 3, "status": "out_of_scope"}
    assert not out.exists()


def test_construct_refusals_have_their_stderr_lines(tmp_path, capsys, monkeypatch):
    # The scale floor (two levels leave 3/8 of the box uncovered), a copy cap
    # of zero and a --delta that is no rational: one line each, no file.
    prob = write_json(tmp_path, "t.json", TRIANGLE)
    out = tmp_path / "sol.json"
    argv = ["construct", prob, "--delta", "1/16", "--out", str(out)]
    monkeypatch.setattr(builder, "MAX_SCALE_LEVELS", 2)
    assert main(argv) == EXIT_BUDGET
    assert capsys.readouterr() == (
        "", "budget exceeded: scale floor reached at uncovered measure 3/8 (bound 1/16)\n"
    )
    monkeypatch.undo()
    monkeypatch.setenv("INCLUSIONKIT_MAX_COPIES", "0")
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "invalid input: INCLUSIONKIT_MAX_COPIES must be positive, got 0\n"
    )
    monkeypatch.delenv("INCLUSIONKIT_MAX_COPIES")
    assert main(["construct", prob, "--delta", "x", "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "invalid input: --delta: not a canonical rational string: 'x'\n"
    )
    assert not out.exists()


# ----------------------------------------------------------------- verify


def test_verify_round_trip(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    out = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["verify", prob, str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["pass"] is True
    assert set(doc["checks"]) == {
        "wellformed", "membership", "continuity", "hadamard",
        "boundary", "coverage", "integral",
    }


def test_verify_catches_corruption(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    out = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["cells"][0]["gradient"] = [["5"]]
    out.write_text(json.dumps(doc))
    code = main(["verify", prob, str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(stdout)
    assert report["pass"] is False
    assert any(not c["pass"] for c in report["checks"].values())


def test_verify_with_tighter_delta_fails(tmp_path, capsys):
    prob = write_json(tmp_path, "d.json", DIAMOND)
    out = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", prob, str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["verify", prob, str(out), "--delta", "1/4"])
    stdout = capsys.readouterr().out
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(stdout)
    assert report["checks"]["coverage"]["pass"] is False


def test_verify_mismatched_problem_fails(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    other = write_json(
        tmp_path, "q.json",
        {"operator": "gradient", "m": 1, "n": 1, "E": [["2"], ["-2"]]},
    )
    out = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["verify", other, str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(stdout)["checks"]["membership"]["pass"] is False


# ----------------------------------------------------------------- export


def test_export_obj_and_csv(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    capsys.readouterr()
    obj = tmp_path / "u.obj"
    csvf = tmp_path / "u.csv"
    code = main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)])
    capsys.readouterr()
    assert code == EXIT_OK
    obj_text = obj.read_text()
    assert any(line.startswith("v ") for line in obj_text.splitlines())
    assert any(line.startswith("f ") for line in obj_text.splitlines())
    header = csvf.read_text().splitlines()[0]
    assert header == "cell,copy,gradient,offset,measure"


def test_export_obj_one_dimensional_uses_lines(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    capsys.readouterr()
    obj = tmp_path / "u.obj"
    assert main(["export", str(sol), "--obj", str(obj)]) == EXIT_OK
    capsys.readouterr()
    # One copy of the hat on [0, 1], two cells: each a segment (x, v(x), 0).
    assert obj.read_text() == (
        "# piecewise-affine graph surface\n"
        "v 0 0 0\n"
        "v 0.5 0.5 0\n"
        "v 0.5 0.5 0\n"
        "v 1 0 0\n"
        "l 1 2\n"
        "l 3 4\n"
    )


def test_export_obj_rejects_a_zero_value_direction(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    doc["b"] = ["0"]
    sol.write_text(json.dumps(doc))
    capsys.readouterr()
    obj = tmp_path / "u.obj"
    code = main(["export", str(sol), "--obj", str(obj)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "nonzero value direction" in err
    assert not obj.exists()


def test_export_requires_a_format_flag(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", SCALAR)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    capsys.readouterr()
    code = main(["export", str(sol)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "invalid input" in err


def test_export_obj_rejects_high_dimension(tmp_path, capsys):
    prob = write_json(tmp_path, "c.json", CUBE)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/2", "--out", str(sol)]) == EXIT_OK
    capsys.readouterr()
    obj = tmp_path / "u.obj"
    code = main(["export", str(sol), "--obj", str(obj)])
    capsys.readouterr()
    assert code == EXIT_INVALID
    csvf = tmp_path / "u.csv"
    assert main(["export", str(sol), "--csv", str(csvf)]) == EXIT_OK
    capsys.readouterr()
    assert csvf.exists()


def test_export_is_byte_deterministic(tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", PLANAR)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    capsys.readouterr()
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    assert main(["export", str(sol), "--obj", str(a)]) == EXIT_OK
    assert main(["export", str(sol), "--obj", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def reference_exports(text: str) -> tuple[str, str]:
    """OBJ and CSV text of a solution file with n ≤ 2, with ``faces`` and
    ``extent`` run on every cell itself, each height a ``Fraction`` and each
    number written by ``float``: the writers' per-cell reference."""
    pw = load_solution(text)
    bb = dot(pw.b, pw.b)
    lines, elements, offset = ["# piecewise-affine graph surface"], [], 0
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["cell", "copy", "gradient", "offset", "measure"])
    for i, cell in enumerate(pw.cells):
        points, facets = faces(cell.polytope)
        verts = rational_points(points)
        g, o = affine(cell)
        for v in verts:
            h = dot(matvec(g, v) + o, pw.b) / bb
            coords = [*v, h] + [Fraction(0)] * (2 - pw.ambient)
            lines.append("v " + " ".join(format(float(x), ".17g") for x in coords))
        for simplex in triangulate(points, facets):
            kind = "l" if len(simplex) == 2 else "f"
            elements.append(" ".join([kind] + [str(offset + k + 1) for k in simplex]))
        offset += len(verts)
        gradient, value = [vec_to_json(r) for r in mat_rows(g)], vec_to_json(o)
        measure = str(extent(cell.polytope)[1])
        writer.writerow([i, cell.copy, json.dumps(gradient), json.dumps(value), measure])
    return "\n".join(lines + elements) + "\n", rows.getvalue()


def counting(monkeypatch, name: str) -> list:
    """The argument tuples of every later call of ``geometry.<name>``."""
    calls, real = [], getattr(geometry, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, name, counted)
    return calls


def test_export_enumerates_each_cell_shape_once(tmp_path, capsys, monkeypatch):
    prob = write_json(tmp_path, "p.json", TRIANGLE)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/6", "--out", str(sol)]) == EXIT_OK
    assert len(json.loads(sol.read_text())["cells"]) == 111
    calls = counting(monkeypatch, "faces")
    triangulations = counting(monkeypatch, "triangulate")
    obj, csvf = tmp_path / "u.obj", tmp_path / "u.csv"
    assert main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)]) == EXIT_OK
    capsys.readouterr()
    # 37 copies of the 3 pyramid cells: one enumeration and one
    # triangulation per pulled-back shape, where triangulating each cell
    # again in the OBJ writer made 114 triangulations.
    assert len(calls) == 3 and len(triangulations) == 3
    expected_obj, expected_csv = reference_exports(sol.read_text())
    assert obj.read_bytes() == expected_obj.encode()
    assert csvf.read_bytes() == expected_csv.encode()


def test_export_of_a_cell_that_is_no_copy_image_matches_the_per_cell_writers(
    tmp_path, capsys, monkeypatch
):
    prob = write_json(tmp_path, "p.json", TRIANGLE)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    # Pull the outer row of one cell inwards by a quarter of its copy's
    # scale: a smaller triangle, no longer an image of a base cell.
    cell = doc["cells"][4]
    scale = Fraction(doc["copies"][cell["copy"]]["scale"])
    offsets = cell["region"]["halfspaces"]["offsets"]
    offsets[-1] = str(Fraction(offsets[-1]) - scale / 4)
    sol.write_text(json.dumps(doc))
    calls = counting(monkeypatch, "faces")
    obj, csvf = tmp_path / "u.obj", tmp_path / "u.csv"
    assert main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 4
    expected_obj, expected_csv = reference_exports(sol.read_text())
    assert obj.read_bytes() == expected_obj.encode()
    assert csvf.read_bytes() == expected_csv.encode()


def wide(rng: random.Random, positive: bool = False) -> Fraction:
    """A rational with 20-bit numerator and denominator."""
    sign = 1 if positive else rng.choice((-1, 1))
    return Fraction(sign * rng.randint(1, 2**20), rng.randint(1, 2**20))


def widen(doc: dict, rng: random.Random) -> None:
    """Give a solution document 20-bit entries in b, every gradient and
    value offset, and every copy's center and scale.  Each cell moves with
    its copy, x ↦ c′ + (s′/s)·(x − c), so it stays the image of the same
    base cell."""
    doc["b"] = [str(wide(rng)) for _ in doc["b"]]
    moves = []
    for copy in doc["copies"]:
        center = [Fraction(x) for x in copy["center"]]
        scale, moved = wide(rng, positive=True), [wide(rng) for _ in center]
        moves.append((center, scale / Fraction(copy["scale"]), moved))
        copy["center"], copy["scale"] = [str(x) for x in moved], str(scale)
    for cell in doc["cells"]:
        center, ratio, moved = moves[cell["copy"]]
        region = cell["region"]["halfspaces"]
        region["offsets"] = [
            str(ratio * (Fraction(c) - sum(Fraction(a) * x for a, x in zip(normal, center)))
                + sum(Fraction(a) * x for a, x in zip(normal, moved)))
            for normal, c in zip(region["normals"], region["offsets"])
        ]
        cell["gradient"] = [[str(wide(rng)) for _ in row] for row in cell["gradient"]]
        cell["offset"] = [str(wide(rng)) for _ in cell["offset"]]


@pytest.mark.parametrize("problem, delta", [(TRIANGLE, "1/5"), (SCALAR, "1/16")])
def test_export_of_wide_rationals_matches_the_float_reference(problem, delta, tmp_path, capsys):
    prob = write_json(tmp_path, "p.json", problem)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", delta, "--out", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    widen(doc, random.Random(len(doc["cells"])))
    # One cell no longer the image of a base cell: a memo miss.
    offsets = doc["cells"][1]["region"]["halfspaces"]["offsets"]
    offsets[0] = str(Fraction(offsets[0]) + Fraction(1, 2**20 + 7))
    sol.write_text(json.dumps(doc))
    obj, csvf = tmp_path / "u.obj", tmp_path / "u.csv"
    assert main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)]) == EXIT_OK
    capsys.readouterr()
    expected_obj, expected_csv = reference_exports(sol.read_text())
    assert obj.read_bytes() == expected_obj.encode()
    assert csvf.read_bytes() == expected_csv.encode()
    assert max(len(line) for line in expected_obj.splitlines()) > 40


def test_export_of_a_cell_with_a_zero_row_matches_the_per_cell_writers(tmp_path, capsys):
    # 0·x ≤ 0 is tight at every vertex, so that cell has no facets: its
    # vertices are written, but no face, and its measure is 0; 0·x ≤ 1
    # changes nothing.  Neither row may divide by a zero gcd.
    prob = write_json(tmp_path, "p.json", TRIANGLE)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    for k, c in ((2, "0"), (7, "1")):
        region = doc["cells"][k]["region"]["halfspaces"]
        region["normals"].append(["0", "0"])
        region["offsets"].append(c)
    sol.write_text(json.dumps(doc))
    obj, csvf = tmp_path / "u.obj", tmp_path / "u.csv"
    assert main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)]) == EXIT_OK
    capsys.readouterr()
    expected_obj, expected_csv = reference_exports(sol.read_text())
    assert obj.read_bytes() == expected_obj.encode()
    assert csvf.read_bytes() == expected_csv.encode()
    assert expected_csv.splitlines()[3].endswith(",0")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_section(heading: str) -> str:
    """The README text from ``heading``'s line to the next heading."""
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    return README[start:].split("\n#", 1)[0]


# The codes of the README's exit-code table, one per "| code | meaning |" row.
README_EXIT_CODES = {
    int(code) for code in re.findall(r"^\| (\d+) +\|", readme_section("### Exit codes"), re.M)
}


def test_readme_exit_code_table_lists_the_cli_codes():
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert README_EXIT_CODES == codes and len(codes) == 6


def test_readme_library_example_runs_and_its_claims_hold():
    # Run the README's Library block, then evaluate each claim it makes in a
    # trailing comment (``verdict.status == "feasible"``, ``report.passed is
    # True``) in the namespace the block left behind.
    block = readme_section("## Library").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    claims = re.findall(r"# (.+)$", block, re.M)
    assert claims == ['verdict.status == "feasible"', "report.passed is True"]
    for claim in claims:
        assert eval(claim, namespace) is True, claim


def _cell_rows(doc: dict) -> dict:
    """The halfspaces of cell 4 of the 27-cell triangle file, on copy 1."""
    return doc["cells"][4]["region"]["halfspaces"]


def _set_cell_rows(normals: list, offsets: list):
    return lambda doc: _cell_rows(doc).update(normals=normals, offsets=offsets)


def _times_10_400(doc: dict) -> None:
    rows = _cell_rows(doc)
    rows["offsets"] = [str(Fraction(c) * 10**400) for c in rows["offsets"]]


def _zero_row(doc: dict) -> None:
    rows = _cell_rows(doc)
    rows["normals"].append(["0", "0"])
    rows["offsets"].append("0")


def _no_outer_row(doc: dict) -> None:
    rows = _cell_rows(doc)
    rows["normals"].pop()
    rows["offsets"].pop()


UNIT_NORMALS = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
# name -> (change to the triangle file, verify exit code, export exit code).
# A copy scaled up still holds its cells and their values are unchanged, so
# that file still verifies.
HOSTILE_VARIANTS = {
    "400-digit offsets": (_times_10_400, EXIT_VERIFY_FAILED, EXIT_INVALID),
    "copy scale 10^400": (
        lambda doc: doc["copies"][1].update(scale=str(10**400)), EXIT_OK, EXIT_OK
    ),
    "zero row": (_zero_row, EXIT_VERIFY_FAILED, EXIT_OK),
    "unbounded cell": (_no_outer_row, EXIT_VERIFY_FAILED, EXIT_OK),
    "empty cell": (
        _set_cell_rows(UNIT_NORMALS, ["0", "-1", "1", "0"]), EXIT_VERIFY_FAILED, EXIT_OK
    ),
    "segment cell": (
        _set_cell_rows(UNIT_NORMALS, ["1", "0", "0", "0"]), EXIT_VERIFY_FAILED, EXIT_OK
    ),
    "b = 0": (lambda doc: doc.update(b=["0", "0"]), EXIT_OK, EXIT_INVALID),
}


@pytest.mark.parametrize("name", HOSTILE_VARIANTS)
def test_hostile_solution_files_end_in_a_documented_exit_code(name, tmp_path, capsys):
    # Each variant of the 27-cell triangle file goes through verify and
    # through export; neither may raise, and a refused export writes no file.
    change, verify_code, export_code = HOSTILE_VARIANTS[name]
    prob = write_json(tmp_path, "p.json", TRIANGLE)
    sol = tmp_path / "sol.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    assert len(doc["cells"]) == 27 and doc["cells"][4]["copy"] == 1
    change(doc)
    sol.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", prob, str(sol)]) == verify_code
    capsys.readouterr()
    obj, csvf = tmp_path / "u.obj", tmp_path / "u.csv"
    code = main(["export", str(sol), "--obj", str(obj), "--csv", str(csvf)])
    err = capsys.readouterr().err
    assert {verify_code, code} <= README_EXIT_CODES
    assert code == export_code
    if code == EXIT_INVALID:
        assert err.startswith("invalid input: ") and err.count("\n") == 1
        assert not obj.exists() and not csvf.exists()


# The stderr prefixes that the README's exit-code section documents.
STDERR_PREFIXES = ("schema error at ", "invalid input: ", "file error: ", "budget exceeded: ")
# Stands in for a 5,000-digit JSON number, which json.dumps cannot write.
HUGE_LITERAL = "<5000 digits>"
# Values that no rational, integer, array or object slot accepts.
HOSTILE_VALUES = [
    "1/0", "0.5", " 1", "+1", "1_0", "١", "2/-4", HUGE_LITERAL, 0.5, True, None, [], {},
]


def _nodes(value, path=()):
    """Every (path, value) of a JSON document, each container before its items."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if (
        isinstance(value, list)
    ) else ()
    for key, item in items:
        yield from _nodes(item, (*path, key))


def decoder_mutants(doc: dict, rng: random.Random) -> list[tuple]:
    """Each hostile value at four leaves, eight deleted keys and eight duplicated
    rows (an array's array or object item), as (kind, path, value)."""
    nodes = list(_nodes(doc))
    leaves = [p for p, v in nodes if not isinstance(v, (dict, list))]
    keys = [(*p, k) for p, v in nodes if isinstance(v, dict) for k in v]
    rows = [p for p, v in nodes if p and isinstance(p[-1], int) and isinstance(v, (dict, list))]
    out = [("replace", p, v) for v in HOSTILE_VALUES for p in rng.sample(leaves, 4)]
    out += [("delete", p, None) for p in rng.sample(keys, min(8, len(keys)))]
    out += [("duplicate", p, None) for p in rng.sample(rows, min(8, len(rows)))]
    return out


def mutated_text(doc: dict, mutant: tuple) -> str:
    kind, (*head, last), value = mutant
    new = json.loads(json.dumps(doc))
    target = new
    for key in head:
        target = target[key]
    if kind == "replace":
        target[last] = value
    elif kind == "delete":
        del target[last]
    else:
        target.insert(last, target[last])
    return json.dumps(new).replace(json.dumps(HUGE_LITERAL), "1" + "0" * 4999)


def pinned_mutants(tmp_path) -> tuple[str, Path, list[tuple[str, str, tuple]]]:
    """The triangle's problem file, its δ = 1/4 solution file, and the seeded
    mutants of the triangle and cube problems and of that solution, in one
    seeded order, as (name, mutated text, mutant)."""
    prob = write_json(tmp_path, "triangle.json", TRIANGLE)
    sol = tmp_path / "solution.json"
    assert main(["construct", prob, "--delta", "1/4", "--out", str(sol)]) == EXIT_OK
    solution = json.loads(sol.read_text())
    rng = random.Random(32)
    mutants = [
        (name, mutated_text(doc, mutant), mutant)
        for name, doc in (("triangle", TRIANGLE), ("cube", CUBE), ("solution", solution))
        for mutant in decoder_mutants(doc, rng)
    ]
    return prob, sol, mutants


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this Python parses a 5000-digit integer literal",
)
def test_decoder_failures_are_pinned(tmp_path, capsys):
    """Seeded mutants of the triangle and cube problems and of the δ = 1/4
    triangle solution, each through check and verify in-process: every exit
    code is documented, every error is one documented stderr line, and the
    (exit code, stdout, stderr) triples keep one digest, recorded before the
    decoder parsed rationals into integers.  verify accepts a mutant only as
    a respelling: it decodes to the honest problem, or to the honest solution
    up to the copy records, which decide no verdict."""
    section = readme_section("### Exit codes")
    assert all(f"`{prefix}`" in section for prefix in STDERR_PREFIXES)
    prob, sol, mutants = pinned_mutants(tmp_path)
    honest_problem = load_problem(Path(prob).read_text())
    honest = load_solution(sol.read_text())
    bad = tmp_path / "bad.json"
    digest = hashlib.sha256()
    runs = respellings = 0
    for name, text, mutant in mutants:
        bad.write_text(text)
        if name == "solution":
            commands = [["verify", prob, str(bad)]]
        else:
            commands = [["check", str(bad)], ["verify", str(bad), str(sol)]]
        for argv in commands:
            code = main(argv)
            out, err = capsys.readouterr()
            case = (name, *mutant[:2], argv[0])
            assert code in README_EXIT_CODES, case
            assert "Traceback" not in err, case
            if code in (EXIT_INVALID, EXIT_BUDGET):
                assert err.startswith(STDERR_PREFIXES) and err.count("\n") == 1, case
            else:
                assert err == "", case
            # CPython words its own digit-limit message differently across releases.
            err = re.sub(r"Exceeds the limit .*", "Exceeds the limit", err)
            digest.update(json.dumps([code, out, err]).encode() + b"\n")
            runs += 1
            if argv[0] == "verify" and code == EXIT_OK:
                if name == "solution":
                    decoded = dataclasses.replace(load_solution(text), copies=honest.copies)
                    assert decoded == honest, case
                else:
                    assert load_problem(text) == honest_problem, case
                respellings += 1
    assert runs == 310
    # Each is the triangle with an E row duplicated, which the loader drops.
    assert respellings == 3
    assert digest.hexdigest() == (
        "dab1488a9fa10d58706d3d423cbd9a1cb0ed209b8babb363f7ca92c058e2cc7b"
    )


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this Python parses a 5000-digit integer literal",
)
def test_export_of_solution_mutants_is_pinned(tmp_path, capsys):
    """The solution mutants of ``test_decoder_failures_are_pinned``, each
    through ``export --csv`` in-process: every exit code is documented, every
    error is one documented stderr line, a refused export writes no file, and
    the (exit code, stderr, CSV bytes) of all of them keep one digest,
    recorded while a cell's map was still decoded into rationals."""
    _, _, mutants = pinned_mutants(tmp_path)
    bad, table = tmp_path / "bad.json", tmp_path / "cells.csv"
    digest = hashlib.sha256()
    runs = 0
    for name, text, mutant in mutants:
        if name != "solution":
            continue
        bad.write_text(text)
        code = main(["export", str(bad), "--csv", str(table)])
        out, err = capsys.readouterr()
        case = mutant[:2]
        assert code in README_EXIT_CODES and out == "", case
        assert "Traceback" not in err, case
        if code == EXIT_OK:
            assert err == "", case
            written = table.read_bytes()
            table.unlink()
        else:
            assert err.startswith(STDERR_PREFIXES) and err.count("\n") == 1, case
            assert not table.exists(), case
            written = b""
        err = re.sub(r"Exceeds the limit .*", "Exceeds the limit", err)
        digest.update(json.dumps([code, err]).encode() + b"\n" + written)
        runs += 1
    assert runs == 68
    assert digest.hexdigest() == (
        "09d713a80243cfe1acba031d73ba0a530a8bf0c0ceeb2bab7614d288c2ecc084"
    )


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this Python parses a 5000-digit integer literal",
)
def test_construct_of_problem_mutants_is_pinned(tmp_path, capsys, monkeypatch):
    """The triangle and cube problem mutants of ``test_decoder_failures_are_pinned``,
    each through ``construct --delta 1/4`` in-process under a 64-copy cap: every
    exit code is documented, exit 2 or 20 prints one documented stderr line and
    any other exit prints none, a refused construct writes no file, and the
    (exit code, stdout, stderr, solution bytes) of all of them keep one digest,
    recorded while the decoder still built a Fraction per distinct pair."""
    _, _, mutants = pinned_mutants(tmp_path)
    monkeypatch.setenv("INCLUSIONKIT_MAX_COPIES", "64")
    bad, solution = tmp_path / "bad.json", tmp_path / "out.json"
    digest = hashlib.sha256()
    runs = 0
    for name, text, mutant in mutants:
        if name == "solution":
            continue
        bad.write_text(text)
        code = main(["construct", str(bad), "--delta", "1/4", "--out", str(solution)])
        out, err = capsys.readouterr()
        case = (name, *mutant[:2])
        assert code in README_EXIT_CODES, case
        assert "Traceback" not in err, case
        if code in (EXIT_INVALID, EXIT_BUDGET):
            assert err.startswith(STDERR_PREFIXES) and err.count("\n") == 1, case
        else:
            assert err == "", case
        if code == EXIT_OK:
            written = solution.read_bytes()
            solution.unlink()
        else:
            assert not solution.exists(), case
            written = b""
        err = re.sub(r"Exceeds the limit .*", "Exceeds the limit", err)
        digest.update(json.dumps([code, out, err]).encode() + b"\n" + written)
        runs += 1
    assert runs == 121
    assert digest.hexdigest() == (
        "138a4fce9ada10cd1e27fbab2f35545a19a7b2b37eeb6a8ef8a2b9cea089f95e"
    )


def test_fmt_float_matches_float_of_a_fraction():
    rng = random.Random(11)
    cases = [
        (6, 4), (-6, 4), (0, 5), (10**20, 10**20 * 3), (2**53 + 1, 1), (-(2**60) - 12345, 7),
        (3 * 2**70, 2**17), (1, 2**1074), (3, 2**1075), (1, 3 * 2**1070), (-7, 2**1080),
        (10**400, 3 * 10**399), (2**1023 * 3, 2),
    ]
    # Unreduced ratios between about 2^-1150 and 2^1000.
    for _ in range(300):
        bits = rng.randint(1, 1200)
        num = rng.choice((-1, 1)) * rng.getrandbits(bits) * rng.randint(1, 9)
        cases.append((num, rng.getrandbits(rng.randint(max(1, bits - 1000), bits + 1150)) + 1))
    for num, den in cases:
        assert _fmt_float(num, den) == format(float(Fraction(num, den)), ".17g"), (num, den)
    for num, den in ((10**400, 1), (-(2**1024), 1)):
        with pytest.raises(OverflowError):
            float(Fraction(num, den))
        with pytest.raises(OverflowError):
            _fmt_float(num, den)
