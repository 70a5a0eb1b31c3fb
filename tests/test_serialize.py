"""JSON schemas: canonical output, round trips, and rejection paths."""

from __future__ import annotations

import json
from fractions import Fraction as QQ

import pytest

from inclusionkit.builder import assemble_solution
from inclusionkit.errors import SchemaError
from inclusionkit.feasibility import InclusionProblem, decide
from inclusionkit.geometry import Polytope
from inclusionkit.linalg import mat, vec
from inclusionkit.serialize import (
    canonical_dumps,
    decode_polytope,
    decode_problem,
    decode_solution,
    encode_polytope,
    encode_problem,
    encode_report,
    encode_solution,
    encode_verdict,
    load_problem,
    load_solution,
    rat_from_json,
    vec_from_json,
)
from inclusionkit.verify import verify_solution


def scalar_problem_json():
    return {"operator": "gradient", "m": 1, "n": 1, "E": [["1"], ["-1"]]}


def pointer_of(exc_info):
    return exc_info.value.pointer


# ------------------------------------------------------------- primitives


def test_rational_parsing():
    assert rat_from_json("1/2", "/x") == QQ(1, 2)
    assert rat_from_json("-3", "/x") == QQ(-3)
    assert rat_from_json(5, "/x") == QQ(5)


def test_vector_rejections_point_at_the_entry():
    assert vec_from_json(["1/2", 3, "-4"], "/v") == vec("1/2", 3, -4)
    for items, i, message in (
        (["1", 0.5], 1, "floats are rejected"),
        ([True, "1"], 0, "booleans are not rationals"),
        (["1", "2", "1/0"], 2, "zero denominator"),
        (["1.5"], 0, "not a canonical rational string"),
        (["1", [1]], 1, "expected a rational, got list"),
    ):
        with pytest.raises(SchemaError) as e:
            vec_from_json(items, "/v")
        assert pointer_of(e) == f"/v/{i}" and message in e.value.message


def test_rational_rejects_floats_and_bools():
    with pytest.raises(SchemaError) as e:
        rat_from_json(0.5, "/a/b")
    assert pointer_of(e) == "/a/b"
    assert "floats are rejected" in e.value.message
    with pytest.raises(SchemaError) as e:
        rat_from_json(True, "/c")
    assert pointer_of(e) == "/c"
    with pytest.raises(SchemaError):
        rat_from_json("1/0", "/d")
    with pytest.raises(SchemaError):
        rat_from_json("x", "/e")


def test_canonical_dumps_is_sorted_and_newline_terminated():
    s = canonical_dumps({"b": 1, "a": 2})
    assert s == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert canonical_dumps({"a": 2, "b": 1}) == s


def test_fractions_render_reduced():
    p = InclusionProblem.gradient([mat([[QQ(2, 4)]]), mat([[-1]])])
    doc = encode_problem(p)
    assert doc["E"][0] == ["1/2"]


# ---------------------------------------------------------------- problem


def test_problem_round_trip():
    doc = scalar_problem_json()
    p = decode_problem(doc)
    assert encode_problem(p)["E"] == [["1"], ["-1"]]
    q = decode_problem(encode_problem(p))
    assert q == p


def test_problem_round_trip_with_domain():
    doc = {
        "operator": "gradient",
        "m": 1,
        "n": 2,
        "E": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
        "domain": {"box": {"low": ["0", "0"], "high": ["2", "1"]}},
    }
    p = decode_problem(doc)
    assert p.domain == Polytope.box(vec(0, 0), vec(2, 1))
    assert p.domain.corners == (vec(0, 0), vec(2, 1))
    assert decode_problem(encode_problem(p)) == p


def test_symmetrized_m_defaults_to_n():
    doc = {
        "operator": "symmetrized",
        "n": 2,
        "E": [
            ["2", "0", "0", "0"], ["-2", "0", "0", "0"],
            ["0", "1", "1", "0"], ["0", "-1", "-1", "0"],
        ],
    }
    p = decode_problem(doc)
    assert p.m == 2 and p.n == 2


def test_problem_rejections_carry_pointers():
    with pytest.raises(SchemaError) as e:
        decode_problem({"operator": "gradient", "m": 1, "n": 1, "E": [["1"], [0.5]]})
    assert pointer_of(e) == "/E/1/0"
    with pytest.raises(SchemaError) as e:
        decode_problem({"operator": "gradient", "m": 1, "n": 1, "E": [["1"], ["-1\n"]]})
    assert pointer_of(e) == "/E/1/0"
    with pytest.raises(SchemaError) as e:
        decode_problem({"operator": "laplacian", "m": 1, "n": 1, "E": [["1"]]})
    assert pointer_of(e) == "/operator"
    with pytest.raises(SchemaError) as e:
        decode_problem({"operator": "gradient", "m": 1, "E": [["1"]]})
    assert pointer_of(e) == "/n"
    with pytest.raises(SchemaError) as e:
        decode_problem({"operator": "gradient", "m": 1, "n": 1})
    assert pointer_of(e) == "/E"
    with pytest.raises(SchemaError) as e:
        decode_problem(
            {"operator": "gradient", "m": 1, "n": 2, "E": [["1", "0"], ["1"]]}
        )
    assert pointer_of(e) == "/E/1"
    with pytest.raises(SchemaError) as e:
        decode_problem({**scalar_problem_json(), "extra": 1})
    assert pointer_of(e) == "/extra"
    with pytest.raises(SchemaError) as e:
        decode_problem(
            {**scalar_problem_json(), "domain": {"box": {"low": ["0"]}}}
        )
    assert pointer_of(e).startswith("/domain")


def test_symmetrized_m_must_match_n():
    doc = {
        "operator": "symmetrized",
        "m": 3,
        "n": 2,
        "E": [["2", "0", "0", "0"]],
    }
    with pytest.raises(SchemaError) as e:
        decode_problem(doc)
    assert pointer_of(e) == "/m"


def test_load_problem_rejects_bad_json():
    with pytest.raises(SchemaError) as e:
        load_problem("{not json")
    assert "not valid JSON" in e.value.message
    p = load_problem(json.dumps(scalar_problem_json()))
    assert p.m == 1


# --------------------------------------------------------------- polytope


def test_polytope_round_trips():
    box = Polytope.box(vec(0, 0), vec(1, 2))
    assert decode_polytope(encode_polytope(box), "/domain", 2) == box
    encoded = encode_polytope(decode_polytope(encode_polytope(box), "/domain", 2))
    assert encoded == {"box": {"low": ["0", "0"], "high": ["1", "2"]}}
    hs = Polytope.halfspaces([vec(1, 1), vec(-1, -1)], [QQ(1), QQ(1)])
    assert decode_polytope(encode_polytope(hs), "/domain", 2) == hs


def test_polytope_rejections():
    with pytest.raises(SchemaError) as e:
        decode_polytope({"box": {"low": ["0"], "high": ["1"]}, "x": 1}, "/d", 1)
    assert pointer_of(e) == "/d"
    with pytest.raises(SchemaError) as e:
        decode_polytope({"box": {"low": ["0", "0"], "high": ["1"]}}, "/d", 2)
    assert pointer_of(e) == "/d/box/high"
    with pytest.raises(SchemaError) as e:
        decode_polytope({"halfspaces": {"normals": [["1"]]}}, "/d", 1)
    assert pointer_of(e) == "/d/halfspaces"
    with pytest.raises(SchemaError) as e:
        short = {"normals": [["1", "0"], ["1"]], "offsets": ["1", "1"]}
        decode_polytope({"halfspaces": short}, "/d", 2)
    assert pointer_of(e) == "/d/halfspaces/normals/1"
    with pytest.raises(SchemaError):
        decode_polytope({"sphere": {}}, "/d", 1)


# ---------------------------------------------------------------- verdict


def test_verdict_encoding_feasible():
    p = decode_problem(scalar_problem_json())
    v = decide(p)
    doc = encode_verdict(v)
    assert doc["status"] == "feasible"
    assert doc["b"] == ["1"]
    assert doc["F"] == [["1"], ["-1"]]
    assert doc["weights"] == ["1/2", "1/2"]
    assert "reason" not in doc and "P" not in doc


def test_verdict_encoding_infeasible():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    p = InclusionProblem.gradient([e11, e22, -e11 - e22])
    doc = encode_verdict(decide(p))
    assert doc["status"] == "infeasible"
    assert doc["reason"] == "SpanNotRankOne"
    assert "b" not in doc and "F" not in doc


# --------------------------------------------------------------- solution


def build_planar_solution():
    rows = [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]
    p = InclusionProblem.gradient([mat(r) for r in rows])
    v = decide(p)
    return p, assemble_solution(v, p.domain, QQ(1, 4), p.operator)


def test_solution_round_trip_verifies():
    p, pw = build_planar_solution()
    doc = encode_solution(pw)
    back = decode_solution(doc)
    assert back == pw
    report = verify_solution(p, back)
    assert report.passed


def test_solution_canonical_bytes_are_stable():
    _, pw = build_planar_solution()
    assert canonical_dumps(encode_solution(pw)) == canonical_dumps(encode_solution(pw))


def test_load_solution_round_trip():
    _, pw = build_planar_solution()
    text = canonical_dumps(encode_solution(pw))
    assert load_solution(text) == pw


def test_solution_rejections():
    _, pw = build_planar_solution()
    doc = encode_solution(pw)

    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["copy"] = len(bad["copies"])
    with pytest.raises(SchemaError) as e:
        decode_solution(bad)
    assert pointer_of(e) == "/cells/0/copy"

    bad = json.loads(json.dumps(doc))
    bad["copies"][0]["scale"] = "0"
    with pytest.raises(SchemaError) as e:
        decode_solution(bad)
    assert pointer_of(e) == "/copies/0/scale"

    bad = json.loads(json.dumps(doc))
    del bad["delta"]
    with pytest.raises(SchemaError) as e:
        decode_solution(bad)
    assert pointer_of(e) == "/delta"

    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["gradient"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(SchemaError) as e:
        decode_solution(bad)
    assert pointer_of(e).startswith("/cells/0/gradient")

    for key in ("ambient", "value_dim"):
        bad = json.loads(json.dumps(doc))
        bad[key] = 0
        with pytest.raises(SchemaError) as e:
            decode_solution(bad)
        assert pointer_of(e) == f"/{key}"

    bad = json.loads(json.dumps(doc))
    bad["mystery"] = True
    with pytest.raises(SchemaError) as e:
        decode_solution(bad)
    assert pointer_of(e) == "/mystery"


# ----------------------------------------------------------------- report


def test_report_encoding_shape():
    p, pw = build_planar_solution()
    report = verify_solution(p, pw)
    doc = encode_report(report)
    assert doc["pass"] is True
    assert set(doc["checks"]) == {
        "wellformed", "membership", "continuity", "hadamard",
        "boundary", "coverage", "integral",
    }
    for entry in doc["checks"].values():
        assert entry["pass"] is True and entry["failures"] == []
    assert doc["covered"] == "1"
    assert doc["omega_measure"] == "1"
    json.dumps(doc)
