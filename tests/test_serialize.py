"""JSON schemas: canonical output, round trips, and rejection paths."""

from __future__ import annotations

import json
import random
from fractions import Fraction as QQ
from functools import partial
from math import gcd

import pytest

from inclusionkit import geometry, linalg, serialize
from inclusionkit.builder import assemble_solution
from inclusionkit.errors import SchemaError
from inclusionkit.feasibility import InclusionProblem, decide
from inclusionkit.geometry import Polytope, integer_points
from inclusionkit.linalg import Mat, _integer_rows, mat, rat, vec
from inclusionkit.serialize import (
    canonical_dumps,
    decode_polytope,
    decode_problem,
    decode_solution,
    encode_polytope,
    encode_report,
    encode_solution,
    encode_verdict,
    load_problem,
    load_solution,
    map_to_json,
    rat_from_json,
    vec_from_json,
)
from inclusionkit.verify import verify_solution

from test_feasibility import matrices


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


def reference_dumps(obj) -> str:
    """The canonical bytes as json's own encoder writes them."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Strings json escapes: empty, non-ASCII (a lone surrogate and one outside
# the BMP too), control characters, the quote and the backslash.
AWKWARD = ["", "a", "é", "日本", "\ud800", "😀", "\x00", "\x1f\x7f", "\n\t\r", '"', "\\", "a\"b\\c"]


def random_json(rng: random.Random, depth: int):
    """A JSON tree of dicts, lists, strings, ints (up to 300 digits), booleans
    and null, with empty and all-string containers among them."""
    kind = rng.randrange(10 if depth else 5)
    if kind == 0:
        return rng.choice(AWKWARD) + rng.choice(AWKWARD)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.choice((0, 7, 10**20, 10**299 + rng.randrange(10**6)))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return str(QQ(rng.randint(-9, 9), rng.randint(1, 9)))
    if kind in (5, 6):
        return [random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 7:
        return [rng.choice(AWKWARD) for _ in range(rng.randint(0, 4))]
    return {
        rng.choice(AWKWARD) + str(i): random_json(rng, depth - 1)
        for i in range(rng.randint(0, 4))
    }


def test_canonical_dumps_is_sorted_and_newline_terminated():
    s = canonical_dumps({"b": 1, "a": 2})
    assert s == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert canonical_dumps({"a": 2, "b": 1}) == s
    # The writer is json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for
    # byte: on seeded trees, on leaves, and on every object the CLI writes.
    rng = random.Random(32)
    trees = [random_json(rng, 4) for _ in range(400)]
    trees += [[], {}, "", 0, True, False, None, ["a", 1], [1, "a"], {"k": []}, [[]], -(10**300)]
    e11, e22 = mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])
    p, pw = build_planar_solution()
    trees += [
        encode_verdict(decide(decode_problem(scalar_problem_json()))),
        encode_verdict(decide(InclusionProblem.gradient([e11, e22, -e11 - e22]))),
        encode_solution(pw),
        encode_report(verify_solution(p, pw)),
        json.loads(triangle_solution_text(QQ(1, 4))),
    ]
    for obj in trees:
        assert canonical_dumps(obj) == reference_dumps(obj), obj
    for bad in (0.5, [1, 0.5], {"a": ["1", 0.5]}, ["1", float("nan")]):
        with pytest.raises(TypeError):
            canonical_dumps(bad)


def test_fractions_render_reduced():
    # x over l in lowest terms, "/q" omitted when q = 1, as str(Fraction) writes it.
    for (x, l), text in (((1, 2), "1/2"), ((4, 2), "2"), ((-3, 9), "-1/3"), ((0, 1), "0")):
        assert serialize._ratio(x, l) == str(QQ(x, l)) == text
    # Each entry of [G | o] over m in lowest terms.
    assert map_to_json((((2, -12, 4), (0, 3, -6)), 4)) == {
        "gradient": [["1/2", "-3"], ["0", "3/4"]], "offset": ["1", "-3/2"]
    }


# ---------------------------------------------------------------- problem


def test_problem_round_trip():
    doc = scalar_problem_json()
    p = decode_problem(doc)
    assert p == InclusionProblem.gradient([mat([[1]]), mat([[-1]])])
    assert decode_problem({**doc, "E": [["2/2"], [-1]]}) == p


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
    assert p == InclusionProblem.gradient([mat([r]) for r in doc["E"]], p.domain)


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


# --------------------------------------------- one parse per string, rows out


def triangle_solution_text(delta: QQ) -> str:
    """The README triangle (b = (1, 2), F = e₁, e₂, −e₁−e₂) on the unit box."""
    p = decode_problem(
        {
            "operator": "gradient", "m": 2, "n": 2,
            "E": [["1", "0", "2", "0"], ["0", "1", "0", "2"], ["-1", "-1", "-2", "-2"]],
        }
    )
    pw = assemble_solution(decide(p), p.domain, delta, p.operator)
    return canonical_dumps(encode_solution(pw))


def reference_rows(rows) -> tuple[tuple, tuple]:
    """Rows of rationals as ``_integer_rows`` clears them after ``rat`` parses
    each entry: the integer rows (as tuples) and their lcms."""
    ints, lcms = _integer_rows([[rat(x) for x in row] for row in rows])
    return tuple(map(tuple, ints)), tuple(lcms)


def reference_problem_rows(entries) -> tuple[tuple, tuple]:
    """E's reference rows and lcms at each matrix's first occurrence."""
    seen = dict.fromkeys(zip(*reference_rows(entries)))
    return tuple(r for r, _ in seen), tuple(f for _, f in seen)


def spelled(rng: random.Random, x: QQ, ints: bool = True):
    """x written one of several ways: reduced, over a multiple, zero-padded,
    with a 20-bit or 200-bit factor, or as a JSON int when it is one and
    ``ints`` allows it."""
    k = rng.choice((1, 2, 3, 2**20 + 7, 2**200 + 1))
    p, q = x.numerator * k, x.denominator * k
    kind = rng.randrange(4)
    if kind == 0 and q == 1:
        return p if ints else str(p)
    if kind == 1:
        return str(x)
    if kind == 2:
        return ("-" if p < 0 else "") + f"00{abs(p)}/0{q}"
    return f"{p}/{q}"


def test_mixed_spellings_decode_as_before(monkeypatch):
    """"1", 1 and "2/4", "1/2" share values but not keys: only plain strings
    are looked up, so true and 1.0 stay rejected after "1" was parsed."""
    memo: dict = {}
    mixed = ["1", 1, "2/4", "1/2", "1", "007", "-0/3", "4/6", -7, 2**200]
    assert vec_from_json(mixed, "/v", memo=memo) == vec(1, 1, "1/2", "1/2", 1, 7, 0, "2/3", -7, 2**200)
    # The memo holds only plain-string keys, each to its reduced ints.
    assert memo == {
        "1": (1, 1), "2/4": (1, 2), "1/2": (1, 2), "007": (7, 1), "-0/3": (0, 1), "4/6": (2, 3)
    }
    for items, i, message in (
        (["1", True], 1, "booleans are not rationals"),
        (["1", 1.0], 1, "floats are rejected"),
        ([1, "1/2", True, 1.0], 2, "booleans are not rationals"),
        (["2/4", "1/2", 1.0, True], 2, "floats are rejected"),
    ):
        for memo in ({}, {"1": (1, 1), "1/2": (1, 2)}, None):
            with pytest.raises(SchemaError) as e:
                vec_from_json(items, "/v", memo=memo)
            assert pointer_of(e) == f"/v/{i}" and message in e.value.message
    for value, message in ((True, "booleans"), (1.0, "floats")):
        with pytest.raises(SchemaError) as e:
            rat_from_json(value, "/x", {"1": (1, 1)})
        assert pointer_of(e) == "/x" and message in e.value.message
    doc = scalar_problem_json()
    doc["E"] = [["1"], [1], ["2/4"], [True]]
    with pytest.raises(SchemaError) as e:
        decode_problem(doc)
    assert pointer_of(e) == "/E/3/0" and "booleans are not rationals" in e.value.message
    doc["E"] = [["1"], [1], ["2/4"], ["1/2"], ["-1"]]
    assert [a.entries[0] for a in matrices(decode_problem(doc))] == [1, QQ(1, 2), -1]
    # Seeded problems spelled every which way: E's rows and lcms and the
    # domain's rows are what ``_integer_rows`` makes of ``rat`` of the same
    # strings, and an all-string problem is decoded without ``rat`` or a Mat.
    rat_calls, mats = [], []
    for module in (linalg, geometry):
        monkeypatch.setattr(module, "rat", lambda x, real=rat: rat_calls.append(x) or real(x))
    real_post_init = Mat.__post_init__
    monkeypatch.setattr(Mat, "__post_init__", lambda a: mats.append(a) or real_post_init(a))
    rng = random.Random(3201)
    for trial in range(120):
        spell = partial(spelled, rng, ints=trial % 2 == 0)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        values = [QQ(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
        entries = [[rng.choice(values) for _ in range(m * n)] for _ in range(rng.randint(1, 6))]
        entries = [row for row in entries if any(row)] or [[QQ(1)] * (m * n)]
        normals, offsets = [], []
        for k in range(n):
            high = QQ(rng.randint(1, 5), rng.randint(1, 5))
            for sign in (1, -1):
                c = QQ(rng.randint(1, 9), rng.randint(1, 9))
                normals.append([sign * c * (j == k) for j in range(n)])
                offsets.append(c * high if sign > 0 else QQ(0))
        doc = {
            "operator": "gradient", "m": m, "n": n,
            "E": [[spell(x) for x in row] for row in entries],
            "domain": {"halfspaces": {
                "normals": [[spell(x) for x in a] for a in normals],
                "offsets": [spell(c) for c in offsets],
            }},
        }
        del rat_calls[:], mats[:]
        problem = decode_problem(doc)
        if trial % 2:  # every value a string
            assert rat_calls == [] and mats == [], trial
        assert (problem.rows, problem.lcms) == reference_problem_rows(doc["E"]), trial
        hs = doc["domain"]["halfspaces"]
        region = [[*a, c] for a, c in zip(hs["normals"], hs["offsets"])]
        assert (problem.domain.rows, problem.domain.lcms) == reference_rows(region), trial
    # So is every region of a solution file whose values are spelled anew, and
    # every cell's map is ``integer_points`` of its rows [Gᵢ | oᵢ], in lowest
    # terms, decoded without a Mat: the respelled file gives the same cells.
    doc = json.loads(triangle_solution_text(QQ(1, 4)))
    cells = decode_solution(doc).cells
    for cell in doc["cells"]:
        hs = cell["region"]["halfspaces"]
        hs["normals"] = [[spelled(rng, rat(x)) for x in a] for a in hs["normals"]]
        hs["offsets"] = [spelled(rng, rat(c)) for c in hs["offsets"]]
        cell["gradient"] = [[spelled(rng, rat(x)) for x in g] for g in cell["gradient"]]
        cell["offset"] = [spelled(rng, rat(o)) for o in cell["offset"]]
    del mats[:]
    decoded = decode_solution(doc)
    assert mats == [] and decoded.cells == cells
    for cell, item in zip(decoded.cells, doc["cells"], strict=True):
        hs = item["region"]["halfspaces"]
        region = [[*a, c] for a, c in zip(hs["normals"], hs["offsets"])]
        assert (cell.polytope.rows, cell.polytope.lcms) == reference_rows(region)
        rows, m = integer_points(
            [[rat(x) for x in (*g, o)] for g, o in zip(item["gradient"], item["offset"])]
        )
        assert cell.map == (tuple(rows), m)
        assert m > 0 and gcd(m, *(x for r in rows for x in r)) == 1


def test_a_repeated_bad_string_is_reported_where_it_first_occurs():
    """A string that failed to parse is not remembered: each place it occurs
    fails again, so the first place the decoder reads is the one reported."""
    _, pw = build_planar_solution()
    doc = encode_solution(pw)
    for bad, message in (("1/0", "zero denominator"), ("0.5", "not a canonical rational")):
        region_offset = ("cells", 2, "region", "halfspaces", "offsets", 1)
        for places, first in (
            ((("cells", 3, "offset", 0), ("cells", 1, "gradient", 0, 1)), "/cells/1/gradient/0/1"),
            ((region_offset, ("copies", 0, "scale")), "/copies/0/scale"),
            ((("delta",), ("b", 0)), "/b/0"),
        ):
            broken = json.loads(json.dumps(doc))
            for path in places:
                *head, last = path
                target = broken
                for key in head:
                    target = target[key]
                target[last] = bad
            with pytest.raises(SchemaError) as e:
                decode_solution(broken)
            assert pointer_of(e) == first and message in e.value.message
    problem = scalar_problem_json()
    problem["E"] = [["1"], ["1/0"], ["1/0"]]
    with pytest.raises(SchemaError) as e:
        decode_problem(problem)
    assert pointer_of(e) == "/E/1/0" and "zero denominator" in e.value.message


def test_two_loads_share_nothing():
    text = triangle_solution_text(QQ(1, 4))
    doc = json.loads(text)
    doc["cells"][5]["offset"][0] = "1/0"
    broken = json.dumps(doc)
    pw = load_solution(text)
    with pytest.raises(SchemaError) as e:
        load_solution(broken)
    assert pointer_of(e) == "/cells/5/offset/0" and "zero denominator" in e.value.message
    assert load_solution(text) == pw
    problem = {"operator": "gradient", "m": 1, "n": 1, "E": [["1/2"], ["-1/2"]]}
    assert matrices(load_problem(json.dumps(problem)))[0].entries[0] == QQ(1, 2)
    problem["E"][1] = ["-1/0"]
    with pytest.raises(SchemaError) as e:
        load_problem(json.dumps(problem))
    assert pointer_of(e) == "/E/1/0"


def test_a_file_parses_each_distinct_rational_string_once(monkeypatch):
    """The δ = 1/8 triangle file repeats its rationals many times; one load
    parses each distinct one once, and a second load parses them again."""
    text = triangle_solution_text(QQ(1, 8))
    doc = json.loads(text)
    strings: list[str] = []

    def walk(value):
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        elif isinstance(value, str):
            strings.append(value)

    walk({k: v for k, v in doc.items() if k != "operator"})
    calls = []
    real = serialize.parse_rat
    monkeypatch.setattr(serialize, "parse_rat", lambda x: calls.append(x) or real(x))
    pw = load_solution(text)
    assert len(pw.cells) == 327
    assert sorted(calls) == sorted(set(strings))
    assert len(strings) > 10 * len(calls)
    load_solution(text)
    assert len(calls) == 2 * len(set(strings))


def test_decoding_builds_a_fraction_only_for_a_value_that_leaves(monkeypatch):
    """A triangle file's Fractions are b's 2 entries, Ω's 4 box corners, δ,
    covered and residual: the same 9 at δ = 1/4 (27 cells) and δ = 1/8
    (327 cells), none per cell, and every memo key is a plain string."""
    built: list[tuple] = []
    monkeypatch.setattr(serialize, "Fraction", lambda *a: built.append(a) or QQ(*a))
    memos: list[dict] = []
    real_pairs = serialize._pairs
    monkeypatch.setattr(
        serialize, "_pairs", lambda v, p, n, memo: memos.append(memo) or real_pairs(v, p, n, memo)
    )
    counts = []
    for delta, cells in ((QQ(1, 4), 27), (QQ(1, 8), 327)):
        text = triangle_solution_text(delta)
        del built[:], memos[:]
        pw = load_solution(text)
        assert len(pw.cells) == cells
        assert (pw.b, pw.omega.corners, pw.delta) == (vec(1, 2), (vec(0, 0), vec(1, 1)), delta)
        assert all(type(k) is str for memo in memos for k in memo)
        counts.append(len(built))
    assert counts == [9, 9]


def test_rows_are_written_as_their_fractions():
    """Each entry x of a row over its lcm l is written as str(Fraction(x, l)),
    the spelling of the rational it was built from."""
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, 5)

        def q():
            kind = rng.randint(0, 3)
            if kind == 0:
                return QQ(0)
            if kind == 1:
                return QQ(rng.randint(-6, 6))
            num = rng.randint(-(2 ** rng.randint(1, 40)), 2**20)
            return QQ(num, rng.randint(1, 2 ** rng.randint(1, 30)))

        normals = [vec(*(q() for _ in range(n))) for _ in range(k)]
        offsets = [q() for _ in range(k)]
        if rng.random() < 0.2:
            normals[0] = vec(*([2, 4, 8, 10][:n]))
            offsets[0] = QQ(rng.choice([6, -6]))
        p = Polytope.halfspaces(normals, offsets)
        rows = list(zip(p.rows, p.lcms))
        oracle = {
            "halfspaces": {
                "normals": [[str(QQ(x, l)) for x in r[:-1]] for r, l in rows],
                "offsets": [str(QQ(r[-1], l)) for r, l in rows],
            }
        }
        out = encode_polytope(p)
        assert out == oracle
        assert out["halfspaces"]["normals"] == [[str(x) for x in a] for a in normals]
        assert out["halfspaces"]["offsets"] == [str(c) for c in offsets]
        assert decode_polytope(out, "/p", n) == p
    box = Polytope.box(vec("-1/2", 0), vec(3, "7/3"))
    assert encode_polytope(box) == {"box": {"low": ["-1/2", "0"], "high": ["3", "7/3"]}}
