"""Exactness guard: no float literal and no float() call in the package.

Decision and verification paths compare exact rationals only.  The one
float the package makes is in the OBJ export's number formatting,
``cli._fmt_float(num, den)``: the true division of two ints, which
Python rounds correctly, exactly as ``float(Fraction(num, den))`` does.
Every other ``/`` in the package has a ``Fraction`` operand and gives a
``Fraction``; that is a rule of the code, not something this AST scan
can see.  No function is exempt from the scan, ``_fmt_float`` included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import inclusionkit

PACKAGE_DIR = Path(inclusionkit.__file__).resolve().parent


def float_uses(tree: ast.AST, filename: str) -> list[str]:
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{filename}:{node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{filename}:{node.lineno}: call to float()")
    return found


def test_package_has_no_floats():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += float_uses(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_guard_sees_literals_and_calls():
    source = "x = 0.5\ndef f(q):\n    return float(q)\ndef _fmt_float(q):\n    return float(q)\n"
    assert len(float_uses(ast.parse(source), "geometry.py")) == 3
    assert len(float_uses(ast.parse(source), "cli.py")) == 3
    old = "def _fmt_float(x):\n    return format(float(x), '.17g')\n"
    assert len(float_uses(ast.parse(old), "cli.py")) == 1
    ratio = "def _fmt_float(num, den):\n    return format(num / den, '.17g')\n"
    assert float_uses(ast.parse(ratio), "cli.py") == []
