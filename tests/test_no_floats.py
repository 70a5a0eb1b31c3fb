"""Exactness guard: no float literal and no float() call in the package.

Decision and verification paths compare exact rationals only; the one
place a float may appear is the OBJ export's number formatting,
``cli._fmt_float``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import inclusionkit

PACKAGE_DIR = Path(inclusionkit.__file__).resolve().parent
ALLOWED = {("cli.py", "_fmt_float")}


def float_uses(tree: ast.AST, filename: str) -> list[str]:
    found: list[str] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        allowed = (filename, func) in ALLOWED
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            if not allowed:
                found.append(f"{filename}:{node.lineno}: float literal {node.value!r}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and not allowed
        ):
            found.append(f"{filename}:{node.lineno}: call to float()")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
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
    assert len(float_uses(ast.parse(source), "cli.py")) == 2
    allowed = "def _fmt_float(x):\n    return format(float(x), '.17g')\n"
    assert float_uses(ast.parse(allowed), "cli.py") == []
