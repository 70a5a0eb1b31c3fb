"""Import guard: every name a module imports is used in that module.

Covers the package modules except ``__init__.py``, whose imports are
its public re-exports, and every test module.  A name counts as used
when it appears as an identifier anywhere in the module, including
inside a string annotation.  ``__init__.py`` is held to its own rule:
``__all__`` lists exactly the names it imports, plus ``__version__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import inclusionkit

PACKAGE_DIR = Path(inclusionkit.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def unused_imports(tree: ast.AST, filename: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [
        f"{filename}:{line}: {name} is imported but never used"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_package_and_tests_import_only_what_they_use():
    files = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(TESTS_DIR.glob("*.py"))
    assert len(files) > 20
    found = []
    for path in files:
        found += unused_imports(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_public_surface_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert sorted(inclusionkit.__all__) == sorted(imported | {"__version__"})
    namespace: dict = {}
    exec("from inclusionkit import *", namespace)
    for name in inclusionkit.__all__:
        assert namespace[name] is getattr(inclusionkit, name)


def test_guard_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from fractions import Fraction\n"
        "from typing import Sequence, Union\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(ast.parse(source), "m.py") == [
        "m.py:3: js is imported but never used",
        "m.py:4: Fraction is imported but never used",
        "m.py:5: Union is imported but never used",
    ]
