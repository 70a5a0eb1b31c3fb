"""Dead-code guard: every top-level function or class is used.

A function or class defined at the top level of a package module,
private (leading underscore) or not, must be referenced somewhere in the
package, as a name or an attribute, outside its own definition, or be
part of the public surface ``inclusionkit.__all__``.  Two kinds are
exempt: ``cmd_*`` handlers, which ``cli.main`` looks up by name, and
``geometry.homothets_overlap``, the reference the cover's integer clash
test is checked against.  Methods are out of scope.
"""

from __future__ import annotations

import ast
from pathlib import Path

import inclusionkit

PACKAGE_DIR = Path(inclusionkit.__file__).resolve().parent
EXEMPT = {"geometry.homothets_overlap"}


def dead_definitions(modules: dict[str, ast.Module], public: set[str]) -> list[str]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.setdefault(owner, []).append(module)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return [
        f"{module}.{name} is never referenced"
        for name, modules_of in sorted(defined.items())
        for module in modules_of
        if name not in used
        and name not in public
        and not name.startswith("cmd_")
        and f"{module}.{name}" not in EXEMPT
    ]


def test_package_has_no_unreferenced_public_definitions():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert len(modules) > 8
    assert dead_definitions(modules, set(inclusionkit.__all__)) == []


def test_guard_sees_dead_definitions():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "class Alone:\n"
        "    def method(self):\n"
        "        return Alone()\n"
        "class Named:\n"
        "    pass\n"
        "def exported():\n"
        "    return None\n"
        "def cmd_run():\n"
        "    return m.Named\n"
        "def _private():\n"
        "    return None\n"
    )
    assert dead_definitions({"m": ast.parse(source)}, {"exported"}) == [
        "m.Alone is never referenced",
        "m._private is never referenced",
        "m.recursive is never referenced",
    ]
