"""Dead-code guard: every top-level function, class and name, and every method, is used.

A function or class defined at the top level of a package module, or a
name bound there by an assignment (dunders such as ``__all__`` exempt),
private (leading underscore) or not, must be referenced somewhere in the
package, as a name or an attribute, outside its own definition, or be
one of the ``LIBRARY`` names: public names (in ``inclusionkit.__all__``)
that no package code calls, kept for library users.  ``cmd_*`` handlers,
which ``cli.main`` looks up by name, are exempt, and so is the one
``EXEMPT`` definition, ``geometry.Polytope.contains``, which the
benchmark's tracer wraps by name.
Two more tests assert that each ``LIBRARY`` name and each ``EXEMPT``
definition is still defined and still has no package caller, so neither
list can outlive its reason.

A method of a top-level class counts as used only through an attribute
reference (``x.name``) somewhere in the package outside its own body,
whatever class that attribute belongs to.  Dunders are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import inclusionkit

PACKAGE_DIR = Path(inclusionkit.__file__).resolve().parent
EXEMPT = {"geometry.Polytope.contains"}
LIBRARY = {"certificate_valid", "mat"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _attributes(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def dead_definitions(modules: dict[str, ast.Module], library: set[str]) -> list[str]:
    """The qualified names of the definitions nothing references, but those
    whose name is in ``library`` and the ``cmd_*`` handlers, sorted."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    methods: list[tuple[str, ast.AST]] = []
    for module, tree in modules.items():
        for stmt in tree.body:
            owners: set[str] = set()
            if isinstance(stmt, (*DEFS, ast.ClassDef)):
                owners = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                owners = {
                    n.id
                    for target in targets
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and not (n.id[:2] == n.id[-2:] == "__")
                }
            for owner in owners:
                defined.setdefault(owner, []).append(module)
            if isinstance(stmt, ast.ClassDef):
                methods += [
                    (f"{module}.{stmt.name}.{item.name}", item)
                    for item in stmt.body
                    if isinstance(item, DEFS) and not (item.name[:2] == item.name[-2:] == "__")
                ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in owners:
                    used.add(name)
    attributes = sum((_attributes(tree) for tree in modules.values()), Counter())
    dead = [
        f"{module}.{name}"
        for name, modules_of in defined.items()
        for module in modules_of
        if name not in used and name not in library and not name.startswith("cmd_")
    ]
    dead += [
        qualified
        for qualified, node in methods
        if attributes[node.name] == _attributes(node)[node.name]
    ]
    return sorted(dead)


def package_modules() -> dict[str, ast.Module]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert len(modules) > 8
    return modules


def test_package_has_no_unreferenced_public_definitions():
    dead = dead_definitions(package_modules(), LIBRARY)
    assert [f"{name} is never referenced" for name in dead if name not in EXEMPT] == []


def test_library_names_are_public_and_have_no_package_caller():
    assert LIBRARY <= set(inclusionkit.__all__)
    unreferenced = set(dead_definitions(package_modules(), set())) - EXEMPT
    assert {name.rsplit(".", 1)[1] for name in unreferenced} == LIBRARY


def test_exempt_definitions_are_defined_and_have_no_package_caller():
    assert EXEMPT <= set(dead_definitions(package_modules(), set()))


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
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def called(self):\n"
        "        return self.count\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def named_only(self):\n"
        "        return None\n"
        "def exported():\n"
        "    named_only = 1\n"
        "    return named_only\n"
        "def cmd_run():\n"
        "    return m.Named().called()\n"
        "def _private():\n"
        "    return None\n"
        "LIMIT = 2\n"
        "UNUSED: int = LIMIT + 1\n"
        "__all__ = ['exported']\n"
    )
    assert dead_definitions({"m": ast.parse(source)}, {"exported"}) == [
        "m.Alone",
        "m.Alone.method",
        "m.Named.dead",
        "m.Named.named_only",
        "m.UNUSED",
        "m._private",
        "m.recursive",
    ]
