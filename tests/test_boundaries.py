"""Modules talk through public names only.

Parses every module under ``src/repro`` with :mod:`ast` (stdlib only,
nothing from the package is imported) and fails on

* a read of ``x._name`` where ``x`` is not ``self``, ``cls``,
  ``super()``, or a local bound to ``cls(...)`` inside a classmethod
  (an alternate constructor finishing the object it built), and
* any ``from ... import _name``.

Dunder names are public protocol and pass.  ``ALLOWED`` names the
exceptions as ``(path relative to src/repro, source of the node)``; it
is empty, and a new entry needs a reason that a public name cannot
serve.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED: frozenset = frozenset()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_classmethod(func: ast.AST) -> bool:
    return isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(dec, ast.Name) and dec.id == "classmethod"
        for dec in func.decorator_list
    )


def _factory_locals(func: ast.AST) -> set:
    """Names a classmethod binds to ``cls(...)``."""
    names = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "cls"
        ):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
    return names


def _own(value: ast.AST) -> bool:
    """``self``, ``cls`` or ``super()``: the object's own members."""
    if isinstance(value, ast.Name):
        return value.id in ("self", "cls")
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "super"
    )


def violations(source: str) -> list:
    """Source text of every cross-object private access in ``source``."""
    tree = ast.parse(source)
    built = set()
    for func in ast.walk(tree):
        if _is_classmethod(func):
            names = _factory_locals(func)
            built.update(
                id(node) for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.extend(
                f"from {node.module} import {alias.name}"
                for alias in node.names if _private(alias.name)
            )
        elif (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and not _own(node.value)
            and id(node) not in built
        ):
            found.append(ast.unparse(node))
    return found


def test_package_uses_public_names_across_objects():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for text in violations(path.read_text(encoding="utf-8")):
            found.add((rel, text))
    assert sorted(found - ALLOWED) == []
    assert sorted(ALLOWED - found) == [], "stale ALLOWED entries"


@pytest.mark.parametrize(
    "source, expected",
    [
        ("tables._row_of(1)", ["tables._row_of"]),
        ("self.tracker._counts[0]", ["self.tracker._counts"]),
        ("from repro.core.cat import _mix", ["from repro.core.cat import _mix"]),
        ("self._x; cls._y; super()._z(); x.__class__", []),
        (
            "class A:\n"
            "    @classmethod\n"
            "    def open(cls):\n"
            "        a = cls()\n"
            "        a._fh = None\n"
            "        return a\n",
            [],
        ),
        (
            "class A:\n"
            "    def open(self):\n"
            "        a = type(self)()\n"
            "        a._fh = None\n",
            ["a._fh"],
        ),
    ],
)
def test_checker_flags_cross_object_reads(source, expected):
    assert violations(source) == expected
