"""No top-level definition in the package goes unused, except the listed ones.

A top-level ``def`` or ``class`` of ``src/quadchar`` counts as used when its
name occurs in ``src/quadchar/*.py`` or ``bench/*.py`` as a name, as an
attribute, or as an exact string constant (the bench tracer names the
functions it wraps by string); entries of an ``__all__`` list do not count.
Tests do not count: a definition only tests read is dead code.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadchar").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

ALLOWED_UNUSED = {
    "tower_of": "root_orbits: to be wired into the root-datum pipeline",
}


def _used_names(tree: ast.Module) -> set[str]:
    """Names, attributes and string constants outside the ``__all__`` list."""
    exports = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exports:
                used.add(node.value)
    return used


def test_every_unused_top_level_definition_is_allowlisted():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SCANNED]
    used = set().union(*map(_used_names, trees))
    defined = {
        stmt.name
        for tree in trees[: len(PACKAGE)]
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined - used == set(ALLOWED_UNUSED)
