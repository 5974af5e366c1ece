"""No definition in the package goes unused.

A top-level ``def`` or ``class`` of ``src/quadchar`` counts as used when its
name occurs in ``src/quadchar/*.py`` or ``bench/*.py`` as a name, as an
attribute, or as an exact string constant (the bench tracer names the
functions it wraps by string).

A non-dunder method or property of a package class counts as used when its
name occurs in the same files as an attribute or as an exact string
constant.  There is no allowlist.  Matching by name cannot tell apart two
classes that define one member name: a read of either keeps both.  So the
names defined by more than one class are pinned in ``SHARED_MEMBER_NAMES``;
a new one fails the test until it is listed there, with a CHANGES.md line
naming where each class's member is read.

Tests do not count: a definition only tests read is dead code.  No module
keeps an ``__all__`` list: nothing star-imports, so a list would only be
read by its own upkeep.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quadchar").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
SHARED_MEMBER_NAMES = {"describe", "is_trivial", "pow", "q", "rank"}


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Plain names, and attributes with string constants."""
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return names, members


def _members(package: list[ast.Module]) -> list[tuple[str, str]]:
    """``(class, member)`` for each non-dunder method or property of a class."""
    return [
        (cls.name, member.name)
        for tree in package
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
    ]


def _unused_members(package: list[ast.Module], scanned: list[ast.Module]) -> set[str]:
    """``Class.member`` for each non-dunder method or property nothing reads."""
    used = set().union(*(_references(tree)[1] for tree in scanned))
    return {f"{cls}.{member}" for cls, member in _members(package) if member not in used}


def _shared_member_names(package: list[ast.Module]) -> set[str]:
    """The member names that more than one class defines."""
    owners = collections.Counter(member for _, member in _members(package))
    return {member for member, count in owners.items() if count > 1}


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SCANNED]


def test_every_top_level_definition_is_used():
    trees = _trees()
    used = set().union(*(names | members for names, members in map(_references, trees)))
    defined = {
        stmt.name
        for tree in trees[: len(PACKAGE)]
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined - used == set()


def test_every_class_member_is_read():
    trees = _trees()
    assert _unused_members(trees[: len(PACKAGE)], trees) == set()


def test_member_names_shared_by_classes_are_pinned():
    assert _shared_member_names(_trees()[: len(PACKAGE)]) == SHARED_MEMBER_NAMES


def test_shared_name_rule_sees_a_second_definition():
    module = ast.parse(
        "class A:\n"
        "    def size(self): return 1\n"
        "    def __len__(self): return 1\n"
        "class B:\n"
        "    def size(self): return 2\n"
        "    def __len__(self): return 2\n"
        "    def only(self): return 3\n"
    )
    assert _shared_member_names([module]) == {"size"}


def test_member_rule_sees_an_unread_method():
    module = ast.parse(
        "class Box:\n"
        "    def __init__(self): self.read()\n"
        "    def read(self): return 1\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    def spare(self): return 2\n"
        "size = 'size'\n"
    )
    assert _unused_members([module], [module]) == {"Box.spare"}


def test_no_module_keeps_an_export_list():
    package = zip(PACKAGE, _trees())
    assert [path.name for path, tree in package if "__all__" in _references(tree)[0]] == []
