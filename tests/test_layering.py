"""Each module of ``src/quadchar`` imports only the layers listed before it.

The layers are the bulleted module names of the package docstring in
``quadchar/__init__.py``, in order; every module is one of them.  Root
systems act by root permutations, so ``root_orbits`` takes only the compose
kernel from ``galois_lattices``, the one module that reads matrices.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadchar"
LAYERS = re.findall(
    r"^\* ``(\w+)``", ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text())), re.M
)


def imported_modules(path: pathlib.Path) -> set[str]:
    """The package modules a file imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quadchar."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("quadchar.")}
    return found


def test_every_module_is_a_listed_layer() -> None:
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(LAYERS) == modules and len(set(LAYERS)) == len(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_imports_only_earlier_layers(layer: str) -> None:
    earlier = set(LAYERS[: LAYERS.index(layer)])
    assert imported_modules(PACKAGE / f"{layer}.py") - earlier == set()


def test_root_orbits_takes_only_the_compose_kernel_from_galois_lattices() -> None:
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "root_orbits.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("quadchar.")
            names |= {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("quadchar.") for alias in node.names}
    taken = {name for name in names if "galois_lattices" in name}
    assert taken == {"galois_lattices.compose_permutations"}
