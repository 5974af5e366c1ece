"""Every name the benchmark tracer wraps must exist in its quadchar module.

The tracer lists them in ``bench/tracer.py``; a deleted or renamed entry
point would show up there only as ``untraced_names`` in the bench tests.
The file is read as source, so nothing from the benchmark is imported.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_constant(name: str) -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


FUNCTIONS = _tracer_constant("FUNCTIONS")
METHODS = _tracer_constant("METHODS")


@pytest.mark.parametrize("layer", sorted(FUNCTIONS))
def test_traced_functions_exist(layer: str) -> None:
    module = importlib.import_module(f"quadchar.{layer}")
    missing = [name for name in FUNCTIONS[layer] if not callable(getattr(module, name, None))]
    assert missing == []


@pytest.mark.parametrize("layer", sorted(METHODS))
def test_traced_methods_exist(layer: str) -> None:
    module = importlib.import_module(f"quadchar.{layer}")
    missing = [
        f"{cls}.{meth}"
        for cls, meth in METHODS[layer]
        if not callable(getattr(getattr(module, cls, None), meth, None))
    ]
    assert missing == []
