"""Every name the benchmark tracer wraps must exist in its quadchar module.

The tracer lists them in ``bench/tracer.py``; a deleted or renamed entry
point would show up there only as ``untraced_names`` in the bench tests.
The file is read as source, so nothing from the benchmark is imported.
The case-study results must also keep what the tracer's counter reads
from them: ``result.records`` and each record's ``inputs`` dict.
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


# small arguments for each traced case study
CASE_STUDY_CALLS = {
    "verify_sl2": [(3,)],
    "verify_gl2": [(3,)],
    "verify_gln_odd": [(3, 3)],
    "verify_un_odd": [(3, 3)],
}


@pytest.mark.parametrize("name", FUNCTIONS["case_studies"])
def test_case_study_results_carry_records_with_inputs(name: str) -> None:
    function = getattr(importlib.import_module("quadchar.case_studies"), name)
    for args in CASE_STUDY_CALLS[name]:
        records = function(*args).records
        assert records
        assert all(isinstance(rec.inputs, dict) for rec in records)
