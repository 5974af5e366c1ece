"""The benchmark's ops still give their recorded digests.

Runs the ``classify`` ops, the ``lattices rank<=3`` op and the ``catalog``
op of the ``structure`` workload, and every ``verify sl2|gl2|gln|un``
request of ``bench/expected.json`` (the ``prime-sweep`` reports), through
``bench/worker.py``'s own call and check functions, and compares each
digest and record count with ``bench/expected.json``.  A change that alters
any orbit record, Tate group, catalog verdict or report byte fails here,
in tier-1, not only in a benchmark run.  Nothing under ``bench/`` is
written.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

import quadchar
import quadchar.cli  # noqa: F401
import quadchar.galois_lattices  # noqa: F401  (the worker reads layers as package attributes)
import quadchar.root_orbits  # noqa: F401

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import inputs
        import worker
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return inputs, worker


# every classify op, the rank <= 3 lattices and the torus catalog
LABELS = (
    "classify gln 9", "classify un 9", "classify gln 11",
    "classify un 11", "classify gln 13", "classify un 13",
    "lattices rank<=3", "catalog",
)  # fmt: skip


@pytest.mark.parametrize("label", LABELS)
def test_structure_op_matches_expected_digest(bench_modules, label: str) -> None:
    inputs, worker = bench_modules
    op = next(op for op in inputs.structure_ops(0) if inputs.op_label(op) == label)
    if op["kind"] == "lattices":  # as worker.main converts them before timing
        op["specs"] = [
            (spec["rank"], tuple(tuple(map(tuple, g)) for g in spec["gens"]))
            for spec in op.pop("lattices")
        ]
    call, check = worker.OPS[op["kind"]]
    outcome = check(op, call(quadchar, op, None), None)
    assert "error" not in outcome, outcome
    assert outcome == EXPECTED[label]


# every element-sweep report the prime-sweep workload can request
VERIFY_LABELS = sorted(
    label
    for label in EXPECTED
    if label.startswith(("verify sl2 ", "verify gl2 ", "verify gln ", "verify un "))
)


def test_every_prime_sweep_request_is_gated(bench_modules) -> None:
    inputs, _ = bench_modules
    cli_labels = {inputs.op_label(op) for op in inputs.every_op() if op["kind"] == "cli"}
    verify_all = {inputs.op_label(op) for op in inputs.verify_all_ops()}
    assert cli_labels - verify_all == set(VERIFY_LABELS)


@pytest.mark.parametrize("label", VERIFY_LABELS)
def test_verify_report_matches_expected_digest(bench_modules, tmp_path, label: str) -> None:
    _, worker = bench_modules
    op = {"kind": "cli", "argv": label.split()}
    report = tmp_path / "report.json"
    outcome = worker.check_cli(op, worker.call_cli(quadchar, op, report), report)
    assert "error" not in outcome, outcome
    assert (outcome["digest"], outcome["records"]) == (
        EXPECTED[label]["digest"],
        EXPECTED[label]["records"],
    )
