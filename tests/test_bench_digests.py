"""The benchmark's ops still give their recorded digests.

Runs every op some seed of ``bench/inputs.py`` can generate (its
``every_op``): the ``classify``, ``lattices`` and ``catalog`` ops of the
``structure`` workload, all 50 rank-4 lattice chunks included, and every
CLI request (``tables``, ``verify all`` and the ``prime-sweep`` reports),
through ``bench/worker.py``'s own call and check functions, and compares
each digest and record count with ``bench/expected.json``.  A change that
alters any orbit record, Tate group, catalog verdict or report byte fails
here, in tier-1, not only in a benchmark run.  Nothing under ``bench/`` is
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


def _bench_modules():
    """``bench/inputs.py`` and ``bench/worker.py``, imported without writing bytecode."""
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import inputs
        import worker
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return inputs, worker


INPUTS, WORKER = _bench_modules()
OPS = {INPUTS.op_label(op): op for op in INPUTS.every_op()}
STRUCTURE_LABELS = [label for label, op in OPS.items() if op["kind"] != "cli"]
CLI_LABELS = [label for label, op in OPS.items() if op["kind"] == "cli"]


def test_every_expected_label_is_gated() -> None:
    assert len(OPS) == len(STRUCTURE_LABELS) + len(CLI_LABELS)  # no label names two ops
    assert (len(STRUCTURE_LABELS), len(CLI_LABELS)) == (58, 31)
    assert sorted(OPS) == sorted(EXPECTED) and len(EXPECTED) == 89


@pytest.mark.parametrize("label", STRUCTURE_LABELS)
def test_structure_op_matches_expected_digest(label: str) -> None:
    op = dict(OPS[label])
    if op["kind"] == "lattices":  # as worker.main converts them before timing
        op["specs"] = [
            (spec["rank"], tuple(tuple(map(tuple, g)) for g in spec["gens"]))
            for spec in op.pop("lattices")
        ]
    call, check = WORKER.OPS[op["kind"]]
    outcome = check(op, call(quadchar, op, None), None)
    assert "error" not in outcome, outcome
    assert outcome == EXPECTED[label]


# every element-sweep report the prime-sweep workload can request
VERIFY_LABELS = sorted(
    label
    for label in EXPECTED
    if label.startswith(("verify sl2 ", "verify gl2 ", "verify gln ", "verify un "))
)


def test_every_prime_sweep_request_is_gated() -> None:
    verify_all = {INPUTS.op_label(op) for op in INPUTS.verify_all_ops()}
    assert set(CLI_LABELS) - verify_all == set(VERIFY_LABELS)


@pytest.mark.parametrize("label", CLI_LABELS)
def test_verify_report_matches_expected_digest(tmp_path, label: str) -> None:
    """Each CLI report, ``tables`` and ``verify all`` with the sweep's."""
    op = OPS[label]
    report = tmp_path / "report.json"
    outcome = WORKER.check_cli(op, WORKER.call_cli(quadchar, op, report), report)
    assert "error" not in outcome, outcome
    assert (outcome["digest"], outcome["records"]) == (
        EXPECTED[label]["digest"],
        EXPECTED[label]["records"],
    )
