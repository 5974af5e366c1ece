"""Seeded generators, input caps and the benchmark's metric list.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from quadchar.cli import build_parser  # noqa: E402


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload: str) -> None:
    assert inputs.ops_for(workload, 7) == inputs.ops_for(workload, 7)


@pytest.mark.parametrize("workload", ["prime-sweep", "structure"])
def test_seed_changes_inputs(workload: str) -> None:
    assert len({json.dumps(inputs.ops_for(workload, s)) for s in range(10)}) > 1


def test_every_seeded_op_is_known() -> None:
    labels = {inputs.op_label(op) for op in inputs.every_op()}
    for workload in inputs.WORKLOADS:
        for seed in range(20):
            assert {inputs.op_label(op) for op in inputs.ops_for(workload, seed)} <= labels


def test_every_cli_op_is_accepted_and_within_caps() -> None:
    parser = build_parser()
    for op in inputs.every_op():
        if op["kind"] != "cli":
            continue
        args = parser.parse_args(op["argv"] + ["--json", "out.json"])
        if args.command != "verify" or args.suite == "all":
            continue
        assert _is_prime(args.p) and args.p % 2 == 1
        assert inputs.elements_swept(op["argv"]) <= inputs.MAX_ELEMENTS
        if args.suite == "gl2":
            assert args.p <= 13
        if args.suite == "un":
            assert args.n in (3, 5)
        if args.suite == "gln":
            assert args.n >= 3 and args.n % 2 == 1


def test_bands_hold_primes_of_comparable_cost() -> None:
    for band in inputs.SL2_BANDS:
        assert max(band) ** 2 / min(band) ** 2 < 1.05
    for band in inputs.RANK3_BANDS:
        assert max(band) ** 3 / min(band) ** 3 < 1.07
    assert len(inputs.RANK3_BANDS[-1]) == 1  # peak RSS does not depend on the seed


def test_small_rank_lattices_match_acceptance_count() -> None:
    assert len(inputs.small_rank_lattices()) == 162


def test_rank4_pairs_chunk_evenly() -> None:
    assert len(inputs.commuting_involution_pairs(4)) == 982
    chunks, leftover = inputs.pair_chunks()
    assert len(chunks) == inputs.PAIR_CHUNKS
    assert {len(c) for c in chunks} == {20}
    assert len(leftover) == 2


def test_structure_records_do_not_depend_on_the_seed() -> None:
    sizes = {
        sum(len(op.get("lattices", ())) for op in inputs.structure_ops(s)) for s in range(10)
    }
    assert len(sizes) == 1


def test_expected_digests_cover_every_op() -> None:
    expected = json.loads(run.EXPECTED.read_text())
    assert {inputs.op_label(op) for op in inputs.every_op()} == set(expected)


def test_benchmark_json_lists_the_reported_metrics() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
