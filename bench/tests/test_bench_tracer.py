"""Self-time arithmetic and the traced worker.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer, outermost_ms, self_times  # noqa: E402

# main [0, 100]
#   verify [10, 60]
#     sgn [20, 30]
#     sgn [35, 45]
#   classify [70, 90]
#     classify [75, 80]   (same layer, nested)
SPANS = [
    ["cli", "main", 0, 100, -1],
    ["case_studies", "verify", 10, 60, 0],
    ["residue_fields", "sgn", 20, 30, 1],
    ["residue_fields", "sgn", 35, 45, 1],
    ["root_orbits", "classify", 70, 90, 0],
    ["root_orbits", "classify", 75, 80, 4],
]


def test_self_time_subtracts_direct_children_only() -> None:
    assert self_times(SPANS) == {
        "cli": 30,
        "case_studies": 30,
        "residue_fields": 20,
        "root_orbits": 20,
    }


def test_self_times_and_other_add_up_to_wall() -> None:
    tracer = Tracer()
    tracer.spans.extend([list(s) for s in SPANS])
    out = tracer.summary(wall_ns=130)
    layer_ns = sum(v for k, v in out.items() if k.endswith(".self_ms")) * 1e6
    assert out["other.self_ms"] * 1e6 == pytest.approx(30)
    assert layer_ns == pytest.approx(130)
    assert out["trace.wall_ms"] * 1e6 == pytest.approx(130)


def test_outermost_counts_nested_same_name_once() -> None:
    assert outermost_ms(SPANS, "classify") * 1e6 == pytest.approx(20)
    assert outermost_ms(SPANS, "sgn") * 1e6 == pytest.approx(20)


def test_wrapper_closes_span_when_call_raises() -> None:
    tracer = Tracer()

    def boom() -> None:
        raise RuntimeError("x")

    traced = tracer.wrap("cli", "boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    [(layer, name, start, end, parent)] = tracer.spans
    assert (layer, name, parent) == ("cli", "boom", -1)
    assert end >= start


def test_traced_worker_counts_every_binding(tmp_path: pathlib.Path) -> None:
    ops = [
        {"kind": "cli", "argv": ["verify", "gln", "--n", "3", "--p", "3"]},
        {"kind": "cli", "argv": ["verify", "sl2", "--p", "5"]},
        {"kind": "lattices", "label": "one", "lattices": [{"rank": 1, "gens": [[[-1]]]}]},
    ]
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps(ops))
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(tmp_path), "--trace",
         "--spans", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all("error" not in op for op in result["ops"])
    layers = result["layers"]
    assert result["untraced_names"] == []
    # classify_orbits is reached through case_studies' own binding and
    # through gln_orbit_parity inside root_orbits
    assert layers["root_orbits.classify_calls"] == 2
    assert layers["root_orbits.classify_distinct"] == 1
    assert layers["root_orbits.closure_calls"] > 0
    assert layers["case_studies.calls"] == 2
    # gln: the 3**3 - 1 units; sl2: the 5 + 1 norm-one elements, in two records
    assert layers["case_studies.elements"] == 3**3 - 1 + 2 * (5 + 1)
    assert layers["residue_fields.scanned"] == 25
    assert layers["residue_fields.norm_one_yield"] == pytest.approx(6 / 25)
    assert layers["galois_lattices.lattices"] == 1
    assert layers["cli.json_bytes"] > 0
    total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert total == pytest.approx(layers["trace.wall_ms"])
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {s[0] for s in spans} >= {"cli", "case_studies", "root_orbits", "residue_fields"}
