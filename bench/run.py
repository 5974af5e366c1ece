"""quadchar benchmark runner.

    python3 bench/run.py --workload {verify-all,prime-sweep,structure} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It generates the workload's ops
from the seed, then runs passes back to back until ``--seconds`` have
elapsed.  Each pass is one fresh interpreter (``bench/worker.py``) that
imports quadchar from ``src`` and runs every op once, so nothing cached
in one pass helps the next: a closed loop with one client and one op at
a time.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and it
carries the per-layer metrics of the median traced pass.  See
``bench/README.md`` for what each metric means and which layer should
move it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import inputs

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "quadchar-bench"
EXPECTED = BENCH / "expected.json"

# No pass starts after this many seconds and none may take longer than
# the timeout, so a run ends within three minutes even on a slow machine.
LAST_START_S = 90.0
PASS_TIMEOUT_S = 30.0
MAX_DEAD_PASSES = 3  # consecutive worker deaths before the run gives up

# Host speed scaling (see README.md).  A pass's timings are reported at
# the reference host speed: raw * (REFERENCE_CALIBRATION_S / the pass's
# own calibration-kernel time) ** exponent.  The reference is the kernel's
# time on a quiet 2-vCPU VM with Python 3.11.  The exponent is how
# strongly the workload's time follows the kernel's: the least-squares
# slope of log(pass time) on log(kernel time) over a few minutes of passes
# on that VM (bench/fit_speed.py).  Numpy-bound ops follow it less than
# pure-Python ones.
REFERENCE_CALIBRATION_S = 0.008
HOST_SPEED_EXPONENT = {"verify-all": 0.6, "prime-sweep": 0.6, "structure": 1.0}
SETUP_EXPONENT = 0.6  # the import is the same in every workload

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "records": "count",
}

PER_LAYER = {
    "trace.wall_ms": "ms",
    "trace.overhead_frac": "ratio",
    "other.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.json_bytes": "bytes",
    "tables.self_ms": "ms",
    "char_engine.self_ms": "ms",
    "case_studies.self_ms": "ms",
    "case_studies.calls": "count",
    "case_studies.elements": "count",
    "root_orbits.self_ms": "ms",
    "root_orbits.classify_ms": "ms",
    "root_orbits.classify_calls": "count",
    "root_orbits.classify_distinct": "count",
    "root_orbits.reuse_frac": "ratio",
    "root_orbits.closure_calls": "count",
    "root_orbits.closure_size": "count",
    "galois_lattices.self_ms": "ms",
    "galois_lattices.snf_calls": "count",
    "galois_lattices.snf_ms": "ms",
    "galois_lattices.snf_max_dim": "count",
    "galois_lattices.lattices": "count",
    "padic_fields.self_ms": "ms",
    "padic_fields.hilbert_calls": "count",
    "residue_fields.self_ms": "ms",
    "residue_fields.scanned": "count",
    "residue_fields.norm_one_yield": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence timing, repeats
    return env


def run_pass(ops_path: pathlib.Path, trace: bool, spans: pathlib.Path | None) -> dict | None:
    """One worker process; ``None`` if it died without a result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(WORK / "reports")]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"pass failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(p: dict, key: str, calib_key: str, exponent: float) -> float:
    """A pass's timing at the reference host speed."""
    return p[key] * (REFERENCE_CALIBRATION_S / p[calib_key]) ** exponent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def compare_digests(labels: list[str], passes: list[dict]) -> tuple[int, int, int]:
    """(ops differing from the stored seed digests, ops with no stored digest,
    ops whose digest differs between passes of this run)."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    differ = unknown = unstable = 0
    for i, label in enumerate(labels):
        seen = {p["ops"][i]["digest"] for p in passes if "digest" in p["ops"][i]}
        unstable += len(seen) > 1
        want = expected.get(label, {}).get("digest")
        if want is None:
            unknown += 1
        elif seen and seen != {want}:
            differ += 1
    return differ, unknown, unstable


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "quadchar" / "__init__.py").is_file():
        raise BenchError(f"no quadchar sources under {ROOT / 'src'}")
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    ops = inputs.ops_for(workload, seed)
    labels = [inputs.op_label(op) for op in ops]
    ops_path = WORK / f"ops-{workload}.json"
    ops_path.write_text(json.dumps(ops))
    empty = WORK / "ops-empty.json"
    empty.write_text("[]")

    if run_pass(empty, False, None) is None:  # byte-compile and warm the file cache
        raise BenchError("the import-only warm-up pass failed")

    plain: list[dict] = []
    traced: list[tuple[dict, pathlib.Path]] = []
    attempted = failed = dead = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        now = time.perf_counter()
        need_more = now < deadline or not plain or (trace and not traced)
        if not need_more or now - start > LAST_START_S or dead == MAX_DEAD_PASSES:
            break
        with_trace = trace and len(traced) < len(plain)
        spans = WORK / f"spans-{workload}-{len(traced)}.json" if with_trace else None
        result = run_pass(ops_path, with_trace, spans)
        attempted += len(ops)
        if result is None:
            failed += len(ops)
            dead += 1
            continue
        dead = 0
        failed += sum(1 for r in result["ops"] if "error" in r)
        for label, r in zip(labels, result["ops"]):
            if "error" in r:
                print(f"op failed: {label}: {r['error']}", file=sys.stderr)
        if with_trace:
            traced.append((result, spans))
        else:
            plain.append(result)
    if not plain or (trace and not traced):
        raise BenchError("no pass produced a result")

    all_passes = plain + [r for r, _ in traced]
    differ, unknown, unstable = compare_digests(labels, all_passes)
    exponent = HOST_SPEED_EXPONENT[workload]
    walls = [scaled(p, "wall_s", "calib_s", exponent) for p in plain]
    q1, wall, q3 = quartiles(walls)
    raw_q1, raw_wall, raw_q3 = quartiles([p["wall_s"] for p in plain])
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "ops_failed_frac": failed / attempted,
        "wall_s_quartiles": [q1, wall, q3],
        "raw_wall_s_quartiles": [raw_q1, raw_wall, raw_q3],
        "raw_setup_s": statistics.median(p["setup_s"] for p in all_passes),
        "host_speed": statistics.median(
            REFERENCE_CALIBRATION_S / p["calib_s"] for p in all_passes
        ),
        "seed_digest_differs": differ,
        "seed_digest_missing": unknown,
        "digest_unstable": unstable,
        "python": platform.python_version(),
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(
            scaled(p, "setup_s", "calib_setup_s", SETUP_EXPONENT) for p in all_passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "records": statistics.median_low(
            sum(r.get("records", 0) for r in p["ops"]) for p in plain
        ),
    }
    units = END_TO_END
    if trace:
        traced.sort(key=lambda item: scaled(item[0], "wall_s", "calib_s", exponent))
        rep, rep_spans = traced[(len(traced) - 1) // 2]
        for _, path in traced:
            if path != rep_spans:
                path.unlink(missing_ok=True)
        rep_spans.replace(WORK / f"spans-{workload}.json")
        traced_wall = statistics.median(
            scaled(r, "wall_s", "calib_s", exponent) for r, _ in traced
        )
        metrics = {name: rep["layers"].get(name, 0) for name in PER_LAYER}
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        summary["untraced_names"] = rep["untraced_names"]
        units = PER_LAYER
    return {
        "correct": failed == 0 and unstable == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "summary": summary,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    summary = result.pop("summary")
    for key, value in summary.items():
        print(f"{key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "summary": summary}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
