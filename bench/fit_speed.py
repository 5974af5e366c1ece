"""Fit how strongly a workload's time follows the calibration kernel.

    python3 bench/fit_speed.py --workload structure --seconds 180

Runs passes of the workload back to back and prints the least-squares
slope of log(time) on log(kernel time), for the ops and for the import.
Those slopes are run.HOST_SPEED_EXPONENT and run.SETUP_EXPONENT.  Refit
when a change moves a workload's time between pure Python and native
code, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time

import inputs
import run


def slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=180.0)
    args = parser.parse_args()
    (run.WORK / "reports").mkdir(parents=True, exist_ok=True)
    ops_path = run.WORK / f"ops-fit-{args.workload}.json"
    ops_path.write_text(json.dumps(inputs.ops_for(args.workload, args.seed)))
    passes = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        result = run.run_pass(ops_path, False, None)
        if result is None:
            raise SystemExit("a pass failed")
        passes.append(result)
    print(f"{len(passes)} passes")
    print("ops exponent", slope([p["calib_s"] for p in passes], [p["wall_s"] for p in passes]))
    print(
        "setup exponent",
        slope([p["calib_setup_s"] for p in passes], [p["setup_s"] for p in passes]),
    )


if __name__ == "__main__":
    main()
