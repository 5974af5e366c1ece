"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py OPS_JSON REPORT_DIR [--trace] [--spans PATH]

Times the import of ``quadchar.cli`` (which imports every library layer),
then runs the ops listed in ``OPS_JSON`` one after another, timing each
call into quadchar alone.  Each op's output is checked after its timer
stops.  The last line of standard output is one JSON object with the
import time, per-op results, calibration-kernel times, peak RSS and, with
``--trace``, the per-layer summary of ``tracer.Tracer``.  Exit code 3 means quadchar could not be
imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import pathlib
import resource
import sys
import time

from tracer import Tracer

ROOT = pathlib.Path(__file__).resolve().parents[1]


def calibration_kernel() -> int:
    """Fixed pure-Python work (small integer matrix products over tuples).

    Timed between ops to follow the host's speed, which drifts by tens of
    per cent over minutes on a shared machine.
    """
    m = tuple(tuple((3 * i + j) % 5 - 2 for j in range(6)) for i in range(6))
    acc = m
    for _ in range(120):
        acc = tuple(
            tuple(sum(acc[i][k] * m[k][j] for k in range(6)) % 7 for j in range(6))
            for i in range(6)
        )
    return acc[0][0]


CALIBRATION_REPEATS = 2


def calibrate() -> list[int]:
    """Nanoseconds of each of several runs of the calibration kernel."""
    out = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter_ns()
        calibration_kernel()
        out.append(time.perf_counter_ns() - start)
    return out


def _digest(result: object) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def call_cli(qc, op: dict, report_path: pathlib.Path) -> int:
    """``quadchar <argv> --json PATH``; returns the exit code."""
    try:
        return qc.cli.main(op["argv"] + ["--json", str(report_path)], out=io.StringIO())
    except SystemExit as exc:  # argparse rejects the request
        return exc.code


def check_cli(op: dict, rc: int, report_path: pathlib.Path) -> dict:
    if rc != 0:
        return {"error": f"exit code {rc}"}
    data = report_path.read_bytes()
    report = json.loads(data)
    if report["summary"]["fail"] != 0:
        return {"error": f"{report['summary']['fail']} failed records"}
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "records": len(report["records"]),
        "json_bytes": len(data),
    }


def call_classify(qc, op: dict, report_path: pathlib.Path):
    ro = qc.root_orbits
    build = {"gln": ro.gln_root_system, "un": ro.unitary_root_system}[op["family"]]
    system = build(op["n"])
    return system, ro.classify_orbits(system)


def check_classify(op: dict, value, report_path: pathlib.Path) -> dict:
    system, records = value
    n = op["n"]
    covered = sorted(root for rec in records for root in rec.roots)
    if covered != sorted(system.roots):
        return {"error": "orbits do not partition the roots"}
    if op["family"] == "gln":
        ok = len(records) == n - 1 and all(
            not r.sym_over_base and r.degree == 2 for r in records
        )
    else:
        ok = all(r.sym_over_base and not r.sym_over_e and r.degree == 1 for r in records)
    if not ok:
        return {"error": f"unexpected orbit symmetry for {op['family']} n={n}"}
    result = [
        [
            list(r.base_root),
            len(r.roots),
            r.sym_over_base,
            r.sym_over_e,
            r.degree,
            r.e_suborbit_count,
            [len(r.stab), len(r.stab_signed), len(r.stab_twisted), len(r.stab_e)],
        ]
        for r in records
    ]
    return {"digest": _digest(result), "records": len(records)}


def call_lattices(qc, op: dict, report_path: pathlib.Path) -> list:
    gl = qc.galois_lattices
    groups = []
    for rank, gens in op["specs"]:
        lattice = gl.GaloisLattice(rank, gens, (2,) * len(gens))
        groups.append((gl.tate_cohomology(lattice, -1), gl.tate_cohomology(lattice, 0)))
    return groups


def check_lattices(op: dict, groups: list, report_path: pathlib.Path) -> dict:
    for (rank, gens), (minus, zero) in zip(op["specs"], groups):
        order = 2 ** len(gens)
        if any(order % d for d in minus.invariant_factors + zero.invariant_factors):
            return {"error": "Tate cohomology not killed by the group order"}
        if len(gens) == 1:
            # Herbrand quotient of an involution lattice: |H^0|/|H^-1| = 2**trace
            trace = sum(gens[0][i][i] for i in range(rank))
            if zero.order * 2 ** max(0, -trace) != minus.order * 2 ** max(0, trace):
                return {"error": "Herbrand quotient differs from 2**trace"}
    result = [[list(m.invariant_factors), list(z.invariant_factors)] for m, z in groups]
    return {"digest": _digest(result), "records": len(groups)}


def call_catalog(qc, op: dict, report_path: pathlib.Path) -> list:
    gl = qc.galois_lattices
    rows = []
    for torus in gl.torus_catalog():
        levels = []
        for level in gl.FIELD_LEVELS:
            lattice = gl.cocharacter_lattice(torus, level)
            levels.append(
                (
                    gl.tate_cohomology(lattice, -1),
                    gl.tate_cohomology(lattice, 0),
                    gl.component_group_dual(torus, level),
                )
            )
        rows.append((gl.prasad_torus_identity(torus), levels))
    return rows


def check_catalog(op: dict, rows: list, report_path: pathlib.Path) -> dict:
    for verdict, levels in rows:
        if not verdict.equal:
            return {"error": "kernel-cardinality identity fails"}
        if any(minus.order != dual.order for minus, _, dual in levels):
            return {"error": "H^-1 differs from the component-group dual"}
    result = [
        [verdict.lhs, verdict.rhs, [[m.order, z.order] for m, z, _ in levels]]
        for verdict, levels in rows
    ]
    return {"digest": _digest(result), "records": len(rows)}


OPS = {
    "cli": (call_cli, check_cli),
    "classify": (call_classify, check_classify),
    "lattices": (call_lattices, check_lattices),
    "catalog": (call_catalog, check_catalog),
}


def run_op(qc, op: dict, report_path: pathlib.Path) -> dict:
    """Time the call into quadchar, then check its output untimed."""
    call, check = OPS[op["kind"]]
    report_path.unlink(missing_ok=True)
    start = time.perf_counter_ns()
    try:
        value = call(qc, op, report_path)
    except Exception as exc:  # an op that raises fails; its time still counts
        elapsed = time.perf_counter_ns() - start
        return {"ns": elapsed, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter_ns() - start
    try:
        outcome = check(op, value, report_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable report
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    return {"ns": elapsed, **outcome}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ops")
    parser.add_argument("report_dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    ops = json.loads(pathlib.Path(args.ops).read_text())
    for op in ops:  # lattice generators as tuples, before any timer starts
        if op["kind"] == "lattices":
            op["specs"] = [
                (spec["rank"], tuple(tuple(map(tuple, g)) for g in spec["gens"]))
                for spec in op.pop("lattices")
            ]
    report_dir = pathlib.Path(args.report_dir)

    calib_setup = calibrate()  # host speed just before and just after the import
    start = time.perf_counter()
    try:
        import quadchar.cli  # imports every library layer, and numpy
        import quadchar.galois_lattices
        import quadchar.root_orbits
    except ImportError as exc:
        print(f"cannot import quadchar: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - start
    calib_setup += calibrate()
    qc = quadchar  # ops look functions up as module attributes, so tracing applies
    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(qc.cli.__file__).resolve().parents:
        print(f"quadchar was imported from {qc.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    results = []
    calib_ns = []
    for i, op in enumerate(ops):
        calib_ns += calibrate()  # host speed around every op
        results.append(run_op(qc, op, report_dir / f"op{i:02d}.json"))
    calib_ns += calibrate()

    wall_ns = sum(r["ns"] for r in results)
    numpy = sys.modules.get("numpy")
    out = {
        "setup_s": setup_s,
        "numpy": getattr(numpy, "__version__", "not loaded"),
        "wall_s": wall_ns / 1e9,
        "calib_setup_s": sum(calib_setup) / len(calib_setup) / 1e9,
        "calib_s": sum(calib_ns) / len(calib_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        layers = tracer.summary(wall_ns)
        layers["cli.json_bytes"] = sum(r.get("json_bytes", 0) for r in results)
        out["layers"] = layers
        out["untraced_names"] = tracer.missing
        if args.spans:
            pathlib.Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
