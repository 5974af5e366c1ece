"""Batch front end: regenerate the tables, run verification suites, compute symbols.

Subcommands
-----------

``tables [--json PATH] [--inject-wrong-row]``
    Render the five built-in tables, regenerate them from the contribution
    functions and tower rules, and diff the two row sets.  Exit 0 exactly
    when the regenerated rows match byte for byte; ``--inject-wrong-row``
    corrupts one regenerated cell as a negative control.

``verify SUITE [--p P] [--n N] [--json PATH]``
    Run one of the verification suites (``unramified``, ``sl2``, ``gl2``,
    ``gln``, ``un``, ``torus``, ``hilbert`` or ``all``) and report one
    record per aggregated check.  Exit 0 exactly when every record passes.
    ``--p`` must be an odd prime for every suite, or the exit code is 2.

``hilbert --p P A B``
    Print the tame quadratic Hilbert symbol of the integers ``A`` and
    ``B`` over the base field with residue characteristic ``P``.

Reports are deterministic: records are sorted by id, JSON keys are
sorted, and no timestamps or environment data are embedded.  Exit codes:
0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .case_studies import (
    GL2_CASES,
    ScenarioReport,
    verify_gl2,
    verify_gln_odd,
    verify_sl2,
    verify_un_odd,
)
from .char_engine import (
    EF,
    CheckStatus,
    class_key,
    conjecture_check,
    enumerate_configs,
    toral_invariant,
)
from .galois_lattices import (
    Gm,
    Prod,
    Res,
    U1,
    norm_quotient,
    prasad_torus_identity,
    torus_catalog,
)
from .padic_fields import (
    NonOddPrimeError,
    SquareClass,
    hilbert_symbol,
    make_base,
    omega_quadratic,
    quadratic_extension,
    square_class_of_int,
    square_classes,
)
from .tables import (
    builtin_tables,
    diff_tables,
    format_all,
    inject_wrong_row,
    render_tables,
)

SCHEMA_VERSION = 1
SUITES = ("unramified", "sl2", "gl2", "gln", "un", "torus", "hilbert", "all")
DEFAULT_GL2_PRIMES = (3, 5, 7, 13)
DEFAULT_SMALL_PRIMES = (3, 5, 7)
DEFAULT_GLN_RANKS = (3, 5, 7)
DEFAULT_UN_RANKS = (3, 5)
HILBERT_PRIMES = (3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _record(record_id: str, inputs: dict, expected: object, got: object) -> dict:
    return {
        "id": record_id,
        "inputs": inputs,
        "expected": expected,
        "got": got,
        "verdict": "pass" if expected == got else "fail",
    }


def _build_report(suite: str, records: list[dict]) -> dict:
    records = sorted(records, key=lambda r: r["id"])
    npass = sum(1 for r in records if r["verdict"] == "pass")
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "records": records,
        "summary": {"pass": npass, "fail": len(records) - npass},
    }


def _emit_report(report: dict, json_path: str | None, out) -> None:
    for rec in report["records"]:
        print(f"{rec['verdict']:4s}  {rec['id']}", file=out)
    summary = report["summary"]
    print(
        f"{report['suite']}: {summary['pass']} passed, {summary['fail']} failed",
        file=out,
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _scenario_records(report: ScenarioReport, suffix: str) -> list[dict]:
    out = []
    for rec in report.records:
        expected = rec.expected
        got = rec.got
        out.append(
            _record(
                f"{rec.id}{suffix}",
                dict(rec.inputs),
                _jsonable(expected),
                _jsonable(got),
            )
        )
    return out


def _jsonable(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _records_unramified() -> list[dict]:
    out = []
    for cfg in enumerate_configs():
        if cfg.ef is not EF.UNRAM:
            continue
        verdict = conjecture_check(cfg)
        rid = (
            f"unramified-class{class_key(cfg):02d}"
            f"-gate{int(cfg.in_phi_half)}-oz{int(cfg.ord_zero)}"
        )
        out.append(
            _record(
                rid,
                {
                    "class": class_key(cfg),
                    "ef": cfg.ef.value,
                    "in_phi_half": cfg.in_phi_half,
                    "ord_zero": cfg.ord_zero,
                },
                {"status": CheckStatus.SYMBOLIC_EQUAL.value, "product_equals_zeta": True},
                {
                    "status": verdict.status.value,
                    "product_equals_zeta": verdict.product == verdict.zeta,
                },
            )
        )
    return out


def _records_sl2(primes: Sequence[int]) -> list[dict]:
    out = []
    for p in primes:
        out.extend(_scenario_records(verify_sl2(p), f"-p{p}"))
    return out


def _records_gl2(primes: Sequence[int]) -> list[dict]:
    out = []
    for p in primes:
        for case in GL2_CASES:
            out.extend(_scenario_records(verify_gl2(p, case), f"-p{p}"))
    return out


def _records_gln(ranks: Sequence[int], primes: Sequence[int]) -> list[dict]:
    out = []
    for n in ranks:
        for p in primes:
            out.extend(_scenario_records(verify_gln_odd(n, p), f"-n{n}-p{p}"))
    return out


def _records_un(ranks: Sequence[int], primes: Sequence[int]) -> list[dict]:
    out = []
    for n in ranks:
        for p in primes:
            out.extend(_scenario_records(verify_un_odd(n, p), f"-n{n}-p{p}"))
    return out


def _torus_label(expr) -> str:
    if isinstance(expr, Gm):
        return f"Gm({expr.base})"
    if isinstance(expr, U1):
        return f"U1({expr.top}/{expr.base})"
    if isinstance(expr, Res):
        return f"Res({expr.through}/{expr.base})[{_torus_label(expr.inner)}]"
    if isinstance(expr, Prod):
        return " x ".join(_torus_label(f) for f in expr.factors)
    raise TypeError(f"unknown torus expression {expr!r}")


def _records_torus() -> list[dict]:
    out = []
    for i, expr in enumerate(torus_catalog()):
        verdict = prasad_torus_identity(expr)
        out.append(
            _record(
                f"torus-identity-{i:02d}",
                {
                    "torus": _torus_label(expr),
                    "rank": expr.rank,
                    "kernel_counts": [verdict.lhs, verdict.rhs],
                },
                {"equal": True},
                {"equal": verdict.equal},
            )
        )
    for expr, expected in (
        (Gm("F"), "Z/2"),
        (U1("E", "F"), "1"),
        (U1("E1", "F"), "Z/2"),
    ):
        out.append(
            _record(
                f"torus-norm-quotient-{_torus_label(expr)}",
                {"torus": _torus_label(expr), "step": "E/F"},
                expected,
                norm_quotient(expr, ("E", "F")).describe(),
            )
        )
    return out


def _records_hilbert() -> list[dict]:
    out = []
    for p in HILBERT_PRIMES:
        F = make_base(p)
        classes = square_classes(F)
        minus_one = SquareClass(0, F.residue_sign_exponent)
        for a in classes:
            for b in classes:
                symbol = hilbert_symbol(F, a, b)
                symmetric = symbol == hilbert_symbol(F, b, a)
                if b.is_trivial:
                    omega_matches = True  # no extension to compare against
                else:
                    ext = quadratic_extension(F, b)
                    omega_matches = omega_quadratic(ext, a) == symbol
                out.append(
                    _record(
                        f"hilbert-p{p:02d}-{a.rep_string()}-{b.rep_string()}",
                        {
                            "p": p,
                            "a": a.rep_string(),
                            "b": b.rep_string(),
                            "symbol": symbol,
                        },
                        {"symmetric": True, "omega_matches": True},
                        {"symmetric": symmetric, "omega_matches": omega_matches},
                    )
                )
        bilinear_bad = sum(
            1
            for a in classes
            for b in classes
            for c in classes
            if hilbert_symbol(F, a * b, c)
            != hilbert_symbol(F, a, c) * hilbert_symbol(F, b, c)
        )
        out.append(
            _record(f"hilbert-p{p:02d}-bilinear", {"p": p}, 0, bilinear_bad)
        )
        anti_bad = sum(
            1 for a in classes if hilbert_symbol(F, a, minus_one * a) != 1
        )
        out.append(
            _record(f"hilbert-p{p:02d}-a-minus-a", {"p": p}, 0, anti_bad)
        )
        degenerate = sum(
            1
            for a in classes
            if not a.is_trivial
            and all(hilbert_symbol(F, a, b) == 1 for b in classes)
        )
        out.append(
            _record(f"hilbert-p{p:02d}-nondegenerate", {"p": p}, 0, degenerate)
        )
        toral_bad = sum(
            1
            for a in classes
            if not a.is_trivial
            for b in classes
            if toral_invariant(F, a, b) != hilbert_symbol(F, a, b)
        )
        out.append(
            _record(f"hilbert-p{p:02d}-toral-equals-symbol", {"p": p}, 0, toral_bad)
        )
    return out


def _verify_records(suite: str, p: int | None, n: int | None) -> list[dict]:
    gl2_primes = (p,) if p else DEFAULT_GL2_PRIMES
    small_primes = (p,) if p else DEFAULT_SMALL_PRIMES
    gln_ranks = (n,) if n else DEFAULT_GLN_RANKS
    un_ranks = (n,) if n else DEFAULT_UN_RANKS
    if suite == "unramified":
        return _records_unramified()
    if suite == "sl2":
        return _records_sl2(gl2_primes)
    if suite == "gl2":
        return _records_gl2(gl2_primes)
    if suite == "gln":
        return _records_gln(gln_ranks, small_primes)
    if suite == "un":
        return _records_un(un_ranks, small_primes)
    if suite == "torus":
        return _records_torus()
    if suite == "hilbert":
        return _records_hilbert()
    if suite == "all":
        records = []
        for sub in SUITES[:-1]:
            records.extend(_verify_records(sub, p, n))
        return records
    raise ValueError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def run_tables(args: argparse.Namespace, out) -> int:
    expected = builtin_tables()
    got = render_tables()
    if args.inject_wrong_row:
        got = inject_wrong_row(got)
    diffs = diff_tables(expected, got)
    print(format_all(got), file=out)
    records = []
    for table_expected, table_got in zip(expected, got):
        for i, row in enumerate(table_expected.rows, start=1):
            got_row = (
                table_got.rows[i - 1] if i <= len(table_got.rows) else None
            )
            records.append(
                _record(
                    f"table{table_expected.number}-row{i:02d}",
                    {"table": table_expected.number, "row": i},
                    " | ".join(row),
                    None if got_row is None else " | ".join(got_row),
                )
            )
    total_rows = sum(len(t.rows) for t in expected)
    if diffs:
        for d in diffs:
            print(
                f"diff: table {d.table} row {d.row}: "
                f"expected {d.expected!r}, got {d.got!r}",
                file=out,
            )
    print(f"{total_rows} rows compared, {len(diffs)} diffs", file=out)
    report = _build_report("tables", records)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if diffs else 0


def run_verify(args: argparse.Namespace, out) -> int:
    if args.p is not None:
        make_base(args.p)  # raises NonOddPrimeError unless p is an odd prime
    records = _verify_records(args.suite, args.p, args.n)
    report = _build_report(args.suite, records)
    _emit_report(report, args.json, out)
    return 0 if report["summary"]["fail"] == 0 else 1


def run_hilbert(args: argparse.Namespace, out) -> int:
    F = make_base(args.p)
    a = square_class_of_int(F, args.a)
    b = square_class_of_int(F, args.b)
    print(f"{hilbert_symbol(F, a, b):+d}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadchar",
        description="Verify quadratic-character identities over p-adic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser(
        "tables", help="regenerate the five tables and diff against built-ins"
    )
    p_tables.add_argument("--json", metavar="PATH", help="write a JSON report")
    p_tables.add_argument(
        "--inject-wrong-row",
        action="store_true",
        help="corrupt one regenerated row (negative control; forces exit 1)",
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--p", type=int, default=None, help="restrict to one prime")
    p_verify.add_argument("--n", type=int, default=None, help="restrict to one rank")
    p_verify.add_argument("--json", metavar="PATH", help="write a JSON report")

    p_hilbert = sub.add_parser(
        "hilbert", help="tame quadratic Hilbert symbol of two integers"
    )
    p_hilbert.add_argument("--p", type=int, required=True, help="odd residue characteristic")
    p_hilbert.add_argument("a", type=int)
    p_hilbert.add_argument("b", type=int)
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tables":
            return run_tables(args, out)
        if args.command == "verify":
            return run_verify(args, out)
        if args.command == "hilbert":
            return run_hilbert(args, out)
    except (NonOddPrimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("argument parser admits only the three subcommands")


if __name__ == "__main__":
    sys.exit(main())
