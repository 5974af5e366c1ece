"""Batch front end: regenerate the tables, run verification suites, compute symbols.

Subcommands
-----------

``tables [--json PATH]``
    Render the five built-in tables, regenerate them from the contribution
    functions and tower rules, and diff the two row sets.  Exit 0 exactly
    when the regenerated rows match byte for byte.

``verify SUITE [--p P] [--n N] [--json PATH]``
    Run one of the verification suites (``unramified``, ``sl2``, ``gl2``,
    ``gln``, ``un``, ``torus``, ``hilbert`` or ``all``) and report one
    record per aggregated check.  Exit 0 exactly when every record passes.
    ``--p`` (an odd prime) is taken by ``sl2``, ``gl2``, ``gln``, ``un``
    and ``hilbert``; ``--n`` by ``gln`` and ``un``.  Giving a suite an
    option it does not take, or a ``--p`` that is not an odd prime, exits
    with code 2; ``all`` applies each option to the suites that take it.

``hilbert --p P A B``
    Print the tame quadratic Hilbert symbol of the integers ``A`` and
    ``B`` over the base field with residue characteristic ``P``.

Options are two tokens, ``--opt VALUE``, in any order among the
positionals; ``--opt=VALUE`` and abbreviated option names are usage
errors.  ``-h`` or ``--help`` prints this text.

Reports are deterministic: records are sorted by id, JSON keys are sorted,
and no timestamps or environment data are embedded.  Exit codes: 0 pass,
1 check failure or internal error, 2 usage error or unwritable ``--json``.
"""

from __future__ import annotations

import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, Iterable, NoReturn, Sequence

from ._value import Value
from .case_studies import (
    CheckRecord,
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
    U1,
    norm_quotient,
    prasad_torus_identity,
    torus_catalog,
    torus_label,
)
from .padic_fields import (
    SquareClass,
    hilbert_symbol,
    make_base,
    omega_quadratic,
    quadratic_extension,
    square_class_of_int,
    square_classes,
)
from .residue_fields import UsageError
from .tables import builtin_tables, diff_tables, format_all, paired_rows, render_tables

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(o, newline: str) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` at indent ``newline``; keys must be str.

    Floats, subclasses, empty containers and non-JSON values go to ``json.dumps``.
    """
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    inner = newline + "  "
    if isinstance(o, dict) and o:
        parts, close = ["{"], "}"
        for k in sorted(o):
            parts += (",", inner, encode_basestring_ascii(k), ": ", _encode(o[k], inner))
    elif isinstance(o, (list, tuple)) and o:
        parts, close = ["["], "]"
        for v in o:
            parts += (",", inner, _encode(v, inner))
    else:
        return json.dumps(o)
    parts[1] = ""  # no comma before the first member
    parts += (newline, close)
    return "".join(parts)


def _write_report(suite: str, records: Iterable[CheckRecord], json_path: str | None) -> dict:
    """The report of ``records``, sorted by id; also written to ``json_path`` if given.

    The file holds exactly ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``
    on every platform: the encoding is ASCII, and a binary write translates no
    newline.
    """
    rows = [
        {**vars(r), "verdict": r.verdict}
        for r in sorted(records, key=lambda r: r.id)
    ]
    npass = sum(1 for r in rows if r["verdict"] == "pass")
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "records": rows,
        "summary": {"pass": npass, "fail": len(rows) - npass},
    }
    if json_path is not None:  # "" reaches open(), which refuses it
        if "\0" in json_path:  # open() refuses it by ValueError, not OSError
            raise UsageError("embedded null byte")
        # encoded before the file is opened, so a failed encoding leaves no file
        data = (_encode(report, "\n") + "\n").encode("ascii")
        with open(json_path, "wb") as fh:
            fh.write(data)
    return report


def _tagged(records: Iterable[CheckRecord], suffix: str) -> list[CheckRecord]:
    """Scenario records with the grid point appended to their ids."""
    return [CheckRecord(f"{r.id}{suffix}", r.inputs, r.expected, r.got) for r in records]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _records_unramified() -> list[CheckRecord]:
    out = []
    for cfg in enumerate_configs():
        if cfg.ef is not EF.UNRAM:
            continue
        verdict = conjecture_check(cfg)
        rid = (
            f"unramified-class{class_key(cfg.triple):02d}"
            f"-gate{int(cfg.in_phi_half)}-oz{int(cfg.ord_zero)}"
        )
        out.append(
            CheckRecord(
                rid,
                {
                    "class": class_key(cfg.triple),
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


def _records_torus() -> list[CheckRecord]:
    out = []
    for i, expr in enumerate(torus_catalog()):
        verdict = prasad_torus_identity(expr)
        out.append(
            CheckRecord(
                f"torus-identity-{i:02d}",
                {
                    "torus": torus_label(expr),
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
            CheckRecord(
                f"torus-norm-quotient-{torus_label(expr)}",
                {"torus": torus_label(expr), "step": "E/F"},
                expected,
                norm_quotient(expr, ("E", "F")).describe(),
            )
        )
    return out


def _records_hilbert(p: int) -> list[CheckRecord]:
    out = []
    F = make_base(p)
    classes = square_classes(F)
    minus_one = SquareClass(0, F.residue_sign_exponent)
    for a in classes:
        for b in classes:
            symbol = hilbert_symbol(F, a, b)
            symmetric = symbol == hilbert_symbol(F, b, a)
            # a trivial b has no extension to compare against
            omega_matches = b.is_trivial or omega_quadratic(quadratic_extension(F, b), a) == symbol
            out.append(
                CheckRecord(
                    f"hilbert-p{p:02d}-{a.rep_string()}-{b.rep_string()}",
                    {"p": p, "a": a.rep_string(), "b": b.rep_string(), "symbol": symbol},
                    {"symmetric": True, "omega_matches": True},
                    {"symmetric": symmetric, "omega_matches": omega_matches},
                )
            )
    bad = {  # law -> number of counterexamples
        "bilinear": sum(
            hilbert_symbol(F, a * b, c) != hilbert_symbol(F, a, c) * hilbert_symbol(F, b, c)
            for a in classes
            for b in classes
            for c in classes
        ),
        "a-minus-a": sum(hilbert_symbol(F, a, minus_one * a) != 1 for a in classes),
        "nondegenerate": sum(
            not a.is_trivial and all(hilbert_symbol(F, a, b) == 1 for b in classes)
            for a in classes
        ),
        "toral-equals-symbol": sum(
            toral_invariant(F, a, b) != hilbert_symbol(F, a, b)
            for a in classes
            if not a.is_trivial
            for b in classes
        ),
    }
    out += (CheckRecord(f"hilbert-p{p:02d}-{law}", {"p": p}, 0, n) for law, n in bad.items())
    return out


class Suite(Value):
    """One ``verify`` suite: its records at one grid point, and its default axes.

    ``records`` takes ``p`` if the suite has a prime axis and ``n`` if it
    has a rank axis.  An empty axis means the suite takes no ``--p`` or
    ``--n``; a given option replaces the suite's axis by that one value.
    """

    records: Callable[..., list[CheckRecord]]
    primes: tuple[int, ...] = ()
    ranks: tuple[int, ...] = ()


# The scenario functions are looked up by name at call time, not bound
# here, so that a wrapper installed on this module's globals sees the calls.
SUITES = {
    "unramified": Suite(_records_unramified),
    "sl2": Suite(lambda p: _tagged(verify_sl2(p).records, f"-p{p}"), primes=(3, 5, 7, 13)),
    "gl2": Suite(lambda p: _tagged(verify_gl2(p).records, f"-p{p}"), primes=(3, 5, 7, 13)),
    "gln": Suite(
        lambda p, n: _tagged(verify_gln_odd(n, p).records, f"-n{n}-p{p}"),
        primes=(3, 5, 7),
        ranks=(3, 5, 7),
    ),
    "un": Suite(
        lambda p, n: _tagged(verify_un_odd(n, p).records, f"-n{n}-p{p}"),
        primes=(3, 5, 7),
        ranks=(3, 5),
    ),
    "torus": Suite(_records_torus),
    "hilbert": Suite(_records_hilbert, primes=(3, 5, 7, 11, 13)),
}


def _suite_records(suite: Suite, p: int | None, n: int | None) -> list[CheckRecord]:
    grid = {}
    if suite.ranks:
        grid["n"] = suite.ranks if n is None else (n,)
    if suite.primes:
        grid["p"] = suite.primes if p is None else (p,)
    records = []
    for point in itertools.product(*grid.values()):
        records.extend(suite.records(**dict(zip(grid, point))))
    return records


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def run_tables(args: SimpleNamespace, out) -> int:
    expected = builtin_tables()
    got = render_tables()
    diffs = diff_tables(expected, got)
    print(format_all(got), file=out)
    records = [
        CheckRecord(
            f"table{pair.table}-row{pair.row:02d}",
            {"table": pair.table, "row": pair.row},
            *(None if row is None else " | ".join(row) for row in (pair.expected, pair.got)),
        )
        for pair in paired_rows(expected, got)
    ]
    for d in diffs:
        print(
            f"diff: table {d.table} row {d.row}: "
            f"expected {d.expected!r}, got {d.got!r}",
            file=out,
        )
    print(f"{len(records)} rows compared, {len(diffs)} diffs", file=out)
    _write_report("tables", records, args.json)
    return 1 if diffs else 0


def run_verify(args: SimpleNamespace, out) -> int:
    if args.suite == "all":
        suites = list(SUITES.values())
    else:
        suite = SUITES[args.suite]
        if args.p is not None and not suite.primes:
            raise UsageError(f"suite {args.suite} takes no --p")
        if args.n is not None and not suite.ranks:
            raise UsageError(f"suite {args.suite} takes no --n")
        suites = [suite]
    if args.p is not None:
        make_base(args.p)  # raises NonOddPrimeError unless p is an odd prime
    records = [r for suite in suites for r in _suite_records(suite, args.p, args.n)]
    report = _write_report(args.suite, records, args.json)
    for rec in report["records"]:
        print(f"{rec['verdict']:4s}  {rec['id']}", file=out)
    summary = report["summary"]
    print(f"{args.suite}: {summary['pass']} passed, {summary['fail']} failed", file=out)
    return 0 if summary["fail"] == 0 else 1


def run_hilbert(args: SimpleNamespace, out) -> int:
    F = make_base(args.p)
    a = square_class_of_int(F, args.a)
    b = square_class_of_int(F, args.b)
    print(f"{hilbert_symbol(F, a, b):+d}", file=out)
    return 0


# name: (runner, positionals, options, required options); each positional and
# option maps to a converter or to the tuple of its choices
_COMMANDS = {
    "tables": (run_tables, {}, {"--json": str}, ()),
    "verify": (run_verify, {"suite": (*SUITES, "all")}, {"--p": int, "--n": int, "--json": str}, ()),
    "hilbert": (run_hilbert, {"a": int, "b": int}, {"--p": int}, ("--p",)),
}


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _convert(name: str, kind, token: str):
    if isinstance(kind, tuple) and token not in kind:
        choices = ", ".join(map(repr, kind))
        _usage_error(f"argument {name}: invalid choice: {token!r} (choose from {choices})")
    try:
        return token if isinstance(kind, tuple) else kind(token)
    except ValueError:
        _usage_error(f"argument {name}: invalid {kind.__name__} value: {token!r}")


def _parse_args(argv: Sequence[str] | None = None) -> SimpleNamespace:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        print(__doc__ or "", end="")  # python -OO strips the docstring
        raise SystemExit(0)
    if not argv:
        _usage_error("the following arguments are required: command")
    command = _convert("command", tuple(_COMMANDS), argv[0])
    _, positionals, options, required = _COMMANDS[command]
    args = {"command": command, **dict.fromkeys(("suite", "p", "n", "json", "a", "b"))}
    names, extras = iter(positionals), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _usage_error(f"argument {token}: expected one argument")
            args[token[2:]] = _convert(token, options[token], value)
        elif token.startswith("--") or (name := next(names, None)) is None:
            extras.append(token)
        else:
            args[name] = _convert(name, positionals[name], token)
    missing = [option for option in required if args[option[2:]] is None] + list(names)
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


def build_parser() -> SimpleNamespace:
    """The parser: ``build_parser().parse_args(argv)`` reads ``argv`` against ``_COMMANDS``."""
    return SimpleNamespace(parse_args=_parse_args)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args, out)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
