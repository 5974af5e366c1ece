"""The command-line grammar: the table parser against an argparse oracle, help, imports.

``oracle_parser`` is the argparse spec the command line was parsed with
before ``cli._COMMANDS`` replaced it, built with ``allow_abbrev=False``.
Over argument lists drawn from the grammar (``--opt VALUE`` options, known
and unknown, among the positionals), both parsers must accept with the
same attribute values or both exit 2; every rejection is one ``error:``
line.  ``--opt=VALUE`` tokens are not drawn: argparse accepts them and the
table parser rejects them on purpose.  Nor are single-dash tokens other
than negative numbers, which argparse reads as options and the table
parser as values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import subprocess
import sys
from typing import NoReturn

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import cli

FIELDS = ("command", "suite", "p", "n", "json", "a", "b")


class _OracleParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def oracle_parser() -> argparse.ArgumentParser:
    parser = _OracleParser(prog="quadchar", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_tables = sub.add_parser("tables", allow_abbrev=False)
    p_tables.add_argument("--json", metavar="PATH")
    p_verify = sub.add_parser("verify", allow_abbrev=False)
    p_verify.add_argument("suite", choices=(*cli.SUITES, "all"))
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--json", metavar="PATH")
    p_hilbert = sub.add_parser("hilbert", allow_abbrev=False)
    p_hilbert.add_argument("--p", type=int, required=True)
    p_hilbert.add_argument("a", type=int)
    p_hilbert.add_argument("b", type=int)
    return parser


ORACLE = oracle_parser()


def outcome(parse, argv: list[str]):
    """``(0, attribute values)`` if ``parse`` accepts ``argv``, else ``(exit code, stderr)``."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, err.getvalue()
    return 0, {name: getattr(args, name, None) for name in FIELDS}


ints = st.one_of(
    st.sampled_from(["3", "5", "7", "13", "-5", "10007"]),
    st.integers().map(str),
    st.integers(min_value=-(10**60), max_value=10**60).map(str),
    st.just("9" * 5000),  # past int()'s digit limit
)
non_ints = st.sampled_from(["x", "1.5", "-1.5", "", "0x10", " 7 ", "1_000", "\u0663", "out.json"])
values = st.one_of(ints, ints, non_ints)
suites = st.sampled_from([*cli.SUITES, "all", "all", "nosuch", "GL2", "verify"])
unknown_options = st.sampled_from(["--a", "--suite", "--bogus", "--inject-wrong-row", "--js"])
# What each command takes: its required pieces, then the options it may be given.
GRAMMAR = {
    "tables": ((), ("--json",)),
    "verify": ((suites,), ("--p", "--n", "--json")),
    "hilbert": ((ints, ints, ("--p", ints)), ()),
}


@st.composite
def grammar_argvs(draw) -> list[str]:
    """A command with its pieces in any order, and up to three faults among them.

    A fault is a missing required piece, an unknown option, an option another
    command takes, an option without its value, an extra positional or a
    value of the wrong kind.
    """
    command = draw(st.sampled_from(list(GRAMMAR)))
    required, optional = GRAMMAR[command]
    pieces = [
        [piece[0], draw(piece[1])] if isinstance(piece, tuple) else [draw(piece)]
        for piece in required
    ]
    if pieces and draw(st.integers(0, 3)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    for option in optional:
        if draw(st.booleans()):
            pieces.append([option, draw(values if option == "--json" else ints)])
    faults = st.one_of(
        st.tuples(unknown_options, values).map(list),
        st.sampled_from(["--p", "--n", "--json"]).map(lambda o: [o]),
        st.tuples(st.sampled_from(["--p", "--n", "--json"]), values).map(list),
        st.one_of(values, suites).map(lambda v: [v]),
    )
    pieces += draw(st.lists(faults, max_size=2))
    order = draw(st.permutations(range(len(pieces))))
    return [command, *(token for i in order for token in pieces[i])]


argvs = st.one_of(
    grammar_argvs(),
    grammar_argvs(),
    grammar_argvs(),
    st.lists(
        st.one_of(values, suites, unknown_options, st.sampled_from(["--p", "--json"])), max_size=4
    ),
)


@given(argvs)
@settings(max_examples=400, deadline=None)
@example(["hilbert", "--p", "5", "5", "-5"])
@example(["hilbert", "1", "--p", "5", "-2"])
@example(["verify", "--p", "3", "gl2", "--p", "5"])
@example(["verify", "gl2", "--p"])
@example(["verify", "gl2", "--json", "--p", "3"])
@example(["hilbert", "1"])
@example(["hilbert", "1", "2"])
@example(["tables", "--bogus", "5"])
@example([])
def test_table_parser_agrees_with_the_argparse_oracle(argv):
    got = outcome(cli.build_parser().parse_args, argv)
    want = outcome(ORACLE.parse_args, argv)
    assert got[0] == want[0]
    if got[0] == 0:
        assert got[1] == want[1]
    else:
        assert got[0] == 2
        for err in (got[1], want[1]):
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["verify", "--help"], ["verify", "all", "--json", "REPORT", "-h"]],
    ids=["top-level", "subcommand", "with-json"],
)
def test_help_prints_the_docstring_and_writes_no_report(argv, tmp_path, capsys):
    path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([str(path) if token == "REPORT" else token for token in argv])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (cli.__doc__, "")
    assert not path.exists()


def test_cli_runs_without_argparse_gettext_or_locale():
    script = (
        "import io, sys\n"
        "from quadchar import cli\n"
        "assert cli.main(['verify', 'gl2', '--p', '3'], io.StringIO()) == 0\n"
        "assert cli.main(['tables'], io.StringIO()) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
