"""Command-line contract: subcommands, report schema, exit codes."""

import collections
import contextlib
import enum
import hashlib
import io
import json
import pathlib
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import cli, tables
from quadchar.case_studies import CheckRecord
from quadchar.char_engine import CLASS_TRIPLES, SGN_UNITS_ORBIT
from quadchar.cli import _encode, _write_report, main
from quadchar.residue_fields import _PRIME_TEST_BOUND

EXPECTED_ROW_TOTAL = 3 + 10 + 3 + 10 + 10

# sha256 of the reports at their default inputs; bench/expected.json holds
# the same digests for the benchmark's ops
REPORT_DIGESTS = {
    "tables.json": "4d2d49da256f977398f890a8b7dc99d77bfc5ee4762ddb9b06205b9b97076d2d",
    "verify-all.json": "9181d5657cce0d1f5f2cd861cb45ec06314d75129160d9cd754fd7dfc57126d5",
}

# sha256 of the stdout of ``tables`` under ``wrong_class_one_zeta``
NEGATIVE_CONTROL_STDOUT_DIGEST = "634878e127b2120b59852ebd4b2562bf0538d098c16d2de6aa3f692c32d3773c"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def default_reports(tmp_path_factory):
    """``tables --json`` and ``verify all --json`` at their default inputs."""
    out = tmp_path_factory.mktemp("reports")
    assert run_cli(["tables", "--json", str(out / "tables.json")])[0] == 0
    assert run_cli(["verify", "all", "--json", str(out / "verify-all.json")])[0] == 0
    return out


def wrong_class_one_zeta(monkeypatch) -> None:
    """A wrong rule: class 1's twisted-class cell reads ``sgn(k_E_a^x) . alpha``.

    Only table 4 row 1 has class 1 as its twisted class, so the table diff
    must report that one row.
    """
    real = tables.zeta_contribution
    monkeypatch.setattr(
        tables,
        "zeta_contribution",
        lambda cfg: SGN_UNITS_ORBIT if cfg.triple == CLASS_TRIPLES[0] else real(cfg),
    )


# -- tables ------------------------------------------------------------------


def test_tables_match_builtins():
    code, output = run_cli(["tables"])
    assert code == 0
    assert f"{EXPECTED_ROW_TOTAL} rows compared, 0 diffs" in output


def test_tables_negative_control(tmp_path, monkeypatch):
    wrong_class_one_zeta(monkeypatch)
    path = tmp_path / "tables.json"
    code, output = run_cli(["tables", "--json", str(path)])
    assert code == 1
    assert "diff: table 4 row 1" in output
    assert hashlib.sha256(output.encode()).hexdigest() == NEGATIVE_CONTROL_STDOUT_DIGEST
    report = json.loads(path.read_text())
    assert report["summary"] == {"pass": 35, "fail": 1}
    failing = [r for r in report["records"] if r["verdict"] == "fail"]
    assert [(r["id"], r["expected"], r["got"]) for r in failing] == [
        (
            "table4-row01",
            "1 | asym | asym | r/ur | 1",
            "1 | asym | asym | r/ur | sgn(k_E_a^x) . alpha",
        )
    ]


def test_tables_json_report(tmp_path):
    path = tmp_path / "tables.json"
    code, _ = run_cli(["tables", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["schema_version"] == 1
    assert report["suite"] == "tables"
    assert len(report["records"]) == EXPECTED_ROW_TOTAL
    assert report["summary"] == {"pass": EXPECTED_ROW_TOTAL, "fail": 0}


@pytest.mark.parametrize(
    "change, records, failing",
    [
        (
            lambda rows: (*rows, rows[0]),
            EXPECTED_ROW_TOTAL + 1,
            ("table5-row11", None, "1 | asym | asym | asym | 1"),
        ),
        (
            lambda rows: rows[:-1],
            EXPECTED_ROW_TOTAL,  # the expected side still has every row
            ("table5-row10", "2 ur | sym r | sym ur | sym ur | 2 r", None),
        ),
    ],
    ids=["added-row", "dropped-row"],
)
def test_a_row_on_one_side_only_fails_its_record(change, records, failing, tmp_path, monkeypatch):
    """The report pairs rows as the diff does: the missing side is ``null``."""
    real = cli.render_tables

    def render():
        first, *rest = real()
        return (first, *rest[:3], rest[3].replace(rows=change(rest[3].rows)))

    monkeypatch.setattr(cli, "render_tables", render)
    path = tmp_path / "tables.json"
    code, output = run_cli(["tables", "--json", str(path)])
    assert code == 1 and output.endswith(f"{records} rows compared, 1 diffs\n")
    report = json.loads(path.read_text())
    assert len(report["records"]) == records
    assert report["summary"] == {"pass": records - 1, "fail": 1}
    [record] = [r for r in report["records"] if r["verdict"] == "fail"]
    assert (record["id"], record["expected"], record["got"]) == failing


@pytest.mark.parametrize("side", ["builtin_tables", "render_tables"], ids=["expected", "got"])
def test_a_table_on_one_side_only_fails_its_rows(side, tmp_path, monkeypatch):
    """Tables pair by number, so a table missing on either side fails each of its rows."""
    real = getattr(cli, side)
    monkeypatch.setattr(cli, side, lambda: real()[:4])
    path = tmp_path / "tables.json"
    code, output = run_cli(["tables", "--json", str(path)])
    assert code == 1 and output.endswith(f"{EXPECTED_ROW_TOTAL} rows compared, 10 diffs\n")
    report = json.loads(path.read_text())
    assert report["summary"] == {"pass": EXPECTED_ROW_TOTAL - 10, "fail": 10}
    failing = [r for r in report["records"] if r["verdict"] == "fail"]
    assert [r["id"] for r in failing] == [f"table5-row{i:02d}" for i in range(1, 11)]
    missing = "expected" if side == "builtin_tables" else "got"
    assert all(r[missing] is None for r in failing)


# -- verify ------------------------------------------------------------------


def test_verify_unramified_all_pass():
    code, output = run_cli(["verify", "unramified"])
    assert code == 0
    assert "unramified: 8 passed, 0 failed" in output


def test_verify_gl2_single_prime():
    code, output = run_cli(["verify", "gl2", "--p", "5"])
    assert code == 0
    assert "0 failed" in output
    assert "gl2-odd-pointwise-product-p5" in output


def test_verify_torus():
    code, output = run_cli(["verify", "torus"])
    assert code == 0
    assert "torus: 13 passed, 0 failed" in output


def test_verify_hilbert():
    code, output = run_cli(["verify", "hilbert"])
    assert code == 0
    assert "hilbert: 100 passed, 0 failed" in output


def test_verify_all_report_schema(tmp_path):
    path = tmp_path / "all.json"
    code, _ = run_cli(["verify", "all", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert set(report) == {"schema_version", "suite", "records", "summary"}
    assert report["schema_version"] == 1
    assert report["suite"] == "all"
    ids = [r["id"] for r in report["records"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for record in report["records"]:
        assert set(record) == {"id", "inputs", "expected", "got", "verdict"}
        assert record["verdict"] in ("pass", "fail")
    tally = {"pass": 0, "fail": 0}
    for record in report["records"]:
        tally[record["verdict"]] += 1
    assert report["summary"] == tally
    assert tally["fail"] == 0


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_default_report_bytes_are_pinned(default_reports, name):
    data = (default_reports / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == REPORT_DIGESTS[name]


def test_verify_hilbert_honours_p():
    code, output = run_cli(["verify", "hilbert", "--p", "5"])
    assert code == 0
    assert "hilbert: 20 passed, 0 failed" in output
    assert "hilbert-p05-bilinear" in output and "hilbert-p03" not in output


def test_verify_hilbert_accepts_a_large_prime_quickly():
    start = time.perf_counter()
    code, output = run_cli(["verify", "hilbert", "--p", str(2**61 - 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "hilbert: 20 passed, 0 failed" in output


def test_verify_all_applies_each_option_to_the_suites_that_take_it(tmp_path):
    path = tmp_path / "all.json"
    code, _ = run_cli(["verify", "all", "--p", "5", "--n", "5", "--json", str(path)])
    assert code == 0
    ids = [r["id"] for r in json.loads(path.read_text())["records"]]
    prefixes = {"unramified", "sl2", "gl2", "gln", "un", "torus", "hilbert"}
    assert {rid.split("-")[0] for rid in ids} == prefixes
    for rid in ids:
        suite = rid.split("-")[0]
        if suite in ("sl2", "gl2"):
            assert rid.endswith("-p5")
        elif suite in ("gln", "un"):
            assert rid.endswith("-n5-p5")
        elif suite == "hilbert":
            assert rid.startswith("hilbert-p05-")


def test_verify_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "un", "--json", str(a)])
    run_cli(["verify", "un", "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()


# -- hilbert -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["hilbert", "--p", "5", "2", "5"], "-1"),
        (["hilbert", "--p", "5", "5", "-5"], "+1"),
        (["hilbert", "--p", "3", "1", "7"], "+1"),
    ],
)
def test_hilbert_examples(argv, expected):
    code, output = run_cli(argv)
    assert code == 0
    assert output.strip() == expected


# -- exit codes ---------------------------------------------------------------


def assert_one_line_usage_error(argv: list[str], message: str, capsys) -> None:
    """The parser's errors, like the program's own, exit 2 with one line and no usage block."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_unknown_suite_is_usage_error(capsys):
    assert_one_line_usage_error(["verify", "nosuch"], "argument suite: invalid choice: 'nosuch'", capsys)


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["verify", "gln", "--p", "x"], "argument --p: invalid int value: 'x'"),
        (["verify", "gln", "--bogus"], "unrecognized arguments: --bogus"),
        (["tables", "--inject-wrong-row"], "unrecognized arguments: --inject-wrong-row"),
        (["verify", "gl2", "--p=5"], "unrecognized arguments: --p=5"),
        (["tables", "--js", "out.json"], "unrecognized arguments: --js out.json"),
        (["verify", "gl2", "--p"], "argument --p: expected one argument"),
        (["hilbert", "5", "-5"], "the following arguments are required: --p"),
    ],
    ids=[
        "missing-subcommand",
        "non-integer-p",
        "unknown-option",
        "removed-tables-switch",
        "equals-form",
        "abbreviated-option",
        "option-without-value",
        "hilbert-without-p",
    ],
)
def test_argument_parser_errors_are_one_line(argv, message, capsys):
    assert_one_line_usage_error(argv, message, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--p", "2", "1", "3"],
        ["hilbert", "--p", "9", "1", "3"],
        ["hilbert", "--p", "5", "0", "3"],
        ["verify", "gl2", "--p", "10007"],
        ["verify", "gln", "--n", "4"],
        ["verify", "gln", "--n", "31"],
    ],
)
def test_invalid_arguments_exit_2(argv):
    code, _ = run_cli(argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "gln", "--p", "9"],
        ["verify", "gln", "--p", "4"],
        ["verify", "gln", "--p", "1"],
        ["verify", "torus", "--p", "9"],
        ["verify", "hilbert", "--p", "9"],
        ["verify", "hilbert", "--p", "561"],
        ["verify", "hilbert", "--p", str(_PRIME_TEST_BOUND)],
        ["hilbert", "--p", str(_PRIME_TEST_BOUND + 2), "1", "3"],
    ],
)
def test_non_odd_prime_p_is_usage_error(argv, capsys):
    code, output = run_cli(argv)
    assert code == 2
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["sl2", "gl2", "un"])
def test_prime_past_the_field_cap_is_usage_error(suite, capsys):
    code, output = run_cli(["verify", suite, "--p", "10007"])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == "error: field size 10007 exceeds cap 10000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sl2", "--n", "5"],
        ["verify", "gl2", "--n", "3"],
        ["verify", "hilbert", "--n", "3"],
        ["verify", "torus", "--p", "5"],
        ["verify", "unramified", "--p", "5"],
        ["verify", "unramified", "--n", "3"],
    ],
)
def test_option_the_suite_does_not_take_is_usage_error(argv, capsys):
    code, output = run_cli(argv)
    assert code == 2
    assert output == ""
    err = capsys.readouterr().err
    assert err == f"error: suite {argv[1]} takes no {argv[2]}\n"


@pytest.mark.parametrize(
    "fault", [ValueError("inconsistent inertia"), AssertionError("not cyclic"), KeyError("p")]
)
def test_an_internal_fault_exits_1_with_one_line(fault, monkeypatch, capsys):
    """Only a ``UsageError`` or an ``OSError`` blames the input; any other exception exits 1."""

    def run(args, out):
        raise fault

    monkeypatch.setitem(cli._COMMANDS, "tables", (run, *cli._COMMANDS["tables"][1:]))
    assert run_cli(["tables"]) == (1, "")
    assert capsys.readouterr().err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_json_path_with_a_null_byte_is_usage_error(capsys):
    assert run_cli(["verify", "torus", "--json", "report\0.json"]) == (2, "")
    assert capsys.readouterr().err == "error: embedded null byte\n"


@pytest.mark.parametrize("argv", [["tables"], ["verify", "torus"]])
def test_empty_json_path_is_usage_error(argv, capsys):
    """An empty path is a path that cannot be opened, not a request for no report."""
    code, _ = run_cli([*argv, "--json", ""])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Bounds on one ``main`` call under ``tracemalloc``, which slows it several
# fold.  The dearest inputs measured 0.34 s (``verify all --p 9973 --n 15``)
# and a 2.0 MB peak (``verify sl2 --p 9967``) on a 2-vCPU Xeon, Python 3.11.7.
RUN_SECONDS_BOUND = 2.0
RUN_PEAK_BYTES_BOUND = 16 * 2**20

run_values = st.one_of(
    st.integers(-20, 40),  # small, negative and composite
    st.sampled_from([9, 15, 561, 9999, 9967, 9973, 10007, 2**31 - 1, 2**61 - 1]),  # near and past caps
    st.integers(10**4, 10**40),  # huge
)


@given(
    st.sampled_from((*cli.SUITES, "all")),
    st.one_of(st.none(), run_values),
    st.one_of(st.none(), run_values),
)
@settings(max_examples=80, deadline=None)
@example("all", 9973, 15)
@example("sl2", 9967, None)
@example("gln", 3, 10**9)
def test_run_on_parsed_arguments_exits_0_1_or_2_within_bounds(suite, p, n):
    """A parsed request ends in 0, 1 or 2, never a traceback, in bounded time and memory."""
    argv = ["verify", suite]
    argv += ["--p", str(p)] if p is not None else []
    argv += ["--n", str(n)] if n is not None else []
    err = io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out=io.StringIO())
    finally:
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert seconds < RUN_SECONDS_BOUND, argv
    assert peak < RUN_PEAK_BYTES_BOUND, argv


@pytest.mark.parametrize("argv", [["tables"], ["verify", "torus"]])
def test_unwritable_json_path_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, _ = run_cli([*argv, "--json", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


# -- report encoding ----------------------------------------------------------


def dumps(obj):
    """The reference encoding the report files must match byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True)


json_leaves = st.one_of(
    st.text(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.floats(),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(), children, max_size=6),
    ),
    max_leaves=20,
)


@given(json_trees)
@settings(max_examples=150, deadline=None)
@example(['"\\/\x00\x1f\x7f \u00e9\u2028\U0001f600', True, 1, False, 0, None, -(2**70)])
@example({"nan": float("nan"), "inf": [float("inf"), float("-inf"), -0.0], "e": [[], (), {}]})
def test_encode_matches_the_indented_sorted_json_dumps(tree):
    assert _encode(tree, "\n") == dumps(tree)


class Level(enum.IntEnum):
    HIGH = 2


class Colour(str, enum.Enum):
    RED = "r\u00e9d"


@pytest.mark.parametrize(
    "obj",
    [
        Level.HIGH,
        Colour.RED,
        {"level": Level.HIGH, "colour": [Colour.RED], Colour.RED: 1},
        collections.OrderedDict([("b", 1), ("a", collections.OrderedDict([("y", 2), ("x", 3)]))]),
        collections.OrderedDict(),
    ],
    ids=["intenum", "str-enum", "enum-values-and-key", "ordereddict", "empty-ordereddict"],
)
def test_encode_matches_json_dumps_on_subclasses(obj):
    assert _encode(obj, "\n") == dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [{1: "int key"}, {"a": {None: 2}}, {1, 2}, [set()], object(), {"x": [object()]}],
    ids=["int-key", "none-key", "set", "nested-set", "object", "nested-object"],
)
def test_encode_rejects_what_is_not_json(obj):
    with pytest.raises(TypeError):
        _encode(obj, "\n")


@pytest.mark.parametrize(
    "argv, wrong_zeta",
    [
        pytest.param(["tables"], False, id="tables"),
        pytest.param(["tables"], True, id="tables-wrong-zeta-rule"),
        *(
            pytest.param(["verify", suite], False, id=f"verify {suite}")
            for suite in (*cli.SUITES, "all")
        ),
    ],
)
def test_written_report_is_the_indented_sorted_json_dumps(argv, wrong_zeta, tmp_path, monkeypatch):
    if wrong_zeta:
        wrong_class_one_zeta(monkeypatch)
    reports = []

    def write_and_keep(*args):
        reports.append(_write_report(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "_write_report", write_and_keep)
    path = tmp_path / "report.json"
    run_cli([*argv, "--json", str(path)])
    [report] = reports
    assert path.read_bytes() == (dumps(report) + "\n").encode("utf-8")


def test_report_that_fails_to_encode_writes_no_file(tmp_path):
    path = tmp_path / "report.json"
    unencodable = CheckRecord("x", {"value": object()}, 1, 1)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_report("x", [unencodable], str(path))
    assert not path.exists()


def readme_examples() -> list:
    """Each ``$ quadchar ...`` line of the README's ``text`` blocks, with the lines shown under it."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    examples, in_text, shown = [], False, None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_text, shown = line == "```text", None
        elif in_text and line.startswith("$ quadchar "):
            command, shown = line[len("$ quadchar "):], []
            examples.append(pytest.param(command, shown, id=command))
        elif shown is not None:
            shown.append(line)
    return examples


@pytest.mark.parametrize("command, shown", readme_examples())
def test_readme_examples_match_the_cli(command, shown):
    """A command's output is the lines shown under it; a ``...`` line stands for any run of lines."""
    code, output = run_cli(shlex.split(command))
    assert code == 0
    lines = output.splitlines()
    if "..." in shown:
        cut = shown.index("...")
        lines[cut : len(lines) - (len(shown) - cut - 1)] = ["..."]
    assert lines == shown


def test_cli_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quadchar.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quadchar.cli", "verify", "sl2", "--p", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sl2: " in proc.stdout and "0 failed" in proc.stdout
