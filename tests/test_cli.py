"""Command-line contract: subcommands, report schema, exit codes."""

import io
import json
import subprocess
import sys

import pytest

from quadchar.cli import main

EXPECTED_ROW_TOTAL = 3 + 10 + 3 + 10 + 10


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- tables ------------------------------------------------------------------


def test_tables_match_builtins():
    code, output = run_cli(["tables"])
    assert code == 0
    assert f"{EXPECTED_ROW_TOTAL} rows compared, 0 diffs" in output


def test_tables_negative_control():
    code, output = run_cli(["tables", "--inject-wrong-row"])
    assert code == 1
    assert "diff: table 4 row 1" in output


def test_tables_json_report(tmp_path):
    path = tmp_path / "tables.json"
    code, _ = run_cli(["tables", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["schema_version"] == 1
    assert report["suite"] == "tables"
    assert len(report["records"]) == EXPECTED_ROW_TOTAL
    assert report["summary"] == {"pass": EXPECTED_ROW_TOTAL, "fail": 0}


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


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--p", "2", "1", "3"],
        ["hilbert", "--p", "9", "1", "3"],
        ["hilbert", "--p", "5", "0", "3"],
        ["verify", "gl2", "--p", "17"],
        ["verify", "gln", "--n", "4"],
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
    ],
)
def test_non_odd_prime_p_is_usage_error(argv, capsys):
    code, output = run_cli(argv)
    assert code == 2
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
