"""Built-in tables versus regeneration from the contribution functions."""

from __future__ import annotations

import io

import pytest

from quadchar import root_orbits
from quadchar.char_engine import CLASS_TRIPLES
from quadchar.cli import main
from quadchar.tables import (
    builtin_tables,
    diff_tables,
    format_all,
    format_table,
    render_tables,
)


def test_row_counts():
    assert [len(t.rows) for t in builtin_tables()] == [3, 10, 3, 10, 10]
    assert [len(t.rows) for t in render_tables()] == [3, 10, 3, 10, 10]


def test_regeneration_matches_builtins_exactly():
    assert diff_tables(builtin_tables(), render_tables()) == []
    for built, rendered in zip(builtin_tables(), render_tables()):
        assert built == rendered


def test_key_columns_shared_between_class_tables():
    built = builtin_tables()
    table2, table4, table5 = built[1], built[3], built[4]
    for row2, row4, row5 in zip(table2.rows, table4.rows, table5.rows):
        assert row2[:4] == row4[:4]  # same class key columns and ef column
        assert row2[:3] == row5[:3]  # same classification triple


def test_twist_columns_pair_classes_involutively():
    # the (alpha_op/F, E_a/F_a_op) columns of table 5 send each row's key
    # triple to another row's key triple, and doing it twice returns
    table5 = builtin_tables()[4].rows
    triples = {row[:3]: (row[3], row[4]) for row in table5}
    for (deg, sym_f, sym_e), (sym_op, deg_op) in triples.items():
        partner = (deg_op, sym_op, sym_e)
        assert partner in triples
        back_sym, back_deg = triples[partner]
        assert (back_sym, back_deg) == (sym_f, deg)


@pytest.mark.parametrize(
    "mutant",
    [
        lambda real, triple: triple,
        lambda real, triple: (triple[0], *real(triple)[1:]),
        lambda real, triple: (real(triple)[0], *triple[1:]),
    ],
    ids=["identity", "keeps-own-step", "keeps-own-symmetry"],
)
def test_twisted_class_mutants_fail_tables_and_verify(monkeypatch, capsys, mutant):
    """Tables 4 and 5 and the ``*-zeta`` records all read ``twisted_class``.

    A mutant whose twin is no consistent triple stops ``tables`` with an
    internal error: exit 1, as for a failed check, and never the usage code 2.
    """
    real = root_orbits.twisted_class
    for module in ("root_orbits", "char_engine", "tables"):
        monkeypatch.setattr(f"quadchar.{module}.twisted_class", lambda t: mutant(real, t))
    for argv in (["tables"], ["verify", "gl2"], ["verify", "gln"]):
        assert main(argv, out=io.StringIO()) == 1, argv
        err = capsys.readouterr().err
        assert err == "" or (err.startswith("internal error: ") and err.count("\n") == 1), argv


def test_nontrivial_cells_are_where_expected():
    built = builtin_tables()
    nontrivial2 = [i + 1 for i, row in enumerate(built[1].rows) if row[-1] != "1"]
    nontrivial4 = [i + 1 for i, row in enumerate(built[3].rows) if row[-1] != "1"]
    assert nontrivial2 == [3, 6, 7, 10]
    assert nontrivial4 == [7, 9, 10]


@pytest.mark.parametrize("table_number", [2, 4, 5])
def test_diff_structure_on_injected_error(table_number):
    corrupted = list(render_tables())
    table = corrupted[table_number - 1]
    (*keys, _), *rest = table.rows
    corrupted[table_number - 1] = table.replace(rows=((*keys, "sgn(k_E_a^x) . alpha"), *rest))
    diffs = diff_tables(builtin_tables(), tuple(corrupted))
    assert len(diffs) == 1
    diff = diffs[0]
    assert diff.table == table_number and diff.row == 1
    assert diff.expected[-1] == "1" and diff.got[-1] == "sgn(k_E_a^x) . alpha"


def test_diff_reports_missing_rows():
    tables = render_tables()
    shortened = tables[:4] + (
        type(tables[4])(
            number=5,
            title=tables[4].title,
            header=tables[4].header,
            rows=tables[4].rows[:-1],
        ),
    )
    diffs = diff_tables(builtin_tables(), shortened)
    assert len(diffs) == 1
    assert diffs[0].table == 5 and diffs[0].row == 10 and diffs[0].got is None


@pytest.mark.parametrize("missing", ["expected", "got"])
def test_diff_reports_a_missing_table(missing):
    # tables pair by number, not by position: table 3 missing on one side
    full = render_tables()
    partial = full[:2] + full[3:]
    expected, got = (partial, full) if missing == "expected" else (full, partial)
    diffs = diff_tables(expected, got)
    assert [(d.table, d.row) for d in diffs] == [(3, 1), (3, 2), (3, 3)]
    assert all(getattr(d, missing) is None for d in diffs)


def test_class_count_matches_tables():
    assert len(CLASS_TRIPLES) == 10


def test_format_is_deterministic_and_aligned():
    text_one = format_all(render_tables())
    text_two = format_all(render_tables())
    assert text_one == text_two
    assert text_one.count("Table ") == 5
    single = format_table(render_tables()[4])
    lines = single.splitlines()
    assert lines[0].startswith("Table 5")
    assert len(lines) == 2 + 1 + 10  # title, header, separator, ten rows
