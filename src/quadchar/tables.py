"""Canonical contribution tables: built-in rows, regeneration, and diffing.

The package ships five small tables as frozen data:

1. the twisted-Levi character per symmetry type (3 rows);
2. the toral-invariant character per orbit class (10 rows);
3. the distinction character per symmetry type (3 rows);
4. the twisted-class character per orbit class (10 rows);
5. the comparison of each orbit class with its twisted class (10 rows).

``render_tables`` regenerates every row from the contribution functions
of :mod:`quadchar.char_engine` and the structural twist derivation of
:mod:`quadchar.root_orbits`; ``diff_tables`` reports any disagreement
with the built-ins.  A clean diff is the package's primary self-check.

Rendering conventions: step types print as ``1`` / ``2 ur`` / ``2 r``,
symmetry types as ``asym`` / ``sym ur`` / ``sym r``, the base-extension
column shows the set of ramifications the class occurs with (``r/ur``
when both), and character cells use the canonical strings of
:meth:`CharContribution.describe`.

Table 4 shares its key columns with table 2 on purpose: row ``i``
describes the same orbit class, but its cell is the character of the
*twisted* class, obtained by keying the twisted-character lookup through
the class's twist partner.  Table 5 makes that pairing explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .char_engine import (
    CLASS_TRIPLES,
    EF,
    allowed_ef,
    hakim_contribution,
    kaletha_contribution,
    make_config,
    prasad_contribution,
    zeta_contribution,
)
from .root_orbits import Deg, Sym, derive_op_data

__all__ = [
    "Table",
    "TableDiff",
    "builtin_tables",
    "render_tables",
    "diff_tables",
    "format_table",
    "format_all",
    "inject_wrong_row",
]

_DEG_TEXT = {Deg.SPLIT: "1", Deg.UNRAM: "2 ur", Deg.RAM: "2 r"}
_SYM_TEXT = {Sym.ASYM: "asym", Sym.SYM_UNRAM: "sym ur", Sym.SYM_RAM: "sym r"}


@dataclass(frozen=True)
class Table:
    number: int
    title: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TableDiff:
    table: int
    row: int  # 1-based row number
    expected: tuple[str, ...] | None
    got: tuple[str, ...] | None


_BUILTIN = (
    Table(
        number=1,
        title="Twisted-Levi character",
        header=("/F", "contribution"),
        rows=(
            ("asym", "1"),
            ("sym ur", "omega(E_a/F_a) . iota . alpha"),
            ("sym r", "omega(E_a/F_a) . iota . alpha"),
        ),
    ),
    Table(
        number=2,
        title="Toral-invariant character",
        header=("[E_a:F_a]", "/F", "/E", "E/F", "contribution"),
        rows=(
            ("1", "asym", "asym", "r/ur", "1"),
            ("2 ur", "asym", "asym", "r/ur", "1"),
            ("2 r", "asym", "asym", "r", "sgn(k_E_a^x) . alpha"),
            ("1", "sym ur", "asym", "ur", "1"),
            ("1", "sym ur", "sym ur", "r/ur", "1"),
            ("2 r", "sym ur", "sym ur", "r", "sgn(k_E_a^1) . alpha"),
            ("1", "sym r", "asym", "r", "sgn(k_E_a^x) . alpha"),
            ("1", "sym r", "sym r", "r/ur", "1"),
            ("2 ur", "sym r", "sym r", "r/ur", "1"),
            ("2 ur", "sym r", "sym ur", "r", "sgn(k_E_a^1) . alpha"),
        ),
    ),
    Table(
        number=3,
        title="Distinction character",
        header=("/F", "contribution"),
        rows=(
            ("asym", "1"),
            ("sym ur", "1"),
            ("sym r", "sgn(k_F_a^x) . alpha"),
        ),
    ),
    Table(
        number=4,
        title="Twisted-class character",
        header=("[E_a:F_a_op]", "/F", "/E", "E/F", "contribution"),
        rows=(
            ("1", "asym", "asym", "r/ur", "1"),
            ("2 ur", "asym", "asym", "r/ur", "1"),
            ("2 r", "asym", "asym", "r", "1"),
            ("1", "sym ur", "asym", "ur", "1"),
            ("1", "sym ur", "sym ur", "r/ur", "1"),
            ("2 r", "sym ur", "sym ur", "r", "1"),
            ("1", "sym r", "asym", "r", "sgn(k_E_a^x) . alpha"),
            ("1", "sym r", "sym r", "r/ur", "1"),
            ("2 ur", "sym r", "sym r", "r/ur", "omega(E_a/F_a) . iota . alpha"),
            ("2 ur", "sym r", "sym ur", "r", "omega(E_a/F_a) . iota . alpha"),
        ),
    ),
    Table(
        number=5,
        title="Comparison of each class with its twist",
        header=("[E_a:F_a_op]", "alpha/F", "alpha/E", "alpha_op/F", "E_a/F_a_op"),
        rows=(
            ("1", "asym", "asym", "asym", "1"),
            ("2 ur", "asym", "asym", "sym ur", "1"),
            ("2 r", "asym", "asym", "sym r", "1"),
            ("1", "sym ur", "asym", "asym", "2 ur"),
            ("1", "sym ur", "sym ur", "sym ur", "1"),
            ("2 r", "sym ur", "sym ur", "sym r", "2 ur"),
            ("1", "sym r", "asym", "asym", "2 r"),
            ("1", "sym r", "sym r", "sym r", "1"),
            ("2 ur", "sym r", "sym r", "sym r", "2 ur"),
            ("2 ur", "sym r", "sym ur", "sym ur", "2 r"),
        ),
    ),
)


def builtin_tables() -> tuple[Table, ...]:
    return _BUILTIN


def _ef_column(triple: tuple[Deg, Sym, Sym]) -> str:
    allowed = allowed_ef(triple)
    if set(allowed) == {EF.UNRAM, EF.RAM}:
        return "r/ur"
    return "r" if allowed == (EF.RAM,) else "ur"


def _representative(triple: tuple[Deg, Sym, Sym], gate_on: bool):
    """A config of the class, gated on when a ramified base extension allows."""
    ef = EF.RAM if EF.RAM in allowed_ef(triple) else EF.UNRAM
    return make_config(triple, ef, in_phi_half=gate_on and ef is EF.RAM)


def _twist_partner(triple: tuple[Deg, Sym, Sym]) -> tuple[Deg, Sym, Sym]:
    """The class of the twisted orbit (an involution on the ten classes)."""
    sym_op, deg_op = derive_op_data(*triple)
    return (deg_op, sym_op, triple[2])


def _render_table1() -> Table:
    # one representative per symmetry type, chosen with a genuine step so
    # the generic (nontrivial) cell is shown for the symmetric rows
    reps = (CLASS_TRIPLES[0], CLASS_TRIPLES[5], CLASS_TRIPLES[8])
    rows = tuple(
        (_SYM_TEXT[triple[1]], prasad_contribution(_representative(triple, False)).describe())
        for triple in reps
    )
    return Table(1, _BUILTIN[0].title, _BUILTIN[0].header, rows)


def _render_table2() -> Table:
    rows = []
    for triple in CLASS_TRIPLES:
        cfg = _representative(triple, gate_on=True)
        rows.append(
            (
                _DEG_TEXT[triple[0]],
                _SYM_TEXT[triple[1]],
                _SYM_TEXT[triple[2]],
                _ef_column(triple),
                kaletha_contribution(cfg).describe(),
            )
        )
    return Table(2, _BUILTIN[1].title, _BUILTIN[1].header, tuple(rows))


def _render_table3() -> Table:
    reps = (CLASS_TRIPLES[0], CLASS_TRIPLES[5], CLASS_TRIPLES[8])
    rows = tuple(
        (
            _SYM_TEXT[triple[1]],
            hakim_contribution(_representative(triple, gate_on=True)).describe(),
        )
        for triple in reps
    )
    return Table(3, _BUILTIN[2].title, _BUILTIN[2].header, rows)


def _render_table4() -> Table:
    rows = []
    for triple in CLASS_TRIPLES:
        partner = _twist_partner(triple)
        cell = zeta_contribution(_representative(partner, gate_on=False)).describe()
        rows.append(
            (
                _DEG_TEXT[triple[0]],
                _SYM_TEXT[triple[1]],
                _SYM_TEXT[triple[2]],
                _ef_column(triple),
                cell,
            )
        )
    return Table(4, _BUILTIN[3].title, _BUILTIN[3].header, tuple(rows))


def _render_table5() -> Table:
    rows = []
    for triple in CLASS_TRIPLES:
        sym_op, deg_op = derive_op_data(*triple)
        rows.append(
            (
                _DEG_TEXT[triple[0]],
                _SYM_TEXT[triple[1]],
                _SYM_TEXT[triple[2]],
                _SYM_TEXT[sym_op],
                _DEG_TEXT[deg_op],
            )
        )
    return Table(5, _BUILTIN[4].title, _BUILTIN[4].header, tuple(rows))


def render_tables() -> tuple[Table, ...]:
    """Regenerate all five tables from the library functions."""
    return (
        _render_table1(),
        _render_table2(),
        _render_table3(),
        _render_table4(),
        _render_table5(),
    )


def diff_tables(expected: tuple[Table, ...], got: tuple[Table, ...]) -> list[TableDiff]:
    """Row-level differences between two table sets."""
    diffs: list[TableDiff] = []
    for exp_table, got_table in zip(expected, got):
        count = max(len(exp_table.rows), len(got_table.rows))
        for idx in range(count):
            exp_row = exp_table.rows[idx] if idx < len(exp_table.rows) else None
            got_row = got_table.rows[idx] if idx < len(got_table.rows) else None
            if exp_row != got_row:
                diffs.append(TableDiff(exp_table.number, idx + 1, exp_row, got_row))
    return diffs


def inject_wrong_row(tables: tuple[Table, ...], table_number: int = 4) -> tuple[Table, ...]:
    """Corrupt one cell of one table; negative control for the diff path."""
    out = []
    for table in tables:
        if table.number == table_number:
            rows = list(table.rows)
            first = list(rows[0])
            first[-1] = "sgn(k_E_a^x) . alpha" if first[-1] == "1" else "1"
            rows[0] = tuple(first)
            out.append(replace(table, rows=tuple(rows)))
        else:
            out.append(table)
    return tuple(out)


def format_table(table: Table) -> str:
    """Aligned, pipe-separated canonical rendering of one table."""
    all_rows = [table.header, *table.rows]
    widths = [max(len(row[i]) for row in all_rows) for i in range(len(table.header))]
    lines = [f"Table {table.number}: {table.title}"]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table.header, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in table.rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def format_all(tables: tuple[Table, ...]) -> str:
    return "\n\n".join(format_table(t) for t in tables)
