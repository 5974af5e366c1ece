"""Canonical contribution tables: built-in rows, regeneration, and diffing.

The package ships five small tables as frozen data:

1. the twisted-Levi character per symmetry type (3 rows);
2. the toral-invariant character per orbit class (10 rows);
3. the distinction character per symmetry type (3 rows);
4. the twisted-class character per orbit class (10 rows);
5. the comparison of each orbit class with its twisted class (10 rows).

``render_tables`` renders all five tables from one row spec, which gives
for each table the classes it runs over (all ten, or one per symmetry
type) and the cells of a class's row.  The cells come from the
contribution functions of :mod:`quadchar.char_engine` and
``twisted_class`` of :mod:`quadchar.root_orbits`; titles and headers are
the built-ins'.  ``diff_tables`` reports any disagreement with the
built-ins, tables paired by number.  A clean diff is the package's primary
self-check.

Rendering conventions: step and symmetry types print as their ``Deg``
and ``Sym`` values (``1`` / ``2 ur`` / ``2 r`` and ``asym`` / ``sym ur``
/ ``sym r``), the base-extension column shows the set of ramifications
the class occurs with (``r/ur`` when both), and character cells use the
canonical strings of :meth:`CharContribution.describe`.

Table 4 shares its key columns with table 2 on purpose: row ``i``
describes the same orbit class, but its cell is the character of the
*twisted* class, the twisted-character lookup being keyed through
``twisted_class``.  Table 5 makes that pairing explicit.
"""

from __future__ import annotations

from itertools import zip_longest

from ._value import Value
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
from .root_orbits import Deg, Sym, twisted_class


class Table(Value):
    number: int
    title: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


class TableDiff(Value):
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


def _key(triple: tuple[Deg, Sym, Sym]) -> tuple[str, str, str]:
    """The ``(deg, /F, /E)`` key columns of a class."""
    return tuple(kind.value for kind in triple)


# one class per symmetry type, each with a genuine step, so the symmetric
# rows of tables 1 and 3 show the generic (nontrivial) cell
_PER_SYMMETRY = (CLASS_TRIPLES[0], CLASS_TRIPLES[5], CLASS_TRIPLES[8])


def render_tables() -> tuple[Table, ...]:
    """Regenerate all five tables from the library functions.

    One row spec per table, in table order: the classes it runs over and
    the cells of each class's row.  Titles and headers are the built-ins'.
    """

    def cell(rule, triple, gate_on):
        return rule(_representative(triple, gate_on)).describe()

    rows = (
        [(_key(t)[1], cell(prasad_contribution, t, False)) for t in _PER_SYMMETRY],
        [(*_key(t), _ef_column(t), cell(kaletha_contribution, t, True)) for t in CLASS_TRIPLES],
        [(_key(t)[1], cell(hakim_contribution, t, True)) for t in _PER_SYMMETRY],
        [
            (*_key(t), _ef_column(t), cell(zeta_contribution, twisted_class(t), False))
            for t in CLASS_TRIPLES
        ],
        # (alpha_op/F, E_a/F_a_op) are the twisted class's /F and deg columns
        [(*_key(t), *_key(twisted_class(t))[1::-1]) for t in CLASS_TRIPLES],
    )
    return tuple(table.replace(rows=tuple(r)) for table, r in zip(_BUILTIN, rows))


def paired_rows(expected: tuple[Table, ...], got: tuple[Table, ...]) -> list[TableDiff]:
    """Every row of two table sets, tables paired by number; one side only pairs with ``None``."""
    exp, gotten = ({t.number: t.rows for t in tables} for tables in (expected, got))
    return [
        TableDiff(number, i, *pair)
        for number in sorted(exp.keys() | gotten.keys())
        for i, pair in enumerate(zip_longest(exp.get(number, ()), gotten.get(number, ())), 1)
    ]


def diff_tables(expected: tuple[Table, ...], got: tuple[Table, ...]) -> list[TableDiff]:
    """Row-level differences between two table sets; a missing row or table is ``None``."""
    return [d for d in paired_rows(expected, got) if d.expected != d.got]


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
