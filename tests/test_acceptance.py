"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line with its wall-clock time and budget, and fails if either the
checks or the budget are violated.  All comparisons are exact.
"""

from __future__ import annotations

import time

from cocycle_oracle import (
    expected_truncated_order,
    truncated_tate_minus_one_order,
)
from conftest import (
    commuting_involution_pairs,
    record_acceptance,
    signed_permutation_involutions,
)

from quadchar.case_studies import (
    verify_gl2,
    verify_gln_odd,
    verify_sl2,
    verify_un_odd,
)
from quadchar.char_engine import (
    EF,
    CheckStatus,
    conjecture_check,
    enumerate_configs,
    toral_invariant,
)
from quadchar.galois_lattices import (
    GaloisLattice,
    Gm,
    U1,
    cocharacter_lattice,
    component_group_dual,
    norm_quotient,
    prasad_torus_identity,
    tate_cohomology,
    torus_catalog,
)
from quadchar.padic_fields import (
    SquareClass,
    hilbert_symbol,
    make_base,
    omega_quadratic,
    quadratic_extension,
    square_classes,
)
from quadchar.tables import builtin_tables, diff_tables, render_tables


def _conclude(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    passed = ok and elapsed < budget
    status = "PASS" if passed else "FAIL"
    record_acceptance(
        f"{status}  criterion {num}: {label} [{elapsed:.2f}s of {budget:g}s budget]"
    )
    assert ok, f"criterion {num} checks failed: {label}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_table_regeneration() -> None:
    t0 = time.perf_counter()
    expected = builtin_tables()
    got = render_tables()
    diffs = diff_tables(expected, got)
    ok = diffs == [] and [len(t.rows) for t in got] == [3, 10, 3, 10, 10]
    _conclude(1, "all 36 table rows regenerate with zero diffs", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_unramified_symbolic_equality() -> None:
    t0 = time.perf_counter()
    configs = [c for c in enumerate_configs() if c.ef is EF.UNRAM]
    ok = len(configs) == 8
    for config in configs:
        verdict = conjecture_check(config)
        ok = (
            ok
            and verdict.status is CheckStatus.SYMBOLIC_EQUAL
            and verdict.product == verdict.zeta
        )
    _conclude(
        2,
        "every unramified config class is symbolically equal",
        ok,
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_3_gl2_pointwise_identity() -> None:
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 13):
        report = verify_gl2(p)
        ok = ok and all(r.verdict == "pass" for r in report.records)
        by_id = {r.id: r for r in report.records}
        ok = ok and by_id["gl2-odd-gated-signs-at-uniformizer"].got == -1
    _conclude(
        3,
        "quadratic-torus identity holds pointwise in all three cases, p in {3,5,7,13}",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_4_higher_rank_scenarios() -> None:
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        ok = ok and all(r.verdict == "pass" for r in verify_sl2(p).records)
        for n in (3, 5, 7):
            report = verify_gln_odd(n, p)
            ok = ok and all(r.verdict == "pass" for r in report.records)
            by_id = {r.id: r for r in report.records}
            # the exhaustive big-sign-equals-norm-sign identity
            ok = ok and by_id["gln-sign-equals-norm-sign"].got == 0
        for n in (3, 5):
            ok = ok and all(r.verdict == "pass" for r in verify_un_odd(n, p).records)
    _conclude(
        4,
        "all characters are +1 on the doubled and odd-rank scenarios",
        ok,
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_5_torus_kernel_identity() -> None:
    t0 = time.perf_counter()
    catalog = torus_catalog()
    ok = len(catalog) == 10
    for torus in catalog:
        ok = ok and prasad_torus_identity(torus).equal
    quotients = [
        norm_quotient(torus).describe()
        for torus in (Gm("F"), U1("E", "F"), U1("E1", "F"))
    ]
    ok = ok and quotients == ["Z/2", "1", "Z/2"]
    _conclude(
        5,
        "kernel-count identity on the torus catalog and the norm-quotient table",
        ok,
        time.perf_counter() - t0,
        2.0,
    )


def test_criterion_6_lattice_oracle_agreement() -> None:
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for mat in signed_permutation_involutions(n):
            lat = GaloisLattice(
                rank=n, generator_matrices=(mat,), generator_orders=(2,)
            )
            minus, zero = (
                tate_cohomology(lat, -1).order,
                tate_cohomology(lat, 0).order,
            )
            ok = ok and truncated_tate_minus_one_order(
                [mat], [2], 8
            ) == expected_truncated_order(minus, zero)
            checked += 1
        for a, b in commuting_involution_pairs(n):
            lat = GaloisLattice(
                rank=n, generator_matrices=(a, b), generator_orders=(2, 2)
            )
            minus, zero = (
                tate_cohomology(lat, -1).order,
                tate_cohomology(lat, 0).order,
            )
            ok = ok and truncated_tate_minus_one_order(
                [a, b], [2, 2], 8
            ) == expected_truncated_order(minus, zero)
            checked += 1
    ok = ok and checked == 162
    for torus in torus_catalog():
        for level in ("F", "E", "E1", "E2"):
            group = tate_cohomology(cocharacter_lattice(torus, level), -1)
            ok = ok and group.order == component_group_dual(torus, level).order
    _conclude(
        6,
        "lattice cohomology matches the truncation oracle and component-group duals",
        ok,
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_7_hilbert_symbol_suite() -> None:
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        F = make_base(p)
        classes = square_classes(F)
        minus_one = SquareClass(0, F.residue_sign_exponent)
        for a in classes:
            for b in classes:
                symbol = hilbert_symbol(F, a, b)
                ok = ok and symbol == hilbert_symbol(F, b, a)
                for c in classes:
                    ok = ok and hilbert_symbol(F, a * b, c) == hilbert_symbol(
                        F, a, c
                    ) * hilbert_symbol(F, b, c)
                if not b.is_trivial:
                    ext = quadratic_extension(F, b)
                    ok = ok and omega_quadratic(ext, a) == symbol
                if not a.is_trivial:
                    ok = ok and toral_invariant(F, a, b) == symbol
            ok = ok and hilbert_symbol(F, a, minus_one * a) == 1
            if not a.is_trivial:
                ok = ok and any(hilbert_symbol(F, a, b) == -1 for b in classes)
    _conclude(
        7,
        "Hilbert-symbol laws, step-character identity and toral invariant agree",
        ok,
        time.perf_counter() - t0,
        1.0,
    )
