"""Scenario-level verification reports."""

import io

import pytest
from conftest import ext_units, field_units, fresh_shared_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchar import case_studies, root_orbits
from quadchar.case_studies import (
    CheckRecord,
    ScenarioReport,
    verify_gl2,
    verify_gln_odd,
    verify_sl2,
    verify_un_odd,
)
from quadchar.char_engine import CLASS_TRIPLES
from quadchar.cli import _encode, main
from quadchar.padic_fields import (
    SQUARE_CLASS_PI,
    NonOddPrimeError,
    SquareClass,
    biquadratic_diamond,
    make_base,
    omega_quadratic,
    quadratic_extension,
    ramified_quadratic,
    unramified_quadratic,
    zeta_lambda_ratio,
)
from quadchar.residue_fields import FiniteField, QuadraticExtension, _is_prime
from quadchar.root_orbits import Deg, classify_orbits, gln_root_system

SMALL_PRIMES = (3, 5, 7, 13)


# -- scenario reports --------------------------------------------------------


@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize("case", ("odd", "even_a", "even_b"))
def test_gl2_scenarios_pass(p, case):
    prefix = "gl2-" + case.replace("_", "-") + "-"
    records = [r for r in verify_gl2(p).records if r.id.startswith(prefix)]
    assert records
    assert all(r.verdict == "pass" for r in records)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_sl2_scenarios_pass(p):
    assert all(r.verdict == "pass" for r in verify_sl2(p).records)


@pytest.mark.parametrize("n", (3, 5, 7))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_gln_scenarios_pass(n, p):
    assert all(r.verdict == "pass" for r in verify_gln_odd(n, p).records)


@pytest.mark.parametrize("n", (3, 5, 7, 15))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_un_scenarios_pass(n, p):
    assert all(r.verdict == "pass" for r in verify_un_odd(n, p).records)


def test_gl2_odd_uniformizer_cancellation():
    """The two gated signs multiply to -1 at a uniformizer, for every p."""
    for p in SMALL_PRIMES:
        report = verify_gl2(p)
        by_id = {r.id: r for r in report.records}
        assert by_id["gl2-odd-gated-signs-at-uniformizer"].got == -1
        assert by_id["gl2-odd-step-character-at-uniformizer"].got == -1
        # the closed forms of the two factors
        assert (-1) ** ((p - 1) // 2) * (-1) ** ((p + 1) // 2) == -1


def test_gl2_even_b_ratio_record():
    report = verify_gl2(5)
    by_id = {r.id: r for r in report.records}
    assert by_id["gl2-even-b-lambda-ratio"].got == -1
    assert by_id["gl2-even-b-toral-invariant"].got == [1]


def test_gl2_rejects_large_prime():
    assert all(r.verdict == "pass" for r in verify_gl2(17).records)
    with pytest.raises(ValueError):
        verify_gl2(10007)


def test_gln_rejects_even_rank():
    with pytest.raises(ValueError):
        verify_gln_odd(4, 5)


@pytest.mark.parametrize("p", (1, 2, 9))
def test_gln_rejects_a_non_odd_prime(p):
    with pytest.raises(NonOddPrimeError):
        verify_gln_odd(3, p)


def test_un_rejects_unsupported_rank():
    """``un`` takes ``gln``'s rank rule: odd ``3 <= n <= 15``."""
    for n, message in ((4, "odd n >= 3"), (1, "odd n >= 3"), (17, "capped at n <= 15")):
        with pytest.raises(ValueError, match=message):
            verify_un_odd(n, 5)


def test_un_checks_the_field_cap_before_classifying(monkeypatch):
    def classify(system):
        raise AssertionError("classified before the field cap was checked")

    monkeypatch.setattr(case_studies, "classify_orbits", classify)
    with pytest.raises(ValueError, match="field size 10007 exceeds cap 10000"):
        verify_un_odd(3, 10007)


def test_reports_are_json_serializable():
    reports = [
        verify_gl2(3),
        verify_sl2(3),
        verify_gln_odd(3, 3),
        verify_un_odd(3, 3),
    ]
    for report in reports:
        rows = [
            {"id": r.id, "inputs": r.inputs, "expected": r.expected, "got": r.got}
            for r in report.records
        ]
        _encode(rows, "\n")  # must not raise; the serializer the CLI writes with


def test_report_fails_on_mismatched_record():
    report = ScenarioReport()
    report.add("ok", {}, 1, 1)
    report.add("broken", {}, 1, -1)
    assert [r.verdict for r in report.records] == ["pass", "fail"]
    assert CheckRecord("broken", {}, 1, -1).verdict == "fail"


def test_gln_exhaustive_record_counts_elements():
    report = verify_gln_odd(3, 3)
    by_id = {r.id: r for r in report.records}
    rec = by_id["gln-unit-signs-trivial"]
    assert rec.inputs["elements"] == 3**3 - 1
    assert rec.got == 0 and rec.expected == 0


def _swap_step_kinds(step_kind):
    swap = {Deg.SPLIT: Deg.SPLIT, Deg.RAM: Deg.UNRAM, Deg.UNRAM: Deg.RAM}
    return lambda lower, upper: swap[step_kind(lower, upper)]


def _always_split(derive):
    return lambda *triple: (derive(*triple)[0], Deg.SPLIT)


# The twisted step of both gln classes is split, so a derivation that
# always answers "split" agrees with the inertia data there.
@pytest.mark.parametrize(
    "name,mutate,failing",
    [
        ("_step_kind", _swap_step_kinds, ("gln", "un")),
        ("derive_op_data", _always_split, ("un",)),
    ],
    ids=["ramification-swapped", "twisted-step-always-split"],
)
def test_class_derivation_mutants_fail_verify(monkeypatch, name, mutate, failing):
    """The ``*-class-zeta-*`` records come from ``orbit_class``, so they can fail."""
    monkeypatch.setattr(root_orbits, name, mutate(getattr(root_orbits, name)))
    for suite in failing:
        assert main(["verify", suite], out=io.StringIO()) != 0


def test_patched_classification_reaches_systems_classified_earlier(monkeypatch):
    """A mutant of a classification helper fails ``verify`` once the caches are cleared."""
    assert main(["verify", "gln"], out=io.StringIO()) == 0
    # a negation that fixes every root makes every orbit look symmetric
    monkeypatch.setattr(root_orbits, "_neg", lambda v: v)
    root_orbits.gln_root_system.cache_clear()
    root_orbits._root_set.cache_clear()  # the negation is read once per root set
    assert main(["verify", "gln"], out=io.StringIO()) != 0


def test_patched_class_rule_reaches_systems_whose_zetas_were_read_earlier(monkeypatch):
    """A mutant of the class rule fails ``verify`` once the caches are cleared."""
    assert main(["verify", "gln"], out=io.StringIO()) == 0
    # class 1's zeta is trivial on both branches; gln's ramified branch expects another
    monkeypatch.setattr(case_studies, "orbit_class", lambda record, inertia: CLASS_TRIPLES[0])
    fresh_shared_caches.__wrapped__()
    assert main(["verify", "gln"], out=io.StringIO()) != 0


def test_a_symmetric_orbit_with_a_trivial_step_is_inconsistent_inertia(monkeypatch, capsys):
    # under the same mutant the signed stabilizer is the stabilizer, so the
    # symmetric orbit's step is trivial: an inertia fault, not a bare KeyError
    monkeypatch.setattr(root_orbits, "_neg", lambda v: v)
    assert main(["verify", "gln"], out=io.StringIO()) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: inconsistent inertia: a symmetric orbit")


@pytest.mark.parametrize("n", [3, 7])
def test_branch_zetas_take_g_to_the_n_from_the_generator(monkeypatch, n):
    # the <g**n> inertia comes from the generator, not from another closure
    system = gln_root_system(n)
    zetas = case_studies._branch_zetas(system)
    monkeypatch.setattr(root_orbits.TwistedRootSystem, "group_elements", None)
    case_studies._branch_zetas.cache_clear()  # else the memo answers without the body
    assert case_studies._branch_zetas(system) == zetas


def test_class_record_fails_when_orbits_disagree(monkeypatch):
    # all but the first orbit get class 1, whose zeta is trivial on both
    # branches; on the ramified branch the first orbit's class 3 is not
    first_base = classify_orbits(gln_root_system(3))[0].base_root
    real = case_studies.orbit_class

    def disagreeing(record, inertia):
        return real(record, inertia) if record.base_root == first_base else CLASS_TRIPLES[0]

    monkeypatch.setattr(case_studies, "orbit_class", disagreeing)
    by_id = {r.id: r for r in verify_gln_odd(3, 3).records}
    assert by_id["gln-class-zeta-ur"].verdict == "pass"
    assert by_id["gln-class-zeta-r"].got == "1 | sgn(k_E_a^x) . alpha"
    assert by_id["gln-class-zeta-r"].verdict == "fail"


# -- sign counts by exponent parity -----------------------------------------


def solutions_by_enumeration(a: int, b: int, modulus: int) -> set[int]:
    """Oracle: every ``m`` in ``Z/modulus`` with ``m*a = b``, by testing each."""
    return {m for m in range(modulus) if (m * a - b) % modulus == 0}


def assert_negative_count_matches_enumeration(e: int, order: int) -> None:
    """``g**(m*e*half)`` is ``-1`` exactly when ``m*e*half = half (mod order)``."""
    half = order // 2
    expected = len(solutions_by_enumeration(e * half, half, order))
    assert case_studies._negative_count(e, order) == expected, (e, order)


def test_negative_count_matches_enumeration_for_small_even_orders():
    for order in range(2, 257, 2):
        for e in range(-3, order + 3):
            assert_negative_count_matches_enumeration(e, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5 * 10**4), st.integers(-(10**6), 10**6))
def test_odd_exponent_makes_half_the_group_negative(half, e):
    """The sign of ``g**(m*e)`` in a cyclic group of order ``2*half``."""
    assert_negative_count_matches_enumeration(e, 2 * half)


_FACTORS = st.sampled_from((1, 2, 3, 4, 6, 12, 60))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruence_counts_match_enumeration(data):
    """The two-route counts the call sites form from ``_negative_count``.

    With ``A`` and ``B`` the ``m`` giving sign ``-1`` for exponents ``e1`` and
    ``e2``, both routes are negative on ``_negative_count(e1*e2)`` of them and
    disagree on ``_negative_count(e1 + e2)``.
    """
    order = 2 * data.draw(st.integers(1, 5 * 10**4))
    half = order // 2
    # scaled draws are even, and share factors with the order, more often
    e1, e2 = (data.draw(st.integers(-order, order)) * data.draw(_FACTORS) for _ in range(2))
    first = solutions_by_enumeration(e1 * half, half, order)
    second = solutions_by_enumeration(e2 * half, half, order)
    assert case_studies._negative_count(e1, order) == len(first)
    assert case_studies._negative_count(e2, order) == len(second)
    assert case_studies._negative_count(e1 * e2, order) == len(first & second)
    assert case_studies._negative_count(e1 + e2, order) == len(first ^ second)


# Every gl2 sign bit at a generator is odd, and each gl2 record's identity
# holds in every sign class, so moving units between classes changes no gl2
# verdict: only the gln and un records see these mutants.
@pytest.mark.parametrize(
    "mutant",
    [lambda e, order: order // 2 * (e % 2 == 0), lambda e, order: order // 2],
    ids=["parity-flipped-fails-gln-un", "exponent-ignored-fails-gln-un"],
)
def test_negative_count_mutants_fail_verify(monkeypatch, mutant):
    monkeypatch.setattr(case_studies, "_negative_count", mutant)
    suites = ("gln", "un", "gl2")
    failing = {suite for suite in suites if main(["verify", suite], out=io.StringIO())}
    assert failing == {"gln", "un"}


# -- residue-sign counts against an exhaustive sweep -------------------------

# The sweeps below are the exhaustive oracle for the counted sl2 and gl2
# scenarios: they evaluate the residue characters on every element.  They read
# the characters from ``case_studies`` at call time, so a character substituted
# there reaches the sweep and the counted scenario alike, and they never touch
# ``QuadraticExtension.generator``.

ORACLE_PRIMES = [p for p in range(3, 102) if _is_prime(p)]


def _bit(sign: int) -> int:
    return 0 if sign == 1 else 1


def sweep_sl2(p: int) -> dict[str, tuple[dict, object]]:
    """Oracle: ``(inputs, got)`` of each sl2 record that sweeps the norm-one torus."""
    ext = QuadraticExtension(FiniteField(p))
    norm_one = [x for x in ext_units(ext) if ext.norm(x) == 1]
    doubled = [ext.mul(t, t) for t in norm_one]
    inputs = {"p": p, "elements": len(norm_one)}
    signs = sorted({case_studies.sgn_norm_one(ext, y) for y in doubled})
    swept = {
        "sl2-unramified-doubled-root-sign": (inputs, signs),
        "sl2-unramified-doubled-root-norm-one": (inputs, all(ext.norm(y) == 1 for y in doubled)),
        "sl2-adjoint-determinant": ({"p": p}, sorted({pow(ext.norm(t), 2, p) for t in norm_one})),
    }
    assert "generator" not in vars(ext)
    return swept


def sweep_gl2(p: int) -> dict[str, tuple[dict, object]]:
    """Oracle: ``(inputs, got)`` of each gl2 record that sweeps the units."""
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    sgn_units, sgn_ext_units = case_studies.sgn_units, case_studies.sgn_ext_units
    base = make_base(p)
    swept = {}

    # odd: each unit of the base field at both valuations
    step = quadratic_extension(ramified_quadratic(base, 0).field, SquareClass(0, 1))
    failures = total = 0
    for v in (0, 1):
        alpha_res = p - 1 if v else 1
        gated = case_studies.sgn_norm_one(ext, ext.embed(alpha_res)) * sgn_units(k, alpha_res)
        for x in field_units(k):
            omega_step = omega_quadratic(step, SquareClass(v, _bit(sgn_units(k, x))))
            total += 1
            failures += gated * omega_step != 1
    swept["gl2-odd-pointwise-product"] = ({"p": p, "elements": total}, failures)

    # even a: each unit of the quadratic extension, its sign and its norm's
    step = quadratic_extension(unramified_quadratic(base).field, SQUARE_CLASS_PI)
    third_over_base = quadratic_extension(base, SquareClass(1, 1))
    bits = [(_bit(sgn_ext_units(ext, x)), _bit(sgn_units(k, ext.norm(x)))) for x in ext_units(ext)]
    step_values = {(v, b): omega_quadratic(step, SquareClass(v, b)) for v in (0, 1) for b in (0, 1)}
    norm_values = [omega_quadratic(third_over_base, SquareClass(0, b)) for b in (0, 1)]
    mismatches = sum(
        step_values[v, big] != norm_values[small] for v in (0, 1) for big, small in bits
    )
    swept["gl2-even-a-step-equals-norm-route"] = ({"p": p, "elements": 2 * len(bits)}, mismatches)
    identity = all(big == small for big, small in bits)
    swept["gl2-even-a-sign-norm-identity"] = ({"p": p, "q": p}, identity)

    # even b: each unit of the base field at both valuations
    torus_field = ramified_quadratic(base, 0)
    ratio = zeta_lambda_ratio(biquadratic_diamond(torus_field, unramified_quadratic(base)))
    step = quadratic_extension(torus_field.field, SquareClass(0, 1))
    mismatches = total = 0
    for v in (0, 1):
        for x in field_units(k):
            total += 1
            mismatches += omega_quadratic(step, SquareClass(v, _bit(sgn_units(k, x)))) != ratio**v
    swept["gl2-even-b-step-equals-lambda-route"] = ({"p": p, "elements": total}, mismatches)

    assert "generator" not in vars(ext)
    return swept


def assert_matches_sweep(records: list[CheckRecord], swept: dict) -> None:
    by_id = {r.id: r for r in records}
    # every record that counts elements is swept
    assert {i for i, r in by_id.items() if "elements" in r.inputs} <= swept.keys()
    for record_id, (inputs, got) in swept.items():
        assert (by_id[record_id].inputs, by_id[record_id].got) == (inputs, got), record_id


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_counts_match_exhaustive_sweep(p):
    assert_matches_sweep(verify_sl2(p).records, sweep_sl2(p))
    assert_matches_sweep(verify_gl2(p).records, sweep_gl2(p))


@pytest.mark.parametrize("name", ["sgn_units", "sgn_ext_units"])
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_counts_match_sweep_with_a_trivial_character(monkeypatch, name, p):
    """The gl2 counts follow a wrong character as the sweep does, and a record fails.

    Neither character enters a swept sl2 record, so sl2 is not repeated here.
    """
    monkeypatch.setattr(case_studies, name, lambda field, x: 1)
    records = verify_gl2(p).records
    assert_matches_sweep(records, sweep_gl2(p))
    assert any(r.verdict == "fail" for r in records)
