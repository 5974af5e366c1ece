"""Scenario-level verification reports."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchar import case_studies, root_orbits
from quadchar.case_studies import (
    CheckRecord,
    ScenarioReport,
    congruence_solutions,
    count_common,
    count_solutions,
    verify_gl2,
    verify_gln_odd,
    verify_sl2,
    verify_un_odd,
)
from quadchar.char_engine import CLASS_TRIPLES
from quadchar.cli import _encode, main
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


@pytest.mark.parametrize("n", (3, 5))
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
    with pytest.raises(ValueError):
        verify_gl2(17)


def test_gln_rejects_even_rank():
    with pytest.raises(ValueError):
        verify_gln_odd(4, 5)


def test_un_rejects_unsupported_rank():
    with pytest.raises(ValueError):
        verify_un_odd(7, 5)


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
    swap = {"ramified": "unramified", "unramified": "ramified"}
    return lambda sub, big: swap[step_kind(sub, big)]


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
    # the whole group as Q_E holds every stabilizer, so every orbit looks split
    monkeypatch.setattr(root_orbits, "_character_kernel", lambda elements: elements)
    root_orbits.gln_root_system.cache_clear()
    assert main(["verify", "gln"], out=io.StringIO()) != 0


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


# -- sign counts by linear congruence ----------------------------------------


def solutions_by_enumeration(a: int, b: int, modulus: int) -> set[int]:
    """Oracle: every ``m`` in ``Z/modulus`` with ``m*a = b``, by testing each."""
    return {m for m in range(modulus) if (m * a - b) % modulus == 0}


def assert_counts_match(a1: int, a2: int, b: int, modulus: int) -> None:
    first = congruence_solutions(a1, b, modulus)
    second = congruence_solutions(a2, b, modulus)
    expected_first = solutions_by_enumeration(a1, b, modulus)
    expected_second = solutions_by_enumeration(a2, b, modulus)
    assert count_solutions(first, modulus) == len(expected_first)
    assert count_solutions(second, modulus) == len(expected_second)
    assert count_common(first, second, modulus) == len(expected_first & expected_second)


def test_congruence_counts_match_enumeration_for_small_even_orders():
    for modulus in range(2, 257, 2):
        half = modulus // 2
        # the solution set depends on a only through its coset, so the
        # intersections of every pair of a values are those of the cosets
        cosets = {}
        for a in range(modulus):
            coset = congruence_solutions(a, half, modulus)
            expected = solutions_by_enumeration(a, half, modulus)
            assert count_solutions(coset, modulus) == len(expected)
            assert cosets.setdefault(coset, expected) == expected
        for first, first_set in cosets.items():
            for second, second_set in cosets.items():
                assert count_common(first, second, modulus) == len(first_set & second_set)


_FACTORS = st.sampled_from((1, 2, 3, 4, 6, 12, 60))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruence_counts_match_enumeration(data):
    modulus = data.draw(st.integers(1, 10**5))
    # scaled draws share factors with the modulus more often than plain ones
    a1, a2, b = (
        data.draw(st.integers(-modulus, modulus)) * data.draw(_FACTORS)
        for _ in range(3)
    )
    assert_counts_match(a1, a2, b, modulus)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5 * 10**4), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_odd_exponent_makes_half_the_group_negative(half, c1, c2):
    """The sign of ``g**(m*c)`` in a cyclic group of order ``2*half``."""
    modulus = 2 * half
    assert_counts_match(c1 * half, c2 * half, half, modulus)
    negative = congruence_solutions(c1 * half, half, modulus)
    assert count_solutions(negative, modulus) == (half if c1 % 2 else 0)
    # two sign routes disagree, |A| + |B| - 2|A & B|, when one exponent is odd
    other = congruence_solutions(c2 * half, half, modulus)
    disagree = (
        count_solutions(negative, modulus)
        + count_solutions(other, modulus)
        - 2 * count_common(negative, other, modulus)
    )
    assert disagree == (half if (c1 + c2) % 2 else 0)
