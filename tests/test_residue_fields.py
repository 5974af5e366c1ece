"""Finite-field layer: sign characters, norm-one subgroups, Frobenius/norm/trace.

Expected values marked by brute-force enumeration are frozen from the
independent oracles defined at the top of this module (squares by direct
squaring, subgroup orders by direct counting).
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchar.residue_fields import (
    _PRIME_TEST_BOUND,
    FiniteField,
    QuadraticExtension,
    _is_prime,
    sgn_norm_one,
    sgn_units,
)

FIELDS = [
    FiniteField(3),
    FiniteField(5),
    FiniteField(7),
    FiniteField(11),
    FiniteField(13),
]


def squares_by_enumeration(k: FiniteField) -> set[int]:
    """Oracle: the set of nonzero squares, by squaring every unit."""
    return {k.mul(x, x) for x in k.units()}


def norm_one_by_enumeration(ext: QuadraticExtension) -> set[tuple[int, int]]:
    """Oracle: the norm-one subgroup, by testing every unit."""
    return {x for x in ext.units() if ext.norm(x) == 1}


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 4, 9, 15])
def test_rejects_bad_characteristic(p: int) -> None:
    with pytest.raises(ValueError):
        FiniteField(p)


def test_rejects_oversized_field() -> None:
    with pytest.raises(ValueError):
        FiniteField(10007)  # the least prime above the 10**4 cap


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------


def is_prime_by_trial_division(n: int) -> bool:
    """Oracle: primality by dividing by every integer up to the square root."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5() -> None:
    for n in range(100_000):
        assert _is_prime(n) == is_prime_by_trial_division(n), n


@pytest.mark.parametrize("n", [561, 41041, 825265])
def test_is_prime_rejects_carmichael_numbers(n: int) -> None:
    assert not _is_prime(n)


def test_is_prime_large_values() -> None:
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * 1_000_000_007)
    # the least strong pseudoprime to the first 12 prime bases: base 41 catches it
    assert not _is_prime(399165290221 * 798330580441)
    # the bound is the least strong pseudoprime to all 13 bases
    with pytest.raises(ValueError):
        _is_prime(_PRIME_TEST_BOUND)


# ---------------------------------------------------------------------------
# field arithmetic sanity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_field_axioms_exhaustive(k: FiniteField) -> None:
    els = list(k.elements())
    for x in els:
        assert k.add(x, k.neg(x)) == 0
        if x != 0:
            assert k.mul(x, k.inv(x)) == 1
    for x, y in itertools.product(els[: min(len(els), 9)], repeat=2):
        assert k.mul(x, y) == k.mul(y, x)
        assert k.add(x, y) == k.add(y, x)


# ---------------------------------------------------------------------------
# the unit sign character
# ---------------------------------------------------------------------------


def test_sgn_units_examples() -> None:
    k = FiniteField(5)
    assert sgn_units(k, 2) == -1
    assert sgn_units(k, 4) == +1


def test_sgn_units_rejects_zero() -> None:
    with pytest.raises(ValueError):
        sgn_units(FiniteField(5), 0)


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_sgn_units_matches_square_enumeration(k: FiniteField) -> None:
    squares = squares_by_enumeration(k)
    for x in k.units():
        assert sgn_units(k, x) == (+1 if x in squares else -1)
    assert len(squares) == (k.q - 1) // 2  # kernel has index 2


def test_canonical_nonsquares_frozen() -> None:
    assert FiniteField(3).canonical_nonsquare() == 2
    assert FiniteField(5).canonical_nonsquare() == 2
    assert FiniteField(7).canonical_nonsquare() == 3
    assert FiniteField(11).canonical_nonsquare() == 2
    assert FiniteField(13).canonical_nonsquare() == 2


@given(
    k=st.sampled_from(FIELDS),
    data=st.data(),
)
def test_sgn_units_multiplicative(k: FiniteField, data: st.DataObject) -> None:
    x = data.draw(st.integers(1, k.q - 1))
    y = data.draw(st.integers(1, k.q - 1))
    assert sgn_units(k, k.mul(x, y)) == sgn_units(k, x) * sgn_units(k, y)


# ---------------------------------------------------------------------------
# quadratic extension structure
# ---------------------------------------------------------------------------


def test_f9_spot_values() -> None:
    """F_9 = F_3(i) with i = sqrt(2) = sqrt(-1): Frobenius, norm, trace of i."""
    ext = QuadraticExtension(FiniteField(3))
    i = (0, 1)
    assert ext.conj(i) == (0, 2)  # -i
    assert ext.norm(i) == 1  # i * (-i) = -i^2 = 1
    assert ext.trace(i) == 0


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_frobenius_is_q_power_and_fixes_base(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    for x in ext.units():
        assert ext.conj(x) == ext.pow(x, k.q)
    for a in k.elements():
        assert ext.conj(ext.embed(a)) == ext.embed(a)


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_norm_and_trace_land_in_base_and_norm_is_multiplicative(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    units = list(ext.units())
    for x in units[:20]:
        for y in units[:20]:
            assert ext.norm(ext.mul(x, y)) == k.mul(ext.norm(x), ext.norm(y))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_norm_surjective_on_units(p: int) -> None:
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    images = {ext.norm(x) for x in ext.units()}
    assert images == set(k.units())


# ---------------------------------------------------------------------------
# the norm-one sign character
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_norm_one_subgroup_order(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    group = norm_one_by_enumeration(ext)
    assert ext.norm_one_elements() == [x for x in ext.units() if x in group]
    assert len(group) == k.q + 1


def test_sgn_norm_one_examples() -> None:
    ext = QuadraticExtension(FiniteField(3))
    i = (0, 1)
    # i^((q+1)/2) = i^2 = -1
    assert sgn_norm_one(ext, i) == -1
    # (-1)^((q+1)/2) = (-1)^2 = +1 for q = 3
    minus_one = ext.embed(ext.base.neg(1))
    assert sgn_norm_one(ext, minus_one) == +1


def test_sgn_norm_one_rejects_non_norm_one() -> None:
    ext = QuadraticExtension(FiniteField(3))
    # norm(1 + i) = 1 - u = 1 - 2 = -1 = 2, not 1
    assert ext.norm((1, 1)) != 1
    with pytest.raises(ValueError):
        sgn_norm_one(ext, (1, 1))


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_sgn_norm_one_kernel_index_two(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    values = [sgn_norm_one(ext, x) for x in ext.norm_one_elements()]
    assert values.count(+1) == values.count(-1) == (k.q + 1) // 2


@given(k=st.sampled_from(FIELDS), data=st.data())
@settings(max_examples=60)
def test_sgn_norm_one_multiplicative(k: FiniteField, data: st.DataObject) -> None:
    ext = QuadraticExtension(k)
    group = ext.norm_one_elements()
    x = data.draw(st.sampled_from(group))
    y = data.draw(st.sampled_from(group))
    assert sgn_norm_one(ext, ext.mul(x, y)) == sgn_norm_one(ext, x) * sgn_norm_one(ext, y)


# ---------------------------------------------------------------------------
# the norm-compatibility identity between the two sign characters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_sign_of_unit_equals_sign_of_norm_exhaustive(k: FiniteField) -> None:
    """x**((q^2-1)/2) = Nm(x)**((q-1)/2) for every unit x of F_{q^2}.

    The left side is the unit sign character of the big field, the right
    side the unit sign character of the base applied to the norm.
    """
    ext = QuadraticExtension(k)
    half_big = (k.q**2 - 1) // 2
    for x in ext.units():
        lhs = ext.pow(x, half_big)
        lhs_scalar = ext.scalar(lhs)
        assert lhs_scalar is not None
        rhs = k.pow(ext.norm(x), (k.q - 1) // 2)
        assert lhs_scalar == rhs
