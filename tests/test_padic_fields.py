"""Square classes, Hilbert symbol, quadratic extensions, diamonds, lambda constants.

The Hilbert symbol implementation is cross-checked against an independent
brute-force oracle: ``(a, b) = +1`` iff the conic ``a x^2 + b y^2 = z^2``
has a primitive p-adic point, tested by exhaustive search modulo ``p**4``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchar.padic_fields import (
    SQUARE_CLASS_ONE,
    SQUARE_CLASS_PI,
    SQUARE_CLASS_U,
    SQUARE_CLASS_UPI,
    BiquadraticDiamond,
    ExtKind,
    LocalFieldDesc,
    NonOddPrimeError,
    SquareClass,
    biquadratic_diamond,
    hilbert_symbol,
    lambda_unramified,
    make_base,
    omega_quadratic,
    quadratic_extension,
    ramified_quadratic,
    square_class_of_int,
    square_classes,
    unramified_quadratic,
    zeta_lambda_ratio,
)
from quadchar.residue_fields import _PRIME_TEST_BOUND, FiniteField

PRIMES = [3, 5, 7, 11, 13]
ALL_CLASSES = [SQUARE_CLASS_ONE, SQUARE_CLASS_U, SQUARE_CLASS_PI, SQUARE_CLASS_UPI]
NONTRIVIAL = ALL_CLASSES[1:]


def class_rep_int(p: int, c: SquareClass) -> int:
    """A concrete integer representative of a square class over Q_p."""
    u = FiniteField(p).canonical_nonsquare()
    return (u**c.unit_nonsquare) * (p**c.val_parity)


def conic_has_primitive_point(p: int, a: int, b: int) -> bool:
    """Oracle: does ``a x^2 + b y^2 = z^2`` have a primitive point mod p**4?

    A pair ``(x, y)`` not both divisible by ``p`` together with any ``z``
    is primitive; pairs with both coordinates divisible by ``p`` cannot
    give a primitive solution here since ``a, b`` have valuation <= 1.
    """
    m = p**4
    squares = {(z * z) % m for z in range(m)}
    for x in range(m):
        for y in range(m):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % m in squares:
                return True
    return False


# ---------------------------------------------------------------------------
# base fields and square classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 1, 4, 9, 15, 561, _PRIME_TEST_BOUND, _PRIME_TEST_BOUND + 2])
def test_make_base_rejects_bad_primes(p: int) -> None:
    with pytest.raises(NonOddPrimeError):
        make_base(p)


def test_square_classes_group_structure() -> None:
    F = make_base(5)
    classes = square_classes(F)
    assert len(classes) == 4
    assert classes[0].is_trivial
    for c in classes:
        assert c * c == SQUARE_CLASS_ONE  # every class is 2-torsion
    products = {(i, j): classes[i] * classes[j] for i in range(4) for j in range(4)}
    assert set(products.values()) <= set(classes)  # closed


def test_square_class_of_int() -> None:
    F5 = make_base(5)
    assert square_class_of_int(F5, 5) == SQUARE_CLASS_PI
    assert square_class_of_int(F5, 2) == SQUARE_CLASS_U
    assert square_class_of_int(F5, -5) == SQUARE_CLASS_PI  # -1 = 4 is a square mod 5
    assert square_class_of_int(F5, 45) == SQUARE_CLASS_PI  # 45 = 3^2 * 5
    assert square_class_of_int(make_base(3), 7) == SQUARE_CLASS_ONE
    with pytest.raises(ValueError):
        square_class_of_int(F5, 0)


# ---------------------------------------------------------------------------
# Hilbert symbol: frozen values, invariants, independent oracle
# ---------------------------------------------------------------------------


def test_hilbert_frozen_values() -> None:
    F5, F3, F7 = make_base(5), make_base(3), make_base(7)
    five = square_class_of_int(F5, 5)
    two = square_class_of_int(F5, 2)
    assert hilbert_symbol(F5, five, two) == -1  # (5, 2)_5
    assert hilbert_symbol(F5, two, five) == -1
    assert hilbert_symbol(F5, five, square_class_of_int(F5, -5)) == +1  # (5, -5)_5
    assert hilbert_symbol(F3, square_class_of_int(F3, 1), square_class_of_int(F3, 7)) == +1
    assert hilbert_symbol(F3, SQUARE_CLASS_PI, SQUARE_CLASS_PI) == -1  # (3, 3)_3
    assert hilbert_symbol(F7, SQUARE_CLASS_PI, SQUARE_CLASS_PI) == -1  # (7, 7)_7
    assert hilbert_symbol(F5, SQUARE_CLASS_PI, SQUARE_CLASS_PI) == +1  # (5, 5)_5


@pytest.mark.parametrize("p", PRIMES)
def test_hilbert_symmetric_and_bilinear(p: int) -> None:
    F = make_base(p)
    for a in ALL_CLASSES:
        for b in ALL_CLASSES:
            assert hilbert_symbol(F, a, b) == hilbert_symbol(F, b, a)
            for c in ALL_CLASSES:
                assert hilbert_symbol(F, a, b * c) == hilbert_symbol(F, a, b) * hilbert_symbol(F, a, c)


@pytest.mark.parametrize("p", PRIMES)
def test_hilbert_a_minus_a_trivial(p: int) -> None:
    F = make_base(p)
    minus_one = square_class_of_int(F, -1)
    for a in ALL_CLASSES:
        assert hilbert_symbol(F, a, minus_one * a) == +1


@pytest.mark.parametrize("p", PRIMES)
def test_hilbert_nondegenerate(p: int) -> None:
    F = make_base(p)
    for a in NONTRIVIAL:
        assert any(hilbert_symbol(F, a, b) == -1 for b in ALL_CLASSES)
    for b in ALL_CLASSES:
        assert hilbert_symbol(F, SQUARE_CLASS_ONE, b) == +1


def test_hilbert_against_conic_oracle_p3_all_pairs() -> None:
    p = 3
    F = make_base(p)
    for a in ALL_CLASSES:
        for b in ALL_CLASSES:
            expected = +1 if conic_has_primitive_point(p, class_rep_int(p, a), class_rep_int(p, b)) else -1
            assert hilbert_symbol(F, a, b) == expected, (a, b)


@pytest.mark.parametrize(
    "a,b",
    [
        (SQUARE_CLASS_PI, SQUARE_CLASS_U),
        (SQUARE_CLASS_PI, SQUARE_CLASS_PI),
        (SQUARE_CLASS_U, SQUARE_CLASS_U),
        (SQUARE_CLASS_PI, SQUARE_CLASS_UPI),
    ],
)
def test_hilbert_against_conic_oracle_p5_spot(a: SquareClass, b: SquareClass) -> None:
    p = 5
    expected = +1 if conic_has_primitive_point(p, class_rep_int(p, a), class_rep_int(p, b)) else -1
    assert hilbert_symbol(make_base(p), a, b) == expected


@given(
    p=st.sampled_from(PRIMES),
    a=st.sampled_from(ALL_CLASSES),
    b=st.sampled_from(ALL_CLASSES),
    c=st.sampled_from(ALL_CLASSES),
)
@settings(max_examples=80)
def test_hilbert_bilinearity_property(p: int, a: SquareClass, b: SquareClass, c: SquareClass) -> None:
    F = make_base(p)
    assert hilbert_symbol(F, a * b, c) == hilbert_symbol(F, a, c) * hilbert_symbol(F, b, c)


# ---------------------------------------------------------------------------
# quadratic extension descriptors and the omega character
# ---------------------------------------------------------------------------


def test_quad_ext_kinds_and_fields() -> None:
    F = make_base(5)
    ur = unramified_quadratic(F)
    assert ur.kind is ExtKind.UNRAMIFIED
    assert ur.field.f == 2
    r = ramified_quadratic(F, 0)
    assert r.kind is ExtKind.RAMIFIED
    assert r.field.f == 1


def test_omega_unramified_is_valuation_parity() -> None:
    E = unramified_quadratic(make_base(5))
    assert omega_quadratic(E, SQUARE_CLASS_PI) == -1  # odd valuation, e.g. v(t) = 3
    assert omega_quadratic(E, SQUARE_CLASS_UPI) == -1
    assert omega_quadratic(E, SQUARE_CLASS_U) == +1
    assert omega_quadratic(E, SQUARE_CLASS_ONE) == +1


@pytest.mark.parametrize("p,expected", [(5, +1), (3, -1), (7, -1), (13, +1)])
def test_omega_ramified_uniformizer_pinned_to_sign_of_minus_one(p: int, expected: int) -> None:
    """For E = F(sqrt pi): omega(pi) = omega(-1) = Legendre(-1) = (-1)**((q-1)/2)."""
    E = ramified_quadratic(make_base(p), 0)
    assert omega_quadratic(E, SQUARE_CLASS_PI) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_omega_equals_hilbert_with_discriminant(p: int) -> None:
    """Cross-check of the two independent routes: omega(t) = (t, disc E)."""
    F = make_base(p)
    for disc in NONTRIVIAL:
        E = quadratic_extension(F, disc)
        for t in ALL_CLASSES:
            assert omega_quadratic(E, t) == hilbert_symbol(F, t, disc), (p, disc, t)


@pytest.mark.parametrize("p", PRIMES)
def test_omega_is_a_character_with_norm_kernel_size(p: int) -> None:
    F = make_base(p)
    for disc in NONTRIVIAL:
        E = quadratic_extension(F, disc)
        values = [omega_quadratic(E, t) for t in ALL_CLASSES]
        assert values.count(+1) == 2 and values.count(-1) == 2
        for a in ALL_CLASSES:
            for b in ALL_CLASSES:
                assert omega_quadratic(E, a * b) == omega_quadratic(E, a) * omega_quadratic(E, b)


# ---------------------------------------------------------------------------
# biquadratic diamonds
# ---------------------------------------------------------------------------


def test_diamond_of_sqrt5_and_sqrt10_over_q5() -> None:
    F = make_base(5)
    E1 = quadratic_extension(F, square_class_of_int(F, 5))  # F(sqrt 5)
    E2 = quadratic_extension(F, square_class_of_int(F, 10))  # F(sqrt 10)
    d = biquadratic_diamond(E1, E2)
    third = d.middles[2]
    assert third.discriminant_class == square_class_of_int(F, 2)  # F(sqrt 2)
    assert third.kind is ExtKind.UNRAMIFIED


@pytest.mark.parametrize("p", PRIMES)
def test_diamond_has_exactly_one_unramified_middle(p: int) -> None:
    F = make_base(p)
    for i, d1 in enumerate(NONTRIVIAL):
        for d2 in NONTRIVIAL[i + 1 :]:
            dia = biquadratic_diamond(quadratic_extension(F, d1), quadratic_extension(F, d2))
            kinds = [m.kind for m in dia.middles]
            assert kinds.count(ExtKind.UNRAMIFIED) == 1


def test_diamond_middle_classes_multiply_to_identity() -> None:
    F = make_base(7)
    dia = biquadratic_diamond(ramified_quadratic(F, 0), ramified_quadratic(F, 1))
    c1, c2, c3 = (m.discriminant_class for m in dia.middles)
    assert c1 * c2 == c3


# ---------------------------------------------------------------------------
# lambda constants
# ---------------------------------------------------------------------------


def test_lambda_unramified_values() -> None:
    assert [lambda_unramified(n) for n in range(1, 7)] == [1, -1, 1, -1, 1, -1]


@given(inner=st.integers(1, 8), outer=st.integers(1, 8))
def test_lambda_chain_rule_consistency(inner: int, outer: int) -> None:
    """lam(K/F) = lam(K/E) * lam(E/F)**[K:E] agrees with the direct value."""
    along_tower = lambda_unramified(outer) * lambda_unramified(inner) ** outer
    assert along_tower == lambda_unramified(inner * outer)


def _pattern_diamond(p: int = 5) -> BiquadraticDiamond:
    """middles[0] ramified (unramified upper edge), middles[1] unramified."""
    F = make_base(p)
    return biquadratic_diamond(ramified_quadratic(F, 0), unramified_quadratic(F))


def test_zeta_lambda_ratio_pattern_value() -> None:
    assert zeta_lambda_ratio(_pattern_diamond()) == -1
