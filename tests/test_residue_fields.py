"""Finite-field layer: sign characters, norm-one subgroups, Frobenius and norm.

Expected values marked by brute-force enumeration are frozen from the
independent oracles defined at the top of this module (squares by direct
squaring, subgroup orders by direct counting).
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest
from conftest import ext_elements, ext_units, field_units
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchar.residue_fields import (
    _PRIME_TEST_BOUND,
    FiniteField,
    QuadraticExtension,
    UsageError,
    _is_prime,
    sgn_ext_units,
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
    return {x * x % k.p for x in field_units(k)}


def norm_one_by_enumeration(ext: QuadraticExtension) -> set[tuple[int, int]]:
    """Oracle: the norm-one subgroup, by testing every unit."""
    return {x for x in ext_units(ext) if ext.norm(x) == 1}


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 4, 9, 15])
def test_rejects_bad_characteristic(p: int) -> None:
    with pytest.raises(UsageError):  # an input check: the command line exits 2
        FiniteField(p)


def test_rejects_oversized_field() -> None:
    # the least prime above the 10**4 cap, a composite, and a p too large to test
    for p in (10007, 10**6, _PRIME_TEST_BOUND):
        with pytest.raises(UsageError, match="exceeds cap"):
            FiniteField(p)


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
    """Fermat inverses in both fields; ``mul`` commutes and distributes over ``+``."""
    p, ext = k.p, QuadraticExtension(k)
    for x in field_units(k):
        assert x * k.pow(x, p - 2) % p == 1
    for x in ext_units(ext):
        assert ext.mul(x, ext.pow(x, p * p - 2)) == ext.one
        assert ext.mul(x, ext.one) == x
    els = [(a, b) for a in range(3) for b in range(3)]
    for x, y, z in itertools.product(els, repeat=3):
        assert ext.mul(x, y) == ext.mul(y, x)
        y_plus_z = ((y[0] + z[0]) % p, (y[1] + z[1]) % p)
        xy, xz = ext.mul(x, y), ext.mul(x, z)
        assert ext.mul(x, y_plus_z) == ((xy[0] + xz[0]) % p, (xy[1] + xz[1]) % p)


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
    for x in field_units(k):
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
    assert sgn_units(k, x * y % k.p) == sgn_units(k, x) * sgn_units(k, y)


# ---------------------------------------------------------------------------
# quadratic extension structure
# ---------------------------------------------------------------------------


def test_f9_spot_values() -> None:
    """F_9 = F_3(i) with i = sqrt(2) = sqrt(-1): Frobenius, norm, square of i."""
    ext = QuadraticExtension(FiniteField(3))
    i = (0, 1)
    assert ext.pow(i, 3) == (0, 2)  # Frobenius: i**3 = -i
    assert ext.norm(i) == 1  # i * (-i) = -i^2 = 1
    assert ext.mul(i, i) == (2, 0)  # i^2 = -1


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_frobenius_is_q_power_and_fixes_base(k: FiniteField) -> None:
    """The q-th power is ``a + b*sqrt(u) -> a - b*sqrt(u)``, the norm's conjugation."""
    ext = QuadraticExtension(k)
    for x in ext_units(ext):
        assert ext.pow(x, k.q) == (x[0], -x[1] % k.p)
    for a in range(k.p):
        assert ext.pow(ext.embed(a), k.q) == ext.embed(a)


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_norm_and_trace_land_in_base_and_norm_is_multiplicative(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    units = ext_units(ext)
    for x in units[:20]:
        for y in units[:20]:
            assert ext.norm(ext.mul(x, y)) == ext.norm(x) * ext.norm(y) % k.p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_norm_surjective_on_units(p: int) -> None:
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    images = {ext.norm(x) for x in ext_units(ext)}
    assert images == set(field_units(k))


# ---------------------------------------------------------------------------
# the norm-one sign character
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_norm_one_subgroup_order(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    group = norm_one_by_enumeration(ext)
    assert ext.norm_one_elements() == [x for x in ext_units(ext) if x in group]
    assert len(group) == k.q + 1


def test_sgn_norm_one_examples() -> None:
    ext = QuadraticExtension(FiniteField(3))
    i = (0, 1)
    # i^((q+1)/2) = i^2 = -1
    assert sgn_norm_one(ext, i) == -1
    # (-1)^((q+1)/2) = (-1)^2 = +1 for q = 3
    minus_one = ext.embed(2)
    assert sgn_norm_one(ext, minus_one) == +1


def test_sgn_norm_one_rejects_non_norm_one() -> None:
    ext = QuadraticExtension(FiniteField(3))
    # norm(1 + i) = 1 - u = 1 - 2 = -1 = 2, not 1
    assert ext.norm((1, 1)) != 1
    with pytest.raises(ValueError):
        sgn_norm_one(ext, (1, 1))


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_sign_characters_refuse_exactly_off_their_group_naming_the_power(k: FiniteField) -> None:
    """``_sign_of`` is the one refusal: zero for ``sgn_units`` and
    ``sgn_ext_units``, and exactly the elements of norm other than 1 for
    ``sgn_norm_one``, each with the power it got in the message."""
    ext = QuadraticExtension(k)
    with pytest.raises(ValueError, match=r"its power is 0$"):
        sgn_units(k, 0)
    with pytest.raises(ValueError, match=r"its power is \(0, 0\)$"):
        sgn_ext_units(ext, (0, 0))
    for x in ext_elements(ext):
        power = ext.pow(x, (k.q + 1) // 2)
        if ext.norm(x) == 1:
            assert sgn_norm_one(ext, x) in (1, -1)
            continue
        with pytest.raises(ValueError) as info:
            sgn_norm_one(ext, x)
        assert str(info.value).endswith(f"its power is {power}"), (x, info.value)


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
    for x in ext_units(ext):
        lhs = ext.pow(x, half_big)
        rhs = k.pow(ext.norm(x), (k.q - 1) // 2)
        assert lhs == (rhs, 0)


# ---------------------------------------------------------------------------
# arithmetic against a schoolbook oracle for F_p[X]/(X**2 - u)
# ---------------------------------------------------------------------------


def schoolbook_mul(p: int, u: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Oracle: multiply the linear polynomials, then replace X**2 by u."""
    c0, c1, c2 = x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[1] * y[1]
    return ((c0 + u * c2) % p, c1 % p)


def schoolbook_pow(p: int, u: int, x: tuple[int, int], n: int) -> tuple[int, int]:
    """Oracle: ``x**n`` for ``n >= 0`` by recursive halving of the exponent."""
    if n == 0:
        return (1, 0)
    half = schoolbook_pow(p, u, x, n // 2)
    square = schoolbook_mul(p, u, half, half)
    return schoolbook_mul(p, u, square, x) if n % 2 else square


def assert_matches_schoolbook(ext: QuadraticExtension, x, y) -> None:
    """Every extension op at ``x`` (and ``y``) against the oracle.

    Frobenius is ``x**p`` in the oracle, so ``norm = x**(p+1)`` is checked
    against its definition, not against the closed form the module uses.
    """
    p, u = ext.base.p, ext.u
    assert ext.mul(x, y) == schoolbook_mul(p, u, x, y)
    frob = schoolbook_pow(p, u, x, p)
    assert (ext.norm(x), 0) == schoolbook_mul(p, u, x, frob)
    assert schoolbook_mul(p, u, ext.embed(x[0]), y) == (x[0] * y[0] % p, x[0] * y[1] % p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_prime_field_ops_on_every_pair(p: int) -> None:
    k = FiniteField(p)
    for x, n in itertools.product(range(p), repeat=2):
        assert k.pow(x, n) == x**n % p


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_extension_ops_match_schoolbook_on_every_pair(p: int) -> None:
    ext = QuadraticExtension(FiniteField(p))
    els = ext_elements(ext)
    assert len(els) == p * p
    for x, y in itertools.product(els, repeat=2):
        assert_matches_schoolbook(ext, x, y)


PRIMES_TO_CAP = [n for n in range(3, 10_001) if is_prime_by_trial_division(n)]


@given(p=st.sampled_from(PRIMES_TO_CAP), data=st.data())
def test_extension_ops_match_schoolbook_up_to_the_cap(p: int, data: st.DataObject) -> None:
    ext = QuadraticExtension(FiniteField(p))
    element = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    x, y = data.draw(element), data.draw(element)
    assert_matches_schoolbook(ext, x, y)
    n = data.draw(st.integers(0, p * p + 1))
    assert ext.pow(x, n) == schoolbook_pow(p, ext.u, x, n)
    assert (ext.base.pow(x[0], n), 0) == schoolbook_pow(p, ext.u, (x[0], 0), n)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_pow_matches_repeated_multiplication(p: int) -> None:
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    q2 = p * p
    for x in ext_units(ext):
        power = (1, 0)
        for n in range(q2 + 2):
            assert ext.pow(x, n) == power, (x, n)
            power = schoolbook_mul(p, ext.u, power, x)
    assert ext.pow((0, 0), 0) == (1, 0)
    assert all(ext.pow((0, 0), n) == (0, 0) for n in range(1, q2 + 2))
    for x in field_units(k):
        power = 1
        for n in range(q2 + 2):
            assert k.pow(x, n) == power
            power = power * x % p


@pytest.mark.parametrize("p", [3, 7])
def test_pow_rejects_negative_exponents(p: int) -> None:
    """A negative exponent raises before any work; halving it would never reach 0."""
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    for n in (-1, -2):
        # the exponent is rejected before the base is range-checked, so a
        # missing rejection fails here on the range message instead of hanging
        with pytest.raises(ValueError, match="non-negative"):
            k.pow(p, n)
        with pytest.raises(ValueError, match="non-negative"):
            ext.pow((p, 0), n)
        for x in range(k.p):
            with pytest.raises(ValueError, match="non-negative"):
                k.pow(x, n)
        for x in ext_elements(ext):
            with pytest.raises(ValueError, match="non-negative"):
                ext.pow(x, n)


def _argument_variants(args: tuple, bad: int):
    """Each way to put ``bad`` into one component of one argument."""
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            for j in range(len(arg)):
                component = arg[:j] + (bad,) + arg[j + 1 :]
                yield args[:i] + (component,) + args[i + 1 :]
        else:
            yield args[:i] + (bad,) + args[i + 1 :]


@pytest.mark.parametrize("p", [3, 7, 9973])
def test_every_public_op_rejects_out_of_range_components(p: int) -> None:
    k = FiniteField(p)
    ext = QuadraticExtension(k)
    x, y = (1, 2), (2, 1)
    calls = [(ext.mul, (x, y)), (ext.norm, (x,)), (ext.embed, (1,))]
    for n in (0, 1, 2):  # any valid exponent; only the base is range-checked
        calls += [(functools.partial(k.pow, n=n), (1,)), (functools.partial(ext.pow, n=n), (x,))]
    for bad in (-1, p):
        for op, args in calls:
            for variant in _argument_variants(args, bad):
                with pytest.raises(ValueError):
                    op(*variant)


# ---------------------------------------------------------------------------
# the unit sign character of the extension
# ---------------------------------------------------------------------------


def test_sgn_ext_units_examples() -> None:
    ext = QuadraticExtension(FiniteField(3))
    assert sgn_ext_units(ext, (0, 1)) == +1  # i = ((1 + i)**3)**2 in F_9
    assert sgn_ext_units(ext, (1, 1)) == -1  # 1 + i has order 8
    with pytest.raises(ValueError):
        sgn_ext_units(ext, (0, 0))


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_sgn_ext_units_matches_square_enumeration(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    squares = {schoolbook_mul(k.p, ext.u, x, x) for x in ext_units(ext)}
    for x in ext_units(ext):
        assert sgn_ext_units(ext, x) == (+1 if x in squares else -1)
    assert len(squares) == (k.q**2 - 1) // 2



# ---------------------------------------------------------------------------
# the generator of the unit group
# ---------------------------------------------------------------------------


def order_by_multiplication(p: int, u: int, x: tuple[int, int]) -> int:
    """Oracle: the multiplicative order of the unit ``x``, by multiplying until one."""
    power, n = x, 1
    while power != (1, 0):
        power, n = schoolbook_mul(p, u, power, x), n + 1
    return n


def prime_divisors_by_trial_division(n: int) -> list[int]:
    """Oracle: every prime dividing ``n``, by testing each integer up to ``n``'s root."""
    divisors = {d for d in range(2, math.isqrt(n) + 1) if n % d == 0}
    divisors |= {n // d for d in divisors} | {n}
    return [d for d in divisors if is_prime_by_trial_division(d)]


@pytest.mark.parametrize("k", FIELDS, ids=lambda k: f"q{k.q}")
def test_generator_is_the_first_unit_of_full_order(k: FiniteField) -> None:
    ext = QuadraticExtension(k)
    p, u, g = k.p, ext.u, ext.generator
    full = [x for x in ext_units(ext) if x[1] and order_by_multiplication(p, u, x) == p * p - 1]
    assert g == full[0]
    # the two generators that follow from g
    assert order_by_multiplication(p, u, schoolbook_pow(p, u, g, p - 1)) == p + 1
    norm = ext.norm(g)
    assert len({pow(norm, m, p) for m in range(p - 1)}) == p - 1


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES_TO_CAP))
def test_generator_has_full_order_up_to_the_cap(p: int) -> None:
    ext = QuadraticExtension(FiniteField(p))
    order = p * p - 1
    primes = prime_divisors_by_trial_division(order)

    def full_order(x: tuple[int, int]) -> bool:
        return all(schoolbook_pow(p, ext.u, x, order // r) != (1, 0) for r in primes)

    a, b = ext.generator
    assert b >= 1 and full_order((a, b))
    assert schoolbook_pow(p, ext.u, (a, b), order) == (1, 0)
    # no earlier candidate with b >= 1 has full order
    earlier = [(c, d) for d in range(1, b + 1) for c in range(p) if (d, c) < (b, a)]
    assert not any(full_order(x) for x in earlier)
