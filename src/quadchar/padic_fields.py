"""Square classes, the tame Hilbert symbol and quadratic-extension descriptors.

Everything here works with *descriptors* of p-adic fields (odd residue
characteristic) rather than element rings: all quadratic data in this
project factors through the square-class group ``F^x / (F^x)^2``, which for
odd ``p`` is a Klein four-group recorded as two bits,

* ``val_parity`` — the valuation mod 2,
* ``unit_nonsquare`` — whether the unit part reduces to a non-square of
  the residue field,

with canonical representatives ``{1, u, pi, u*pi}``, ``u`` the canonical
non-square unit and ``pi`` a uniformizer.

The tame Hilbert symbol of ``a = u^ua * pi^va`` and ``b = u^ub * pi^vb`` is

    (a, b) = (-1) ** (va*vb*eps + ua*vb + ub*va),

where ``eps = (q - 1)/2 mod 2`` records whether ``-1`` is a non-square in
the residue field.  This is the reduction of the tame-symbol formula
``(a, b) = sgn((-1)**(va*vb) * a**vb / b**va mod pi)``.

A quadratic extension ``E/F`` is described by its discriminant square
class; ``E`` is unramified exactly when that class is the non-square-unit
class.  The quadratic character ``omega_{E/F}`` attached to ``E`` (the
character of ``F^x`` with kernel the norms from ``E``) is computed here by
its own route — valuation parity in the unramified case; residue Legendre
symbol on units plus the pinning ``omega(a) = omega(-1)`` on the
uniformizer in the ramified case — and is related to the Hilbert symbol by
the identity ``omega_{E/F}(t) = (t, disc E)``, which the test suite checks
as a cross-validation of the two independent implementations.

Biquadratic diamonds: two distinct quadratic extensions generate a
four-element extension ``K`` whose three quadratic subfields are exactly
the three nontrivial square classes; exactly one of them is unramified,
and the upper edge over a middle field is unramified exactly when the
middle field is ramified.

Lambda constants: for unramified extensions the normalizing constant of
degree ``n`` is ``(-1)**(n-1)``, and it satisfies the tower chain rule
``lam(K/F) = lam(K/E) * lam(E/F)**[K:E]``.
"""

from __future__ import annotations

from enum import Enum

from ._value import Value
from .residue_fields import _PRIME_TEST_BOUND, UsageError, _is_prime


class NonOddPrimeError(UsageError):
    """Raised when a base field is requested at p = 2 or at a non-prime."""


class LocalFieldDesc(Value):
    """A p-adic field described by residue characteristic and invariants.

    ``e`` and ``f`` are the absolute ramification index and residue degree;
    the residue field has ``q = p**f`` elements.  The descriptor carries no
    element arithmetic — square-class bits are all the element data needed.
    """

    p: int
    e: int = 1
    f: int = 1

    def __post_init__(self) -> None:
        if self.p >= _PRIME_TEST_BOUND:
            raise NonOddPrimeError(f"residue characteristic must be below {_PRIME_TEST_BOUND}")
        if self.p == 2 or not _is_prime(self.p):
            raise NonOddPrimeError(f"residue characteristic must be an odd prime, got {self.p}")
        if self.e < 1 or self.f < 1:
            raise ValueError("ramification index and residue degree must be positive")

    @property
    def residue_q(self) -> int:
        return self.p**self.f

    @property
    def residue_sign_exponent(self) -> int:
        """``(q - 1)/2 mod 2``: 1 iff -1 is a non-square in the residue field."""
        return ((self.residue_q - 1) // 2) % 2


class SquareClass(Value):
    """An element of ``F^x/(F^x)^2`` for odd residue characteristic.

    The group is ``(Z/2)^2``; multiplication is bitwise XOR.  Canonical
    representatives: ``(0,0) -> 1``, ``(0,1) -> u``, ``(1,0) -> pi``,
    ``(1,1) -> u*pi``.
    """

    val_parity: int
    unit_nonsquare: int

    def __post_init__(self) -> None:
        if self.val_parity not in (0, 1) or self.unit_nonsquare not in (0, 1):
            raise ValueError("square-class bits must be 0 or 1")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(
            self.val_parity ^ other.val_parity,
            self.unit_nonsquare ^ other.unit_nonsquare,
        )

    @property
    def is_trivial(self) -> bool:
        return self.val_parity == 0 and self.unit_nonsquare == 0

    def rep_string(self) -> str:
        return {
            (0, 0): "1",
            (0, 1): "u",
            (1, 0): "pi",
            (1, 1): "u*pi",
        }[(self.val_parity, self.unit_nonsquare)]


SQUARE_CLASS_ONE = SquareClass(0, 0)
SQUARE_CLASS_U = SquareClass(0, 1)
SQUARE_CLASS_PI = SquareClass(1, 0)
SQUARE_CLASS_UPI = SquareClass(1, 1)


def make_base(p: int) -> LocalFieldDesc:
    """The base p-adic field descriptor for an odd prime ``p``."""
    return LocalFieldDesc(p, 1, 1)


def square_classes(F: LocalFieldDesc) -> list[SquareClass]:
    """The four square classes, in canonical order ``1, u, pi, u*pi``."""
    return [SQUARE_CLASS_ONE, SQUARE_CLASS_U, SQUARE_CLASS_PI, SQUARE_CLASS_UPI]


def square_class_of_int(F: LocalFieldDesc, n: int) -> SquareClass:
    """The square class of a nonzero rational integer in the base field.

    Only defined for residue degree 1 (the command-line entry point feeds
    plain integers).  The valuation is taken p-adically and the unit part
    is tested for squareness in the residue field.
    """
    if n == 0:
        raise UsageError("zero has no square class")
    if F.f != 1 or F.e != 1:
        raise ValueError("integer square classes are defined over the base field only")
    v = 0
    while n % F.p == 0:
        n //= F.p
        v += 1
    unit = n % F.p
    nonsquare_bit = 0 if pow(unit, (F.p - 1) // 2, F.p) == 1 else 1
    return SquareClass(v % 2, nonsquare_bit)


def hilbert_symbol(F: LocalFieldDesc, a: SquareClass, b: SquareClass) -> int:
    """The tame quadratic Hilbert symbol ``(a, b)`` over ``F``.

    Symmetric, bilinear (as a pairing of square-class bits) and
    non-degenerate; ``(a, -a) = +1`` always.
    """
    eps = F.residue_sign_exponent
    exponent = (
        a.val_parity * b.val_parity * eps
        + a.unit_nonsquare * b.val_parity
        + b.unit_nonsquare * a.val_parity
    )
    return -1 if exponent % 2 else +1


class ExtKind(str, Enum):
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"


class QuadExtDesc(Value):
    """A quadratic extension ``E/F`` described by its discriminant class.

    The extension is unramified exactly when the discriminant class is the
    non-square-unit class ``u``; the two ramified extensions correspond to
    the classes of ``pi`` and ``u*pi``.
    """

    base: LocalFieldDesc
    discriminant_class: SquareClass

    def __post_init__(self) -> None:
        if self.discriminant_class.is_trivial:
            raise ValueError("a quadratic extension needs a nontrivial discriminant class")

    @property
    def kind(self) -> ExtKind:
        if self.discriminant_class == SQUARE_CLASS_U:
            return ExtKind.UNRAMIFIED
        return ExtKind.RAMIFIED

    @property
    def field(self) -> LocalFieldDesc:
        """Descriptor of ``E`` itself as a p-adic field."""
        F = self.base
        if self.kind is ExtKind.UNRAMIFIED:
            return LocalFieldDesc(F.p, F.e, 2 * F.f)
        return LocalFieldDesc(F.p, 2 * F.e, F.f)


def quadratic_extension(F: LocalFieldDesc, disc: SquareClass) -> QuadExtDesc:
    """Build the quadratic extension ``F(sqrt(d))`` for ``d`` in the class ``disc``."""
    return QuadExtDesc(F, disc)


def unramified_quadratic(F: LocalFieldDesc) -> QuadExtDesc:
    return quadratic_extension(F, SQUARE_CLASS_U)


def ramified_quadratic(F: LocalFieldDesc, unit_bit: int = 0) -> QuadExtDesc:
    """``F(sqrt pi)`` for ``unit_bit == 0``, ``F(sqrt u*pi)`` for ``unit_bit == 1``."""
    return quadratic_extension(F, SquareClass(1, unit_bit))


def omega_quadratic(E: QuadExtDesc, t: SquareClass) -> int:
    """The quadratic character of ``F^x`` attached to ``E/F``, evaluated at ``t``.

    Its kernel is the norm group of ``E``.  Computed directly (not through
    the Hilbert symbol, with which it is cross-checked elsewhere):

    * unramified ``E``: ``omega(t) = (-1)**v(t)`` — units are norms, the
      uniformizer is not;
    * ramified ``E = F(sqrt a)``: on units ``omega`` is the residue Legendre
      symbol, and on ``a`` itself the value is pinned by
      ``omega(a) = omega(-1)``, which determines ``omega(pi)``.
    """
    if E.kind is ExtKind.UNRAMIFIED:
        return -1 if t.val_parity % 2 else +1
    eps = E.base.residue_sign_exponent
    disc_unit_bit = E.discriminant_class.unit_nonsquare
    # omega(pi) = omega(a) * omega(u)**disc_unit_bit = (-1)**eps * (-1)**disc_unit_bit
    exponent = t.val_parity * (eps + disc_unit_bit) + t.unit_nonsquare
    return -1 if exponent % 2 else +1


class BiquadraticDiamond(Value):
    """The compositum diamond of two distinct quadratic extensions of ``F``.

    The top field ``K`` has degree 4 over the base with Klein four Galois
    group; the middle layer consists of the three quadratic extensions
    corresponding to the three nontrivial square classes.  Exactly one
    middle field is unramified, and the upper edge ``K/E_i`` is unramified
    exactly when ``E_i/F`` is ramified.
    """

    base: LocalFieldDesc
    middles: tuple[QuadExtDesc, QuadExtDesc, QuadExtDesc]

    def __post_init__(self) -> None:
        classes = {m.discriminant_class for m in self.middles}
        if len(classes) != 3 or any(c.is_trivial for c in classes):
            raise ValueError("diamond middles must carry the three nontrivial classes")
        if any(m.base != self.base for m in self.middles):
            raise ValueError("diamond middles must share the base field")
        if sum(m.kind is ExtKind.UNRAMIFIED for m in self.middles) != 1:
            raise AssertionError("exactly one quadratic extension is unramified")


def biquadratic_diamond(E1: QuadExtDesc, E2: QuadExtDesc) -> BiquadraticDiamond:
    """The diamond generated by two distinct quadratic extensions of one base."""
    if E1.base != E2.base:
        raise ValueError("the two extensions must share a base field")
    if E1.discriminant_class == E2.discriminant_class:
        raise ValueError("the two extensions coincide; a diamond needs distinct ones")
    third_class = E1.discriminant_class * E2.discriminant_class
    E3 = quadratic_extension(E1.base, third_class)
    return BiquadraticDiamond(base=E1.base, middles=(E1, E2, E3))


def lambda_unramified(n: int) -> int:
    """The normalizing constant of the unramified extension of degree ``n``.

    Equal to ``(-1)**(n-1)``; in particular ``+1`` for the trivial
    extension and ``-1`` for the quadratic one.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"extension degree must be a positive integer, got {n}")
    return -1 if (n - 1) % 2 else +1


def zeta_lambda_ratio(diamond: BiquadraticDiamond) -> int:
    """The lambda-constant ratio attached to a diamond with mixed edges.

    The input diamond designates ``middles[0]`` as the field under the
    *unramified* upper edge (so ``middles[0]/base`` is ramified) and
    ``middles[1]`` as the field under the *ramified* upper edge (so
    ``middles[1]/base`` is unramified).  The ratio

        lam(middles[0]/base)**2 / lam(top/middles[1])

    is rewritten by the chain rule as

        lam(middles[1]/base)**2 / lam(top/middles[0]),

    whose factors are both unramified-quadratic constants, giving
    ``(+1)/(-1) = -1``.
    """
    first, second = diamond.middles[0], diamond.middles[1]
    if first.kind is not ExtKind.RAMIFIED or second.kind is not ExtKind.UNRAMIFIED:
        raise ValueError(
            "ratio requires middles[0] ramified (unramified upper edge) and "
            "middles[1] unramified (ramified upper edge)"
        )
    numerator = lambda_unramified(2) ** 2  # middles[1]/base, unramified, squared
    denominator = lambda_unramified(2)  # top/middles[0], unramified
    return numerator * denominator  # division and multiplication agree for +-1
