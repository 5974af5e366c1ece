"""Exact arithmetic in small prime fields and their quadratic extensions.

This module is the residue-level substrate for quadratic-character
evaluation.  It provides:

* ``FiniteField(p)`` — the prime field ``F_p`` (``p`` odd), whose elements
  are the residues ``range(p)``;
* ``QuadraticExtension(base)`` — the field ``F_{p**2}``, realised as
  ``base[X]/(X**2 - u)`` with ``u`` the canonical non-square, elements
  being pairs ``(a, b)`` for ``a + b*X``; the norm ``x -> x**(q+1)``
  down to the base is its method ``norm``, and ``generator`` generates
  its units, so scenarios count elements instead of enumerating them;
* the three sign characters, each read off one power through ``_sign_of``:

  - ``sgn_units(k, x) = x**((q-1)//2)`` — the unique nontrivial quadratic
    character of the cyclic group ``k^x`` of order ``q - 1``;
  - ``sgn_ext_units(ext, x) = x**((q**2-1)//2)`` — the unique nontrivial
    quadratic character of ``ext^x``, cyclic of order ``q**2 - 1``;
  - ``sgn_norm_one(ext, x) = x**((q+1)//2)`` — the unique nontrivial
    quadratic character of the norm-one subgroup of ``ext^x``, cyclic of
    order ``q + 1``.

  ``_sign_of`` is their one refusal: it raises ``ValueError`` naming the
  power when that is not ``+-1``, which happens exactly for an argument
  outside the character's group.  Zero powers to zero, while a unit of
  ``k`` or of ``ext`` powers to ``+-1`` in the first two.  In the third,
  ``(x**((q+1)//2))**2 = x**(q+1) = N(x)``, so the power is ``+-1``
  exactly when ``N(x) = 1``.

Larger residue degrees in this project are handled by cyclic-group
exponent models and never need a field basis.

All arithmetic is exact; fields are capped at ``q <= 10**4`` to guard
against accidental blowup in exhaustive tests.

The operations are the ones the sign characters and the scenarios
read: ``FiniteField.pow`` and ``QuadraticExtension.mul``, ``pow``,
``norm`` and ``embed``.  Range checks sit at these operations and
nowhere else.  Each checks every component of every argument once,
through ``FiniteField._check``, and raises ``ValueError`` for one
outside ``range(p)``.  It then computes on plain integers and reduces
mod ``p``; its intermediate values are already reduced, so they are not
checked again.  ``QuadraticExtension.pow`` checks ``x`` once and squares
and multiplies on the components.  Both ``pow``s take exponents
``n >= 0`` only and raise ``ValueError`` for a negative one.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import itemgetter

from ._value import Value

_MAX_Q = 10_000

ExtElement = tuple[int, int]


class UsageError(ValueError):
    """Raised by the checks of user input only; the command line exits 2 on it."""


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, for ``n < _PRIME_TEST_BOUND``.

    Memoized per ``n``: every field and base construction asks it again.
    """
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_TEST_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base b when b**d = 1 or
    # b**(d * 2**r) = -1 for some 0 <= r < s
    for b in _PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def _prime_divisors(n: int) -> set[int]:
    """The primes dividing ``n >= 1``, by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class FiniteField(Value):
    """The prime field ``F_p``, ``p`` an odd prime; elements are ``range(p)``.

    >>> k = FiniteField(5)
    >>> k.q
    5
    >>> k.pow(2, 3)
    3
    """

    p: int

    def __post_init__(self) -> None:
        if self.p > _MAX_Q:  # first: the primality test refuses the largest p
            raise UsageError(f"field size {self.p} exceeds cap {_MAX_Q}")
        if self.p == 2 or not _is_prime(self.p):
            raise UsageError(f"characteristic must be an odd prime, got {self.p}")

    @property
    def q(self) -> int:
        return self.p

    def _check(self, *xs: int) -> None:
        for x in xs:
            if not 0 <= x < self.p:
                raise ValueError(f"element {x} out of range for field of size {self.p}")

    def pow(self, x: int, n: int) -> int:
        """``x**n`` for ``n >= 0``; checks ``x`` once."""
        if n < 0:
            raise ValueError(f"exponent must be non-negative, got {n}")
        self._check(x)
        return pow(x, n, self.p)

    # -- structure ------------------------------------------------------------

    def canonical_nonsquare(self) -> int:
        """The least positive quadratic non-residue mod ``p``.

        The choice is deterministic and is used as the defining modulus
        for quadratic extensions.
        """
        return next(x for x in range(1, self.p) if sgn_units(self, x) == -1)


class QuadraticExtension(Value):
    """The quadratic extension ``base[X]/(X**2 - u)``, ``u`` the canonical non-square.

    Elements are pairs ``(a, b)`` of base-field encodings meaning
    ``a + b*sqrt(u)``.  The cardinality is ``q**2`` where ``q = base.q``.

    >>> ext = QuadraticExtension(FiniteField(3))   # F_9 = F_3(i), u = 2 = -1
    >>> i = (0, 1)
    >>> ext.mul(i, i)          # i^2 = -1
    (2, 0)
    >>> ext.norm(i)            # i * i**3 = -i^2 = 1
    1
    """

    base: FiniteField

    @property
    def q(self) -> int:
        """Cardinality of the *base* field."""
        return self.base.q

    @cached_property
    def u(self) -> int:
        return self.base.canonical_nonsquare()

    @property
    def one(self) -> ExtElement:
        return (1, 0)

    def embed(self, a: int) -> ExtElement:
        self.base._check(a)
        return (a, 0)

    # -- field operations: each checks its inputs once ------------------------

    def mul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        self.base._check(*x, *y)
        (a, b), (c, d), p = x, y, self.base.p
        return ((a * c + self.u * b * d) % p, (a * d + b * c) % p)

    def pow(self, x: ExtElement, n: int) -> ExtElement:
        """``x**n`` for ``n >= 0`` by square-and-multiply on the components of ``x``."""
        if n < 0:
            raise ValueError(f"exponent must be non-negative, got {n}")
        self.base._check(*x)
        (a, b), p, u = x, self.base.p, self.u
        r, s = 1, 0
        while n:
            if n & 1:
                r, s = (r * a + u * s * b) % p, (r * b + s * a) % p
            a, b = (a * a + u * b * b) % p, 2 * a * b % p
            n >>= 1
        return (r, s)

    def norm(self, x: ExtElement) -> int:
        """Norm to the base field: ``x * x**q = a**2 - u*b**2``."""
        self.base._check(*x)
        a, b = x
        return (a * a - self.u * b * b) % self.base.p

    @cached_property
    def generator(self) -> ExtElement:
        """The first ``g = a + b*sqrt(u)``, by ``b >= 1`` then ``a``, of order ``q**2 - 1``.

        (Units with ``b = 0`` have order dividing ``q - 1``.)  Then
        ``g**(q-1)`` generates the norm-one subgroup and ``norm(g)`` the
        units of the base field.

        ``x`` has full order when ``x**((q**2-1)/r) != 1`` for each prime
        ``r`` dividing ``q**2 - 1``.  For ``r`` dividing ``q - 1`` that power
        is ``norm(x)**((q-1)/r)``, read in the base field.  Every other ``r``
        is odd and divides ``q + 1``, and the power is
        ``(x**(q-1))**((q+1)/r)``.
        """
        q, p = self.q, self.base.p
        down = _prime_divisors(q - 1)
        up = _prime_divisors(q + 1) - down
        for b in range(1, q):
            for a in range(q):
                norm = self.norm((a, b))
                if all(pow(norm, (q - 1) // r, p) != 1 for r in down):
                    z = self.pow((a, b), q - 1)
                    if all(self.pow(z, (q + 1) // r) != self.one for r in up):
                        return (a, b)
        raise AssertionError("the unit group of a finite field is cyclic")

    def norm_one_elements(self) -> list[ExtElement]:
        """All elements of norm 1; a cyclic group of order ``q + 1``.

        The group is listed as the ``q + 1`` powers of ``z = g**(q-1)``,
        ``g`` the ``generator``; ``z`` has norm ``g**(q**2-1) = 1``.  The
        powers are checked to have norm 1 and to be distinct, and are
        returned sorted by ``(b, a)`` for ``a + b*sqrt(u)``.
        """
        q, p, u = self.q, self.base.p, self.u
        c, d = z = self.pow(self.generator, q - 1)
        group = [self.one]
        for _ in range(q):  # mul and norm on components, not one call per element
            a, b = group[-1]
            group.append(((a * c + u * b * d) % p, (a * d + b * c) % p))
        if len(set(group)) != q + 1 or any((a * a - u * b * b) % p != 1 for a, b in group):
            raise AssertionError(f"powers of {z} are not the norm-one subgroup")
        return sorted(group, key=itemgetter(1, 0))


def _sign_of(k: FiniteField, power: int | ExtElement) -> int:
    """``+1`` or ``-1`` for a power that is ``+-1``: an encoding in ``k``, or a pair
    ``(a, 0)`` of its quadratic extension; ``ValueError`` naming any other power."""
    if power in (1, (1, 0)):
        return 1
    if power in (k.p - 1, (k.p - 1, 0)):
        return -1
    raise ValueError(f"the argument is outside the sign character's group: its power is {power}")


def sgn_units(k: FiniteField, x: int) -> int:
    """The quadratic character of ``k^x``: ``x**((q-1)//2)`` as ``+1`` or ``-1``.

    This is the unique nontrivial quadratic character of the cyclic group
    of order ``q - 1``; its kernel is the subgroup of squares.

    >>> k = FiniteField(5)
    >>> sgn_units(k, 2)
    -1
    >>> sgn_units(k, 4)
    1
    """
    return _sign_of(k, k.pow(x % k.p, (k.q - 1) // 2))


def sgn_ext_units(ext: QuadraticExtension, x: ExtElement) -> int:
    """The quadratic character of ``ext^x``: ``x**((q**2-1)//2)`` as ``+1`` or ``-1``.

    This is the unique nontrivial quadratic character of the cyclic group
    of order ``q**2 - 1``; every element of the base field is a square in
    ``ext``, so it is ``+1`` there.

    >>> ext = QuadraticExtension(FiniteField(3))
    >>> sgn_ext_units(ext, (0, 1)), sgn_ext_units(ext, (1, 1))   # 1 + i generates F_9^x
    (1, -1)
    """
    return _sign_of(ext.base, ext.pow(x, (ext.q * ext.q - 1) // 2))


def sgn_norm_one(ext: QuadraticExtension, x: ExtElement) -> int:
    """The quadratic character of the norm-one subgroup: ``x**((q+1)//2)``.

    The norm-one subgroup of ``ext^x`` is cyclic of order ``q + 1`` (even),
    so this power lands in ``{+1, -1}`` and defines its unique nontrivial
    quadratic character.  Its square is ``N(x)``, so off the subgroup it is
    not ``+-1``, and ``_sign_of`` refuses it.

    >>> ext = QuadraticExtension(FiniteField(3))
    >>> sgn_norm_one(ext, (0, 1))    # i has norm 1 in F_9/F_3; i^2 = -1
    -1
    """
    return _sign_of(ext.base, ext.pow(x, (ext.q + 1) // 2))
