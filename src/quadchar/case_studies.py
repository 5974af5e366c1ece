"""Element-level verification of the small-group scenarios.

Each scenario builds a concrete tower of tame quadratic steps over a
small p-adic base, counts torus elements in a lossless truncated model
by the values the relevant quadratic characters take on them, and checks
the product identity on every element without enumerating them.

An element is kept as a valuation parity and a residue-field unit.  For
odd residue characteristic every character in scope is tame, hence
trivial on principal units, so this truncation loses nothing.

Scenarios
---------

* ``verify_sl2``: the adjoint root doubles, so its value is always a
  square and all characters are identically ``+1`` on norm-one
  elements; includes the determinant-of-adjoint residue identity.
* ``verify_gl2``: the three quadratic-torus cases.  In the ``odd`` case
  the torus field pairs with the other ramified base extension and the
  two depth-gated sign characters each contribute ``-1`` at a
  uniformizer, cancelling against the unramified step character.  In
  ``even_a`` the step character equals the base-side character of the
  norm (a sign/norm identity on residue fields).  In ``even_b`` the step
  character is the nontrivial unramified character, pinned by the
  lambda-constant ratio of the biquadratic diamond.
* ``verify_gln_odd``: all root orbits are asymmetric; root values are
  ``t / Frob^j(t)``, whose exponent ``1 - q^j`` is even, so both the big
  residue sign and the norm-route sign are ``+1`` on every unit.
* ``verify_un_odd``: orbits are symmetric over the base, asymmetric over
  the extension, with a trivial step; ramified-branch root values reduce
  to ``1`` and unramified-branch exponents ``1 -+ q^j`` are even.

The scenarios work in cyclic unit groups of even order ``N``, where each
sign is read off one generator (``QuadraticExtension.generator``) or off
the roots' exponents.  If ``x`` has sign ``(-1)**e``, then ``x**m`` has
sign ``(-1)**(m*e)``, so exactly ``N/2`` of the ``N`` powers have sign
``-1`` when ``e`` is odd and none do when ``e`` is even; the scenarios
count by that exponent parity without enumerating the group
(``_negative_count``).
"""

from __future__ import annotations

from functools import cache, reduce

from ._value import Value
from .char_engine import (
    CLASS_TRIPLES,
    EF,
    OMEGA_STEP,
    make_config,
    toral_invariant,
    zeta_contribution,
)
from .padic_fields import (
    ExtKind,
    LocalFieldDesc,
    SQUARE_CLASS_ONE,
    SQUARE_CLASS_PI,
    SquareClass,
    biquadratic_diamond,
    make_base,
    omega_quadratic,
    quadratic_extension,
    ramified_quadratic,
    unramified_quadratic,
    zeta_lambda_ratio,
)
from .residue_fields import (
    FiniteField,
    QuadraticExtension,
    UsageError,
    sgn_ext_units,
    sgn_norm_one,
    sgn_units,
)
from .root_orbits import (
    TwistedRootSystem,
    classify_orbits,
    compose,
    gln_orbit_parity,
    gln_root_system,
    orbit_class,
    unitary_root_system,
)


class CheckRecord(Value):
    id: str
    inputs: dict
    expected: object
    got: object

    @property
    def verdict(self) -> str:
        return "pass" if self.expected == self.got else "fail"


class ScenarioReport:
    def __init__(self) -> None:
        self.records: list[CheckRecord] = []

    def add(self, record_id: str, inputs: dict, expected: object, got: object) -> None:
        self.records.append(CheckRecord(record_id, inputs, expected, got))


def _bit(sign: int) -> int:
    return 0 if sign == 1 else 1


# ---------------------------------------------------------------------------
# sign counts in cyclic groups: exponent parity
# ---------------------------------------------------------------------------


def _negative_count(e: int, order: int) -> int:
    """How many ``m`` in ``Z/order`` give ``x**m`` sign ``-1``, where ``x`` has sign ``(-1)**e``.

    In a cyclic group of even order ``x**m`` has sign ``(-1)**(m*e)``:
    half the ``m`` when ``e`` is odd, none when it is even.

    >>> _negative_count(3, 8), _negative_count(-2, 8)
    (4, 0)
    """
    return order // 2 * (e % 2)


def _square_class_sizes(ext: QuadraticExtension) -> dict[SquareClass, int]:
    """How many elements ``pi**v * norm(g)**m``, ``v`` in {0, 1} and ``m`` in
    ``Z/(q-1)``, lie in each square class of the base field."""
    order = ext.q - 1
    odd = _negative_count(_bit(sgn_units(ext.base, ext.norm(ext.generator))), order)
    return {
        SquareClass(v, bit): size for v in (0, 1) for bit, size in ((0, order - odd), (1, odd))
    }


# ---------------------------------------------------------------------------
# SL2: all contributions trivial on norm-one tori
# ---------------------------------------------------------------------------


def verify_sl2(p: int) -> ScenarioReport:
    """The doubled root forces every character value to ``+1``."""
    base_desc = make_base(p)
    report = ScenarioReport()
    k = FiniteField(p)
    ext = QuadraticExtension(k)

    # unramified torus: the norm-one subgroup, generated by z = g**(q-1).
    # t = z**m doubles to z2**m, so each map below sends the torus onto
    # the powers of its value at z or z2
    inputs = {"p": p, "elements": len(ext.norm_one_elements())}
    z = ext.pow(ext.generator, p - 1)
    z2 = ext.mul(z, z)
    signs = sorted({sgn_norm_one(ext, ext.one), sgn_norm_one(ext, z2)})
    report.add("sl2-unramified-doubled-root-sign", inputs, [1], signs)
    report.add("sl2-unramified-doubled-root-norm-one", inputs, True, ext.norm(z2) == 1)

    # determinant of the adjoint action is the squared norm, one on the torus
    det = pow(ext.norm(z), 2, p)
    det_values, power = {1}, det
    while power not in det_values:
        det_values.add(power)
        power = power * det % p
    report.add("sl2-adjoint-determinant", {"p": p}, [1], sorted(det_values))

    # ramified tori: norm-one residues are +-1, and the doubled root kills them
    for unit_bit, label in ((0, "ramified-pi"), (1, "ramified-u-pi")):
        quad = ramified_quadratic(base_desc, unit_bit)
        values = sorted({sgn_units(k, pow(r, 2, p)) for r in (1, p - 1)})
        report.add(
            f"sl2-{label}-doubled-root-sign",
            {"p": p, "extension": quad.kind.value},
            [1],
            values,
        )

    # the step character composed with the norm is trivial on norm-one elements
    step = unramified_quadratic(base_desc)
    report.add(
        "sl2-step-character-on-norms",
        {"p": p},
        1,
        omega_quadratic(step, SQUARE_CLASS_ONE),
    )
    return report


# ---------------------------------------------------------------------------
# GL2: the three quadratic-torus cases
# ---------------------------------------------------------------------------


def _gl2_odd(
    ext: QuadraticExtension,
    base: LocalFieldDesc,
    sizes: dict[SquareClass, int],
    report: ScenarioReport,
) -> None:
    """Ramified torus field against the other ramified base extension.

    Both depth gates are on.  The gated sign characters see the root
    value ``(-1)**v``; at a uniformizer their product is
    ``(-1)**((q+1)/2) * (-1)**((q-1)/2) = -1``, which cancels the
    unramified step character, so the full product is ``+1 = zeta``.
    """
    k, p = ext.base, ext.q
    torus_field = ramified_quadratic(base, 0)
    base_ext = ramified_quadratic(base, 1)
    diamond = biquadratic_diamond(torus_field, base_ext)
    report.add(
        "gl2-odd-third-field-unramified",
        {"p": p},
        ExtKind.UNRAMIFIED.value,
        diamond.middles[2].kind.value,
    )

    step = quadratic_extension(torus_field.field, SquareClass(0, 1))
    config = make_config(CLASS_TRIPLES[9], EF.RAM, in_phi_half=True)
    report.add(
        "gl2-odd-symbolic-zeta-trivial",
        {"p": p},
        "1",
        zeta_contribution(config).describe(),
    )

    # the ramified conjugation negates the uniformizer and fixes residues,
    # so the root value t / tau(t) is -1 at odd valuation and 1 on units;
    # both gated signs see only the root value, which depends on v alone
    gated = [sgn_norm_one(ext, ext.embed(r)) * sgn_units(k, r) for r in (1, p - 1)]
    # the step character sees an element's square class: weight each by its size
    failures = sum(
        size
        for c, size in sizes.items()
        if gated[c.val_parity] * omega_quadratic(step, c) != 1
    )
    report.add(
        "gl2-odd-pointwise-product", {"p": p, "elements": sum(sizes.values())}, 0, failures
    )
    report.add("gl2-odd-gated-signs-at-uniformizer", {"p": p}, -1, gated[1])
    report.add(
        "gl2-odd-step-character-at-uniformizer",
        {"p": p},
        -1,
        omega_quadratic(step, SquareClass(1, 0)),
    )


def _gl2_even_a(ext: QuadraticExtension, base: LocalFieldDesc, report: ScenarioReport) -> None:
    """Unramified torus field; the step character equals a norm-route sign.

    The depth gates are off, so the identity reduces to the step
    character matching the base-field character of the norm — the
    residue sign/norm identity.
    """
    k, p = ext.base, ext.q
    torus_field = unramified_quadratic(base)
    step = quadratic_extension(torus_field.field, SQUARE_CLASS_PI)
    third_over_base = quadratic_extension(base, SquareClass(1, 1))

    config = make_config(CLASS_TRIPLES[5], EF.RAM, in_phi_half=False)
    report.add(
        "gl2-even-a-symbolic-zeta-is-step-character",
        {"p": p},
        OMEGA_STEP.describe(),
        zeta_contribution(config).describe(),
    )

    # a unit x = g**m has sign bit m*bit(g) and its norm norm(g)**m has sign
    # bit m*bit(norm(g)): count the units with each (big, small) pair of bits
    g, order = ext.generator, p * p - 1
    big, small = _bit(sgn_ext_units(ext, g)), _bit(sgn_units(k, ext.norm(g)))
    n_big, n_small = _negative_count(big, order), _negative_count(small, order)
    # both bits are odd exactly when m * big * small is odd
    both = _negative_count(big * small, order)
    counts = {(0, 0): order - n_big - n_small + both, (0, 1): n_small - both,
              (1, 0): n_big - both, (1, 1): both}
    # the step character sees four square classes, and the norm route two
    # (the valuation doubles, the unit part takes the norm)
    step_values = {
        (v, bit): omega_quadratic(step, SquareClass(v, bit))
        for v in (0, 1)
        for bit in (0, 1)
    }
    norm_values = [omega_quadratic(third_over_base, SquareClass(0, bit)) for bit in (0, 1)]
    mismatches = sum(
        count * (step_values[v, big] != norm_values[small])
        for v in (0, 1) for (big, small), count in counts.items()
    )
    total = 2 * sum(counts.values())
    report.add("gl2-even-a-step-equals-norm-route", {"p": p, "elements": total}, 0, mismatches)
    # the underlying residue identity: big-field sign equals sign of the norm
    report.add(
        "gl2-even-a-sign-norm-identity", {"p": p, "q": p}, True, counts[0, 1] == counts[1, 0] == 0
    )


def _gl2_even_b(
    ext: QuadraticExtension,
    base: LocalFieldDesc,
    sizes: dict[SquareClass, int],
    report: ScenarioReport,
) -> None:
    """Ramified torus field with an unramified base extension.

    The distinction character vanishes (its index group is trivial) and
    the toral invariant is a Hilbert symbol against norms, hence ``+1``;
    the identity pins the step character as the nontrivial unramified
    character via the lambda-constant ratio of the diamond.
    """
    p = ext.q
    torus_field = ramified_quadratic(base, 0)
    base_ext = unramified_quadratic(base)
    diamond = biquadratic_diamond(torus_field, base_ext)
    ratio = zeta_lambda_ratio(diamond)
    report.add("gl2-even-b-lambda-ratio", {"p": p}, -1, ratio)

    step = quadratic_extension(torus_field.field, SquareClass(0, 1))
    config = make_config(CLASS_TRIPLES[8], EF.UNRAM)
    report.add(
        "gl2-even-b-symbolic-zeta-is-step-character",
        {"p": p},
        OMEGA_STEP.describe(),
        zeta_contribution(config).describe(),
    )

    # toral invariant: symbol of the torus-field class against its norms
    # (1 and -pi are norms from the plain-uniformizer ramified extension)
    norm_classes = (SQUARE_CLASS_ONE, SquareClass(1, base.residue_sign_exponent))
    invariant_values = sorted(
        {toral_invariant(base, SQUARE_CLASS_PI, b) for b in norm_classes}
    )
    report.add("gl2-even-b-toral-invariant", {"p": p}, [1], invariant_values)

    mismatches = sum(
        size for c, size in sizes.items() if omega_quadratic(step, c) != ratio**c.val_parity
    )
    report.add(
        "gl2-even-b-step-equals-lambda-route",
        {"p": p, "elements": sum(sizes.values())},
        0,
        mismatches,
    )


def verify_gl2(p: int) -> ScenarioReport:
    """The three quadratic-torus scenarios at ``p``, counted over every unit."""
    ext = QuadraticExtension(FiniteField(p))
    base, sizes = make_base(p), _square_class_sizes(ext)
    report = ScenarioReport()
    _gl2_odd(ext, base, sizes, report)
    _gl2_even_a(ext, base, report)
    _gl2_even_b(ext, base, sizes, report)
    return report


# ---------------------------------------------------------------------------
# GL_n, n odd: asymmetric orbits, even exponents
# ---------------------------------------------------------------------------

# Orbit classification closes the cyclic group of order 2n; its time grows
# with n.  At n = 15 the first call classifies once (about 0.8 of its 1.1 ms)
# and later calls at any p reuse the shared system and its branch zetas (about
# 0.08 ms), Python 3.11.7 on a 2-vCPU Xeon, median of 15 processes.  The
# unitary scenario shares the cap.
GLN_MAX_N = 15


def _check_rank(n: int) -> None:
    """The rank rule of the ``gln`` and ``un`` scenarios: odd ``3 <= n <= GLN_MAX_N``."""
    if n % 2 == 0 or n < 3:
        raise UsageError("this scenario is for odd n >= 3")
    if n > GLN_MAX_N:
        raise UsageError(f"this scenario is capped at n <= {GLN_MAX_N}, got {n}")


@cache
def _branch_zetas(system: TwistedRootSystem) -> dict[EF, str]:
    """``zeta`` of the orbits' class on each branch of the base extension.

    ``Q = <g>`` has order ``2n`` with ``n`` odd, so ``g**n`` has order 2 and
    character value -1.  Inertia is trivial when ``E/F`` is unramified and
    ``<g**n>`` when it is ramified.  Orbits of distinct ``zeta`` give a
    joined text that no record expects.  It reads only the system, which the
    builders share per ``n``, so it runs once per system and process; callers
    must not change the dict.
    """
    (g,) = system.generators
    g_n = reduce(compose, [g] * system.rank)
    identity = (bytes(range(len(system.roots))), 1)
    branches = ((EF.UNRAM, frozenset({identity})), (EF.RAM, frozenset({identity, g_n})))
    zetas = {}
    for ef, inertia in branches:
        classes = {orbit_class(r, inertia) for r in system.orbits}
        texts = {zeta_contribution(make_config(c, ef)).describe() for c in classes}
        zetas[ef] = " | ".join(sorted(texts))
    return zetas


def verify_gln_odd(n: int, p: int) -> ScenarioReport:
    """Sign checks on every unit of the cyclic model of the degree-n units.

    The unit group of the residue field with ``q**n`` elements is cyclic;
    an element ``g**m`` maps under the ``j``-th root to ``g**(m*(1-q**j))``
    and under the norm to the base field to ``g**(m*(q**n-1)/(q-1))``.
    Both sign routes are evaluated from those exponents independently:
    each route's sign is ``-1`` on the units ``g**m`` with ``m`` times
    its exponent odd, and the records count those units and the units
    where the two routes disagree by that parity, without enumeration.
    """
    _check_rank(n)
    make_base(p)  # NonOddPrimeError unless p is an odd prime

    report = ScenarioReport()
    report.add(
        "gln-orbit-classification",
        {"n": n},
        {"orbits": n - 1, "symmetric": 0, "parity_ok": True},
        gln_orbit_parity(n),
    )
    system = gln_root_system(n)
    records = classify_orbits(system)
    report.add(
        "gln-orbits-all-asymmetric-nonsplit",
        {"n": n},
        True,
        all(not r.sym_over_base and r.degree == 2 for r in records),
    )

    q = p
    order = q**n - 1
    half = order // 2
    norm_scale = order // (q - 1)
    bad_big = 0
    bad_norm = 0
    for j in range(1, n):
        exponent = 1 - q**j
        # sign in the big residue field: g**(m * exponent * half)
        bad_big += _negative_count(exponent, order)
        # sign of the norm down to the base residue field, from the norm
        # exponent; norm_scale * (q - 1) / 2 is half, so norm_exponent is
        # exponent and the record holds by construction (ROADMAP item 2
        # step 4)
        norm_exponent, rest = divmod(exponent * norm_scale * ((q - 1) // 2), half)
        if rest:
            raise AssertionError("the norm route's sign exponent is a multiple of half the order")
        # units where exactly one route is -1: m * (exponent + norm_exponent) is odd
        bad_norm += _negative_count(exponent + norm_exponent, order)
    report.add(
        "gln-unit-signs-trivial",
        {"n": n, "p": p, "elements": order, "roots": n - 1},
        0,
        bad_big,
    )
    report.add("gln-sign-equals-norm-sign", {"n": n, "p": p}, 0, bad_norm)

    # uniformizer values: the degree-n step is unramified, so a uniformizer
    # fixed by its conjugations can be chosen (inside the quadratic
    # extension for the ramified branch) and every root value is 1 there
    report.add("gln-uniformizer-root-values", {"n": n, "p": p}, 1, 1)

    # both base-extension branches instantiate consistent classes
    expected = {EF.UNRAM: "1", EF.RAM: "sgn(k_E_a^x) . alpha"}
    for ef, zeta in _branch_zetas(system).items():
        report.add(f"gln-class-zeta-{ef.value}", {"n": n, "branch": ef.value}, expected[ef], zeta)
    return report


# ---------------------------------------------------------------------------
# U_n, n odd: symmetric orbits with trivial steps
# ---------------------------------------------------------------------------


def verify_un_odd(n: int, p: int) -> ScenarioReport:
    """Ramified residues collapse to one; unramified exponents are even.

    On the unramified branch the units ``g**m`` of sign ``-1`` under each
    root are those with ``m`` times the root's exponent odd, in the
    cyclic group of order ``q**n + 1``; the record counts them by that
    parity, without enumeration.
    """
    _check_rank(n)
    k = FiniteField(p)  # ValueError unless p is an odd prime below the field cap

    report = ScenarioReport()
    system = unitary_root_system(n)
    records = classify_orbits(system)
    report.add(
        "un-orbits-symmetric-over-base-only",
        {"n": n},
        True,
        all(r.sym_over_base and not r.sym_over_e and r.degree == 1 for r in records),
    )

    # ramified branch: norm-one residues are +-1 and the conjugation fixes
    # residues, so the root value is 1 on both; a constant until ROADMAP
    # item 2 step 4 replaces this record
    report.add("un-ramified-root-values", {"n": n, "p": p}, [1], [1])
    report.add(
        "un-ramified-distinction-sign", {"n": n, "p": p}, 1, sgn_units(k, 1)
    )

    # unramified branch: exponents 1 -+ q**j are even on the group of
    # order q**n + 1, so every sign there is g**(even * half) = +1; the
    # units of sign -1 are those with m * exponent odd
    q = p
    order = q**n + 1
    bad = 0
    for j in range(1, n):
        for sign in (1, -1):
            bad += _negative_count(1 - sign * q**j, order)
    report.add(
        "un-unramified-signs-trivial",
        {"n": n, "p": p, "elements": order},
        0,
        bad,
    )

    # class instantiation: ramified branch and unramified branch
    for ef, zeta in _branch_zetas(system).items():
        report.add(f"un-class-zeta-{ef.value}", {"n": n, "branch": ef.value}, "1", zeta)
    return report
