"""Symbolic engine for quadratic character contributions of root-orbit classes.

Every invariant handled here is a quadratic character built from a small
set of basis symbols: the sign character of the units of the orbit
field's residue field (``sgn(k_E_a^x)``), the same for the stabilizer
field (``sgn(k_F_a^x)``), the sign character of the norm-one subgroup of
the orbit field's residue field (``sgn(k_E_a^1)``), and the quadratic
character attached to the quadratic step ``E_a / F_a``
(``omega(E_a/F_a)``).  Products live in the group algebra over GF(2), so
a ``CharContribution`` is just a frozenset of symbols with symmetric
difference as multiplication.  Each symbol is the text of its table cell.

A ``RootOrbitConfig`` bundles the classification triple of an orbit
(step type ``deg_EaFa``, symmetry over the base field ``sym_F``,
symmetry over the quadratic base extension ``sym_E``), the ramification
of the quadratic base extension itself (``ef``), and two element-dependent
gates: ``in_phi_half`` (whether the orbit meets the chosen half-system
used by the depth-zero sign counts; forced off when the base extension
is unramified, since Frobenius orbits then pair the halves) and
``ord_zero`` (whether the relevant orbit invariant has even valuation;
only meaningful when the orbit is symmetric-ramified over the
extension).

``conjecture_check`` compares the product of the three sign invariants
against the character of the twisted class, which ``twisted_class`` of
:mod:`quadchar.root_orbits` derives from the triple.  It reports one of
three verdicts: exact symbolic equality, equality up to a known character
identification or gate reassignment (``NEEDS_ELEMENT_CHECK`` with the
reason), or an outright mismatch.
"""

from __future__ import annotations

from enum import Enum

from ._value import Value
from .padic_fields import LocalFieldDesc, SquareClass, hilbert_symbol
from .root_orbits import Deg, Sym, twisted_class


class EF(str, Enum):
    """Ramification of the quadratic base extension ``E/F``."""

    UNRAM = "ur"
    RAM = "r"


_BASIS: set[str] = set()  # the basis symbols; filled at import by _basis_character


class CharContribution(Value):
    """A product of basis quadratic characters (exponents mod 2)."""

    symbols: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = self.symbols - _BASIS
        if unknown:
            raise ValueError(f"unknown character symbols: {sorted(unknown)}")

    def __mul__(self, other: "CharContribution") -> "CharContribution":
        return CharContribution(self.symbols ^ other.symbols)

    @property
    def is_trivial(self) -> bool:
        return not self.symbols

    def describe(self) -> str:
        """Canonical cell text: '1' or a sorted ' * '-joined product."""
        if not self.symbols:
            return "1"
        return " * ".join(sorted(self.symbols))


def _basis_character(symbol: str) -> CharContribution:
    _BASIS.add(symbol)
    return CharContribution(frozenset({symbol}))


ONE = CharContribution()
SGN_UNITS_ORBIT = _basis_character("sgn(k_E_a^x) . alpha")
SGN_UNITS_STAB = _basis_character("sgn(k_F_a^x) . alpha")
SGN_NORM_ONE_ORBIT = _basis_character("sgn(k_E_a^1) . alpha")
OMEGA_STEP = _basis_character("omega(E_a/F_a) . iota . alpha")


# the ten consistent classification triples, in table order, each with
# the base-extension ramifications it occurs with
_CLASSES: dict[tuple[Deg, Sym, Sym], tuple[EF, ...]] = {
    (Deg.SPLIT, Sym.ASYM, Sym.ASYM): (EF.UNRAM, EF.RAM),
    (Deg.UNRAM, Sym.ASYM, Sym.ASYM): (EF.UNRAM, EF.RAM),
    (Deg.RAM, Sym.ASYM, Sym.ASYM): (EF.RAM,),
    (Deg.SPLIT, Sym.SYM_UNRAM, Sym.ASYM): (EF.UNRAM,),
    (Deg.SPLIT, Sym.SYM_UNRAM, Sym.SYM_UNRAM): (EF.UNRAM, EF.RAM),
    (Deg.RAM, Sym.SYM_UNRAM, Sym.SYM_UNRAM): (EF.RAM,),
    (Deg.SPLIT, Sym.SYM_RAM, Sym.ASYM): (EF.RAM,),
    (Deg.SPLIT, Sym.SYM_RAM, Sym.SYM_RAM): (EF.UNRAM, EF.RAM),
    (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_RAM): (EF.UNRAM, EF.RAM),
    (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_UNRAM): (EF.RAM,),
}
CLASS_TRIPLES: tuple[tuple[Deg, Sym, Sym], ...] = tuple(_CLASSES)


def allowed_ef(triple: tuple[Deg, Sym, Sym]) -> tuple[EF, ...]:
    """Base-extension ramifications compatible with a classification triple."""
    if triple not in _CLASSES:
        raise ValueError(f"not a consistent classification triple: {triple}")
    return _CLASSES[triple]


class RootOrbitConfig(Value):
    """One fully specified orbit situation (class, ramification, gates)."""

    deg_EaFa: Deg
    sym_F: Sym
    sym_E: Sym
    ef: EF
    in_phi_half: bool = False
    ord_zero: bool = False

    def __post_init__(self) -> None:
        if self.ef not in allowed_ef(self.triple):
            raise ValueError(f"class {self.triple} does not occur with ef={self.ef.value}")
        if self.in_phi_half and self.ef is EF.UNRAM:
            raise ValueError(
                "over an unramified base extension the half-system gate is forced off"
            )
        if self.ord_zero and self.sym_E is not Sym.SYM_RAM:
            raise ValueError(
                "the even-valuation gate only applies to symmetric-ramified-over-E orbits"
            )

    @property
    def triple(self) -> tuple[Deg, Sym, Sym]:
        return (self.deg_EaFa, self.sym_F, self.sym_E)


def class_key(triple: tuple[Deg, Sym, Sym]) -> int:
    """1-based class number of a classification triple, in table order."""
    try:
        return CLASS_TRIPLES.index(triple) + 1
    except ValueError:
        raise ValueError(f"not a consistent classification triple: {triple}") from None


def make_config(
    triple: tuple[Deg, Sym, Sym], ef: EF, in_phi_half: bool = False, ord_zero: bool = False
) -> RootOrbitConfig:
    """Build a config from a classification triple."""
    return RootOrbitConfig(*triple, ef, in_phi_half, ord_zero)


def enumerate_configs() -> list[RootOrbitConfig]:
    """All admissible configs: 10 classes x allowed ef x allowed gates (30 total)."""
    configs: list[RootOrbitConfig] = []
    for triple in CLASS_TRIPLES:
        for ef in allowed_ef(triple):
            phi_values = (False, True) if ef is EF.RAM else (False,)
            ord_values = (False, True) if triple[2] is Sym.SYM_RAM else (False,)
            for in_phi_half in phi_values:
                for ord_zero in ord_values:
                    configs.append(make_config(triple, ef, in_phi_half, ord_zero))
    return configs


# ---------------------------------------------------------------------------
# the three sign invariants and the twisted-class character
# ---------------------------------------------------------------------------


def kaletha_contribution(config: RootOrbitConfig) -> CharContribution:
    """Toral-invariant sign character of the orbit, read off its tower.

    Nontrivial only on the half-system gate.  An orbit asymmetric over
    ``E`` whose step ``E_a/F_a`` or whose symmetry over the base is
    ramified contributes the unit sign character of ``k_E_a``; an orbit
    symmetric-unramified over ``E`` with a genuine quadratic step
    contributes the norm-one sign character of ``k_E_a``.  Each rule
    holds on one pair of classes that the twist exchanges.
    """
    if not config.in_phi_half:
        return ONE
    ramified = config.deg_EaFa is Deg.RAM or config.sym_F is Sym.SYM_RAM
    if config.sym_E is Sym.ASYM and ramified:
        return SGN_UNITS_ORBIT
    if config.sym_E is Sym.SYM_UNRAM and config.deg_EaFa is not Deg.SPLIT:
        return SGN_NORM_ONE_ORBIT
    return ONE


def hakim_contribution(config: RootOrbitConfig) -> CharContribution:
    """Distinction sign character: unit sign of the stabilizer field.

    Appears exactly for orbits whose symmetry step over the base is
    ramified, gated by the half-system membership.
    """
    if config.sym_F is Sym.SYM_RAM and config.in_phi_half:
        return SGN_UNITS_STAB
    return ONE


def prasad_contribution(config: RootOrbitConfig) -> CharContribution:
    """Quadratic-character contribution of the twisted Levi comparison.

    Nontrivial exactly when the orbit is symmetric over the base and the
    step ``E_a / F_a`` is a genuine quadratic extension.
    """
    if config.sym_F is not Sym.ASYM and config.deg_EaFa is not Deg.SPLIT:
        return OMEGA_STEP
    return ONE


def zeta_contribution(config: RootOrbitConfig) -> CharContribution:
    """Character of the twisted class ``twisted_class(config.triple)``.

    A twisted class that is split with ramified symmetry and asymmetric
    over the extension gives the unit sign character of the orbit field;
    an unramified twisted step with ramified twisted symmetry gives the
    step character; all other twisted classes contribute trivially.
    Independent of gates.
    """
    twisted = twisted_class(config.triple)
    if twisted == (Deg.SPLIT, Sym.SYM_RAM, Sym.ASYM):
        return SGN_UNITS_ORBIT
    if twisted[:2] == (Deg.UNRAM, Sym.SYM_RAM):
        return OMEGA_STEP
    return ONE


def toral_invariant(field: LocalFieldDesc, a: SquareClass, b: SquareClass) -> int:
    """Toral invariant of a symmetric orbit at an element pair.

    Equal to the quadratic Hilbert symbol of the two square classes over
    the signed-stabilizer field; the first class encodes the quadratic
    step and must be nontrivial for the invariant to be meaningful.
    """
    if a.is_trivial:
        raise ValueError("the step class of a symmetric orbit must be nontrivial")
    return hilbert_symbol(field, a, b)


# ---------------------------------------------------------------------------
# the comparison verdict
# ---------------------------------------------------------------------------


class CheckStatus(str, Enum):
    SYMBOLIC_EQUAL = "symbolic_equal"
    NEEDS_ELEMENT_CHECK = "needs_element_check"
    MISMATCH = "mismatch"


class Verdict(Value):
    product: CharContribution
    zeta: CharContribution
    status: CheckStatus
    reason: str = ""


# each known character identification: when it applies, the product of
# basis characters it shows to be trivial there, and why
_RELATIONS = (
    (
        lambda c: c.deg_EaFa is not Deg.UNRAM,  # k_F_a = k_E_a
        SGN_UNITS_STAB * SGN_UNITS_ORBIT,
        "unit sign characters of k_F_a and k_E_a agree on their shared residue field",
    ),
    (
        lambda c: c.sym_F is not Sym.ASYM and c.deg_EaFa is Deg.UNRAM,
        SGN_NORM_ONE_ORBIT * SGN_UNITS_STAB * OMEGA_STEP,
        "norm-one sign, stabilizer unit sign, and the step character "
        "multiply to one on norms from the unramified step",
    ),
)

_OPPOSITE_GATE = "under the opposite half-system gate"


def _cancelling_reason(config: RootOrbitConfig, diff: CharContribution) -> str | None:
    """``""`` when ``diff`` is trivial, else the reason of a relation that cancels it."""
    if diff.is_trivial:
        return ""
    for applies, cancels, reason in _RELATIONS:
        if diff == cancels and applies(config):
            return reason
    return None


def _product(config: RootOrbitConfig) -> CharContribution:
    """The product of the three sign invariants of a config."""
    return (
        kaletha_contribution(config)
        * hakim_contribution(config)
        * prasad_contribution(config)
    )


def conjecture_check(config: RootOrbitConfig) -> Verdict:
    """Compare the product of the three invariants with the twisted character.

    The config is tried first, then, when ``E/F`` is ramified, its twin
    under the opposite half-system gate (that gate is element data, not
    class data).  The first that is equal or made equal by a known
    character identification gives the verdict; if neither is, a mismatch.
    """
    product = _product(config)
    zeta = zeta_contribution(config)
    twins = [config]
    if config.ef is EF.RAM:
        twins.append(config.replace(in_phi_half=not config.in_phi_half))
    for flipped, twin in enumerate(twins):
        reason = _cancelling_reason(twin, _product(twin) * zeta)
        if reason is None:
            continue
        if flipped:
            reason = f"{_OPPOSITE_GATE}: {reason}" if reason else f"agrees {_OPPOSITE_GATE}"
        status = CheckStatus.NEEDS_ELEMENT_CHECK if reason else CheckStatus.SYMBOLIC_EQUAL
        return Verdict(product, zeta, status, reason)
    return Verdict(
        product, zeta, CheckStatus.MISMATCH, "no identification reconciles the products"
    )
