"""Symbolic character algebra, config enumeration, and the verdict cascade."""

from __future__ import annotations

import pytest

from quadchar.char_engine import (
    CLASS_TRIPLES,
    EF,
    ONE,
    OMEGA_STEP,
    SGN_NORM_ONE_ORBIT,
    SGN_UNITS_ORBIT,
    SGN_UNITS_STAB,
    CharContribution,
    CheckStatus,
    RootOrbitConfig,
    allowed_ef,
    class_key,
    conjecture_check,
    enumerate_configs,
    hakim_contribution,
    kaletha_contribution,
    make_config,
    prasad_contribution,
    toral_invariant,
    zeta_contribution,
)
from quadchar.padic_fields import (
    SQUARE_CLASS_ONE,
    SQUARE_CLASS_PI,
    SQUARE_CLASS_U,
    SQUARE_CLASS_UPI,
    hilbert_symbol,
    make_base,
)
from quadchar.root_orbits import Deg, Sym


# ---------------------------------------------------------------------------
# the character algebra
# ---------------------------------------------------------------------------


def test_multiplication_is_xor_with_identity():
    assert SGN_UNITS_ORBIT * SGN_UNITS_ORBIT == ONE
    assert SGN_UNITS_ORBIT * ONE == SGN_UNITS_ORBIT
    prod = SGN_UNITS_ORBIT * OMEGA_STEP
    assert prod.symbols == SGN_UNITS_ORBIT.symbols | OMEGA_STEP.symbols
    assert prod * OMEGA_STEP == SGN_UNITS_ORBIT


def test_describe_strings_are_canonical():
    assert ONE.describe() == "1"
    assert SGN_UNITS_ORBIT.describe() == "sgn(k_E_a^x) . alpha"
    assert SGN_UNITS_STAB.describe() == "sgn(k_F_a^x) . alpha"
    assert SGN_NORM_ONE_ORBIT.describe() == "sgn(k_E_a^1) . alpha"
    assert OMEGA_STEP.describe() == "omega(E_a/F_a) . iota . alpha"
    both = OMEGA_STEP * SGN_NORM_ONE_ORBIT
    assert both.describe() == "omega(E_a/F_a) . iota . alpha * sgn(k_E_a^1) . alpha"


def test_unknown_symbols_rejected():
    with pytest.raises(ValueError, match="unknown character symbols"):
        CharContribution(frozenset({("sgn_units", "nowhere")}))


# ---------------------------------------------------------------------------
# configs and enumeration
# ---------------------------------------------------------------------------


def test_class_numbering_round_trip():
    for index, triple in enumerate(CLASS_TRIPLES, start=1):
        assert class_key(triple) == index
        cfg = make_config(triple, allowed_ef(triple)[0])
        assert class_key(cfg.triple) == index
    with pytest.raises(ValueError, match="not a consistent"):
        class_key((Deg.UNRAM, Sym.SYM_UNRAM, Sym.SYM_UNRAM))


def test_enumerate_configs_counts():
    configs = enumerate_configs()
    assert len(configs) == 30
    per_class: dict[int, int] = {}
    for cfg in configs:
        per_class[class_key(cfg.triple)] = per_class.get(class_key(cfg.triple), 0) + 1
    assert per_class == {1: 3, 2: 3, 3: 2, 4: 1, 5: 3, 6: 2, 7: 2, 8: 6, 9: 6, 10: 2}


def test_enumeration_is_deterministic():
    first = enumerate_configs()
    second = enumerate_configs()
    assert first == second
    assert [class_key(c.triple) for c in first] == sorted(class_key(c.triple) for c in first)


def test_config_rejects_inconsistent_triple():
    with pytest.raises(ValueError, match="not a consistent"):
        RootOrbitConfig(
            deg_EaFa=Deg.UNRAM,
            sym_F=Sym.SYM_UNRAM,
            sym_E=Sym.SYM_UNRAM,
            ef=EF.RAM,
        )


def test_config_rejects_disallowed_base_ramification():
    with pytest.raises(ValueError, match="does not occur with ef=ur"):
        make_config(CLASS_TRIPLES[2], EF.UNRAM)
    with pytest.raises(ValueError, match="does not occur with ef=r"):
        make_config(CLASS_TRIPLES[3], EF.RAM)


def test_config_gate_constraints():
    with pytest.raises(ValueError, match="forced off"):
        make_config(CLASS_TRIPLES[0], EF.UNRAM, in_phi_half=True)
    with pytest.raises(ValueError, match="even-valuation gate"):
        make_config(CLASS_TRIPLES[0], EF.RAM, ord_zero=True)


# ---------------------------------------------------------------------------
# frozen contribution tables
# ---------------------------------------------------------------------------


def test_prasad_contribution_by_class():
    for cfg in enumerate_configs():
        expected = OMEGA_STEP if class_key(cfg.triple) in (6, 9, 10) else ONE
        assert prasad_contribution(cfg) == expected


def test_hakim_contribution_by_class_and_gate():
    for cfg in enumerate_configs():
        expected = (
            SGN_UNITS_STAB
            if cfg.sym_F is Sym.SYM_RAM and cfg.in_phi_half
            else ONE
        )
        assert hakim_contribution(cfg) == expected
        if hakim_contribution(cfg) != ONE:
            assert class_key(cfg.triple) in (7, 8, 9, 10)


def test_kaletha_contribution_by_class_and_gate():
    for cfg in enumerate_configs():
        got = kaletha_contribution(cfg)
        if not cfg.in_phi_half:
            assert got == ONE
        elif class_key(cfg.triple) in (3, 7):
            assert got == SGN_UNITS_ORBIT
        elif class_key(cfg.triple) in (6, 10):
            assert got == SGN_NORM_ONE_ORBIT
        else:
            assert got == ONE


def test_zeta_contribution_by_class_and_gate_independent():
    by_class = {3: SGN_UNITS_ORBIT, 6: OMEGA_STEP, 9: OMEGA_STEP}
    for cfg in enumerate_configs():
        assert zeta_contribution(cfg) == by_class.get(class_key(cfg.triple), ONE)


def test_toral_invariant_matches_symbol():
    for p in (3, 5, 13):
        field = make_base(p)
        for a in (SQUARE_CLASS_U, SQUARE_CLASS_PI, SQUARE_CLASS_UPI):
            for b in (SQUARE_CLASS_ONE, SQUARE_CLASS_U, SQUARE_CLASS_PI, SQUARE_CLASS_UPI):
                assert toral_invariant(field, a, b) == hilbert_symbol(field, a, b)


def test_toral_invariant_rejects_trivial_step_class():
    with pytest.raises(ValueError, match="nontrivial"):
        toral_invariant(make_base(5), SQUARE_CLASS_ONE, SQUARE_CLASS_U)


# ---------------------------------------------------------------------------
# the verdict cascade: frozen status of all 30 configs
# ---------------------------------------------------------------------------


def expected_status(cfg):
    key = (class_key(cfg.triple), cfg.ef, cfg.in_phi_half)
    needs = {
        (3, EF.RAM, False),
        (6, EF.RAM, True),
        (7, EF.RAM, True),
        (8, EF.RAM, True),
        (9, EF.RAM, True),
        (10, EF.RAM, False),
        (10, EF.RAM, True),
    }
    return (
        CheckStatus.NEEDS_ELEMENT_CHECK if key in needs else CheckStatus.SYMBOLIC_EQUAL
    )


def test_status_map_over_all_configs():
    for cfg in enumerate_configs():
        verdict = conjecture_check(cfg)
        assert verdict.status == expected_status(cfg), (cfg, verdict)
        assert verdict.status is not CheckStatus.MISMATCH


_SHARED = "unit sign characters of k_F_a and k_E_a agree on their shared residue field"
_NORMS = (
    "norm-one sign, stabilizer unit sign, and the step character "
    "multiply to one on norms from the unramified step"
)
_OPPOSITE = "agrees under the opposite half-system gate"

# (class, ef, in_phi_half, ord_zero) -> reason, for every config not
# symbolically equal; each of the other configs is symbolic_equal with no reason
_ELEMENT_CHECK_REASONS = {
    (3, "r", 0, 0): _OPPOSITE,
    (6, "r", 1, 0): _OPPOSITE,
    (7, "r", 1, 0): _SHARED,
    (8, "r", 1, 0): _OPPOSITE,
    (8, "r", 1, 1): _OPPOSITE,
    (9, "r", 1, 0): _OPPOSITE,
    (9, "r", 1, 1): _OPPOSITE,
    (10, "r", 0, 0): f"under the opposite half-system gate: {_NORMS}",
    (10, "r", 1, 0): _NORMS,
}


def test_status_and_reason_pinned_on_all_configs():
    configs = enumerate_configs()
    assert len(configs) == 30
    for cfg in configs:
        key = (class_key(cfg.triple), cfg.ef.value, int(cfg.in_phi_half), int(cfg.ord_zero))
        verdict = conjecture_check(cfg)
        if key in _ELEMENT_CHECK_REASONS:
            expected = ("needs_element_check", _ELEMENT_CHECK_REASONS[key])
        else:
            expected = ("symbolic_equal", "")
        assert (verdict.status.value, verdict.reason) == expected, key


def test_symbolic_equal_means_products_match():
    for cfg in enumerate_configs():
        verdict = conjecture_check(cfg)
        if verdict.status is CheckStatus.SYMBOLIC_EQUAL:
            assert verdict.product == verdict.zeta
            assert verdict.reason == ""
        else:
            assert verdict.product != verdict.zeta
            assert verdict.reason


def test_every_unramified_config_is_symbolically_equal():
    unram = [cfg for cfg in enumerate_configs() if cfg.ef is EF.UNRAM]
    assert len(unram) == 8
    for cfg in unram:
        verdict = conjecture_check(cfg)
        assert verdict.status is CheckStatus.SYMBOLIC_EQUAL
        assert verdict.product == zeta_contribution(cfg)


def test_residue_identification_reason():
    cfg = make_config(CLASS_TRIPLES[6], EF.RAM, in_phi_half=True)
    verdict = conjecture_check(cfg)
    assert verdict.status is CheckStatus.NEEDS_ELEMENT_CHECK
    assert "shared residue field" in verdict.reason


def test_norm_product_identification_reason():
    cfg = make_config(CLASS_TRIPLES[9], EF.RAM, in_phi_half=True)
    verdict = conjecture_check(cfg)
    assert verdict.status is CheckStatus.NEEDS_ELEMENT_CHECK
    assert verdict.reason.startswith("norm-one sign")
    flipped = make_config(CLASS_TRIPLES[9], EF.RAM, in_phi_half=False)
    verdict_flipped = conjecture_check(flipped)
    assert verdict_flipped.status is CheckStatus.NEEDS_ELEMENT_CHECK
    assert verdict_flipped.reason.startswith("under the opposite half-system gate")


def test_gate_dependence_reason():
    for triple_idx in (2, 5):  # classes 3 and 6
        gate_value = triple_idx == 5
        cfg = make_config(CLASS_TRIPLES[triple_idx], EF.RAM, in_phi_half=gate_value)
        verdict = conjecture_check(cfg)
        assert verdict.status is CheckStatus.NEEDS_ELEMENT_CHECK
        assert verdict.reason == "agrees under the opposite half-system gate"


def test_verdict_products_are_recomputable():
    for cfg in enumerate_configs():
        verdict = conjecture_check(cfg)
        recomputed = (
            kaletha_contribution(cfg)
            * hakim_contribution(cfg)
            * prasad_contribution(cfg)
        )
        assert verdict.product == recomputed
        assert verdict.zeta == zeta_contribution(cfg)


def test_configs_are_frozen_and_replaceable():
    cfg = make_config(CLASS_TRIPLES[7], EF.RAM, in_phi_half=True, ord_zero=True)
    with pytest.raises(AttributeError, match="in_phi_half"):
        cfg.in_phi_half = False  # type: ignore[misc]
    flipped = cfg.replace(ord_zero=False)
    assert flipped.ord_zero is False and flipped.in_phi_half is True
