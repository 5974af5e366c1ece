"""The ``Value`` base keeps the frozen-dataclass contract of the record classes."""

from __future__ import annotations

import subprocess
import sys

import pytest

from quadchar._value import Value
from quadchar.case_studies import CheckRecord
from quadchar.char_engine import CLASS_TRIPLES, EF, RootOrbitConfig, make_config
from quadchar.galois_lattices import Gm, Prod, Res, U1, cocharacter_lattice
from quadchar.padic_fields import LocalFieldDesc, SquareClass
from quadchar.residue_fields import FiniteField, QuadraticExtension

TORI = [Gm("F"), Gm("E"), U1("E", "F"), Res("E", "F", Gm("E")), Prod((Gm("F"), U1("E", "F")))]


def fields(x: Value) -> tuple:
    return tuple(getattr(x, name) for name in type(x)._fields)


class Twin(Value):
    """Same field names as ``U1``, another class."""

    top: str
    base: str


def test_distinct_classes_with_equal_fields_are_unequal():
    assert U1("E", "F") != Twin("E", "F") and Twin("E", "F") != U1("E", "F")
    assert SquareClass(0, 1) != (0, 1) and (0, 1) != SquareClass(0, 1)
    assert Gm("F") != ("F",)
    for i, a in enumerate(TORI):
        for j, b in enumerate(TORI):
            assert (a == b) is (i == j)
    # so torus expressions stay sound cache keys
    assert len({U1("E", "F"): 1, Twin("E", "F"): 2}) == 2
    assert cocharacter_lattice(U1("E", "F"), "E") is cocharacter_lattice(U1("E", "F"), "E")


def test_equal_fields_give_equal_instances():
    assert SquareClass(1, 0) == SquareClass(1, 0) and SquareClass(1, 0) != SquareClass(0, 1)
    assert Res("E", "F", Gm("E")) == Res(through="E", base="F", inner=Gm("E"))
    assert LocalFieldDesc(5) == LocalFieldDesc(5, 1) == LocalFieldDesc(f=1, p=5)
    assert Gm() == Gm("F")


def test_hash_is_the_hash_of_the_field_tuple():
    values = [
        *TORI,
        Twin("E", "F"),
        SquareClass(1, 1),
        LocalFieldDesc(7, 3),
        FiniteField(7),
        *(make_config(t, ef) for t in CLASS_TRIPLES[:3] for ef in (EF.RAM,)),
    ]
    for x in values:
        assert hash(x) == hash(fields(x))
    assert hash(U1("E", "F")) == hash(Twin("E", "F"))  # equal hashes, unequal values


def test_fields_cannot_be_assigned_or_deleted():
    cfg = make_config(CLASS_TRIPLES[7], EF.RAM, in_phi_half=True)
    with pytest.raises(AttributeError, match="in_phi_half"):
        cfg.in_phi_half = False  # type: ignore[misc]
    with pytest.raises(AttributeError, match="val_parity"):
        del SquareClass(1, 0).val_parity
    with pytest.raises(AttributeError, match="anything"):
        Gm().anything = 1  # type: ignore[attr-defined]
    assert cfg.in_phi_half is True


def test_post_init_validation_still_fires():
    with pytest.raises(ValueError, match="odd prime"):
        FiniteField(9)
    with pytest.raises(ValueError, match="does not occur"):
        RootOrbitConfig(*CLASS_TRIPLES[3], EF.RAM)  # class 3 occurs only with ef=ur
    with pytest.raises(ValueError, match="odd prime"):
        FiniteField(7).replace(p=9)  # replace validates again


def test_missing_or_unknown_fields_raise_type_error():
    with pytest.raises(TypeError, match="missing \\['unit_nonsquare'\\]"):
        SquareClass(0)
    with pytest.raises(TypeError, match="3 positional"):
        SquareClass(0, 1, 0)
    with pytest.raises(TypeError, match="repeated \\['val_parity'\\], missing \\[\\]"):
        SquareClass(0, 1, val_parity=0)  # given twice
    with pytest.raises(TypeError, match="'colour'"):
        SquareClass(0, 1, colour=2)
    with pytest.raises(TypeError, match="'colour'"):
        SquareClass(0, 1).replace(colour=2)
    with pytest.raises(TypeError, match="missing \\['top', 'base'\\]"):
        U1()


def test_repr_keeps_the_dataclass_format():
    assert repr(SquareClass(0, 1)) == "SquareClass(val_parity=0, unit_nonsquare=1)"
    assert repr(Res("E", "F", Gm("E"))) == "Res(through='E', base='F', inner=Gm(base='E'))"
    record = CheckRecord("x", {"p": 3}, 1, [1])
    assert repr(record) == "CheckRecord(id='x', inputs={'p': 3}, expected=1, got=[1])"


def test_replace_keeps_the_other_fields():
    cfg = make_config(CLASS_TRIPLES[7], EF.RAM, in_phi_half=True, ord_zero=True)
    flipped = cfg.replace(ord_zero=False)
    assert flipped == make_config(CLASS_TRIPLES[7], EF.RAM, in_phi_half=True)
    assert cfg.ord_zero is True and cfg.replace() == cfg


def test_cached_properties_still_work_on_frozen_instances():
    ext = QuadraticExtension(FiniteField(7))
    assert ext.u == 3 and "u" in vars(ext)
    assert ext == QuadraticExtension(FiniteField(7))  # the cache is no field


def test_cli_import_loads_no_dataclasses_machinery():
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = f"import quadchar.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
