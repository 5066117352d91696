"""The immutable value classes: equality, hashing, repr, immutability, copies.

Each class compares, hashes and prints its fields the way a frozen
dataclass does, and no field can be assigned after construction.
"""

import copy
import dataclasses
import pickle

import pytest

from uniformizer.errors import PreconditionError
from uniformizer.expr import parse_element
from uniformizer.fields import GF, QQ, BaseField
from uniformizer.polyfield import SparsePoly
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import CheckResult, VerificationReport, uniformize_abhyankar, verify
from uniformizer.valuation import AbhyankarReport, MonomialPlace, abhyankar_report, residue_of
from uniformizer.valuegroup import GroupOrder, perron_positive_basis


def _order(d=2):
    return GroupOrder(((SurdScalar.rational(1), SurdScalar.sqrt(d)),))


def _place(d=2):
    return MonomialPlace(QQ(), _order(d), tau=1)


def _element(text):
    return parse_element(text, QQ(), _place().ambient_names)


def _report(detail=""):
    check = CheckResult(True)
    return VerificationReport(check, check, check, CheckResult(not detail, detail), "0", "1", ("1",))


# name -> a builder called twice for two equal, distinct instances, and a
# builder of an unequal instance of the same class
SAMPLES = {
    # GF and QQ hand out one instance per field; the constructor builds new ones
    "BaseField": (lambda: BaseField(5), lambda: QQ()),
    "SparsePoly": (lambda: _element("y1 + 1").num, lambda: _element("y1 + 2").num),
    "RationalFunction": (lambda: _element("(y1 + 1)/2"), lambda: _element("(y1 + 1)/3")),
    "SurdScalar": (lambda: SurdScalar.sqrt(2, 3), lambda: SurdScalar.sqrt(3, 3)),
    "_Block": (lambda: _order()._blocks[0], lambda: _order(3)._blocks[0]),
    "GroupOrder": (_order, lambda: _order(3)),
    "GroupElement": (lambda: _order().element([1, -2]), lambda: _order().element([1, 2])),
    "MonomialPlace": (_place, lambda: _place(3)),
    "ResidueElement": (
        lambda: residue_of(_place(), _element("(x1*y1 + x1)/(2*x1)")),
        lambda: residue_of(_place(), _element("(x1*y1 + x1)/(3*x1)")),
    ),
    "AbhyankarReport": (lambda: abhyankar_report(_place()), lambda: AbhyankarReport(3, 2, 1, False)),
    "CheckResult": (lambda: CheckResult(False, "row 1"), lambda: CheckResult(False, "row 2")),
    "VerificationReport": (_report, lambda: _report("row 1")),
}

_ORDER = (
    "GroupOrder(blocks=((SurdScalar(terms=((Fraction(1, 1), 1),)), "
    "SurdScalar(terms=((Fraction(1, 1), 2),))),))"
)
_PLACE = (
    f"MonomialPlace(base=BaseField(p=None), order={_ORDER}, tau=1, "
    "x_names=('x1', 'x2'), y_names=('y1',))"
)
_CHECK = "CheckResult(passed=True, detail='')"
REPRS = {
    "BaseField": "BaseField(p=5)",
    "SparsePoly": (
        "SparsePoly(base=BaseField(p=None), nvars=3, "
        "terms=(((0, 0, 1), Fraction(1, 1)), ((0, 0, 0), Fraction(1, 1))))"
    ),
    "RationalFunction": (
        "RationalFunction(num=SparsePoly(base=BaseField(p=None), nvars=3, "
        "terms=(((0, 0, 1), Fraction(1, 1)), ((0, 0, 0), Fraction(1, 1)))), "
        "den=SparsePoly(base=BaseField(p=None), nvars=3, terms=(((0, 0, 0), Fraction(2, 1)),)))"
    ),
    "SurdScalar": "SurdScalar(terms=((Fraction(3, 1), 2),))",
    "_Block": (
        "_Block(weights=(SurdScalar(terms=((Fraction(1, 1), 1),)), "
        "SurdScalar(terms=((Fraction(1, 1), 2),))), radicands=(1, 2), "
        "matrix=((1, 0), (0, 1)), roots=(18446744073709551616, 26087635650665564424))"
    ),
    "GroupOrder": _ORDER,
    "GroupElement": f"GroupElement(order={_ORDER}, coords=(Fraction(1, 1), Fraction(-2, 1)))",
    "MonomialPlace": _PLACE,
    "ResidueElement": (
        f"ResidueElement(place={_PLACE}, rep=RationalFunction(num=SparsePoly("
        "base=BaseField(p=None), nvars=1, terms=(((1,), Fraction(1, 1)), ((0,), Fraction(1, 1)))), "
        "den=SparsePoly(base=BaseField(p=None), nvars=1, terms=(((0,), Fraction(2, 1)),))))"
    ),
    "AbhyankarReport": (
        "AbhyankarReport(transcendence_degree=3, rational_rank=2, "
        "residue_transcendence_degree=1, is_abhyankar=True)"
    ),
    "CheckResult": "CheckResult(passed=False, detail='row 1')",
    "VerificationReport": (
        f"VerificationReport(u1={_CHECK}, u2={_CHECK}, u3={_CHECK}, generation={_CHECK}, "
        "diagonal_value='0', diagonal_residue='1', diagonal_entries=('1',), precision=None)"
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_instances_compare_and_hash_equal(name):
    same, other = SAMPLES[name]
    a, b = same(), same()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()


def test_instances_of_different_classes_are_unequal():
    firsts = [same() for same, _ in SAMPLES.values()]
    for i, a in enumerate(firsts):
        for j, b in enumerate(firsts):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)
    # equal field values make no equal instances across classes, nor with a tuple
    assert SurdScalar() != GroupOrder(()) and not SurdScalar() == GroupOrder(())
    assert QQ() != (None,) and CheckResult(True) != (True, "")
    assert BaseField(None) == QQ() and BaseField() == QQ()


def test_fields_are_interned_and_built_ones_still_compare_equal():
    assert GF(5) is GF(5) and QQ() is QQ() and GF(5) is not GF(7)
    assert BaseField(5) is not GF(5) and BaseField(5) == GF(5) and hash(BaseField(5)) == hash(GF(5))
    assert pickle.loads(pickle.dumps(GF(5))) == GF(5)
    for bad in (4, 5.0, True):
        with pytest.raises(PreconditionError):
            GF(bad)


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(SAMPLES[name][0]()) == REPRS[name]


def test_group_order_compares_hashes_and_prints_its_blocks_alone():
    a, b = _order(), _order()
    assert a._blocks is not b._blocks
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.blocks,))
    assert "_blocks" not in repr(a) and "_ngens" not in repr(a)


def _fields(text):
    """The field names of a repr, at the outermost parenthesis."""
    names, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
            start = i + 1
        elif ch in ")]":
            depth -= 1
        elif depth == 1 and ch == ",":
            start = i + 1
        elif depth == 1 and ch == "=":
            names.append(text[start:i].strip())
    return names


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned(name):
    obj = SAMPLES[name][0]()
    fields = _fields(REPRS[name])
    assert fields and all(hasattr(obj, f) for f in fields)
    for field in fields + ["extra"]:
        before = repr(obj)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert repr(obj) == before


@pytest.mark.parametrize("name", SAMPLES)
def test_copies_and_pickles_are_equal(name):
    obj = SAMPLES[name][0]()
    for dup in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert dup == obj and hash(dup) == hash(obj) and repr(dup) == repr(obj)


def test_replace_still_copies_the_remaining_dataclasses():
    place = _place()
    system = uniformize_abhyankar(place, [_element("x1*y1")])
    row = system.fs[0] * SparsePoly.const(place.base, system.fs[0].nvars, 2)
    changed = dataclasses.replace(system, fs=(row,) + system.fs[1:])
    assert changed.fs[0] == row and changed.etas == system.etas
    assert verify(system).passed

    res = perron_positive_basis(_order(), [_order().element([1, 0])])
    assert dataclasses.replace(res, coeffs=((2,),)).coeffs == ((2,),)
    assert dataclasses.replace(res, coeffs=((2,),)).basis == res.basis

