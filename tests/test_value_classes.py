"""The immutable value classes: equality, hashing, repr, immutability, copies.

Each class compares, hashes and prints its fields the way a frozen
dataclass does, and no field can be assigned after construction.  The
classes that were dataclasses print their old dataclass repr, and their
constructors take the same keywords and defaults and raise the same
errors.  ``TriangularSystem``, still a frozen dataclass, is held to the
same tests.
"""

import copy
import pickle

import pytest

from uniformizer.checker import CheckResult, TriangularSystem, VerificationReport, verify
from uniformizer.completion import _Block as SeriesBlock, kaplansky_normalize, uniformize_completion_algebraic
from uniformizer.errors import PreconditionError
from uniformizer.expr import parse_element, parse_series
from uniformizer.fields import GF, QQ, BaseField
from uniformizer.polyfield import SparsePoly
from uniformizer.series import DiscretePresentation, DiscreteSeriesPlace, realize_presentation
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import uniformize_abhyankar
from uniformizer.valuation import AbhyankarReport, MonomialPlace, abhyankar_report, residue_of
from uniformizer.valuegroup import GroupOrder, PerronResult, perron_positive_basis
from frozen_copy import replace

F5 = GF(5)


def _order(d=2):
    return GroupOrder(((SurdScalar.rational(1), SurdScalar.make([(1, d)])),))


def _place(d=2):
    return MonomialPlace(QQ(), _order(d), tau=1)


def _element(text):
    return parse_element(text, QQ(), _place().ambient_names)


def _report(detail=""):
    check = CheckResult(True)
    return VerificationReport(check, check, check, CheckResult(not detail, detail), "0", "1", ("1",))


def _poly(text, names, base=QQ()):
    return parse_element(text, base, names).num


def _system(eta="y1"):
    return TriangularSystem(_place(), (), (_element(eta),), (_poly("X1 - 1", ["X1"]),))


def _perron(alpha):
    return perron_positive_basis(_order(), [_order().element(alpha)])


def _series(text="1 + 2*t + O(t^3)"):
    return parse_series(text, F5, "t")


def _series_place(precision=3):
    return DiscreteSeriesPlace(F5, "t", ("z",), (_series(),), precision)


def _presentation(residue=1):
    return DiscretePresentation(F5, min_poly=_poly("X^2 - 1 - t", ["t", "X"], F5), residue=residue)


def _witness(text="1 + 2*t + O(t^3)"):
    return kaplansky_normalize([_poly("X - 1", ["t", "X"], F5)], _series(text))


def _series_block(zeta_at=0):
    return SeriesBlock([[({0: 1}, None, 1)]], [_element("y1")], zeta_at, [])


# name -> a builder called twice for two equal, distinct instances, and a
# builder of an unequal instance of the same class
SAMPLES = {
    # GF and QQ hand out one instance per field; the constructor builds new ones
    "BaseField": (lambda: BaseField(5), lambda: QQ()),
    "SparsePoly": (lambda: _element("y1 + 1").num, lambda: _element("y1 + 2").num),
    "RationalFunction": (lambda: _element("(y1 + 1)/2"), lambda: _element("(y1 + 1)/3")),
    "SurdScalar": (lambda: SurdScalar.make([(3, 2)]), lambda: SurdScalar.make([(3, 3)])),
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
    "TriangularSystem": (_system, lambda: _system("2*y1")),
    "PerronResult": (lambda: _perron([1, 0]), lambda: _perron([0, 1])),
    "DiscreteSeriesPlace": (_series_place, lambda: _series_place(2)),
    "DiscretePresentation": (_presentation, lambda: _presentation(4)),
    "ApproximationWitness": (_witness, lambda: _witness("1 + 3*t + O(t^3)")),
    "completion._Block": (_series_block, lambda: _series_block(1)),
}
# their fields hold lists, so they compare but do not hash
UNHASHABLE = {"ApproximationWitness", "completion._Block"}

_ORDER = (
    "GroupOrder(blocks=((SurdScalar(terms=((Fraction(1, 1), 1),)), "
    "SurdScalar(terms=((Fraction(1, 1), 2),))),))"
)
_PLACE = (
    f"MonomialPlace(base=BaseField(p=None), order={_ORDER}, tau=1, "
    "x_names=('x1', 'x2'), y_names=('y1',))"
)
_CHECK = "CheckResult(passed=True, detail='')"
_ELEMENT_Y1 = (
    "RationalFunction(num=SparsePoly(base=BaseField(p=None), nvars=3, terms=(((0, 0, 1), Fraction(1, 1)),)), "
    "den=SparsePoly(base=BaseField(p=None), nvars=3, terms=(((0, 0, 0), Fraction(1, 1)),)))"
)
_SERIES = "TruncatedSeries(base=BaseField(p=5), offset=0, coeffs=(1, 2), precision=3)"
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
    # the reprs of the six classes below are those of the dataclasses they were,
    # and TriangularSystem still is one
    "TriangularSystem": (
        f"TriangularSystem(place={_PLACE}, tvars=(), etas=({_ELEMENT_Y1},), "
        "fs=(SparsePoly(base=BaseField(p=None), nvars=1, terms=(((1,), Fraction(1, 1)), ((0,), Fraction(-1, 1)))),), "
        "coeff_field_names=(), coeff_table=(), zeta_indices=(), witnesses=())"
    ),
    "PerronResult": "PerronResult(coeffs=((1, 0),), change=((1, 0), (0, 1)))",
    "DiscreteSeriesPlace": (
        f"DiscreteSeriesPlace(base=BaseField(p=5), uniformizer='t', gen_names=('z',), "
        f"gen_series=({_SERIES},), precision=3)"
    ),
    "DiscretePresentation": (
        "DiscretePresentation(base=BaseField(p=5), uniformizer='t', gen_name='z', "
        "min_poly=SparsePoly(base=BaseField(p=5), nvars=2, terms=(((0, 2), 1), ((1, 0), 4), ((0, 0), 4))), "
        "residue=1)"
    ),
    "ApproximationWitness": (
        "ApproximationWitness(fs=(SparsePoly(base=BaseField(p=5), nvars=2, terms=(((0, 1), 1), ((0, 0), 4))),), "
        f"z={_SERIES}, a=SparsePoly(base=BaseField(p=5), nvars=1, terms=(((0,), 1),)), "
        "b=SparsePoly(base=BaseField(p=5), nvars=1, terms=(((1,), 2),)), depth=1, "
        "gammas=([SparsePoly(base=BaseField(p=5), nvars=1, terms=()), "
        "SparsePoly(base=BaseField(p=5), nvars=1, terms=(((1,), 2),))],), tables=(((1, 1),),))"
    ),
    "completion._Block": (
        f"_Block(rows=[[({{0: 1}}, None, 1)]], etas=[{_ELEMENT_Y1}], zeta_at=0, witness=[])"
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_instances_compare_and_hash_equal(name):
    same, other = SAMPLES[name]
    a, b = same(), same()
    assert type(a).__name__ == name.rpartition(".")[2]
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
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


def test_group_order_reads_list_blocks_as_tuples():
    w1, w2 = SurdScalar.rational(1), SurdScalar.make([(1, 2)])
    listed, tupled = GroupOrder([[w1, w2]]), GroupOrder(((w1, w2),))
    assert listed.blocks == ((w1, w2),)
    assert listed == tupled and hash(listed) == hash(tupled)
    place = MonomialPlace(QQ(), listed, tau=1)
    assert place == MonomialPlace(QQ(), tupled, tau=1) and hash(place) == hash(_place())


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
        assert dup == obj and repr(dup) == repr(obj)
        assert name in UNHASHABLE or hash(dup) == hash(obj)


def test_replace_rebuilds_with_the_changed_fields_through_the_constructor():
    place = _place()
    system = uniformize_abhyankar(place, [_element("x1*y1")])
    row = system.fs[0] * SparsePoly.const(place.base, system.fs[0].nvars, 2)
    changed = replace(system, fs=(row,) + system.fs[1:])
    assert type(changed) is TriangularSystem and changed is not system
    assert changed.fs[0] == row and changed.etas == system.etas and changed != system
    assert replace(system) == system and verify(system).passed

    res = _perron([1, 0])
    assert replace(res, coeffs=((2,),)) == PerronResult(((2,),), res.change)
    # a class with Frozen's own constructor, and a cache slot left to it
    order = _order()
    assert replace(order) == order and replace(order)._blocks == order._blocks
    el = order.element([1, 2])
    assert replace(el, nums=(3, 4)) == order.element([3, 4])
    with pytest.raises(TypeError, match="'basis2'"):
        replace(res, basis2=())
    # the constructor's checks run on the new fields
    with pytest.raises(PreconditionError, match="one row polynomial per eta"):
        replace(system, fs=())


def test_keywords_and_defaults_of_the_former_dataclasses():
    res = _perron([1, 0])
    assert PerronResult(coeffs=res.coeffs, change=res.change) == res
    system = _system()
    assert TriangularSystem(place=system.place, tvars=(), etas=system.etas, fs=system.fs) == system
    place = DiscreteSeriesPlace(F5, gen_names=("z",), gen_series=(_series("1 + O(t^40)"),))
    assert (place.uniformizer, place.precision) == ("t", 32)
    pres = DiscretePresentation(base=F5)
    assert (pres.uniformizer, pres.gen_name, pres.min_poly, pres.residue) == ("t", "z", None, 0)
    with pytest.raises(TypeError):
        DiscretePresentation(base=F5, conjugate_residues=())


def _relative():
    return uniformize_completion_algebraic(_poly("X^2 - 1 - t", ["t", "X"], F5), 1, 8)


# every check the former dataclasses made in __post_init__: a builder of a
# failing instance, and the start of its message
PRECONDITIONS = {
    "rows per eta": (lambda: replace(_system(), fs=()), "need exactly one row polynomial per eta"),
    "row width": (
        lambda: replace(_system(), fs=(_poly("X1*X2", ["X1", "X2"]),)),
        "row 1 has 2 variables, expected 1",
    ),
    "witness name": (
        lambda: replace(_system(), witnesses=(("w", _element("y1")),)),
        "witness for unknown generator 'w'",
    ),
    "witness twice": (
        lambda: replace(_system(), witnesses=(("y1", parse_element("X1", QQ(), ["X1"])),) * 2),
        "more than one witness for generator 'y1'",
    ),
    "witness width": (
        lambda: replace(_system(), witnesses=(("y1", _element("y1")),)),
        "witness for 'y1' has the wrong width",
    ),
    "zeta index": (lambda: replace(_system(), zeta_indices=(1,)), "requested index 1 out of range"),
    "coefficient names": (
        lambda: replace(_relative(), coeff_field_names=()),
        "coefficient table needs coefficient field names",
    ),
    "coefficient width": (
        lambda: replace(_relative(), coeff_field_names=("t", "u")),
        "coefficient entry has the wrong width",
    ),
    "place precision": (lambda: _series_place(0), "precision must be at least 1"),
    "generator count": (
        lambda: replace(_series_place(), gen_names=("z", "w")),
        "generator names and series do not match up",
    ),
    "generator names": (
        lambda: replace(_series_place(), gen_names=("t",)),
        "ambient generator names must be distinct",
    ),
    "series field": (
        lambda: replace(_series_place(), base=GF(7)),
        "series for 'z' is over the wrong field",
    ),
    "series precision": (
        lambda: _series_place(4),
        "series for 'z' is known to precision 3, the place claims 4",
    ),
    "generator value": (
        lambda: replace(_series_place(), gen_series=(_series("t^-1 + O(t^3)"),)),
        "generator 'z' has negative value",
    ),
    "min_poly ring": (
        lambda: replace(_presentation(), base=GF(7)),
        "min_poly must be a polynomial in (t, X) over the base field",
    ),
    "min_poly variables": (
        lambda: replace(_presentation(), min_poly=_poly("X - u", ["t", "X", "u"], F5)),
        "min_poly must be a polynomial in (t, X) over the base field",
    ),
    "min_poly degree": (
        lambda: replace(_presentation(), min_poly=_poly("t", ["t", "X"], F5)),
        "min_poly must involve X",
    ),
    "presentation names": (
        lambda: replace(_presentation(), gen_name="t"),
        "generator names must be distinct",
    ),
}


@pytest.mark.parametrize("name", PRECONDITIONS)
def test_constructor_checks_raise_precondition_errors(name):
    build, message = PRECONDITIONS[name]
    with pytest.raises(PreconditionError) as info:
        build()
    assert str(info.value).startswith(message)
