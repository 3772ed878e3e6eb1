"""The frozen record base: equality, hashing, repr, immutability and
``replace`` on crystor's value classes."""

import copy
import pickle
from functools import lru_cache

import pytest

from crystor.abelian import FinAbGroup, GroupHom, IntMatrix, LocalSmith, SnfResult
from crystor.cli import Report
from crystor.crys import (
    Crys1Report,
    LesReport,
    LevelExactness,
    TateReport,
    _shared_les,
    les_report,
)
from crystor.degen import DegenerationData
from crystor.errors import ShapeMismatch
from crystor.kummer import ExtClass, KummerClass
from crystor.pushout import ExtNuMorphism, ExtNuObject, PresentedModule
from crystor.record import Record, set_field


class Pair(Record):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a, b=0):
        set_field(self, "a", a)
        set_field(self, "b", b)


class OtherPair(Pair):
    __slots__ = ()


def level(m=1):
    return LevelExactness(m, True, True)


def test_equality_needs_the_same_class():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert FinAbGroup((2,)) != (2,)
    assert KummerClass(5, 1) != KummerClass(7, 1)
    assert IntMatrix(1, 1, (3,)) != FinAbGroup((3,))
    assert TateReport(1, 1, 6, True) != level()


@pytest.mark.parametrize("make", [
    lambda: Pair(1, (2, 3)),
    lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
    lambda: FinAbGroup((2, 4)),
    lambda: GroupHom(FinAbGroup((4,)), FinAbGroup((2,)), IntMatrix(1, 1, (5,))),
    lambda: KummerClass(5, 7, (("u", 2), ("v", 5))),
    lambda: ExtClass.from_val_matrix(3, IntMatrix.from_rows([[1, 2]])),
    lambda: DegenerationData(5, IntMatrix.from_rows([[5]])),
    lambda: level(2),
], ids=["base", "IntMatrix", "FinAbGroup", "GroupHom", "KummerClass", "ExtClass",
        "DegenerationData", "LevelExactness"])
def test_equal_records_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_derived_slots_stay_out_of_equality_and_hashing():
    # group, _coords and _lifts are slots but not fields
    p = PresentedModule((4, 2), ((1, 1),))
    assert p == PresentedModule((4, 2), ((1, 1),))
    assert hash(p) == hash(PresentedModule((4, 2), ((1, 1),)))


def test_repr_has_the_fields_in_order():
    assert repr(FinAbGroup.of_orders([4, 2, 6])) == "FinAbGroup(invariant_factors=(2, 2, 12))"
    assert repr(KummerClass(5, 7)) == "KummerClass(n=5, val=2, units=())"
    assert repr(level(3)) == "LevelExactness(m=3, orders_match=True, surjective=True)"
    assert repr(Report("tate", "ab", {}, "h")) == (
        "Report(command='tate', digest='ab', payload={}, human='h')")
    # derived attributes are not fields
    assert repr(PresentedModule((3,))) == "PresentedModule(orders=(3,), relations=())"
    data = DegenerationData(3, IntMatrix.from_rows([[3]]))
    assert repr(data) == ("DegenerationData(p=3, mu=IntMatrix(rows=1, cols=1, "
                          "entries=(3,)), unit_symbols=None)")


def test_no_ordering():
    with pytest.raises(TypeError):
        FinAbGroup((2,)) < FinAbGroup((4,))
    with pytest.raises(TypeError):
        Pair(1) <= Pair(2)


def test_assignment_raises_and_set_field_writes():
    g = FinAbGroup((2,))
    with pytest.raises(AttributeError):
        g.invariant_factors = (3,)
    with pytest.raises(AttributeError):
        del g.invariant_factors
    with pytest.raises(AttributeError):
        g.extra = 1
    k = KummerClass(5, 1)
    set_field(k, "val", 3)
    assert k.val == 3
    # DegenerationData keeps a __dict__ for its cached decompositions
    data = DegenerationData(5, IntMatrix.from_rows([[5]]))
    with pytest.raises(AttributeError):
        data.p = 7
    assert data.determinant == 5
    object.__setattr__(data, "determinant", 10)
    assert data.determinant == 10
    assert data == DegenerationData(5, IntMatrix.from_rows([[5]]))


def test_slots():
    for cls in (FinAbGroup, Crys1Report, TateReport, LevelExactness, LesReport,
                IntMatrix, SnfResult, LocalSmith, GroupHom, KummerClass, ExtClass,
                ExtNuObject, PresentedModule, ExtNuMorphism, Report):
        assert "__slots__" in vars(cls), cls
    assert not hasattr(FinAbGroup((2,)), "__dict__")
    assert hasattr(DegenerationData(5, IntMatrix.identity(1)), "__dict__")


def test_replace_builds_through_the_constructor():
    k = KummerClass(5, 1, (("u", 1),))
    moved = k.replace(val=7)
    assert moved == KummerClass(5, 2, (("u", 1),))
    assert k.val == 1
    assert Pair(1, 2).replace(b=5) == Pair(1, 5)
    assert OtherPair(1).replace(a=4) == OtherPair(4, 0)
    with pytest.raises(TypeError):
        Pair(1).replace(c=3)
    # derived attributes are rebuilt, not copied
    p = PresentedModule((4, 2))
    q = p.replace(relations=((2, 1),))
    assert (p.group, q.group) == (FinAbGroup((2, 4)), FinAbGroup((4,)))
    # validation runs again
    with pytest.raises(ShapeMismatch):
        FinAbGroup((2, 4)).replace(invariant_factors=(4, 2))


def test_keyword_construction_through_lru_cache():
    shared = lru_cache(maxsize=4)(FinAbGroup)
    assert shared(invariant_factors=(2, 4)) is shared(invariant_factors=(2, 4))
    assert shared(invariant_factors=(2, 4)) == FinAbGroup((2, 4))
    assert shared() == FinAbGroup.trivial()
    rep = les_report(DegenerationData(5, IntMatrix.from_rows([[5]])))
    again = _shared_les(**{f: getattr(rep, f) for f in LesReport._fields})
    assert again is rep


def test_morphism_compares_its_fields_only():
    obj = ExtNuObject(4, ExtClass.split(4, 1, 1),
                      GroupHom(FinAbGroup((4,)), FinAbGroup((4,)), IntMatrix(1, 1, (0,))))
    ident = ExtNuMorphism.identity(obj)
    assert ident == ExtNuMorphism.identity(obj)
    assert hash(ident) == hash(ExtNuMorphism.identity(obj))
    assert ident.mult_hom == GroupHom.identity(FinAbGroup((4,)))
    assert "mult_hom" not in repr(ident)


def test_copy_and_pickle_rebuild_through_the_constructor():
    rep = les_report(DegenerationData(5, IntMatrix.from_rows([[25]])))
    for record in (rep, FinAbGroup((2, 4)), Report("r1", "00", {"a": 1}, "h"),
                   PresentedModule((4, 2), ((1, 1),)), KummerClass(5, 2, (("u", 1),))):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
    assert pickle.loads(pickle.dumps(PresentedModule((4, 2)))).group == FinAbGroup((2, 4))
