"""Kummer class arithmetic and extension class structure."""

import pytest
from hypothesis import given, strategies as st

from crystor.abelian import IntMatrix
from crystor.errors import ShapeMismatch
from crystor.kummer import (
    ExtClass,
    KummerClass,
    baer_neg,
    baer_sum,
    is_one_crystalline,
    raynaud_split,
)


def kummer_classes(n):
    symbols = st.sampled_from(["u", "v", "w"])
    units = st.lists(
        st.tuples(symbols, st.integers(-2 * n, 2 * n)), max_size=3
    )
    return st.builds(
        lambda val, us: KummerClass(n, val, tuple(us)),
        st.integers(-2 * n, 2 * n),
        units,
    )


def test_unit_exponents_reduced_and_sorted():
    c = KummerClass(6, 7, (("v", 4), ("u", 3), ("v", 2), ("w", 6)))
    assert c.val == 1
    assert c.units == (("u", 3),)


def test_zero_exponent_symbol_dropped():
    c = KummerClass(4, 0, (("u", 2), ("u", 2)))
    assert c.is_zero()


def test_add_merges_symbols():
    a = KummerClass.unit(5, "u", 2)
    b = KummerClass.unit(5, "u", 3).add(KummerClass.uniformizer(5, 2))
    s = a.add(b)
    assert s.val == 2
    assert s.units == ()


def test_add_modulus_mismatch():
    with pytest.raises(ShapeMismatch):
        KummerClass(4, 1).add(KummerClass(8, 1))


def test_str_forms():
    assert str(KummerClass(4)) == "1"
    assert str(KummerClass(4, 3, (("u", 1), ("v", 2)))) == "pi^3 * u * v^2"


@given(st.data())
def test_kummer_group_laws(data):
    n = data.draw(st.sampled_from([2, 3, 4, 8, 9]))
    a = data.draw(kummer_classes(n))
    b = data.draw(kummer_classes(n))
    c = data.draw(kummer_classes(n))
    assert a.add(b) == b.add(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.add(a.neg()).is_zero()
    assert a.add(KummerClass(n)) == a


@given(st.data())
def test_scale_matches_repeated_add(data):
    n = data.draw(st.sampled_from([2, 3, 4, 6]))
    a = data.draw(kummer_classes(n))
    k = data.draw(st.integers(0, 8))
    acc = KummerClass(n)
    for _ in range(k):
        acc = acc.add(a)
    assert a.scale(k) == acc


@given(st.data())
def test_val_unit_parts_recompose(data):
    n = data.draw(st.sampled_from([2, 4, 5, 9]))
    a = data.draw(kummer_classes(n))
    assert a.val_part().add(a.unit_part()) == a
    assert a.val_part().units == ()
    assert a.unit_part().val == 0


# --- extension classes ------------------------------------------------


def ext_from(n, vals, unit_positions=()):
    """vals: list of rows of ints; unit_positions: (i, j, sym) triples."""
    rows = [[KummerClass(n, v) for v in row] for row in vals]
    for i, j, sym in unit_positions:
        rows[i][j] = rows[i][j].add(KummerClass.unit(n, sym))
    return ExtClass(n, len(vals), len(vals[0]) if vals else 0,
                    tuple(tuple(r) for r in rows))


def test_split_class_is_crystalline_and_zero_monodromy():
    e = ExtClass.split(4, 2, 3)
    assert is_one_crystalline(e)
    assert e.val_matrix() == IntMatrix(2, 3, (0,) * 6)


def test_unit_only_class_is_crystalline():
    e = ext_from(8, [[0, 0], [0, 0]], [(0, 1, "u"), (1, 0, "v")])
    assert is_one_crystalline(e)
    assert not e.entry(0, 1).is_zero()


def test_valuation_breaks_crystallinity():
    e = ext_from(8, [[0, 0], [0, 4]])
    assert not is_one_crystalline(e)


def test_monodromy_matrix_entries():
    e = ext_from(6, [[1, 2, 3], [4, 5, 0]], [(0, 0, "u")])
    assert e.val_matrix() == IntMatrix.from_rows([[1, 2, 3], [4, 5, 0]])


def test_baer_sum_adds_val_matrices():
    a = ext_from(4, [[1, 2]], [(0, 0, "u")])
    b = ext_from(4, [[3, 3]], [(0, 0, "u")])
    s = baer_sum(a, b)
    assert s.val_matrix().as_rows() == ((0, 1),)
    # u + u = u^2, not cancellation
    assert s.entry(0, 0).units == (("u", 2),)


def test_baer_sum_shape_guard():
    with pytest.raises(ShapeMismatch):
        baer_sum(ExtClass.split(4, 1, 2), ExtClass.split(4, 2, 1))
    with pytest.raises(ShapeMismatch):
        baer_sum(ExtClass.split(4, 1, 2), ExtClass.split(8, 1, 2))


@given(st.data())
def test_baer_group_laws(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    s, r = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
    draw_ext = lambda: ExtClass(
        n, s, r,
        tuple(
            tuple(data.draw(kummer_classes(n)) for _ in range(r))
            for _ in range(s)
        ),
    )
    a, b = draw_ext(), draw_ext()
    assert baer_sum(a, b) == baer_sum(b, a)
    assert baer_sum(a, baer_neg(a)) == ExtClass.split(n, s, r)
    assert baer_sum(a, ExtClass.split(n, s, r)) == a


@given(st.data())
def test_raynaud_split_recomposes(data):
    n = data.draw(st.sampled_from([2, 4, 5]))
    a = ExtClass(
        n, 2, 2,
        tuple(
            tuple(data.draw(kummer_classes(n)) for _ in range(2))
            for _ in range(2)
        ),
    )
    unit, val = raynaud_split(a)
    assert is_one_crystalline(unit)
    assert all(c.units == () for row in val.kappa for c in row)
    assert baer_sum(unit, val) == a
    assert val.val_matrix() == a.val_matrix()


def test_column_combination_matches_matrix_action():
    e = ext_from(6, [[1, 2], [3, 4]])
    got = e.column_combination((2, 5))
    # row 0: 1*2 + 2*5 = 12 = 0, row 1: 3*2 + 4*5 = 26 = 2
    assert [c.val for c in got] == [0, 2]
    assert all(c.units == () for c in got)


def test_column_combination_units_scale():
    e = ext_from(4, [[0, 0]], [(0, 0, "u"), (0, 1, "v")])
    (c,) = e.column_combination((3, 2))
    assert c.units == (("u", 3), ("v", 2))

