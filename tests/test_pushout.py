"""Monodromy pushout, star pullback, presented middle terms, exactness."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crystor.abelian import FinAbGroup, GroupHom, IntMatrix, is_exact, quotient_orders
from crystor.degen import DegenerationData, torsion_module
from crystor.errors import BadInput, NotAMorphism, RouteDisagreement, ShapeMismatch
from crystor.kummer import ExtClass, KummerClass, baer_sum, is_one_crystalline
from crystor.pushout import (
    ExtNuMorphism,
    ExtNuObject,
    PresentedModule,
    _nu_presentation,
    check_mp_exactness,
    degeneration_object,
    middle_term_group,
    mp_generator_map,
    mp_hom,
    mp_presentation,
    mp_pushout,
    object_direct_sum,
    star_pullback,
    sum_first_projection,
    sum_inclusion,
    sum_projection,
)


def free_obj(n, s, r, nu_rows, unit_positions=()):
    """Object with free parts, unit-only prolongable class."""
    zero = KummerClass(n)
    rows = [[zero] * r for _ in range(s)]
    for i, j, sym in unit_positions:
        rows[i][j] = KummerClass.unit(n, sym)
    eta = ExtClass(n, s, r, tuple(tuple(row) for row in rows))
    free_r = FinAbGroup.of_orders([n] * r)
    free_s = FinAbGroup.of_orders([n] * s)
    nu = GroupHom(free_r, free_s,
                  IntMatrix(s, r, tuple(x for row in nu_rows for x in row)))
    return ExtNuObject(n, eta, nu)


def data_of(p, rows):
    return DegenerationData(p, IntMatrix.from_rows(rows))


# --- presented modules ------------------------------------------------


def test_presented_diagonal_relations():
    p = PresentedModule((2, 4))
    assert p.group == FinAbGroup.of_orders([2, 4])


def test_presented_off_diagonal():
    p = PresentedModule((3, 3), [[2, 1], [1, 2]])
    assert p.group == FinAbGroup.cyclic(3)


def test_presented_infinite_quotient_rejected():
    with pytest.raises(BadInput):
        PresentedModule((0,))


def test_presented_coords_round_trip():
    p = PresentedModule((2, 4))
    gx, gy = p.coords([1, 0]), p.coords([0, 1])
    # the generators must generate: every element is a combination
    seen = set()
    for i in range(2):
        for j in range(4):
            seen.add(
                tuple(
                    (i * a + j * b) % d
                    for a, b, d in zip(gx, gy, p.group.invariant_factors)
                )
            )
    assert len(seen) == 8


def test_presented_hom_transport_identity():
    p = PresentedModule((2, 4))
    h = p.hom_to(p, IntMatrix.identity(2))
    assert h == GroupHom.identity(p.group)


def test_presented_hom_transport_projection():
    src = PresentedModule((4, 4))
    dst = PresentedModule((4,))
    h = src.hom_to(dst, IntMatrix.from_rows([[1, 0]]))
    image = quotient_orders(h.image_lattice(), dst.group.invariant_factors)
    kernel = quotient_orders(h.kernel_lattice(), src.group.invariant_factors)
    assert FinAbGroup.of_orders(image) == dst.group
    assert FinAbGroup.of_orders(kernel) == FinAbGroup.cyclic(4)


@st.composite
def presentations(draw):
    """Generator orders (1 and mixed orders included) and up to three
    more relations with small entries."""
    g = draw(st.integers(1, 4))
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]),
                           min_size=g, max_size=g))
    relations = draw(st.lists(st.lists(st.integers(-9, 9), min_size=g, max_size=g),
                              max_size=3))
    return orders, relations


@settings(max_examples=150, deadline=None)
@given(presentations(), st.data())
def test_presented_matches_integer_smith_form(sympy_invariant_factors,
                                              presentation, data):
    # sympy's integer Smith form of the whole relation matrix is the
    # reference for the group; coords must be a homomorphism that kills
    # every relation and reaches the whole group
    from crystor.abelian import diagonal_rows, hnf_rows

    orders, relations = presentation
    p = PresentedModule(orders, relations)
    rel = relations + diagonal_rows(orders)
    assert p.group == FinAbGroup.of_orders(sympy_invariant_factors(rel))
    g, factors = len(orders), p.group.invariant_factors
    for row in rel:
        assert not any(p.coords(row))
    draw_vec = lambda: [data.draw(st.integers(-20, 20)) for _ in range(g)]
    x, y = draw_vec(), draw_vec()
    assert p.coords([a + b for a, b in zip(x, y)]) == tuple(
        (a + b) % d for a, b, d in zip(p.coords(x), p.coords(y), factors))
    images = [list(p.coords([int(i == j) for i in range(g)])) for j in range(g)]
    spanned = hnf_rows(images, factors)
    assert all(row[i] == 1 for i, row in enumerate(spanned))
    assert p.hom_to(p, IntMatrix.identity(g)) == GroupHom.identity(p.group)


def faulty_smith_normal_form(monkeypatch, fault):
    """Route the presentations' Smith forms through ``fault(real, m,
    modulus)``, with a fresh presentation cache for the patched run, so
    that no faulty presentation outlives the test and no sound one is
    read from the cache."""
    from functools import lru_cache

    import crystor.pushout

    real = crystor.pushout.smith_normal_form
    monkeypatch.setattr(crystor.pushout, "smith_normal_form",
                        lambda m, modulus: fault(real, m, modulus))
    fresh = lru_cache(maxsize=8)(_nu_presentation.__wrapped__)
    monkeypatch.setattr(crystor.pushout, "_nu_presentation", fresh)


def failed_verify_details(name, max_m):
    """(name, detail) of each check that ``verify`` fails on a corpus
    file; the run must report rather than raise."""
    from crystor.cli import run_command

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    report, code = run_command(["verify", str(corpus / name), "--max-m", str(max_m)])
    failed = [(c["name"], c["detail"]) for c in report.payload["checks"] if not c["ok"]]
    assert (code == 2) == bool(failed)
    return failed


def failed_verify_checks(name, max_m):
    return [check for check, _ in failed_verify_details(name, max_m)]


def test_presentation_modulus_missing_a_factor_fails_the_pushout(monkeypatch):
    # ker(2) on Z/4 is Z/2, so the pulled-back middle term is Z/2 + Z/4;
    # over Z/2 instead of Z/4 the relation 2b = 0 vanishes and b gets
    # order 4
    sub, _ = star_pullback(free_obj(4, 1, 1, [[2]]))
    assert mp_pushout(sub) == ExtClass.split(4, 1, 1)
    faulty_smith_normal_form(
        monkeypatch, lambda real, m, modulus: real(m, modulus // 2))
    with pytest.raises(RouteDisagreement):
        mp_pushout(sub)


def test_presentation_inverse_off_by_one_fails_a_check(monkeypatch):
    # one V^-1 entry off by one moves a basis element's lift, and with it
    # the transported maps: check_mp_exactness sees the routes disagree,
    # and verify reports its functoriality check as failed
    def bump_vinv(real, m, modulus):
        snf = real(m, modulus)
        entries = list(snf.Vinv.entries)
        entries[-1] += 1
        return snf.replace(Vinv=IntMatrix(snf.Vinv.rows, snf.Vinv.cols, tuple(entries)))

    faulty_smith_normal_form(monkeypatch, bump_vinv)
    a = free_obj(4, 1, 1, [[0]])
    b = free_obj(4, 2, 2, [[0, 0], [0, 0]])
    c = free_obj(4, 1, 1, [[0]])
    f = ExtNuMorphism(a, b, IntMatrix.from_rows([[1], [0]]),
                      IntMatrix.from_rows([[1], [0]]))
    g = ExtNuMorphism(b, c, IntMatrix.from_rows([[0, 1]]),
                      IntMatrix.from_rows([[0, 1]]))
    with pytest.raises(RouteDisagreement):
        check_mp_exactness(f, g)
    assert failed_verify_checks("t3_dense_p5.txt", 2) == [
        "pushout functoriality (seed 0)"]


@pytest.mark.parametrize("name, p, max_m", [("tate_v05_p5.txt", 5, 2),
                                            ("t3_chain_p2.txt", 2, 3),
                                            ("t3_dense_p5.txt", 5, 1),
                                            ("t2_big_p5.txt", 5, 1)])
def test_presentation_modulus_below_the_level_fails_the_star_pullback(
        monkeypatch, name, p, max_m):
    # over Z/(n/p) a kernel factor of order n/p reads as gcd(0, n) = n,
    # so the presented middle term of the pulled-back object is too big;
    # where mu mod p^m has a trivial kernel (the last two files), the
    # pulled-back object has no etale part, but the level object's glue
    # rows vanish over Z/1 at m = 1 and leave its middle term too big
    assert failed_verify_checks(name, max_m) == []
    faulty_smith_normal_form(
        monkeypatch, lambda real, m, modulus: real(m, modulus // p))
    assert f"star pullback at m={max_m}" in failed_verify_checks(name, max_m)


def drop_last_kernel_generator(real):
    def kernel(m, n):
        group, gens = real(m, n)
        return FinAbGroup.of_orders(group.invariant_factors[:-1]), gens[:-1]
    return kernel


def scale_kernel_generators(real):
    def kernel(m, n):
        group, gens = real(m, n)
        return group, tuple(tuple(5 * x for x in g) for g in gens)
    return kernel


@pytest.mark.parametrize("fault, expected", [
    (drop_last_kernel_generator,
     ["kernel vs torsion routes at m=2", "star pullback at m=2"]),
    # the groups stay right, so only the lattice comparison sees it
    (scale_kernel_generators, ["star pullback at m=2"]),
], ids=["dropped-generator", "scaled-generators"])
def test_pullback_kernel_fault_fails_verify(monkeypatch, fault, expected):
    # mu = [[5]] at p = 5: ker(5) on Z/25 is Z/5, spanned by 5
    import crystor.pushout

    monkeypatch.setattr(crystor.pushout, "kernel_mod_n",
                        fault(crystor.pushout.kernel_mod_n))
    failed = failed_verify_checks("tate_v05_p5.txt", 2)
    assert [name for name in failed if name.endswith("m=2")] == expected


@pytest.mark.parametrize("name, p, max_m", [("tate_v05_p5.txt", 5, 2),
                                            ("t3_chain_p2.txt", 2, 3)])
def test_wrong_x_basis_fails_the_star_pullback(monkeypatch, name, p, max_m):
    # crys1's x_1 scaled by p: the crys1 group keeps its orders, but its
    # lattice loses x_1, which the pullback side's x-basis holds
    import crystor.crys

    real = crystor.crys._x_lifts
    assert failed_verify_checks(name, max_m) == []
    monkeypatch.setattr(crystor.crys, "_x_lifts",
                        lambda t: (tuple(p * x for x in real(t)[0]),) + real(t)[1:])
    assert f"star pullback at m={max_m}" in failed_verify_checks(name, max_m)


def faulty_glue_rows(monkeypatch, fault, every_object=False):
    """Present every object with zero monodromy, or every object at
    all, with ``fault(rows, r)`` in place of its r glue rows.  In verify
    the objects with zero monodromy are the pulled-back ones (and a
    level object where mu mod p^m is 0); the level objects and the
    pushout checks' objects carry mu mod p^m."""
    from functools import lru_cache

    import crystor.pushout

    real = _nu_presentation.__wrapped__

    @lru_cache(maxsize=8)
    def present(nu):
        good = real(nu)
        if any(nu.matrix.entries) and not every_object:
            return good
        rows = fault([list(row) for row in good.relations], nu.source.rank)
        return PresentedModule(good.orders, rows)

    monkeypatch.setattr(crystor.pushout, "_nu_presentation", present)


def drop_last_glue_row(rows, r):
    return rows[:-1]


def glue_last_row_to_the_first_generator(rows, r):
    # a_r's relation lands on a_1: a_1 is glued twice and a_r not at
    # all.  (Moving it onto b_r instead is invisible to the group: b_r
    # has a_r's order, and the pulled-back monodromy is 0.)
    if r >= 2:
        rows[-1][r - 1], rows[-1][0] = 0, 1
    return rows


@pytest.mark.parametrize("fault, name, max_m", [
    (drop_last_glue_row, "tate_v05_p5.txt", 2),
    (drop_last_glue_row, "t3_chain_p2.txt", 3),
    # ker(mu mod 2^m) has two generators at m = 1 and 2
    (glue_last_row_to_the_first_generator, "t2_diag_p2.txt", 2),
], ids=["dropped-tate", "dropped-chain", "misplaced-diag"])
def test_glue_row_fault_fails_the_star_pullback(monkeypatch, fault, name, max_m):
    assert failed_verify_checks(name, max_m) == []
    faulty_glue_rows(monkeypatch, fault)
    assert failed_verify_checks(name, max_m) == [
        f"star pullback at m={m}" for m in range(1, max_m + 1)]


@pytest.mark.parametrize("fault, name, raised, failed", [
    (drop_last_glue_row, "tate_v05_p5.txt", "RouteDisagreement",
     ["split triple exact"]),
    (drop_last_glue_row, "t3_dense_p5.txt", "RouteDisagreement",
     ["split triple exact"]),
    # a_1 glued twice leaves a map that does not respect the orders
    (glue_last_row_to_the_first_generator, "tate_v05_p5.txt", "ShapeMismatch",
     ["split triple exact", "broken triple rejected"]),
    (glue_last_row_to_the_first_generator, "t3_chain_p2.txt", "ShapeMismatch",
     ["split triple exact", "broken triple rejected"]),
], ids=["dropped-tate", "dropped-dense", "misplaced-tate", "misplaced-chain"])
def test_glue_row_fault_in_the_pushout_checks_is_reported(
        monkeypatch, fault, name, raised, failed):
    # the error raised inside a pushout check becomes that check's FAIL
    # line, and the rest of the report still prints
    assert failed_verify_checks(name, 2) == []
    faulty_glue_rows(monkeypatch, fault, every_object=True)
    details = dict(failed_verify_details(name, 2))
    for check in failed:
        assert details[check].startswith(f"{raised}: "), details


# --- objects and the pushout ------------------------------------------


def test_object_rejects_valued_prolongable_part():
    eta = ExtClass.from_val_matrix(4, IntMatrix.from_rows([[2]]))
    free = FinAbGroup.of_orders([4])
    with pytest.raises(BadInput):
        ExtNuObject(4, eta, GroupHom.zero(free, free))


def test_object_rejects_rank_mismatch():
    eta = ExtClass.split(4, 1, 2)
    free1 = FinAbGroup.of_orders([4])
    with pytest.raises(ShapeMismatch):
        ExtNuObject(4, eta, GroupHom.zero(free1, free1))


def test_pushout_zero_monodromy_is_split():
    obj = free_obj(4, 1, 2, [[0, 0]], [(0, 0, "u")])
    assert mp_pushout(obj) == ExtClass.split(4, 1, 2)


def test_pushout_rank_one_val():
    obj = free_obj(25, 1, 1, [[5]])
    assert mp_pushout(obj).entry(0, 0) == KummerClass(25, 5)


def test_pushout_presentation_order():
    obj = free_obj(4, 2, 2, [[2, 0], [0, 4]])
    p = mp_presentation(obj)
    assert p.group.order == 4**4
    assert p.group == FinAbGroup.of_orders([4, 4, 4, 4])
    assert middle_term_group(obj) == p.group


# the generic fiber of an object is the Baer sum of its prolongable
# class with the class of its monodromy pushout


def test_generic_fiber_zero_monodromy_returns_eta():
    obj = free_obj(9, 2, 1, [[0], [0]], [(1, 0, "u")])
    assert baer_sum(obj.eta_ok, mp_pushout(obj)) == obj.eta_ok


def test_generic_fiber_recovers_torsion_class():
    for rows, p, m in [([[5]], 5, 2), ([[2, 1], [1, 2]], 3, 1),
                       ([[6, 1], [1, 4]], 2, 3)]:
        data = data_of(p, rows)
        obj = degeneration_object(data, m)
        assert baer_sum(obj.eta_ok, mp_pushout(obj)) == torsion_module(data, m)


def test_generic_fiber_pure_valuation():
    obj = free_obj(25, 1, 1, [[5]])
    assert baer_sum(obj.eta_ok, mp_pushout(obj)) == ExtClass.from_val_matrix(
        25, IntMatrix.from_rows([[5]]))


# --- star pullback ----------------------------------------------------


def test_pullback_zero_monodromy_keeps_everything():
    obj = free_obj(4, 1, 2, [[0, 0]], [(0, 1, "u")])
    sub, gens = star_pullback(obj)
    assert gens == ((1, 0), (0, 1))
    assert sub.etale_group == FinAbGroup.of_orders([4, 4])
    assert sub.eta_ok == obj.eta_ok


def test_pullback_tate_curve_shape():
    obj = free_obj(25, 1, 1, [[5]])
    sub, gens = star_pullback(obj)
    assert gens == ((5,),)
    assert sub.etale_group.invariant_factors == (5,)
    assert sub.etale_group == FinAbGroup.cyclic(5)


def test_pullback_rank_two():
    obj = free_obj(4, 2, 2, [[2, 0], [0, 4]])
    sub, gens = star_pullback(obj)
    assert sub.etale_group == FinAbGroup.of_orders([2, 4])
    assert gens == ((2, 0), (0, 1))


def test_pullback_restricts_units():
    obj = free_obj(4, 1, 2, [[0, 2]], [(0, 0, "u"), (0, 1, "v")])
    # kernel of [[0, 2]] on (Z/4)^2: (1,0) order 4 and (0,2) order 2
    sub, gens = star_pullback(obj)
    assert set(gens) == {(1, 0), (0, 2)}
    by_gen = dict(zip(gens, range(len(gens))))
    c_full = sub.eta_ok.entry(0, by_gen[(1, 0)])
    c_half = sub.eta_ok.entry(0, by_gen[(0, 2)])
    assert c_full.units == (("u", 1),)
    assert c_half.units == (("v", 2),)


def test_pullback_needs_free_etale_part():
    obj = free_obj(4, 1, 1, [[2]])
    sub, _ = star_pullback(obj)
    with pytest.raises(BadInput):
        star_pullback(sub)


object_strategy_cases = [
    (2, 1, 1), (3, 1, 2), (4, 2, 1), (8, 2, 2), (9, 2, 2),
]


@settings(max_examples=60)
@given(st.data())
def test_generic_fiber_crystalline_iff_zero_monodromy(data):
    n, s, r = data.draw(st.sampled_from(object_strategy_cases))
    rows = [
        [data.draw(st.integers(0, n - 1)) for _ in range(r)] for _ in range(s)
    ]
    obj = free_obj(n, s, r, rows, [(0, 0, "u")])
    assert is_one_crystalline(baer_sum(obj.eta_ok, mp_pushout(obj))) == obj.nu.is_zero()


@settings(max_examples=40)
@given(st.data())
def test_pullback_generic_fiber_always_crystalline(data):
    n, s, r = data.draw(st.sampled_from(object_strategy_cases))
    rows = [
        [data.draw(st.integers(0, n - 1)) for _ in range(r)] for _ in range(s)
    ]
    obj = free_obj(n, s, r, rows, [(0, min(1, r - 1), "u")])
    sub, _ = star_pullback(obj)
    assert is_one_crystalline(baer_sum(sub.eta_ok, mp_pushout(sub)))
    assert mp_presentation(sub).group == middle_term_group(sub)


def test_pullback_is_maximal_among_subgroups(subgroups_by_closure):
    # over every subgroup of (Z/4)^2, each given by all of its elements
    from crystor.abelian import hnf_rows, lattice_solve

    n, t = 4, 2
    subgroups = subgroups_by_closure(n, t)
    assert len(subgroups) == 15
    nu_rows = [[2, 0], [0, 4]]
    obj = free_obj(n, 1, t, [nu_rows[0]])  # s=1 row [[2,0]] keeps it light
    _, kernel_gens = star_pullback(obj)
    ker_basis = hnf_rows(kernel_gens, (n,) * t)
    for gens in subgroups:
        vanishes = all(
            all(
                sum(obj.nu.matrix.entry(i, j) * g[j] for j in range(t)) % n == 0
                for i in range(obj.mult_rank)
            )
            for g in gens
        )
        inside = all(lattice_solve(ker_basis, g) is not None for g in gens)
        assert vanishes == inside


def test_pullback_matches_crys1_on_the_corpus(integer_hnf):
    # crys1_torsion reads the kernel of mu mod p^m off the local Smith
    # form; the category route through the degeneration object (an
    # Smith form over Z/p^m of mu mod p^m) must give the same submodule,
    # though its generators may differ
    from crystor.abelian import diagonal_rows
    from crystor.cli import parse_input
    from crystor.crys import crys1_torsion

    files = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.txt"))
    assert len(files) == 22
    for path in files:
        data = parse_input(path.read_text())
        t = data.t
        for m in (1, 2, 3):
            n = data.p**m
            sub, gens = star_pullback(degeneration_object(data, m))
            orders = sub.etale_group.invariant_factors
            rep = crys1_torsion(data, m)
            rows = (diagonal_rows((1,) * t + (n,) * t)
                    + [[0] * t + list(g) for g in gens])
            assert rep.lattice() == integer_hnf(rows, 2 * t)
            assert rep.group == FinAbGroup.of_orders((n,) * t + orders)
            assert sorted(rep.generator_orders[t:]) == sorted(orders)


# --- morphisms and exactness ------------------------------------------


def test_morphism_requires_commuting_square():
    a = free_obj(4, 1, 1, [[2]])
    b = free_obj(4, 1, 1, [[0]])
    with pytest.raises(NotAMorphism):
        ExtNuMorphism(a, b, IntMatrix.identity(1), IntMatrix.identity(1))


def test_morphism_identity_and_compose():
    a = free_obj(4, 1, 1, [[2]])
    ida = ExtNuMorphism.identity(a)
    assert ida.compose(ida) == ida


def test_split_triple_is_exact():
    a = free_obj(4, 1, 1, [[0]])
    b = free_obj(4, 2, 2, [[0, 0], [0, 0]])
    c = free_obj(4, 1, 1, [[0]])
    f = ExtNuMorphism(a, b, IntMatrix.from_rows([[1], [0]]),
                      IntMatrix.from_rows([[1], [0]]))
    g = ExtNuMorphism(b, c, IntMatrix.from_rows([[0, 1]]),
                      IntMatrix.from_rows([[0, 1]]))
    assert check_mp_exactness(f, g) is True


def test_block_diagonal_degeneration_triple_is_exact():
    n = 8
    a = free_obj(n, 1, 1, [[2]])
    b = free_obj(n, 2, 2, [[2, 0], [0, 6]])
    c = free_obj(n, 1, 1, [[6]])
    f = ExtNuMorphism(a, b, IntMatrix.from_rows([[1], [0]]),
                      IntMatrix.from_rows([[1], [0]]))
    g = ExtNuMorphism(b, c, IntMatrix.from_rows([[0, 1]]),
                      IntMatrix.from_rows([[0, 1]]))
    assert check_mp_exactness(f, g) is True


@pytest.mark.parametrize("a_ranks, b_ranks", [
    ((1, 1), (2, 0)), ((2, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 1)),
    ((0, 2), (0, 2)), ((2, 0), (2, 0))])
def test_direct_sum_with_an_empty_part(a_ranks, b_ranks):
    # a part of rank 0 still counts the other part's columns in every
    # block matrix of the sum, its inclusion and its projections
    def obj(s, r):
        units = [(i, j, f"u{i}{j}") for i in range(s) for j in range(r)]
        return free_obj(4, s, r, [[2] * r for _ in range(s)], units)

    a, b = obj(*a_ranks), obj(*b_ranks)
    total = object_direct_sum(a, b)
    assert (total.mult_rank, total.etale_rank) == (
        a.mult_rank + b.mult_rank, a.etale_rank + b.etale_rank)
    inclusion = sum_inclusion(a, b)
    first = sum_first_projection(a, b)
    assert first.compose(inclusion) == ExtNuMorphism.identity(a)
    assert check_mp_exactness(inclusion, sum_projection(a, b)) is True
    assert check_mp_exactness(inclusion, first) is False


def test_non_exact_chain_detected():
    # doubling into the middle leaves cokernel at the quotient stage
    n = 4
    a = free_obj(n, 1, 1, [[0]])
    b = free_obj(n, 2, 2, [[0, 0], [0, 0]])
    c = free_obj(n, 1, 1, [[0]])
    f = ExtNuMorphism(a, b, IntMatrix.from_rows([[2], [0]]),
                      IntMatrix.from_rows([[2], [0]]))
    g = ExtNuMorphism(b, c, IntMatrix.from_rows([[0, 1]]),
                      IntMatrix.from_rows([[0, 1]]))
    assert check_mp_exactness(f, g) is False


def test_pushout_route_disagreement_raises(monkeypatch):
    import crystor.pushout

    monkeypatch.setattr(crystor.pushout, "middle_term_group",
                        lambda obj: FinAbGroup.trivial())
    with pytest.raises(RouteDisagreement):
        mp_pushout(free_obj(4, 1, 1, [[2]]))


def test_exactness_route_disagreement_raises(monkeypatch):
    import crystor.pushout

    answers = iter([True, False, False])
    monkeypatch.setattr(crystor.pushout, "_is_ses", lambda f, g: next(answers))
    a = free_obj(4, 1, 1, [[0]])
    with pytest.raises(RouteDisagreement) as exc:
        check_mp_exactness(ExtNuMorphism.identity(a), ExtNuMorphism.identity(a))
    assert (exc.value.first, exc.value.second) == (True, False)


def test_chain_mismatch_rejected():
    a = free_obj(4, 1, 1, [[0]])
    b = free_obj(4, 2, 2, [[0, 0], [0, 0]])
    f = ExtNuMorphism.identity(a)
    g = ExtNuMorphism.identity(b)
    with pytest.raises(ShapeMismatch):
        check_mp_exactness(f, g)


@settings(max_examples=30)
@given(st.data())
def test_pushout_functorial_on_composites(data):
    n = data.draw(st.sampled_from([2, 3, 4, 9]))
    dims = data.draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    s, r = dims
    mk = lambda: free_obj(n, s, r, [[0] * r for _ in range(s)])
    a, b, c = mk(), mk(), mk()
    draw_mat = lambda rows, cols: IntMatrix.from_rows(
        [[data.draw(st.integers(0, n - 1)) for _ in range(cols)]
         for _ in range(rows)]
    )
    f = ExtNuMorphism(a, b, draw_mat(s, s), draw_mat(r, r))
    g = ExtNuMorphism(b, c, draw_mat(s, s), draw_mat(r, r))
    assert mp_hom(g.compose(f)) == mp_hom(g).compose(mp_hom(f))


@settings(max_examples=40)
@given(st.data())
def test_pushout_hom_is_natural_on_generators(data):
    # mp_hom(f) sends the coordinates of each source generator to the
    # coordinates of that generator's image under the generator map
    n = data.draw(st.sampled_from([2, 3, 4, 9]))
    rank = st.integers(1, 3)
    draw_rows = lambda rows, cols: [
        [data.draw(st.integers(0, n - 1)) for _ in range(cols)]
        for _ in range(rows)
    ]
    if data.draw(st.booleans()):
        # with zero monodromy every pair of part maps is a morphism
        sa, ra, sb, rb = (data.draw(rank) for _ in range(4))
        a = free_obj(n, sa, ra, [[0] * ra for _ in range(sa)])
        b = free_obj(n, sb, rb, [[0] * rb for _ in range(sb)])
        f = ExtNuMorphism(a, b, IntMatrix.from_rows(draw_rows(sb, sa)),
                          IntMatrix.from_rows(draw_rows(rb, ra)))
    else:
        # c0 + c1 * nu commutes with a square monodromy nu
        r = data.draw(rank)
        nu = draw_rows(r, r)
        a = free_obj(n, r, r, nu)
        c0, c1 = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        poly = IntMatrix.from_rows(
            [[(c0 * (i == j) + c1 * nu[i][j]) % n for j in range(r)]
             for i in range(r)])
        f = ExtNuMorphism(a, a, poly, poly)
    src, dst = mp_presentation(f.source), mp_presentation(f.target)
    h = mp_hom(f)
    gen_map = mp_generator_map(f)
    for j in range(gen_map.cols):
        x = src.coords([int(k == j) for k in range(gen_map.cols)])
        image = tuple(
            sum(h.matrix.entry(i, k) * x[k] for k in range(len(x))) % d
            for i, d in enumerate(h.target.invariant_factors)
        )
        assert image == dst.coords(gen_map.column(j))


def test_generator_map_layout():
    a = free_obj(4, 1, 2, [[0, 0]])
    b = free_obj(4, 2, 1, [[0], [0]])
    mor = ExtNuMorphism(a, b, IntMatrix.from_rows([[1], [2]]),
                        IntMatrix.from_rows([[3, 1]]))
    t = mp_generator_map(mor)
    # source gens a1 a2 b1 b2 c1; target gens a1 b1 c1 c2
    assert t.as_rows() == (
        (3, 1, 0, 0, 0),
        (0, 0, 3, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 2),
    )


def test_exactness_through_pushout_homs_directly():
    # sanity: the transported homs themselves form an exact pair
    n = 9
    a = free_obj(n, 1, 1, [[3]])
    b = free_obj(n, 2, 2, [[3, 0], [0, 3]])
    c = free_obj(n, 1, 1, [[3]])
    f = ExtNuMorphism(a, b, IntMatrix.from_rows([[1], [0]]),
                      IntMatrix.from_rows([[1], [0]]))
    g = ExtNuMorphism(b, c, IntMatrix.from_rows([[0, 1]]),
                      IntMatrix.from_rows([[0, 1]]))
    assert is_exact(mp_hom(f), mp_hom(g))
