"""Maximal submodule computations against frozen values and the
independent enumeration oracle."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from crystor.abelian import FinAbGroup, IntMatrix
from crystor.crys import (
    Crys1Report,
    component_group,
    crys1_tate_module,
    crys1_torsion,
    les_report,
    oracle_crys1,
    phi_formula_check,
    phi_n,
    r1crys1_tors,
    tate_closed_form,
)
from crystor.degen import DegenerationData
from crystor.errors import (
    BadInput,
    BudgetExceeded,
    NotStabilized,
    RouteDisagreement,
)


def data_of(p, rows):
    return DegenerationData(p, IntMatrix.from_rows(rows))


def spd_rows(draw_int, t, bound=9):
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i):
            rows[i][j] = rows[j][i] = draw_int(-bound, bound)
    for i in range(t):
        rows[i][i] = sum(abs(x) for x in rows[i]) + draw_int(1, bound)
    return rows


# --- crys1_torsion ----------------------------------------------------


def test_tate_curve_low_level_is_full():
    rep = crys1_torsion(data_of(5, [[5]]), 1)
    assert rep.is_full
    assert rep.group == FinAbGroup.of_orders([5, 5])
    assert rep.group.order == 25


def test_tate_curve_level_two():
    rep = crys1_torsion(data_of(5, [[5]]), 2)
    assert rep.generators == ((1, 0), (0, 5))
    assert rep.generator_orders == (25, 5)
    assert rep.group == FinAbGroup.of_orders([25, 5])
    assert not rep.is_full


def test_rank_two_diagonal():
    rep = crys1_torsion(data_of(2, [[2, 0], [0, 4]]), 2)
    assert rep.group == FinAbGroup.of_orders([4, 4, 2, 4])
    assert rep.group.order == 2**7
    assert rep.n == 4 and rep.t == 2
    assert rep.ambient_order == 4**4


def test_order_law_snf_route(sympy_invariant_factors):
    for rows, p, m in [([[5]], 5, 2), ([[2, 1], [1, 2]], 3, 1),
                       ([[6, 1], [1, 4]], 2, 3), ([[12]], 2, 4)]:
        data = data_of(p, rows)
        rep = crys1_torsion(data, m)
        n = p**m
        expected = n ** data.t
        for d in sympy_invariant_factors(rows):
            expected *= gcd(d, n)
        assert rep.group.order == expected


def test_x_span_always_inside():
    rep = crys1_torsion(data_of(3, [[2, 1], [1, 2]]), 2)
    from crystor.abelian import lattice_solve

    basis = rep.lattice()
    for i in range(rep.t):
        e = [1 if j == i else 0 for j in range(2 * rep.t)]
        assert lattice_solve(basis, e) is not None


def test_reports_of_one_rank_share_the_x_basis():
    a = crys1_torsion(data_of(3, [[6, 3], [3, 12]]), 2)
    b = crys1_torsion(data_of(3, [[9, 0], [0, 3]]), 1)
    c = oracle_crys1(data_of(3, [[6, 3], [3, 12]]), 2)
    for rep in (b, c):
        for mine, shared in zip(rep.generators[:2], a.generators[:2]):
            assert mine is shared
    # sharing changes no value a caller sees
    assert a.generators == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 3, 3))
    assert a.generator_orders == (9, 9, 3, 3)
    assert b.generators == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert c.generators == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 3), (0, 0, 3, 0))
    assert a.group == c.group == FinAbGroup.of_orders([9, 9, 3, 3])


# --- the oracle -------------------------------------------------------


def test_oracle_unit_valuation_keeps_only_torus():
    rep = oracle_crys1(data_of(5, [[3]]), 1)
    assert rep.group == FinAbGroup.cyclic(5)
    assert rep.generators == ((1, 0),)
    assert not rep.is_full


def test_oracle_full_when_valuation_matches_level():
    rep = oracle_crys1(data_of(2, [[8]]), 3)
    assert rep.is_full
    assert rep.group == FinAbGroup.of_orders([8, 8])


def test_oracle_rank_two_order_27():
    rep = oracle_crys1(data_of(3, [[2, 1], [1, 2]]), 1)
    assert rep.group.order == 27
    # the kernel line (1, 1) must be in the span
    from crystor.abelian import lattice_solve

    assert lattice_solve(rep.lattice(), (0, 0, 1, 1)) is not None


def test_oracle_budget_guard(monkeypatch):
    data = data_of(2, [[8, 1], [1, 8]])
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "63")
    with pytest.raises(BudgetExceeded):
        oracle_crys1(data, 3)
    # 8^2 = 64 elements fit a budget of 64
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "64")
    assert oracle_crys1(data, 3).group == crys1_torsion(data, 3).group


def test_oracle_type_rejects_a_non_subgroup():
    # {0, 1, 2} in Z/4 has three 4-torsion elements, not a power of 2
    from crystor.crys import _type_by_torsion_count

    assert _type_by_torsion_count({(0,), (2,)}, 4, 2, 2) == (2,)
    with pytest.raises(RouteDisagreement, match="not a power of 2"):
        _type_by_torsion_count({(0,), (1,), (2,)}, 4, 2, 2)


def test_oracle_type_counts_mixed_orders_in_one_pass():
    # Z/4 + Z/2 inside (Z/4)^2: elements of order 1, 2 and 4, so the
    # 2-torsion count (4) differs from the 4-torsion count (8)
    from crystor.crys import _type_by_torsion_count

    elements = {(a, 2 * b) for a in range(4) for b in range(2)}
    assert _type_by_torsion_count(elements, 4, 2, 2) == (2, 4)
    # the order-2 elements alone form (Z/2)^2
    assert _type_by_torsion_count({(0, 0), (2, 0), (0, 2), (2, 2)}, 4, 2, 2) == (2, 2)


def reference_oracle(data, m):
    """The oracle walk as first written, kept as the reference for the
    column-at-a-time walk: mu is evaluated row by row on each vector,
    the span is recomputed from scratch after each pick, and the type is
    read off one pass over the span per torsion level."""
    p, t = data.p, data.t
    n = p**m
    rows = data.mu.as_rows()
    zero = (0,) * t
    picked = []
    span = {zero}
    for vec in product(range(n), repeat=t):
        killed = all(sum(r[j] * vec[j] for j in range(t)) % n == 0 for r in rows)
        if killed and vec not in span:
            picked.append(vec)
            span = {zero}
            for g in picked:
                multiples, cur = [], g
                while cur != zero:
                    multiples.append(cur)
                    cur = tuple((a + b) % n for a, b in zip(cur, g))
                span |= {tuple((a + b) % n for a, b in zip(e, c))
                         for e in span for c in multiples}
    lam = []
    for k in range(m + 1):
        count = sum(1 for e in span if all(x * p**k % n == 0 for x in e))
        exponent = 0
        while p**exponent < count:
            exponent += 1
        lam.append(exponent)
    delta = [lam[k] - lam[k - 1] for k in range(1, m + 1)] + [0]
    orders_y = [p**k for k in range(1, m + 1) for _ in range(delta[k - 1] - delta[k])]
    x = tuple(tuple(int(i == j) for j in range(2 * t)) for i in range(t))
    gens = x + tuple((0,) * t + g for g in picked)
    gen_orders = (n,) * t + tuple(n // gcd(n, *g) for g in picked)
    group = FinAbGroup.of_orders((n,) * t + tuple(orders_y))
    return gens, gen_orders, group, len(span) == n**t


@st.composite
def oracle_inputs(draw):
    """(data, m) with n^t <= 4096 (t <= 8 at p = 2) and mu = U^T diag(s) U,
    U unimodular and s_i = p^e c, so mu mod p^m has kernels of every type."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, {2: 4, 3: 3, 5: 2, 7: 2}[p]))
    n = p**m
    t = draw(st.integers(1, max(k for k in range(1, 9) if n**k <= 4096)))
    s = [p ** draw(st.integers(0, m)) * draw(st.sampled_from([1, p + 1]))
         for _ in range(t)]
    u = [[int(i == j) for j in range(t)] for i in range(t)]
    if t > 1:
        for _ in range(draw(st.integers(0, 2 * t))):
            i = draw(st.integers(0, t - 1))
            j = draw(st.integers(0, t - 2))
            j += j >= i
            sign = draw(st.sampled_from([-1, 1]))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    mu = [[sum(u[k][i] * s[k] * u[k][j] for k in range(t)) for j in range(t)]
          for i in range(t)]
    return data_of(p, mu), m


@settings(max_examples=60, deadline=None)
@given(oracle_inputs())
def test_oracle_matches_the_reference_walk(case):
    data, m = case
    rep = oracle_crys1(data, m)
    gens, gen_orders, group, is_full = reference_oracle(data, m)
    assert rep.generators == gens
    assert rep.generator_orders == gen_orders
    assert rep.group == group
    assert rep.is_full == is_full


def test_equal_lifts_and_orders_are_one_object_across_routes():
    direct = crys1_torsion(data_of(3, [[9, 0], [0, 3]]), 1)
    oracle = oracle_crys1(data_of(3, [[3, 0], [0, 6]]), 1)
    assert direct.generators == oracle.generators == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert direct.generator_orders == oracle.generator_orders == (3, 3, 3, 3)
    for mine, shared in zip(oracle.generators[2:], direct.generators[2:]):
        assert mine is shared
    assert oracle.generator_orders is direct.generator_orders


def test_oracle_enumerates_no_subgroups(monkeypatch):
    import crystor.abelian

    calls = record_calls(monkeypatch, crystor.abelian.enumerate_subgroups)
    data = data_of(2, [[6, 1], [1, 4]])
    assert oracle_crys1(data, 2).group == crys1_torsion(data, 2).group
    assert calls == []


def test_oracle_agrees_on_frozen_cases():
    for rows, p, m in [([[5]], 5, 1), ([[5]], 5, 2), ([[3]], 5, 1),
                       ([[2, 0], [0, 4]], 2, 2), ([[2, 1], [1, 2]], 3, 1),
                       ([[6, 1], [1, 4]], 2, 2)]:
        data = data_of(p, rows)
        direct = crys1_torsion(data, m)
        oracle = oracle_crys1(data, m)
        assert direct.group == oracle.group
        assert direct.lattice() == oracle.lattice()
        assert direct.is_full == oracle.is_full


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_oracle_agreement_random(data):
    t = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 2 if p == 5 else 3))
    if (p**m) ** t > 2**12:
        return
    d = data_of(p, spd_rows(lambda a, b: data.draw(st.integers(a, b)), t))
    direct = crys1_torsion(d, m)
    oracle = oracle_crys1(d, m)
    assert direct.group == oracle.group
    assert direct.lattice() == oracle.lattice()


# --- component groups -------------------------------------------------


def test_component_group_values():
    assert component_group(data_of(5, [[5]])) == FinAbGroup.cyclic(5)
    assert component_group(data_of(2, [[1, 0], [0, 1]])).is_trivial()
    assert component_group(data_of(3, [[2, 1], [1, 2]])) == FinAbGroup.cyclic(3)


def test_phi_n_values():
    assert phi_n(data_of(5, [[5]]), 1) == FinAbGroup.cyclic(5)
    assert phi_n(data_of(5, [[5]]), 3) == FinAbGroup.cyclic(5)
    assert phi_n(data_of(7, [[1, 0], [0, 1]]), 2).is_trivial()


def test_phi_two_routes_random():
    from crystor.abelian import kernel_mod_n, n_torsion
    import random

    rng = random.Random(11)
    for _ in range(40):
        t = rng.randint(1, 3)
        rows = spd_rows(lambda a, b: rng.randint(a, b), t)
        data = data_of(rng.choice([2, 3, 5]), rows)
        m = rng.randint(1, 4)
        n = data.p**m
        via_kernel = kernel_mod_n(data.mu.mod(n), n)[0]
        via_coker = n_torsion(component_group(data), n)
        assert via_kernel == via_coker
        assert phi_n(data, m) == via_kernel


def test_phi_formula_check_values():
    q, ok = phi_formula_check(data_of(5, [[5]]), 2)
    assert ok and q == FinAbGroup.cyclic(5)
    q, ok = phi_formula_check(data_of(3, [[1, 0], [0, 1]]), 2)
    assert ok and q.is_trivial()
    q, ok = phi_formula_check(data_of(2, [[2, 0], [0, 4]]), 2)
    assert ok and q == FinAbGroup.of_orders([2, 4])


# --- the toric quotient -----------------------------------------------


def toric_quotient_by_hnf(rep, integer_hnf):
    """Reference route: the y-part lattice in the integer HNF, then the
    Smith form over Z/n of n Z^t in its coordinates."""
    from crystor.abelian import diagonal_rows, quotient_orders

    t = rep.t
    n_orders = (rep.n,) * t
    y_basis = integer_hnf([list(g[t:]) for g in rep.generators]
                          + diagonal_rows(n_orders), t)
    return FinAbGroup.of_orders(quotient_orders(y_basis, n_orders))


@st.composite
def crys1_shaped_reports(draw):
    """A report of rank t <= 16 whose y-parts are any vectors mod p^m,
    at most t of them as in crys1_torsion; entries are units times
    powers of p, so spans of every type turn up."""
    from crystor.crys import _x_lifts

    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 6))
    t = draw(st.integers(1, 16))
    n = p**m
    entry = st.builds(lambda c, e: c * p**e % n, st.integers(0, n - 1),
                      st.integers(0, m))
    ys = draw(st.lists(st.lists(entry, min_size=t, max_size=t), max_size=t))
    gens = _x_lifts(t) + tuple((0,) * t + tuple(y) for y in ys)
    orders = (n,) * t + tuple(n // gcd(n, *y) for y in ys)
    rep = Crys1Report(n, t, gens, orders, FinAbGroup.trivial(), False)
    return rep, p, m


@given(crys1_shaped_reports())
@settings(max_examples=150, deadline=None)
def test_toric_quotient_matches_the_hnf_route(integer_hnf, case):
    from crystor.crys import _toric_quotient

    rep, p, m = case
    assert _toric_quotient(rep, p, m) == toric_quotient_by_hnf(rep, integer_hnf)


@pytest.mark.parametrize("fault", ["drop", "times_p"])
@pytest.mark.parametrize("p, rows, m", [
    (5, [[5]], 2),
    (3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]], 2),
    (2, [[2, 0], [0, 4]], 2),
])
def test_y_generator_fault_fails_the_level_checks(monkeypatch, fault, p, rows, m):
    # a crys1 report that loses a y-generator, or keeps only p times one,
    # spans too small a quotient, and both level checks must see it
    import crystor.crys

    real = crystor.crys.crys1_torsion

    def faulty(data, level):
        rep = real(data, level)
        t = rep.t
        *kept, last = rep.generators[t:]
        if fault == "times_p":
            kept.append(tuple(p * x % rep.n for x in last))
        return rep.replace(generators=rep.generators[:t] + tuple(kept))

    data = data_of(p, rows)
    assert phi_formula_check(data, m)[1] and les_report(data).exact
    monkeypatch.setattr(crystor.crys, "crys1_torsion", faulty)
    assert phi_formula_check(data, m)[1] is False
    assert les_report(data).exact is False


# --- stabilization ----------------------------------------------------


def test_r1_twelve():
    assert r1crys1_tors(data_of(2, [[12]]), 4) == FinAbGroup.cyclic(4)
    assert r1crys1_tors(data_of(3, [[12]]), 3) == FinAbGroup.cyclic(3)


def test_r1_trivial_on_identity():
    assert r1crys1_tors(data_of(2, [[1, 0], [0, 1]])).is_trivial()


def test_r1_not_stabilized_reports_growth():
    with pytest.raises(NotStabilized) as exc:
        r1crys1_tors(data_of(2, [[8]]), 3)
    assert exc.value.last_growth == 3
    assert exc.value.cap == 3
    # one more level is enough
    assert r1crys1_tors(data_of(2, [[8]]), 4) == FinAbGroup.cyclic(8)


def test_r1_equals_p_primary_random():
    import random

    from crystor.abelian import p_primary_part

    rng = random.Random(7)
    for _ in range(25):
        t = rng.randint(1, 3)
        data = data_of(
            rng.choice([2, 3, 5]), spd_rows(lambda a, b: rng.randint(a, b), t)
        )
        got = r1crys1_tors(data, 24)
        assert got == p_primary_part(component_group(data), data.p)


def chain_stabilization(data, cap):
    """The level-by-level chain: the first m with phi_m == phi_{m+1},
    reading every level off the invariant factors."""
    prev = phi_n(data, 1)
    last_growth = 1
    for m in range(2, cap + 1):
        cur = phi_n(data, m)
        if cur == prev:
            return prev, m - 1
        prev = cur
        last_growth = m
    raise NotStabilized(last_growth, cap)


def test_closed_form_stabilization_matches_the_chain():
    # the stable group and level read off the local Smith form agree
    # with the chain of finite levels, and so does every refusal; the
    # scale p^k pushes the valuations past the small caps
    import random

    from crystor.crys import _stabilized_phi

    rng = random.Random(11)
    refusals = 0
    for _ in range(60):
        t, p = rng.randint(1, 3), rng.choice([2, 3, 5])
        scale = p ** rng.randint(0, 4)
        rows = spd_rows(lambda a, b: rng.randint(a, b), t)
        data = data_of(p, [[scale * x for x in row] for row in rows])
        for cap in range(2, 9):
            try:
                expected = chain_stabilization(data, cap)
            except NotStabilized as e:
                with pytest.raises(NotStabilized) as exc:
                    _stabilized_phi(data, cap)
                assert str(exc.value) == str(e)
                assert (exc.value.last_growth, exc.value.cap) == (e.last_growth, e.cap)
                refusals += 1
            else:
                assert _stabilized_phi(data, cap) == expected
    assert refusals  # both branches are exercised


def test_stabilization_reads_no_finite_level(monkeypatch):
    import crystor.crys
    from crystor.crys import _stabilized_phi

    calls = record_calls(monkeypatch, crystor.crys.phi_n)
    data = data_of(3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]])
    assert _stabilized_phi(data, 40) == (FinAbGroup.cyclic(9), 2)
    assert calls == []


# --- one Smith form of mu per input -----------------------------------


def record_calls(monkeypatch, real, full=False) -> list:
    """First arguments of every call to ``real`` (all positional
    arguments when ``full``), wherever a crystor module holds its own
    reference to the function."""
    import sys

    calls = []

    def counted(*args, **kwargs):
        calls.append(args if full else args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("crystor") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counted)
    return calls


@pytest.fixture
def snf_calls(monkeypatch):
    import crystor.abelian

    return record_calls(monkeypatch, crystor.abelian.smith_normal_form)


def test_one_smith_form_of_mu_per_input(snf_calls, monkeypatch):
    # the negative entries keep every mu mod p^m different from mu
    import crystor.abelian

    locals_ = record_calls(monkeypatch, crystor.abelian.local_smith, full=True)
    invariants = record_calls(monkeypatch, crystor.abelian.invariant_factors_mod_det)
    data = data_of(3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]])
    assert component_group(data) == FinAbGroup.cyclic(396)
    assert r1crys1_tors(data, cap=40) == FinAbGroup.cyclic(9)
    rep = les_report(data, cap=40)
    assert rep.exact and rep.stabilized_at == 2
    assert crys1_tate_module(data).y_part_vanishes
    assert phi_formula_check(data, 3)[1]
    # no smith_normal_form call on mu or on any mu mod p^m
    reductions = {data.mu} | {data.mu.mod(3**m) for m in range(1, 41)}
    assert not any(m in reductions for m in snf_calls)
    # one decomposition of each kind for the whole input
    assert [args[0] for args in locals_].count(data.mu) == 1
    assert invariants == [data.mu]
    # every other local Smith form is of crys1 y-generators: t x t,
    # entries reduced modulo the level's p^m
    others = [args for args in locals_ if args[0] != data.mu]
    assert others
    for mat, p, m in others:
        assert mat.rows == mat.cols == data.t
        assert all(0 <= x < p**m for x in mat.entries)


def test_no_kummer_objects_on_the_crys1_path(monkeypatch):
    from pathlib import Path

    import crystor.degen
    import crystor.pushout
    from crystor.cli import run_command

    objects = record_calls(monkeypatch, crystor.pushout.degeneration_object)
    modules = record_calls(monkeypatch, crystor.degen.torsion_module)
    data = data_of(3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]])
    assert les_report(data, cap=40).exact
    assert crys1_tate_module(data).y_part_vanishes
    # the torsion report reads mu mod p^m and the unit symbols directly
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    argv = ["torsion", str(corpus / "t2_units_p5.txt"), "--m", "2"]
    assert run_command(argv)[1] == 0
    assert objects == [] and modules == []


def test_verify_builds_each_class_once(monkeypatch):
    # each level builds its unit-symbol class and the pullback's columns
    # one Kummer object per entry, never a torsion class to split
    from crystor.verify import _verify_checks
    from crystor.kummer import KummerClass
    from test_graphs import complete_graph_data

    built = []
    real = KummerClass.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(KummerClass, "__post_init__", counted)
    data = complete_graph_data(9, 3)
    max_m = 2
    assert all(ok for _, ok, _ in _verify_checks(data, max_m, 0))
    assert len(built) <= 2 * max_m * data.t ** 2


def test_smith_form_fault_fails_the_level_checks():
    # wrong cached invariant factors of mu = [[5]] (D = [25]) must be
    # caught by every check that sets them against the kernel of mu mod p^m
    from crystor.verify import _verify_checks

    data = data_of(5, [[5]])
    object.__setattr__(data, "invariants", (25,))
    assert phi_formula_check(data, 2)[1] is False
    assert les_report(data).exact is False
    failed = [name for name, ok, _ in _verify_checks(data, 3, 0) if not ok]
    assert "kernel vs torsion routes at m=2" in failed
    assert "r1 stabilization" in failed
    # a diagonal that loses the p-part must be caught by the r1 check too
    object.__setattr__(data, "invariants", (1,))
    failed = [name for name, ok, _ in _verify_checks(data, 3, 0) if not ok]
    assert "r1 stabilization" in failed


def test_local_smith_fault_fails_the_level_checks():
    # a local Smith form of mu = [[5]] with every valuation one too high
    # must be caught wherever the crys1 route meets the invariant factors
    from crystor.verify import _verify_checks

    data = data_of(5, [[5]])
    good = data.local
    assert good.valuations == (1,)
    object.__setattr__(data, "local",
                       good.replace(valuations=tuple(v + 1 for v in good.valuations)))
    assert phi_formula_check(data, 2)[1] is False
    assert les_report(data).exact is False
    failed = [name for name, ok, _ in _verify_checks(data, 3, 0) if not ok]
    assert "kernel vs torsion routes at m=2" in failed


def test_invariant_product_must_be_the_determinant(monkeypatch):
    import crystor.degen

    data = data_of(3, [[2, 1], [1, 2]])
    assert data.invariants == (1, 3)
    monkeypatch.setattr(crystor.degen, "invariant_factors_mod_det",
                        lambda mu, det: (1, 1))
    with pytest.raises(RouteDisagreement) as exc:
        component_group(data_of(3, [[2, 1], [1, 2]]))
    assert (exc.value.first, exc.value.second) == (1, 3)
    monkeypatch.undo()
    # a wrong determinant fails the same product: elimination modulo 10
    # finds Z/5 for mu = [[5]]
    data = data_of(5, [[5]])
    object.__setattr__(data, "determinant", 10)
    with pytest.raises(RouteDisagreement) as exc:
        data.invariants
    assert (exc.value.first, exc.value.second) == (5, 10)


def test_route_disagreement_in_r1_and_les(monkeypatch):
    import crystor.crys

    monkeypatch.setattr(crystor.crys, "p_primary_part",
                        lambda g, p: FinAbGroup.trivial())
    data = data_of(5, [[5]])
    with pytest.raises(RouteDisagreement):
        r1crys1_tors(data)
    # les_report keeps its own comparison and reports it
    rep = les_report(data)
    assert rep.colimit_torsion == FinAbGroup.cyclic(5)
    assert rep.r1_torsion.is_trivial()
    assert not rep.exact


def test_wrong_invariant_factor_fails_the_stable_torsion_checks():
    # the last invariant factor times p: the invariant factors then read
    # a 3-primary part Z/27 while the local Smith form still reads Z/9,
    # and every stable-torsion comparison must see it
    from crystor.verify import _verify_checks

    data = data_of(3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]])
    assert data.invariants == (1, 1, 396)
    assert r1crys1_tors(data) == FinAbGroup.cyclic(9)
    assert les_report(data).exact
    assert not [name for name, ok, _ in _verify_checks(data, 3, 0) if not ok]
    object.__setattr__(data, "invariants", (1, 1, 3 * 396))
    with pytest.raises(RouteDisagreement) as exc:
        r1crys1_tors(data)
    assert (exc.value.first, exc.value.second) == (
        FinAbGroup.cyclic(9), FinAbGroup.cyclic(27))
    assert les_report(data).exact is False
    failed = [name for name, ok, _ in _verify_checks(data, 3, 0) if not ok]
    assert "r1 stabilization" in failed


# --- Tate module ------------------------------------------------------


def test_tate_module_rank_and_flags():
    rep = crys1_tate_module(data_of(5, [[5]]))
    assert rep.rank == 1 and rep.weight == 1
    assert rep.levels_checked == 6
    assert rep.y_part_vanishes


def test_tate_module_rank_three():
    rep = crys1_tate_module(data_of(2, [[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
    assert rep.rank == 3
    assert rep.y_part_vanishes


def test_tate_module_high_valuation_needs_higher_level():
    rep = crys1_tate_module(data_of(2, [[2**7]]))
    assert rep.levels_checked == 8
    assert rep.y_part_vanishes


def test_tate_module_builds_one_level(monkeypatch):
    import crystor.crys

    calls = record_calls(monkeypatch, crystor.crys.crys1_torsion, full=True)
    data = data_of(2, [[2**7]])
    assert crys1_tate_module(data).y_part_vanishes
    assert [m for _, m in calls] == [8]


@pytest.mark.parametrize("p, rows", [
    (5, [[5]]),
    (3, [[9, -3, 0], [-3, 10, -1], [0, -1, 5]]),
])
def test_local_valuation_at_the_top_level_fails_the_tate_check(p, rows):
    # a local valuation of m_top or more leaves a column of V, which p
    # does not divide, among the top level's y-generators
    from crystor.verify import _verify_checks

    data = data_of(p, rows)
    rep = crys1_tate_module(data)
    assert rep.y_part_vanishes
    assert "tate module coherence" not in [
        name for name, ok, _ in _verify_checks(data, 1, 0) if not ok]
    good = data.local
    object.__setattr__(data, "local", good.replace(
        valuations=good.valuations[:-1] + (rep.levels_checked,)))
    assert crys1_tate_module(data).y_part_vanishes is False
    failed = [name for name, ok, _ in _verify_checks(data, 1, 0) if not ok]
    assert "tate module coherence" in failed


# --- long exact sequence ----------------------------------------------


def test_les_tate_curve():
    rep = les_report(data_of(5, [[5]]))
    assert rep.exact
    assert rep.divisible_rank == 1
    assert rep.colimit_torsion == FinAbGroup.cyclic(5)
    assert rep.r1_torsion == FinAbGroup.cyclic(5)
    assert all(l.ok() for l in rep.levels)


def test_les_identity_trivial():
    rep = les_report(data_of(3, [[1, 0], [0, 1]]))
    assert rep.exact
    assert rep.colimit_torsion.is_trivial()


def test_les_rank_two():
    rep = les_report(data_of(2, [[2, 0], [0, 4]]))
    assert rep.exact
    assert rep.colimit_torsion == FinAbGroup.of_orders([2, 4])
    assert rep.r1_torsion == FinAbGroup.of_orders([2, 4])


def test_equal_les_reports_are_one_object():
    # Z/5 and Z/10 have the same 5-primary part, so every field agrees
    a, b = data_of(5, [[5]]), data_of(5, [[10]])
    assert component_group(a) != component_group(b)
    assert les_report(a) is les_report(b)
    assert les_report(a).levels[0] is les_report(b).levels[0]


@pytest.mark.parametrize("cap", [1, 0, -5])
def test_cap_below_two_is_bad_input(cap):
    # stabilization compares levels m and m + 1, so it needs two levels;
    # phi is trivial here, so growth must not be reported
    data = data_of(3, [[1, 0], [0, 1]])
    for fn in (r1crys1_tors, les_report):
        with pytest.raises(BadInput, match="at least 2"):
            fn(data, cap=cap)
    assert r1crys1_tors(data, cap=2).is_trivial()


def test_les_not_stabilized():
    with pytest.raises(NotStabilized):
        les_report(data_of(2, [[2**13]]), cap=12)


def test_les_flags_random():
    import random

    rng = random.Random(23)
    for _ in range(15):
        t = rng.randint(1, 3)
        data = data_of(
            rng.choice([2, 3, 5]), spd_rows(lambda a, b: rng.randint(a, b), t)
        )
        rep = les_report(data, 24)
        assert rep.exact


# --- closed form ------------------------------------------------------


def test_closed_form_cases():
    full = tate_closed_form(5, 5, 1)
    assert full.is_full and full.group.order == 25
    mixed = tate_closed_form(5, 5, 2)
    assert mixed.generators == ((1, 0), (0, 5))
    assert mixed.generator_orders == (25, 5)
    assert mixed.describe() == "Z/25 ⊕ Z/5"
    unit = tate_closed_form(3, 5, 4)
    assert unit.group == FinAbGroup.cyclic(625)
    assert unit.generators == ((1, 0),)


def test_closed_form_rejects_bad_valuation():
    with pytest.raises(BadInput):
        tate_closed_form(0, 5, 1)


def test_closed_form_matches_direct_sample():
    for p in (2, 3, 5):
        for v in range(1, 13):
            for m in (1, 2, 3):
                direct = crys1_torsion(data_of(p, [[v]]), m)
                closed = tate_closed_form(v, p, m)
                assert direct.group == closed.group, (p, v, m)
                assert direct.lattice() == closed.lattice(), (p, v, m)
