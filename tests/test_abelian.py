"""Tests for the exact-algebra substrate.

Expected values marked "frozen" were produced by scripts/oracle_spotcheck.py
(sympy Smith forms, exhaustive kernels, closure-based subgroup walks)
before being asserted here.
"""

from itertools import product
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from crystor.abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    diagonal_rows,
    enumerate_subgroups,
    hnf_rows,
    invariant_factors_mod_det,
    is_exact,
    kernel_mod_n,
    n_torsion,
    p_primary_part,
    p_valuation,
    quotient_orders,
    smith_normal_form,
    subgroup_count_bound,
    subgroup_elements,
)
from crystor.errors import (
    BadInput,
    BadModulus,
    BudgetExceeded,
    NotPrime,
    ShapeMismatch,
)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix.from_rows)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    r = smith_normal_form(IntMatrix.identity(2), 5)
    assert r.orders(5) == (1, 1)


def test_snf_already_diagonal():
    r = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 4]]), 8)
    assert r.orders(8) == (2, 4)


def test_snf_hand_reduced():
    # frozen: sympy gives diag (1, 3)
    r = smith_normal_form(IntMatrix.from_rows([[2, 1], [1, 2]]), 9)
    assert r.orders(9) == (1, 3)


def test_snf_empty_rejected():
    with pytest.raises(ShapeMismatch):
        smith_normal_form(IntMatrix(0, 0, ()), 4)


@pytest.mark.parametrize("modulus", [0, -3])
def test_snf_rejects_a_modulus_below_one(modulus):
    with pytest.raises(BadModulus):
        smith_normal_form(IntMatrix.from_rows([[2, 1], [1, 2]]), modulus)


@given(small_matrices, st.sampled_from([4, 6, 9, 12]))
@settings(max_examples=200, deadline=None)
def test_snf_transform_identity(m, modulus):
    """Over Z/n, U*M*V = D and V * Vinv = I modulo n with U, V invertible
    modulo n, every entry lies in [0, n), and the orders gcd(d_i, n)
    form a chain."""
    from math import gcd

    r = smith_normal_form(m, modulus)
    assert r.U.mul(m).mul(r.V).mod(modulus) == r.D
    assert r.V.mul(r.Vinv).mod(modulus) == IntMatrix.identity(m.cols)
    assert gcd(r.U.det(), modulus) == gcd(r.V.det(), modulus) == 1
    assert all(0 <= x < modulus for part in (r.U, r.D, r.V, r.Vinv)
               for x in part.entries)
    orders = r.orders(modulus)
    assert len(orders) == m.cols
    for i, d in enumerate(orders):
        assert modulus % d == 0
        if i:
            assert d % orders[i - 1] == 0
    # off-diagonal entries vanish
    for i in range(r.D.rows):
        for j in range(r.D.cols):
            if i != j:
                assert r.D.entry(i, j) == 0


def test_snf_deterministic():
    m = IntMatrix.from_rows([[6, 4, 2], [4, 8, 6], [2, 6, 10]])
    a = smith_normal_form(m, 12)
    b = smith_normal_form(m, 12)
    assert a == b


# ---------------------------------------------------------------------------
# cokernel / kernel


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Z^t / m Z^t of a nonsingular square m, read off its invariant
    factors by elimination modulo |det m|."""
    return FinAbGroup.of_orders(invariant_factors_mod_det(m, abs(m.det())))


def test_cokernel_identity():
    assert invariant_factors_mod_det(IntMatrix.identity(3), 1) == (1, 1, 1)
    assert cokernel(IntMatrix.identity(3)) == FinAbGroup.trivial()


def test_cokernel_tate():
    assert invariant_factors_mod_det(IntMatrix.from_rows([[5]]), 5) == (5,)


def test_cokernel_rank_two():
    # frozen: SNF diag (1, 3)
    assert invariant_factors_mod_det(IntMatrix.from_rows([[2, 1], [1, 2]]), 3) == (1, 3)


@given(small_matrices.filter(lambda m: m.rows == m.cols and m.det() != 0))
@settings(max_examples=100, deadline=None)
def test_cokernel_order_is_det(m):
    det = abs(m.det())
    assert prod(invariant_factors_mod_det(m, det)) == det
    assert cokernel(m).order == det


def test_kernel_identity():
    g, gens = kernel_mod_n(IntMatrix.identity(2), 4)
    assert g == FinAbGroup.trivial()
    assert gens == ()


def test_kernel_single():
    g, gens = kernel_mod_n(IntMatrix.from_rows([[5]]), 5)
    assert g == FinAbGroup.cyclic(5)
    assert gens == ((1,),)


def test_kernel_mixed():
    # frozen: brute force gives order 8, type Z/2 + Z/4
    g, gens = kernel_mod_n(IntMatrix.from_rows([[2, 0], [0, 4]]), 4)
    assert g == FinAbGroup((2, 4))
    assert gens == ((2, 0), (0, 1))


def test_kernel_bad_modulus():
    with pytest.raises(BadModulus):
        kernel_mod_n(IntMatrix.identity(1), 1)


def test_kernel_generator_orders_align():
    g, gens = kernel_mod_n(IntMatrix.from_rows([[2, 0], [0, 4]]), 4)
    for d, vec in zip(g.invariant_factors, gens):
        elems = subgroup_elements([vec], 4, 2)
        assert len(elems) == d


@given(small_matrices.filter(lambda m: m.rows == m.cols),
       st.sampled_from([2, 3, 4, 5, 8, 9, 12]))
@settings(max_examples=120, deadline=None)
def test_kernel_order_law(sympy_invariant_factors, m, n):
    """|ker(M mod n)| = prod gcd(d_i, n), the d_i from sympy's integer
    Smith form: kernel route vs SNF route."""
    from math import gcd

    g, gens = kernel_mod_n(m, n)
    expect = 1
    for d in sympy_invariant_factors(m.as_rows()):
        expect *= gcd(d, n)
    assert g.order == expect
    if expect <= 512:
        assert len(subgroup_elements(gens, n, m.cols)) == expect


def test_kernel_vs_cokernel_torsion_snake():
    # the two independent routes to the same finite group
    for rows, n in [([[2, 0], [0, 4]], 4), ([[2, 1], [1, 2]], 3),
                    ([[5]], 25), ([[6, 2], [2, 10]], 8)]:
        m = IntMatrix.from_rows(rows)
        g, _ = kernel_mod_n(m, n)
        assert g == n_torsion(cokernel(m), n)


# ---------------------------------------------------------------------------
# groups


def test_group_normalization():
    assert FinAbGroup.of_orders([4, 2, 6]) == FinAbGroup((2, 2, 12))
    assert FinAbGroup.of_orders([1, 1]) == FinAbGroup.trivial()
    assert FinAbGroup.of_orders([6, 4]).order == 24


def test_of_orders_shares_equal_groups():
    a = FinAbGroup.of_orders([4, 2, 6])
    assert a is FinAbGroup.of_orders([12, 2, 2])
    assert a is FinAbGroup.of_orders((2, 2, 12))


def test_trivial_group_survives_cache_eviction():
    # more distinct groups than the cache keeps must not split the
    # trivial group
    for d in range(2, 302):
        FinAbGroup.of_orders([d, d])
    assert FinAbGroup.of_orders([]) is FinAbGroup.trivial()
    assert FinAbGroup.of_orders([1, 1]) is FinAbGroup.trivial()
    assert FinAbGroup.cyclic(1) is FinAbGroup.trivial()


def test_group_rejects_orders_below_one():
    # Z/0 is infinite and a negative order means nothing
    for orders in ([0, 5], [-4, 6], [0]):
        with pytest.raises(ShapeMismatch):
            FinAbGroup.of_orders(orders)
    for n in (0, -3):
        with pytest.raises(ShapeMismatch):
            FinAbGroup.cyclic(n)
    assert FinAbGroup.cyclic(1) == FinAbGroup.trivial()


def test_group_rejects_bad_chain():
    with pytest.raises(ShapeMismatch):
        FinAbGroup((4, 2))
    with pytest.raises(ShapeMismatch):
        FinAbGroup((1, 2))


def test_group_str():
    assert str(FinAbGroup((2, 4))) == "Z/2 ⊕ Z/4"
    assert str(FinAbGroup.trivial()) == "trivial"


@given(st.lists(st.integers(2, 60), max_size=5))
@settings(max_examples=200, deadline=None)
def test_of_orders_matches_primary_decomposition(orders):
    """gcd/lcm normalization agrees with the factorization route."""
    from sympy import factorint

    got = FinAbGroup.of_orders(orders)
    primary = {}
    for o in orders:
        for p, e in factorint(o).items():
            primary.setdefault(p, []).append(e)
    ranks = max((len(v) for v in primary.values()), default=0)
    expect = []
    for k in range(ranks):
        d = 1
        for p, es in primary.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                d *= p ** es[k]
        expect.append(d)
    assert sorted(got.invariant_factors) == sorted(e for e in expect if e > 1)


def test_n_torsion():
    assert n_torsion(FinAbGroup.cyclic(12), 4) == FinAbGroup.cyclic(4)
    assert n_torsion(FinAbGroup.cyclic(5), 2) == FinAbGroup.trivial()
    # frozen: the 2-torsion of Z/2 + Z/4 has 4 elements
    assert n_torsion(FinAbGroup((2, 4)), 2) == FinAbGroup((2, 2))


def test_p_valuation():
    assert p_valuation(1, 2) == 0
    assert p_valuation(-24, 2) == 3
    assert p_valuation(162, 3) == 4
    assert p_valuation(10, 7) == 0
    with pytest.raises(BadInput):
        p_valuation(0, 5)


def test_p_primary():
    assert p_primary_part(FinAbGroup.cyclic(12), 2) == FinAbGroup.cyclic(4)
    assert p_primary_part(FinAbGroup.cyclic(12), 3) == FinAbGroup.cyclic(3)
    assert p_primary_part(FinAbGroup.cyclic(5), 2) == FinAbGroup.trivial()
    with pytest.raises(NotPrime):
        p_primary_part(FinAbGroup.cyclic(12), 4)


# n < 3317044064679887385961981 takes the 13-base branch, larger n BPSW
PRIME_TEST_CASES = [
    -7, 0, 1, 2,
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # to the first 11 prime bases
    318665857834031151167461,  # to the first 12
    3317044064679887385961981,  # to the first 13: BPSW rejects it
    2**89 - 1,
    2**127 - 1,
    (2**61 - 1) * (2**89 - 1),
    (2**127 - 1) ** 2,
]


def test_prime_test_matches_sympy():
    """The stdlib primality test behind require_prime agrees with sympy's
    isprime on [0, 10^5), on seeded 60-200-bit odd integers and on the
    pseudoprimes of each branch; its strong Lucas test agrees with
    sympy's on odd n below 2*10^4, which holds five Lucas pseudoprimes."""
    import random

    from sympy import isprime
    from sympy.ntheory.primetest import is_strong_lucas_prp

    from crystor.abelian import _is_prime, _strong_lucas_probable_prime

    rng = random.Random(20261018)
    odd = [rng.getrandbits(rng.randint(60, 200)) | 1 for _ in range(5000)]
    for n in [*range(10**5), *odd, *PRIME_TEST_CASES]:
        assert _is_prime(n) == isprime(n), n
    for n in range(43, 2 * 10**4, 2):
        assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


# ---------------------------------------------------------------------------
# homomorphisms and exactness


def test_hom_respects_orders():
    z2, z4 = FinAbGroup.cyclic(2), FinAbGroup.cyclic(4)
    GroupHom(z2, z4, IntMatrix.from_rows([[2]]))  # 2*2 = 0 mod 4: fine
    with pytest.raises(ShapeMismatch):
        GroupHom(z2, z4, IntMatrix.from_rows([[1]]))  # 2*1 != 0 mod 4


def test_exact_identity_after_zero():
    g = FinAbGroup((2, 4))
    zero_in = GroupHom.zero(FinAbGroup.trivial(), g)
    # 0 -> G -> G is exact at the middle: both image and kernel vanish
    assert is_exact(zero_in, GroupHom.identity(g)) is True
    # 0 -> G -> 0 is exact at the middle only for trivial G
    assert is_exact(zero_in, GroupHom.zero(g, FinAbGroup.trivial())) is False


def test_exact_times_two_chain():
    z4 = FinAbGroup.cyclic(4)
    two = GroupHom(z4, z4, IntMatrix.from_rows([[2]]))
    assert is_exact(two, two) is True
    assert is_exact(two, GroupHom.identity(z4)) is False


def test_exact_shape_mismatch():
    z4 = FinAbGroup.cyclic(4)
    z2 = FinAbGroup.cyclic(2)
    f = GroupHom.identity(z4)
    g = GroupHom.identity(z2)
    with pytest.raises(ShapeMismatch):
        is_exact(f, g)


def subgroup_of(basis, ambient):
    """The subgroup that a canonical lattice basis cuts out of ambient:
    its group, by quotient_orders, and the basis rows that stay nonzero
    modulo ambient's orders, as generators."""
    orders = ambient.invariant_factors
    gens = [v for v in (tuple(x % e for x, e in zip(row, orders)) for row in basis)
            if any(v)]
    return FinAbGroup.of_orders(quotient_orders(basis, orders)), gens


def test_hom_kernel_image():
    z4 = FinAbGroup.cyclic(4)
    two = GroupHom(z4, z4, IntMatrix.from_rows([[2]]))
    ker, kgens = subgroup_of(two.kernel_lattice(), two.source)
    img, igens = subgroup_of(two.image_lattice(), two.target)
    assert ker == FinAbGroup.cyclic(2)
    assert img == FinAbGroup.cyclic(2)
    assert subgroup_elements(kgens, 4, 1) == frozenset({(0,), (2,)})
    assert subgroup_elements(igens, 4, 1) == frozenset({(0,), (2,)})


def test_hom_kernel_mixed_orders():
    g = FinAbGroup((2, 4))
    h = FinAbGroup.cyclic(4)
    # (a, b) -> 2b on generators of orders (2, 4)
    f = GroupHom(g, h, IntMatrix.from_rows([[0, 2]]))
    ker, gens = subgroup_of(f.kernel_lattice(), f.source)
    # kernel = Z/2 x {0, 2} inside Z/2 + Z/4
    assert ker == FinAbGroup((2, 2))
    elems = set()
    for a in range(2):
        for b in range(4):
            if (2 * b) % 4 == 0:
                elems.add((a, b))
    spanned = subgroup_elements(gens, 4, 2)  # coordinates mod (2, 4) both divide 4
    got = {(a % 2, b % 4) for a, b in spanned}
    assert got == elems


def brute_force_kernel_lattice(f, integer_hnf):
    """The kernel lattice spanned by every source element that f kills
    and the source orders, in the integer Hermite form."""
    rows = f.matrix.as_rows()
    members = [list(x) for x in product(*map(range, f.source.invariant_factors))
               if all(sum(map(mul, row, x)) % e == 0
                      for row, e in zip(rows, f.target.invariant_factors))]
    return integer_hnf(members + diagonal_rows(f.source.invariant_factors),
                       f.source.rank)


group_orders = st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=3)


@st.composite
def mixed_order_homs(draw):
    """A hom between groups of mixed orders: entry (i, j) is any multiple
    of t_i / gcd(s_j, t_i), so source orders need not divide the target
    exponent (Z/4 -> Z/2 turns up)."""
    from math import gcd

    source = FinAbGroup.of_orders(draw(group_orders))
    target = FinAbGroup.of_orders(draw(group_orders))
    rows = [[t // gcd(s, t) * draw(st.integers(0, gcd(s, t) - 1))
             for s in source.invariant_factors]
            for t in target.invariant_factors]
    return GroupHom(source, target,
                    IntMatrix(target.rank, source.rank, tuple(x for r in rows for x in r)))


@given(mixed_order_homs())
@example(GroupHom(FinAbGroup.cyclic(4), FinAbGroup.cyclic(2), IntMatrix.from_rows([[1]])))
@settings(max_examples=200, deadline=None)
def test_kernel_lattice_matches_brute_force(integer_hnf, f):
    # at most 12^3 source elements
    assert f.kernel_lattice() == brute_force_kernel_lattice(f, integer_hnf)
    ker, _ = subgroup_of(f.kernel_lattice(), f.source)
    img, _ = subgroup_of(f.image_lattice(), f.target)
    assert ker.order * img.order == f.source.order


# ---------------------------------------------------------------------------
# subgroup enumeration


# frozen: closure-based enumeration counts
KNOWN_COUNTS = {
    (2, 1): 2,
    (4, 1): 3,
    (2, 2): 5,
    (3, 2): 6,
    (4, 2): 15,
    (2, 3): 16,
    (3, 3): 28,
}


@pytest.mark.parametrize("n,t", sorted(KNOWN_COUNTS))
def test_subgroup_counts(n, t, subgroups_by_closure):
    # the enumerator takes prime moduli only; at n = 4 the count pins
    # the closure walk that test_pushout runs over (Z/4)^2
    subs = subgroups_by_closure(n, t) if n == 4 else enumerate_subgroups(n, t)
    assert len(subs) == KNOWN_COUNTS[(n, t)]


@pytest.mark.parametrize("n,t", [(2, 2), (5, 2), (3, 2), (2, 3)])
def test_subgroups_distinct_and_closed(n, t):
    subs = enumerate_subgroups(n, t)
    seen = set()
    for gens in subs:
        elems = subgroup_elements(gens, n, t)
        assert elems not in seen
        seen.add(elems)
        for x in elems:
            for y in elems:
                assert tuple((a + b) % n for a, b in zip(x, y)) in elems


def test_subgroups_match_closure_oracle(subgroups_by_closure):
    """The row-reduced walk finds exactly the subgroups the naive closure
    walk finds."""
    for n, t in [(3, 2), (2, 3)]:
        mine = {subgroup_elements(gens, n, t) for gens in enumerate_subgroups(n, t)}
        assert mine == subgroups_by_closure(n, t), (n, t)


def test_subgroup_budget(monkeypatch):
    monkeypatch.delenv("CRYSTOR_ENUM_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(2, 17)


def test_subgroup_budget_env_override(monkeypatch):
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "8")
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(3, 2)
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "100")
    assert len(enumerate_subgroups(3, 2)) == 6
    # the environment is the only override: 16 elements and 67 subgroups
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "15")
    with pytest.raises(BudgetExceeded, match="elements"):
        enumerate_subgroups(2, 4)
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "66")
    with pytest.raises(BudgetExceeded, match="subgroups"):
        enumerate_subgroups(2, 4)
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "67")
    assert len(enumerate_subgroups(2, 4)) == 67


def test_subgroup_budget_counts_subgroups(monkeypatch):
    # (Z/2)^3 has 8 elements but 16 subgroups
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "15")
    with pytest.raises(BudgetExceeded, match="subgroups"):
        enumerate_subgroups(2, 3)
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "16")
    assert len(enumerate_subgroups(2, 3)) == 16


def test_no_library_function_takes_a_budget():
    import inspect

    from crystor import abelian, cli, crys, degen, kummer, pushout

    for module in (abelian, crys, degen, kummer, pushout, cli):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            assert "budget" not in inspect.signature(fn).parameters, name


def test_subgroup_budget_stops_z2_rank_nine(monkeypatch):
    # 512 elements pass the element budget, but its 8,283,458 subgroups
    # must not be listed: the subgroup count refuses before any walking
    import time

    monkeypatch.delenv("CRYSTOR_ENUM_BUDGET", raising=False)
    start = time.process_time()
    with pytest.raises(BudgetExceeded, match="subgroups"):
        enumerate_subgroups(2, 9)
    assert time.process_time() - start < 0.5


def test_subgroup_count_bound_is_exact_for_prime_moduli():
    for n, t in [(2, 1), (2, 4), (2, 6), (3, 3), (3, 4), (5, 3), (7, 2), (11, 2)]:
        assert subgroup_count_bound(n, t) == len(enumerate_subgroups(n, t)), (n, t)


def test_diagonal_rows():
    assert diagonal_rows([2, 3]) == [[2, 0], [0, 3]]
    assert diagonal_rows(()) == []


@pytest.mark.parametrize("raw", ["abc", "-5", "0"])
def test_subgroup_budget_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", raw)
    with pytest.raises(BadInput, match="CRYSTOR_ENUM_BUDGET"):
        enumerate_subgroups(2, 2)


def test_subgroup_bad_modulus():
    for n in (1, 4, 6, 9, 15):
        with pytest.raises(BadModulus, match="prime"):
            enumerate_subgroups(n, 2)


# ---------------------------------------------------------------------------
# lattice helpers


def test_hnf_canonical():
    a = hnf_rows([[2, 1], [0, 3]], (6, 6))
    b = hnf_rows([[2, 4], [0, 3]], (6, 6))
    assert a == b == [[2, 1], [0, 3]]  # same lattice, same canonical basis


@st.composite
def subgroup_lattices(draw):
    """Up to 8 rows with entries in [-50, 50] in Z^d, d <= 7, next to
    orders that are all equal, mixed, or mostly units."""
    d = draw(st.integers(0, 7))
    orders = draw(st.one_of(
        st.sampled_from([2, 3, 4, 6, 8, 9, 12, 25, 27]).map(lambda e: (e,) * d),
        st.lists(st.integers(1, 16), min_size=d, max_size=d).map(tuple),
        st.lists(st.sampled_from([1, 1, 1, 2, 3, 4]), min_size=d, max_size=d)
        .map(tuple),
    ))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=d, max_size=d),
                         max_size=8))
    return rows, orders


@given(subgroup_lattices())
@example(([[1, 1]], (2, 2)))
@example(([], (4, 1, 6)))
@settings(max_examples=300, deadline=None)
def test_hnf_modulo_the_orders_matches_the_integer_form(integer_hnf, case):
    rows, orders = case
    d = len(orders)
    basis = hnf_rows(rows, orders)
    assert basis == integer_hnf(rows + diagonal_rows(orders), d)
    assert all(e % row[i] == 0 for i, (row, e) in enumerate(zip(basis, orders)))


def test_unimodular_inverse():
    """For a unimodular m the Smith form over Z/n has a diagonal of units
    (no sign is flipped, so -1 stays n - 1), and m^-1 = V D^-1 U modulo
    n; the same pass returns Vinv = V^-1 modulo n."""
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    n = 7
    r = smith_normal_form(m, n)
    ident = IntMatrix.identity(2)
    assert r.D.as_rows() == ((1, 0), (0, n - 1)) and r.orders(n) == (1, 1)
    d_inv = IntMatrix.from_rows(
        diagonal_rows([pow(r.D.entry(i, i), -1, n) for i in range(2)]))
    inv = r.V.mul(d_inv).mul(r.U).mod(n)
    assert m.mul(inv).mod(n) == ident
    assert inv.mul(m).mod(n) == ident
    assert r.V.mul(r.Vinv).mod(n) == ident
    assert r.Vinv.mul(r.V).mod(n) == ident


def test_subgroup_canonical_equality():
    # <(1,1)> and <(3,3)> coincide inside (Z/4)^2
    def canonical(gens):
        return hnf_rows(gens, (4, 4))

    assert canonical([(1, 1)]) == canonical([(3, 3)])
    assert canonical([(1, 0)]) != canonical([(0, 1)])
