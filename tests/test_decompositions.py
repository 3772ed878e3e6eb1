"""The two cached decompositions of mu against independent routes.

``invariants`` (elimination modulo det mu) is checked against sympy's
integer Smith form, ``local`` (the Smith form over Z/p^k)
against the kernel of mu mod p^m from kernel_mod_n's Smith form of the
reduced matrix over Z/p^m, and both, at ranks up to 32, against the
order law #crys1(p^m) = p^(mt) * prod gcd(d_i, p^m).
"""

import random
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from crystor.abelian import (
    IntMatrix,
    diagonal_rows,
    hnf_rows,
    invariant_factors_mod_det,
    kernel_mod_n,
    local_smith,
    p_valuation,
)
from crystor.crys import crys1_torsion, phi_formula_check
from crystor.degen import DegenerationData


def spd_rows(rng, t, bound):
    """Symmetric and strictly diagonally dominant, so positive definite;
    every entry is at most t * bound in absolute value."""
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    for i in range(t):
        rows[i][i] = sum(abs(x) for x in rows[i]) + rng.randint(1, bound)
    return rows


def congruent_rows(rng, t, p, top):
    """U^T diag(s) U with U unimodular and s_i = p^e * c, e in 0..top and
    c prime to p: cokernels with deep p-parts."""
    s = [p ** rng.randint(0, top) * rng.choice((1, 2) if p != 2 else (1, 3))
         for _ in range(t)]
    u = diagonal_rows((1,) * t)
    for _ in range(t):
        if t > 1:
            i, j = rng.sample(range(t), 2)
            u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    return [[sum(u[k][i] * s[k] * u[k][j] for k in range(t)) for j in range(t)]
            for i in range(t)]


def canonical(gens, n, t):
    return hnf_rows(gens, (n,) * t)


# --- invariant factors modulo the determinant --------------------------


def test_invariants_match_the_integer_smith_form(sympy_invariant_factors):
    rng = random.Random(41)
    for t in range(1, 21):
        for rows in (spd_rows(rng, t, 9), congruent_rows(rng, t, 3, 3)):
            mu = IntMatrix.from_rows(rows)
            data = DegenerationData(3, mu)
            assert data.invariants == sympy_invariant_factors(rows), rows


def test_invariants_match_sympy(sympy_invariant_factors):
    rng = random.Random(43)
    for t in range(1, 13):
        for p in (2, 5):
            for rows in (spd_rows(rng, t, 10**6 // t), congruent_rows(rng, t, p, 4)):
                data = DegenerationData(p, IntMatrix.from_rows(rows))
                assert data.invariants == sympy_invariant_factors(rows), rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda t: st.lists(st.integers(-30, 30), min_size=t * t, max_size=t * t)
    .map(lambda xs: IntMatrix(t, t, tuple(xs)))))
def test_invariants_of_any_nonsingular_matrix(sympy_invariant_factors, m):
    det = abs(m.det())
    if det == 0:
        return
    assert invariant_factors_mod_det(m, det) == sympy_invariant_factors(m.as_rows())


# --- the local Smith form ---------------------------------------------


def test_local_kernel_matches_the_generic_route():
    rng = random.Random(47)
    for t in range(1, 17):
        for p in (2, 3, 5):
            for rows in (spd_rows(rng, t, 9), congruent_rows(rng, t, p, 4)):
                mu = IntMatrix.from_rows(rows)
                local = DegenerationData(p, mu).local
                for m in range(1, 7):
                    n = p**m
                    group, gens = local.kernel(m)
                    generic, generic_gens = kernel_mod_n(mu.mod(n), n)
                    assert group == generic, (rows, p, m)
                    assert canonical(gens, n, t) == canonical(generic_gens, n, t)


def test_local_valuations_sum_to_the_determinant():
    rng = random.Random(53)
    for t in range(1, 13):
        rows = congruent_rows(rng, t, 2, 5)
        data = DegenerationData(2, IntMatrix.from_rows(rows))
        local = data.local
        assert sum(local.valuations) == p_valuation(data.determinant, 2)
        assert all(v < local.k for v in local.valuations)


def test_local_smith_at_low_precision_marks_vanishing_columns():
    loc = local_smith(IntMatrix.from_rows([[4, 0], [0, 1]]), 2, 2)
    assert loc.valuations == (0, 2)
    group, gens = loc.kernel(2)
    assert str(group) == "Z/4" and gens == ((1, 0),)


# --- scale: ranks up to 32, entries up to about 10^6 -------------------


@st.composite
def large_inputs(draw):
    t = draw(st.integers(1, 32))
    p = draw(st.sampled_from([2, 3, 5]))
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    if draw(st.booleans()):
        rows = spd_rows(rng, t, max(1, 10**6 // (2 * t)))
    else:
        rows = congruent_rows(rng, t, p, 3)
    return p, rows


@settings(max_examples=25, deadline=5000)
@given(large_inputs())
def test_order_law_at_scale(sympy_invariant_factors, case):
    p, rows = case
    data = DegenerationData(p, IntMatrix.from_rows(rows))
    t = data.t
    assert prod(data.invariants) == data.determinant
    for m in range(1, 7):
        n = p**m
        expected = p ** (m * t) * prod(gcd(d, n) for d in data.invariants)
        assert crys1_torsion(data, m).group.order == expected
        assert phi_formula_check(data, m)[1]
    if t <= 12:
        assert data.invariants == sympy_invariant_factors(rows)
        for m in (1, 3, 6):
            n = p**m
            assert data.local.kernel(m)[0] == kernel_mod_n(data.mu.mod(n), n)[0]
