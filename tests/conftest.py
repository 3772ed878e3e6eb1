"""Shared fixtures: the randomized matrix corpus used by the
acceptance criteria, a closure walk over subgroups that needs no
enumerator, and independent references for Hermite forms and
invariant factors.

The corpus is seeded (override with CRYSTOR_TEST_SEED) and built once
per session.  Strict diagonal dominance with positive diagonal keeps
every draw symmetric positive definite without a definiteness search.
"""

import itertools
import os
import random

import pytest

from crystor.abelian import IntMatrix
from crystor.degen import DegenerationData

DEFAULT_SEED = 20260821
MAX_ENTRY = 20

# how many matrices of each rank; 210 total
RANK_COUNTS = {1: 50, 2: 60, 3: 60, 4: 40}
PRIMES = (2, 3, 5)


def _random_spd(rng: random.Random, t: int) -> IntMatrix:
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    for i in range(t):
        slack = sum(abs(rows[i][j]) for j in range(t) if j != i)
        rows[i][i] = slack + rng.randint(1, MAX_ENTRY - slack)
    return IntMatrix.from_rows(rows)


@pytest.fixture(scope="session")
def matrix_corpus() -> list[DegenerationData]:
    seed = int(os.environ.get("CRYSTOR_TEST_SEED", DEFAULT_SEED))
    rng = random.Random(seed)
    corpus = []
    for t, count in RANK_COUNTS.items():
        for k in range(count):
            p = PRIMES[k % len(PRIMES)]
            if t == 1:
                # sweep small valuations deliberately, then random ones
                v = k % MAX_ENTRY + 1
                mu = IntMatrix.from_rows([[v]])
            else:
                mu = _random_spd(rng, t)
            corpus.append(DegenerationData(p, mu))
    return corpus


def _close(gens, n: int, t: int) -> frozenset:
    elems = {(0,) * t}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        fresh = {tuple((a + b) % n for a, b in zip(e, g)) for e in elems} - elems
        elems |= fresh
        frontier.extend(fresh)
    while True:
        more = {tuple((a + b) % n for a, b in zip(x, y))
                for x in elems for y in elems} - elems
        if not more:
            return frozenset(elems)
        elems |= more


def _subgroups_by_closure(n: int, t: int) -> set[frozenset]:
    elements = list(itertools.product(range(n), repeat=t))
    brute = {_close([], n, t)}
    frontier = list(brute)
    while frontier:
        s = frontier.pop()
        for g in elements:
            if g not in s:
                bigger = _close(list(s) + [g], n, t)
                if bigger not in brute:
                    brute.add(bigger)
                    frontier.append(bigger)
    return brute


@pytest.fixture(scope="session")
def subgroups_by_closure():
    """Every subgroup of (Z/n)^t, for any n >= 2, as its set of
    elements: start from {0} and keep adding one element and closing
    under addition, until no new subgroup turns up."""
    return _subgroups_by_closure


def _integer_hnf_rows(rows, dim: int):
    """Canonical row HNF of the lattice spanned by ``rows`` in Z^dim, by
    Euclid over Z with no modulus: the reference for crystor's
    hnf_rows, which works modulo the orders' lcm.  Returns the nonzero
    basis rows by increasing pivot column."""
    work = [list(r) for r in rows]
    basis = []
    for col in range(dim):
        carrier = None
        rest = []
        for r in work:
            if r[col] == 0:
                rest.append(r)
                continue
            if carrier is None:
                carrier = r
                continue
            while r[col]:
                q = carrier[col] // r[col]
                if q:
                    for t in range(dim):
                        carrier[t] -= q * r[t]
                carrier, r = r, carrier
            rest.append(r)
        work = rest
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            basis.append(carrier)
    for idx, row in enumerate(basis):
        pivot_col = next(c for c in range(dim) if row[c])
        for above in basis[:idx]:
            q = above[pivot_col] // row[pivot_col]
            if q:
                for t in range(dim):
                    above[t] -= q * row[t]
    return basis


@pytest.fixture(scope="session")
def integer_hnf():
    """The integer Hermite form ``integer_hnf(rows, dim)``, independent
    of the code under test."""
    return _integer_hnf_rows


def _sympy_invariant_factors(rows) -> tuple[int, ...]:
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    return tuple(int(d) for d in invariant_factors(Matrix(rows), domain=ZZ))


@pytest.fixture(scope="session")
def sympy_invariant_factors():
    """The integer Smith form's diagonal ``sympy_invariant_factors(rows)``,
    min(rows, cols) factors with a zero for each missing rank, taken from
    sympy, independent of the code under test."""
    return _sympy_invariant_factors
