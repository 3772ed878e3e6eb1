"""Complete graphs as dual graphs of a totally degenerate reduction.

For a Jacobian with totally degenerate reduction, mu is the cycle
pairing of the dual graph G with edge lengths l: mu(c, c') = sum over
the edges e of l(e) c(e) c'(e), on a basis of H_1(G, Z).  Its cokernel,
the component group, is the critical group of G, and det mu counts the
spanning trees of G (Kirchhoff).  For K_n with unit lengths these are
(Z/n)^(n-2) and n^(n-2) (Cayley; Biggs, "Chip-firing and the critical
group of a graph", J. Algebraic Combin. 9, 1999).  At p | n the p-part
has rank n - 2 at t = (n-1)(n-2)/2, a non-cyclic shape that seeded
positive-definite draws rarely reach.
"""

import time
from itertools import combinations
from math import gcd, prod

import pytest

from crystor.abelian import FinAbGroup, IntMatrix
from crystor.crys import component_group, crys1_torsion, phi_formula_check
from crystor.degen import DegenerationData


def complete_graph_pairing(n: int) -> list[list[int]]:
    """mu of K_n with unit edge lengths, on the fundamental cycles of the
    star spanning tree at vertex 0: the chord {i, j} closes the cycle
    0 -> i -> j -> 0, which runs along the tree edge {0, i} and against
    the tree edge {0, j}."""
    cycles = [{(0, i): 1, (i, j): 1, (0, j): -1}
              for i, j in combinations(range(1, n), 2)]
    return [[sum(c.get(e, 0) * x for e, x in d.items()) for d in cycles]
            for c in cycles]


def complete_graph_data(n: int, p: int) -> DegenerationData:
    return DegenerationData(p, IntMatrix.from_rows(complete_graph_pairing(n)))


def test_complete_graph_pairing_of_k4():
    # K_4: three triangles through vertex 0, any two sharing one tree edge
    assert complete_graph_pairing(4) == [[3, 1, -1], [1, 3, 1], [-1, 1, 3]]


# (n, a prime dividing n, a prime not dividing n)
COMPLETE_GRAPHS = [(4, 2, 3), (5, 5, 2), (6, 3, 5), (7, 7, 2), (8, 2, 3),
                   (9, 3, 2), (10, 5, 3)]
# (n, a prime dividing n): t = 45 to 120, p-parts of rank 9 to 15
LARGE_COMPLETE_GRAPHS = [(11, 11), (12, 3), (13, 13), (14, 7), (15, 5), (16, 2),
                         (17, 17)]


@pytest.mark.parametrize("n, p", [(n, p) for n, *ps in COMPLETE_GRAPHS for p in ps]
                         + LARGE_COMPLETE_GRAPHS)
def test_complete_graph_closed_forms(n, p):
    data = complete_graph_data(n, p)
    assert data.t == (n - 1) * (n - 2) // 2
    assert data.determinant == n ** (n - 2)
    assert component_group(data) == FinAbGroup.of_orders((n,) * (n - 2))
    for m in (1, 2):
        quotient, agrees = phi_formula_check(data, m)
        assert agrees, (n, p, m)
        assert quotient == FinAbGroup.of_orders((gcd(n, p**m),) * (n - 2))


def test_crys1_lattice_of_k13_at_13_is_bounded():
    # the lattice contains 13 Z^132 and its Hermite form works modulo 13;
    # over Z without a bound this one took several seconds
    rep = crys1_torsion(complete_graph_data(13, 13), 1)
    start = time.process_time()
    basis = rep.lattice()
    assert time.process_time() - start < 2.0
    pivots = prod(row[i] for i, row in enumerate(basis))
    assert pivots * rep.group.order == 13 ** (2 * rep.t)
