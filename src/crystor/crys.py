"""Maximal 1-crystalline torsion submodules and component groups.

Coordinates throughout: the p^m-torsion of the uniformized variety is
(Z/p^m)^{2t} on the basis x_1..x_t (multiplicative part, first t
coordinates) followed by y_1..y_t (etale lifts).  The maximal
1-crystalline submodule always contains the x-span; its y-part is the
kernel of the monodromy pairing mod p^m, and the quotient by the x-span
recovers the p^m-torsion of the component group.

Each input gets two decompositions of mu, cached on the degeneration
data and computed independently of each other:

- ``data.local``, the Smith form of mu over Z/p^k, k = v_p(det mu) + 1.
  Every level's maximal submodule is read off it in O(t^2): the kernel
  of mu mod p^m is spanned by p^(m - min(v_i, m)) V_i.  No Kummer or
  extension class is built on the way.  pushout.star_pullback reaches
  the same kernel through a generic Smith form, dressed as a category
  object; the verify subcommand compares the two at every level.
- ``data.invariants``, the invariant factors of mu by elimination
  modulo det mu.  The component group and all of its p^m-torsion levels
  are read off them.

The checks compare deliberately independent routes: the crys1 quotient
by the toric part against the component-group torsion (the invariant
factors) in phi_formula_check and at every level of les_report.  The
quotient's type comes from a second Smith form over Z/p^m, of the
crys1 y-generators themselves, not from the valuations of
``data.local``.  The other routes are the crys1 route against
brute-force evaluation of mu on every etale vector in oracle_crys1
(one column of mu at a time, the span grown one generator at a time),
and, for the derived-functor torsion in r1crys1_tors and les_report,
the stable group of the level tower, read off the valuations of
``data.local``, against the p-primary part of the component group,
read off ``data.invariants``.  Disagreement between routes is a bug,
never tolerance: it raises RouteDisagreement or is reported as a
failed check.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import gcd

from .abelian import (
    FinAbGroup,
    IntMatrix,
    extend_span,
    hnf_rows,
    local_smith,
    n_torsion,
    p_primary_part,
    p_valuation,
    require_element_budget,
    require_prime,
)
from .degen import DegenerationData, level_modulus
from .errors import BadInput, NotStabilized, RouteDisagreement
from .record import Record, set_field


class Crys1Report(Record):
    """Generators and structure of the maximal 1-crystalline submodule.

    ``generators`` are coordinate vectors of length 2t (x-part then
    y-part); ``generator_orders`` aligns with them, so the x-basis
    contributes t generators of order n up front.  Reports of one rank
    t share their x-basis tuples (the same objects, from _x_lifts), and
    recent equal y-generators and ``generator_orders`` are shared too,
    across inputs and across the two routes.
    """

    __slots__ = _fields = ("n", "t", "generators", "generator_orders", "group",
                           "is_full")

    def __init__(self, n: int, t: int, generators: tuple[tuple[int, ...], ...],
                 generator_orders: tuple[int, ...], group: FinAbGroup,
                 is_full: bool):
        set_field(self, "n", n)
        set_field(self, "t", t)
        set_field(self, "generators", generators)
        set_field(self, "generator_orders", generator_orders)
        set_field(self, "group", group)
        set_field(self, "is_full", is_full)

    @property
    def ambient_order(self) -> int:
        return self.n ** (2 * self.t)

    def lattice(self):
        """Canonical HNF basis of the subgroup's lattice in Z^{2t}."""
        return hnf_rows(self.generators, (self.n,) * (2 * self.t))

    def describe(self) -> str:
        if not self.generator_orders:
            return "trivial"
        return " ⊕ ".join(f"Z/{d}" for d in self.generator_orders)


@lru_cache(maxsize=32)
def _x_lifts(t: int) -> tuple[tuple[int, ...], ...]:
    """The t unit vectors x_1..x_t of Z^{2t}, built once per rank."""
    return tuple((0,) * i + (1,) + (0,) * (2 * t - i - 1) for i in range(t))


# y-generators and generator orders recur across inputs and across the
# two routes; a caller that keeps many reports then holds one shared
# tuple per recent value
_shared_lift = lru_cache(maxsize=1024)(tuple)
_shared_orders = lru_cache(maxsize=256)(tuple)


def _y_lift(t: int, vec, n: int) -> tuple[int, ...]:
    """The etale vector ``vec`` mod n as a generator of length 2t."""
    return _shared_lift((0,) * t + tuple(x % n for x in vec))


def crys1_torsion(data: DegenerationData, m: int) -> Crys1Report:
    """Maximal 1-crystalline submodule of the p^m-torsion: the x-span
    plus the lifts of the kernel of the monodromy mu mod p^m, read off
    the local Smith form of mu; y-generators come in increasing order,
    ties by column of V."""
    data.validate()
    n = level_modulus(data.p, m)
    t = data.t
    ker, ys = data.local.kernel(m)
    gens = _x_lifts(t) + tuple(_y_lift(t, g, n) for g in ys)
    orders = _shared_orders((n,) * t + ker.invariant_factors)
    group = FinAbGroup.of_orders(orders)
    is_full = all(x % n == 0 for x in data.mu.entries)
    return Crys1Report(n, t, gens, orders, group, is_full)


def oracle_crys1(data: DegenerationData, m: int) -> Crys1Report:
    """Brute-force route: evaluate the monodromy on every etale vector.

    The maximal submodule is the x-span plus the lifts of every etale
    vector v that mu mod p^m kills.  The images mu v mod n of the vectors
    over the first t - 1 coordinates are built one column of mu at a
    time, in ``product`` order; each is then tested against the n
    multiples of the last column, a step that is streamed, so no list of
    n^t images is held.  Each killed vector outside the span so far is
    picked as a generator, and the span grows by that one generator
    (abelian.extend_span).  The abstract type of the resulting y-part is
    read off by counting p^k-torsion elements and the generator orders
    by gcds, so no Smith or Hermite form is shared with the direct
    route.  Raises BudgetExceeded when n^t exceeds enum_budget(), which
    CRYSTOR_ENUM_BUDGET sets, and RouteDisagreement when the span's
    torsion counts are not powers of p.
    """
    data.validate()
    p, t = data.p, data.t
    n = level_modulus(p, m)
    require_element_budget(n, t)

    cols = data.mu.as_rows()  # mu is symmetric: its rows are its columns
    images = [(0,) * t]
    for col in cols[:-1]:
        steps = _column_multiples(col, n)
        images = [_add_mod(img, step, n) for img in images for step in steps]
    last = _column_multiples(cols[-1], n)
    zero = (0,) * t

    picked: list[tuple[int, ...]] = []
    current = frozenset({zero})
    for head, img in zip(product(range(n), repeat=t - 1), images):
        for k, step in enumerate(last):
            if _add_mod(img, step, n) == zero:
                vec = head + (k,)
                if vec not in current:
                    picked.append(vec)
                    current = extend_span(current, vec, n)
    del images  # before the pass over the span

    orders_y = _type_by_torsion_count(current, n, p, m)
    gens = _x_lifts(t) + tuple(_y_lift(t, g, n) for g in picked)
    gen_orders = _shared_orders((n,) * t + tuple(n // gcd(n, *g) for g in picked))
    group = FinAbGroup.of_orders((n,) * t + orders_y)
    return Crys1Report(n, t, gens, gen_orders, group, len(current) == n**t)


def _column_multiples(col, n: int) -> list[tuple[int, ...]]:
    """k * col mod n for k = 0..n-1."""
    return [tuple([k * c % n for c in col]) for k in range(n)]


def _add_mod(a, b, n: int) -> tuple[int, ...]:
    """a + b mod n, coordinatewise."""
    return tuple([(x + y) % n for x, y in zip(a, b)])


def _type_by_torsion_count(elements, n: int, p: int, m: int) -> tuple[int, ...]:
    """Invariant factors of a subgroup of (Z/n)^t from its p^k-torsion
    counts: lambda_k = log_p #S[p^k] has increments counting the cyclic
    factors of order at least p^k.  One pass over the elements makes a
    histogram of their orders n / gcd(n, e); #S[p^k] is the number of
    elements whose order divides p^k.  A count that is not a power of p
    means the elements are not a subgroup: RouteDisagreement."""
    by_order = Counter(n // gcd(n, *e) for e in elements)
    lam = []
    for k in range(m + 1):
        pk = p**k
        count = sum(c for o, c in by_order.items() if pk % o == 0)
        exponent = 0
        while p ** (exponent + 1) <= count:
            exponent += 1
        if p**exponent != count:
            raise RouteDisagreement(
                f"oracle span's {p}^{k}-torsion count is not a power of {p}",
                count, p**exponent)
        lam.append(exponent)
    delta = [lam[k] - lam[k - 1] for k in range(1, m + 1)] + [0]
    orders = []
    for k in range(1, m + 1):
        orders.extend([p**k] * (delta[k - 1] - delta[k]))
    return tuple(orders)


# ---------------------------------------------------------------------------
# component groups


def component_group(data: DegenerationData) -> FinAbGroup:
    """Cokernel of the monodromy pairing, read off the cached invariant
    factors of mu; a validated mu is positive definite, so none is 0."""
    data.validate()
    return FinAbGroup.of_orders(data.invariants)


def phi_n(data: DegenerationData, m: int) -> FinAbGroup:
    """p^m-torsion of the component group, read off the cached invariant
    factors of mu."""
    data.validate()
    n = level_modulus(data.p, m)
    return n_torsion(component_group(data), n)


def _toric_quotient(rep: Crys1Report, p: int, m: int) -> FinAbGroup:
    """The maximal submodule modulo its toric part.

    The x-span is a direct summand of the submodule, so the quotient is
    the subgroup of (Z/p^m)^t spanned by the y-parts of the generators
    past the x-basis.  Its type is read off the Smith form over Z/p^m of
    those y-parts, padded with zero rows to t x t (a crys1 report has
    at most t of them): a valuation v contributes Z/p^(m - v).  This is
    a Smith form of the generators, not of mu, so the check never
    reuses the valuations of ``data.local``.
    """
    t = rep.t
    ys = [list(g[t:]) for g in rep.generators[t:]]
    if not ys:
        return FinAbGroup.trivial()
    rows = ys + [[0] * t] * (t - len(ys))
    loc = local_smith(IntMatrix.from_rows(rows), p, m)
    return FinAbGroup.of_orders(p ** (m - v) for v in loc.valuations)


def phi_formula_check(data: DegenerationData, m: int) -> tuple[FinAbGroup, bool]:
    """Quotient of the maximal submodule by the x-span, compared with
    the p^m-torsion of the component group."""
    quotient = _toric_quotient(crys1_torsion(data, m), data.p, m)
    return quotient, quotient == phi_n(data, m)


# ---------------------------------------------------------------------------
# stabilization in the level


def _stabilized_phi(data: DegenerationData, cap: int) -> tuple[FinAbGroup, int]:
    """The stable group of the level tower and the first level m with
    phi_m == phi_{m+1}, read off the local Smith form of mu.

    Over Z_(p), mu has Smith form diag(p^{v_1}, ..., p^{v_t}), so
    Phi[p^m] has factors p^min(v_i, m).  Phi[p^m] and Phi[p^(m+1)]
    differ exactly when some v_i > m, so the tower grows until
    m = max v_i and is constant from there on: it stabilizes at
    s = max(1, max v_i), on the sum of the Z/p^{v_i}.  Seeing the repeat
    takes levels s and s + 1, so a cap below s + 1 raises NotStabilized
    with every level up to the cap grown, and a cap below 2 is bad
    input.
    """
    if cap < 2:
        raise BadInput(f"the cap must be at least 2, got {cap}: "
                       "stabilization compares levels m and m + 1")
    vals = data.local.valuations
    level = max(1, *vals)
    if level + 1 > cap:
        raise NotStabilized(cap, cap)
    return FinAbGroup.of_orders(data.p**v for v in vals), level


def r1crys1_tors(data: DegenerationData, cap: int = 12) -> FinAbGroup:
    """Torsion of the first derived functor on the Tate module: the
    stable group of the level tower, read off the local Smith form of
    mu, which must equal the p-primary part of the component group,
    read off the invariant factors of mu; RouteDisagreement otherwise."""
    stable, _ = _stabilized_phi(data, cap)
    primary = p_primary_part(component_group(data), data.p)
    if stable != primary:
        raise RouteDisagreement(
            "stabilized chain disagrees with the p-primary part",
            stable, primary)
    return stable


# ---------------------------------------------------------------------------
# Tate module


class TateReport(Record):
    """Free part of the maximal 1-crystalline submodule of the Tate
    module, plus the top-level evidence that its y-parts die."""

    __slots__ = _fields = ("rank", "weight", "levels_checked", "y_part_vanishes")

    def __init__(self, rank: int, weight: int, levels_checked: int,
                 y_part_vanishes: bool):
        set_field(self, "rank", rank)
        set_field(self, "weight", weight)
        set_field(self, "levels_checked", levels_checked)
        set_field(self, "y_part_vanishes", y_part_vanishes)


def crys1_tate_module(data: DegenerationData) -> TateReport:
    """Rank-t free module of twist weight 1.

    Checks that the y-parts die at level m_top = max(6, v + 1), p^v the
    component group's p-exponent: the level-m_top kernel of mu is
    spanned by p^(m_top - v_i) V_i, so p divides every y-generator
    exactly when every local valuation v_i is below m_top (a column of
    the invertible V is never 0 mod p).
    """
    data.validate()
    p, t = data.p, data.t
    v_max = p_valuation(component_group(data).exponent(), p)
    m_top = max(6, v_max + 1)
    top = crys1_torsion(data, m_top)
    y_dead = all(x % p == 0 for g in top.generators for x in g[t:])
    return TateReport(t, 1, m_top, y_dead)


# ---------------------------------------------------------------------------
# the long exact sequence at finite level


class LevelExactness(Record):
    """Exactness evidence for 0 -> (Z/p^m)^t -> Crys1 -> Phi[p^m] -> 0.

    The first map is injective and the composite zero by construction
    (the x-basis is among crys1's generators and spans the toric part),
    so only the two comparisons with Phi[p^m] are recorded.
    """

    __slots__ = _fields = ("m", "orders_match", "surjective")

    def __init__(self, m: int, orders_match: bool, surjective: bool):
        set_field(self, "m", m)
        set_field(self, "orders_match", orders_match)
        set_field(self, "surjective", surjective)

    def ok(self) -> bool:
        return self.orders_match and self.surjective


# a few values recur across inputs, and a caller that keeps many
# reports then holds one shared instance of each
_level_exactness = lru_cache(maxsize=256)(LevelExactness)


class LesReport(Record):
    """Finite-level truncation of the long exact sequence of the
    maximal-submodule functor on the Tate module.  les_report hands out
    one instance per recent value, so equal reports of different inputs
    are the same object."""

    __slots__ = _fields = ("cap", "stabilized_at", "tate_rank", "rational_rank",
                           "divisible_rank", "colimit_torsion", "r1_torsion",
                           "levels", "exact")

    def __init__(self, cap: int, stabilized_at: int, tate_rank: int,
                 rational_rank: int, divisible_rank: int,
                 colimit_torsion: FinAbGroup, r1_torsion: FinAbGroup,
                 levels: tuple[LevelExactness, ...], exact: bool):
        set_field(self, "cap", cap)
        set_field(self, "stabilized_at", stabilized_at)
        set_field(self, "tate_rank", tate_rank)
        set_field(self, "rational_rank", rational_rank)
        set_field(self, "divisible_rank", divisible_rank)
        set_field(self, "colimit_torsion", colimit_torsion)
        set_field(self, "r1_torsion", r1_torsion)
        set_field(self, "levels", levels)
        set_field(self, "exact", exact)


# equal reports recur across inputs with the same p-primary structure
_shared_les = lru_cache(maxsize=256)(LesReport)


def les_report(data: DegenerationData, cap: int = 12) -> LesReport:
    """Per-level exactness through the crys1 route, and the stable group
    of the level tower (the local Smith form of mu) against the p-primary
    part of the component group (the invariant factors of mu); a failed
    comparison is reported in ``exact``, not raised."""
    data.validate()
    t = data.t
    stable, stab_level = _stabilized_phi(data, cap)
    r1 = p_primary_part(component_group(data), data.p)

    levels = []
    for m in range(1, min(stab_level + 1, cap) + 1):
        rep = crys1_torsion(data, m)
        phi_m = phi_n(data, m)
        levels.append(_level_exactness(
            m,
            rep.group.order == rep.n**t * phi_m.order,
            _toric_quotient(rep, data.p, m) == phi_m,
        ))

    exact = all(l.ok() for l in levels) and stable == r1
    return _shared_les(
        cap=cap,
        stabilized_at=stab_level,
        tate_rank=t,
        rational_rank=t,
        divisible_rank=t,
        colimit_torsion=stable,
        r1_torsion=r1,
        levels=tuple(levels),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# rank-one closed form


def tate_closed_form(v: int, p: int, m: int) -> Crys1Report:
    """The rank-one answer in closed form.

    With w the p-adic valuation of v: everything for m <= w, else the
    multiplicative line plus p^{m-w} times the etale generator.
    """
    if v < 1:
        raise BadInput("the period valuation must be a positive integer")
    require_prime(p)
    n = level_modulus(p, m)
    w = p_valuation(v, p)
    if m <= w:
        gens = ((1, 0), (0, 1))
        orders = (n, n)
        full = True
    elif w > 0:
        gens = ((1, 0), (0, p ** (m - w)))
        orders = (n, p**w)
        full = False
    else:
        gens = ((1, 0),)
        orders = (n,)
        full = False
    return Crys1Report(n, 1, gens, orders, FinAbGroup.of_orders(orders), full)
