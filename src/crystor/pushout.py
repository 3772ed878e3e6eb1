"""The category of prolongable extensions with monodromy.

An object is a pair (eta_ok, nu): a 1-crystalline extension class (all
valuations vanish, so the class prolongs over the ring of integers)
together with a monodromy map nu from the etale part (Tate-twisted) to
the multiplicative part.  A morphism is a pair of maps on the two parts
whose square against the monodromies commutes.

The two constructions here are the monodromy pushout, which converts nu
back into a pure-valuation extension class, and the star pullback, which
restricts the etale part to the kernel of nu.  The pushout's middle term
is computed twice on purpose: once as an abstract class (the underlying
group of a cocycle extension is the direct sum of the two parts) and
once from the explicit generators-and-relations presentation; the two
must agree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm

from .abelian import FinAbGroup, IntMatrix, diagonal_rows
from .degen import DegenerationData, raynaud_decompose
from .errors import BadInput, NotAMorphism, RouteDisagreement, ShapeMismatch
from .kummer import ExtClass, KummerClass, is_one_crystalline
from .presentation import GroupHom, hnf_rows, is_exact, kernel_mod_n, smith_normal_form
from .record import Record, set_field


class ExtNuObject(Record):
    """(prolongable class, monodromy map).

    The group structure of the two parts rides on ``nu``: its source is
    the etale part, its target the multiplicative part.  Both exponents
    must divide the level n.
    """

    __slots__ = _fields = ("n", "eta_ok", "nu")

    def __post_init__(self):
        if self.eta_ok.n != self.n:
            raise ShapeMismatch("class level disagrees with object level")
        if self.nu.source.rank != self.eta_ok.etale_rank:
            raise ShapeMismatch("monodromy source rank disagrees with etale rank")
        if self.nu.target.rank != self.eta_ok.mult_rank:
            raise ShapeMismatch(
                "monodromy target rank disagrees with multiplicative rank"
            )
        for part in (self.nu.source, self.nu.target):
            if not part.is_trivial() and self.n % part.exponent():
                raise ShapeMismatch("part exponent must divide the level")
        if not is_one_crystalline(self.eta_ok):
            raise BadInput("prolongable part must have vanishing valuations")

    @property
    def mult_rank(self) -> int:
        return self.eta_ok.mult_rank

    @property
    def etale_rank(self) -> int:
        return self.eta_ok.etale_rank

    @property
    def mult_group(self) -> FinAbGroup:
        return self.nu.target

    @property
    def etale_group(self) -> FinAbGroup:
        return self.nu.source

    def etale_is_free(self) -> bool:
        return self.etale_group.invariant_factors == (self.n,) * self.etale_rank


def degeneration_object(data: DegenerationData, m: int) -> ExtNuObject:
    """The canonical object of degeneration data at level p^m: the Raynaud
    unit part of the torsion class plus the monodromy mu mod p^m."""
    eta1, nu = raynaud_decompose(data, m)
    return ExtNuObject(eta1.n, eta1, nu)


# ---------------------------------------------------------------------------
# presented modules


class PresentedModule(Record):
    """Finitely presented finite abelian group: generator j has order
    ``orders[j]``, and each row of ``relations`` is one more relation.

    Every order divides n = lcm(orders), so the Smith form U * R * V = D
    modulo n of the relation matrix gives the derived basis, a factor
    Z/gcd(d_j, n) per column.  Only the factors above 1 are kept, with
    their columns of V (a generator combination's coordinate is its
    product with the column, mod the factor) and their rows of V^-1 (the
    basis element in generators), both as (index, value) pairs of their
    nonzero entries.  So homomorphisms given on generators are
    transported to GroupHoms between the derived groups at a cost that
    grows with those entries.

    Only ``orders`` and ``relations`` are fields; ``group``, ``_coords``
    (the kept V columns by generator: entry i holds (k, V[i][j]), j kept
    k-th) and ``_lifts`` are derived from them.
    """

    _fields = ("orders", "relations")
    __slots__ = _fields + ("group", "_coords", "_lifts")

    _defaults = {"relations": ()}

    def __post_init__(self):
        if any(o < 1 for o in self.orders):
            raise BadInput("presentation has an infinite quotient")
        n = lcm(*self.orders)
        # the relations go first: their unit entries make the first pivots
        rows = [*self.relations, *diagonal_rows(self.orders)]
        snf = smith_normal_form(IntMatrix.from_rows(rows), n)
        factors = snf.orders(n)
        kept = [j for j, d in enumerate(factors) if d > 1]
        set_field(self, "group", FinAbGroup.of_orders(factors))
        set_field(self, "_coords", tuple(
            _nonzero(snf.V.entry(i, j) for j in kept) for i in range(snf.V.rows)))
        set_field(self, "_lifts", tuple(_nonzero(snf.Vinv.row(j)) for j in kept))

    def coords(self, vec) -> tuple[int, ...]:
        """Invariant-factor coordinates of an integer generator combination."""
        if len(vec) != len(self.orders):
            raise ShapeMismatch("vector length disagrees with generator count")
        acc = [0] * self.group.rank
        for x, pairs in zip(vec, self._coords):
            if x:
                for k, y in pairs:
                    acc[k] += x * y
        return tuple(c % d for c, d in zip(acc, self.group.invariant_factors))

    def hom_to(self, other: "PresentedModule", gen_map: IntMatrix) -> GroupHom:
        """Transport a generator-level map (column j = image of our
        generator j in other's generators) to the derived groups.

        The caller must pass a map sending relations into relations;
        violations surface as order-respect failures.
        """
        if (gen_map.rows, gen_map.cols) != (len(other.orders), len(self.orders)):
            raise ShapeMismatch("generator map shape disagrees with presentations")
        rows = gen_map.as_rows()
        images = [other.coords([sum(x * row[j] for j, x in lift) for row in rows])
                  for lift in self._lifts]
        rank = other.group.rank
        matrix = IntMatrix(rank, len(images),
                           tuple(image[i] for i in range(rank) for image in images))
        return GroupHom(self.group, other.group, matrix)


def _nonzero(vec) -> tuple[tuple[int, int], ...]:
    return tuple((i, x) for i, x in enumerate(vec) if x)


# ---------------------------------------------------------------------------
# monodromy pushout


def middle_term_group(obj: ExtNuObject) -> FinAbGroup:
    """Underlying group of the extension middle term.  A cocycle class
    twists the Galois action only, so this is the direct sum of parts."""
    return obj.mult_group.direct_sum(obj.etale_group)


def mp_presentation(obj: ExtNuObject) -> PresentedModule:
    """Explicit presentation of the pushout's middle term.

    Generators are the columns, in the order a_1..a_r, b_1..b_r,
    c_1..c_s: a_j and b_j for the two standard coordinates of the
    rank-2 building block tensored with the j-th etale generator, and
    c_i for the multiplicative part.  Relations: each generator is
    killed by its part's order, and a_j is glued to nu of the j-th
    etale generator.  So the presentation reads nu alone.
    """
    return _nu_presentation(obj.nu)


@lru_cache(maxsize=8)
def _nu_presentation(nu: GroupHom) -> PresentedModule:
    """The presentation of every object with monodromy map nu.

    A few recent presentations are kept by value of nu, so equal objects
    (say the a (+) a that an inclusion and a projection each build)
    share one Smith form, and a lookup hashes nu but never the object's
    grid of Kummer classes.
    """
    r = nu.source.rank
    e = nu.source.invariant_factors
    o = nu.target.invariant_factors
    glue = [[int(k == j) for k in range(2 * r)] + [-x for x in nu.matrix.column(j)]
            for j in range(r)]
    return PresentedModule(e + e + o, glue)


def mp_pushout(obj: ExtNuObject) -> ExtClass:
    """Class of the monodromy pushout: pure valuations, matrix = nu.

    The generators-and-relations presentation is built alongside and its
    derived group checked against the class route's middle term.
    """
    presented = mp_presentation(obj).group
    by_class = middle_term_group(obj)
    if presented != by_class:
        raise RouteDisagreement(
            "presentation route disagrees with class route on the middle term",
            presented, by_class)
    return ExtClass.from_val_matrix(obj.n, obj.nu.matrix)


# ---------------------------------------------------------------------------
# star pullback


def star_pullback(
    obj: ExtNuObject,
) -> tuple[ExtNuObject, tuple[tuple[int, ...], ...]]:
    """Restrict to the kernel of the monodromy: (sub, generators).

    The pulled-back object has zero monodromy, so its generic fiber is
    1-crystalline; its etale part is ker(nu), and ``generators`` are
    the coordinates in obj's etale part of the kernel generators,
    aligned to ``sub.etale_group.invariant_factors``.
    """
    if not obj.etale_is_free():
        raise BadInput("star pullback expects a free etale part")
    group, gens = kernel_mod_n(obj.nu.matrix, obj.n)
    cols = [obj.eta_ok.column_combination(g) for g in gens]
    # with no kernel generators there are no columns to transpose
    kappa = tuple(zip(*cols)) or ((),) * obj.mult_rank
    eta = ExtClass(obj.n, obj.mult_rank, len(gens), kappa)
    sub = ExtNuObject(obj.n, eta, GroupHom.zero(group, obj.mult_group))
    return sub, gens


# ---------------------------------------------------------------------------
# morphisms and exactness


class ExtNuMorphism(Record):
    """Pair of part maps; the monodromy square is checked eagerly.  The
    part maps as GroupHoms, ``mult_hom`` and ``etale_hom``, are derived
    from the fields."""

    _fields = ("source", "target", "mult_map", "etale_map")
    __slots__ = _fields + ("mult_hom", "etale_hom")

    def __post_init__(self):
        if self.source.n != self.target.n:
            raise ShapeMismatch("morphism needs equal levels")
        mult_hom = GroupHom(self.source.mult_group, self.target.mult_group,
                            self.mult_map)
        etale_hom = GroupHom(self.source.etale_group, self.target.etale_group,
                             self.etale_map)
        set_field(self, "mult_hom", mult_hom)
        set_field(self, "etale_hom", etale_hom)
        if self.target.nu.compose(etale_hom) != mult_hom.compose(self.source.nu):
            raise NotAMorphism("monodromy square does not commute")

    @classmethod
    def identity(cls, obj: ExtNuObject) -> "ExtNuMorphism":
        return cls(obj, obj,
                   IntMatrix.identity(obj.mult_rank),
                   IntMatrix.identity(obj.etale_rank))

    def compose(self, inner: "ExtNuMorphism") -> "ExtNuMorphism":
        """self after inner."""
        if inner.target != self.source:
            raise ShapeMismatch("composition needs matching middle object")
        return ExtNuMorphism(
            inner.source, self.target,
            self.mult_map.mul(inner.mult_map),
            self.etale_map.mul(inner.etale_map),
        )


def mp_generator_map(mor: ExtNuMorphism) -> IntMatrix:
    """The morphism on pushout presentations: a and b follow the etale
    map, c follows the multiplicative map."""
    return _block_diagonal(mor.etale_map, mor.etale_map, mor.mult_map)


def mp_hom(mor: ExtNuMorphism) -> GroupHom:
    """Induced map on the pushout middle terms, via the presentations."""
    return mp_presentation(mor.source).hom_to(
        mp_presentation(mor.target), mp_generator_map(mor)
    )


def _is_ses(f: GroupHom, g: GroupHom) -> bool:
    # ker f is the lattice of the source's relations alone, im g all of Z^rank
    injective = f.kernel_lattice() == hnf_rows([], f.source.invariant_factors)
    surjective = g.image_lattice() == hnf_rows([], (1,) * g.target.rank)
    return injective and is_exact(f, g) and surjective


def check_mp_exactness(f: ExtNuMorphism, g: ExtNuMorphism) -> bool:
    """Whether 0 -> A -> B -> C -> 0 stays short exact under both the
    pushout and the generic-fiber functor.

    Computed twice: through the presented middle terms, and part by part
    on the two filtration pieces (the induced maps are block diagonal,
    so the generic-fiber middle decomposes).  The routes must agree.
    Each route decides all three conditions of a short exact triple as
    equalities of canonical lattices: ker f is the source's relation
    lattice, im f is ker g, and im g is the whole coordinate lattice.
    """
    if f.target != g.source:
        raise ShapeMismatch("the two morphisms do not chain")
    by_presentation = _is_ses(mp_hom(f), mp_hom(g))
    by_parts = _is_ses(f.mult_hom, g.mult_hom) and _is_ses(f.etale_hom, g.etale_hom)
    if by_presentation != by_parts:
        raise RouteDisagreement(
            "presentation route and componentwise route disagree",
            by_presentation, by_parts)
    return by_presentation


# ---------------------------------------------------------------------------
# direct sums, for building short exact triples


def _block_rows(blocks, zero) -> list[tuple]:
    """Rows of the block-diagonal matrix of ``blocks``, each a pair
    (rows, column count), with ``zero`` off the blocks.  The column
    counts keep the width right when a block has no rows."""
    width = sum(cols for _, cols in blocks)
    out, left = [], 0
    for rows, cols in blocks:
        before, after = (zero,) * left, (zero,) * (width - left - cols)
        out += [before + tuple(row) + after for row in rows]
        left += cols
    return out


def _block_diagonal(*mats: IntMatrix) -> IntMatrix:
    """diag(mats), shaped explicitly so that an empty block still counts."""
    rows = _block_rows([(m.as_rows(), m.cols) for m in mats], 0)
    return IntMatrix(sum(m.rows for m in mats), sum(m.cols for m in mats),
                     tuple(chain.from_iterable(rows)))


def _require_free_parts(obj: ExtNuObject) -> None:
    # coordinate blocks only concatenate cleanly when invariant-factor
    # normalization is the identity, i.e. every part is free over Z/n
    free_mult = obj.mult_group.invariant_factors == (obj.n,) * obj.mult_rank
    if not (free_mult and obj.etale_is_free()):
        raise BadInput("direct sums need both parts free over Z/n")


def object_direct_sum(a: ExtNuObject, b: ExtNuObject) -> ExtNuObject:
    """Blockwise sum: classes side by side, monodromies block diagonal."""
    if a.n != b.n:
        raise ShapeMismatch("direct sum needs equal levels")
    _require_free_parts(a)
    _require_free_parts(b)
    kappa = _block_rows([(a.eta_ok.kappa, a.etale_rank),
                         (b.eta_ok.kappa, b.etale_rank)], KummerClass(a.n))
    eta = ExtClass(a.n, a.mult_rank + b.mult_rank, a.etale_rank + b.etale_rank,
                   tuple(kappa))
    nu = GroupHom(a.etale_group.direct_sum(b.etale_group),
                  a.mult_group.direct_sum(b.mult_group),
                  _block_diagonal(a.nu.matrix, b.nu.matrix))
    return ExtNuObject(a.n, eta, nu)


def _unit_blocks(source: ExtNuObject, target: ExtNuObject,
                 mult_offset: int, etale_offset: int) -> ExtNuMorphism:
    """The morphism whose part maps have a 1 wherever column = row +
    the part's offset, and 0 elsewhere."""
    def block(rows: int, cols: int, offset: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple(
            int(j == i + offset) for i in range(rows) for j in range(cols)))

    return ExtNuMorphism(
        source, target,
        block(target.mult_rank, source.mult_rank, mult_offset),
        block(target.etale_rank, source.etale_rank, etale_offset))


def sum_inclusion(a: ExtNuObject, b: ExtNuObject) -> ExtNuMorphism:
    """a -> a (+) b onto the first block."""
    return _unit_blocks(a, object_direct_sum(a, b), 0, 0)


def sum_projection(a: ExtNuObject, b: ExtNuObject) -> ExtNuMorphism:
    """a (+) b -> b off the first block."""
    return _unit_blocks(object_direct_sum(a, b), b, a.mult_rank, a.etale_rank)


def sum_first_projection(a: ExtNuObject, b: ExtNuObject) -> ExtNuMorphism:
    """a (+) b -> a onto the first block.  After sum_inclusion it is the
    identity, so for nonzero a the two make no short exact triple."""
    return _unit_blocks(object_direct_sum(a, b), a, 0, 0)
