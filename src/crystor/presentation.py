"""The presentation layer over Z/n: Smith forms with transforms,
kernels, subgroup lattices, homomorphisms and subgroup walks.

It holds the Smith normal form over Z/n with its transforms U, V and
V^-1 from one pass (``SnfResult``, ``smith_normal_form``), the kernel of
a matrix on (Z/n)^k read off it (``kernel_mod_n``), the row-style
Hermite normal form of a subgroup lattice, computed modulo the exponent
of its orders, with membership and quotient orders (``hnf_rows``,
``lattice_solve``, ``quotient_orders``), homomorphisms between finite
abelian groups and exactness (``GroupHom``, ``is_exact``), and the
brute-force walks under one budget (``enum_budget``,
``require_element_budget``, ``subgroup_count_bound``,
``enumerate_subgroups``, ``extend_span``, ``subgroup_elements``).

The pushout layer, the ``verify`` suite, the oracle and
``Crys1Report.lattice`` run it; the answers of the other subcommands
come from ``abelian`` alone, so a command-line start loads this module
only on those paths.

>>> mu = IntMatrix.from_rows([[2, 1], [1, 2]])
>>> smith_normal_form(mu, 9).orders(9)
(1, 3)
>>> str(kernel_mod_n(mu, 3)[0])
'Z/3'
"""

from __future__ import annotations

import os
from itertools import chain, combinations, product
from math import gcd, lcm

from .abelian import FinAbGroup, IntMatrix, _is_prime, _kernel_read_off, diagonal_rows
from .errors import BadInput, BadModulus, BudgetExceeded, ShapeMismatch
from .record import Record, set_field

DEFAULT_ENUM_BUDGET = 1 << 16
ENUM_BUDGET_ENV = "CRYSTOR_ENUM_BUDGET"


def enum_budget() -> int:
    """The one budget for brute-force walks: CRYSTOR_ENUM_BUDGET, else 2**16.

    It bounds the ambient elements of the oracle and of subgroup
    enumeration, and the number of subgroups enumerated.  A value that
    is not a positive integer raises BadInput instead of being ignored.
    """
    raw = os.environ.get(ENUM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise BadInput(f"{ENUM_BUDGET_ENV}={raw!r} is not a positive integer")
    return value

# ---------------------------------------------------------------------------
# Smith normal form


class SnfResult(Record):
    """A Smith form over Z/n: U * M * V = D modulo n with U and V
    invertible modulo n, D diagonal, and Vinv = V^-1 modulo n."""

    __slots__ = _fields = ("U", "D", "V", "Vinv")

    def orders(self, n: int) -> tuple[int, ...]:
        """The cyclic orders of coker D over Z/n, one per column:
        gcd(d_j, n) on the diagonal and n past it, a divisibility chain."""
        k = min(self.D.rows, self.D.cols)
        return (tuple(gcd(self.D.entry(j, j), n) for j in range(k))
                + (n,) * (self.D.cols - k))


def smith_normal_form(m: IntMatrix, modulus: int) -> SnfResult:
    """Smith normal form over Z/n, n = ``modulus`` >= 1, with transforms.

    Every entry, of the transforms too, is kept reduced into [0, n): so
    U * M * V = D and V * V^-1 = I modulo n, and no entry outgrows n.
    Pivoting rule: at each stage the pivot is the least nonzero entry of
    the working submatrix, ties broken by row-major position, so the
    scan stops at 1 and the output is deterministic.  V^-1 takes a row
    step for each column step on V: col_dst += q * col_src becomes
    row_src -= q * row_dst.

    >>> r = smith_normal_form(IntMatrix.from_rows([[2, 1], [1, 2]]), 9)
    >>> r.orders(9), r.V.mul(r.Vinv).mod(9) == IntMatrix.identity(2)
    ((1, 3), True)
    >>> smith_normal_form(IntMatrix.from_rows([[2, 4, 6]]), 4).orders(4)
    (2, 4, 4)
    """
    if modulus < 1:
        raise BadModulus(f"Smith form over Z/n needs n >= 1, not {modulus}")
    if m.rows == 0 or m.cols == 0:
        raise ShapeMismatch("Smith normal form of an empty matrix")
    nr, nc = m.rows, m.cols
    a = [[x % modulus for x in m.row(i)] for i in range(nr)]
    u = diagonal_rows((1,) * nr)
    v = diagonal_rows((1,) * nc)  # v[j] is column j of V
    vinv = diagonal_rows((1,) * nc)

    def combine(x, y, q):  # x + q * y modulo n
        return [(s + q * t) % modulus for s, t in zip(x, y)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, q):
        a[dst] = combine(a[dst], a[src], q)
        u[dst] = combine(u[dst], u[src], q)

    for k in range(min(nr, nc)):
        # pick pivot: least entry != 0, row-major ties
        piv = None
        best = None
        for i in range(k, nr):
            for j, x in enumerate(a[i][k:], k):
                if x and (best is None or x < best):
                    piv, best = (i, j), x
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != k:
            swap_rows(k, piv[0])
        if piv[1] != k:
            swap_cols(k, piv[1])
        while True:
            d = a[k][k]
            # clear column k below the pivot
            dirty = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    q = a[i][k] // d
                    if q:
                        add_row(i, k, -q)
                    if a[i][k]:  # 0 < remainder < d: it becomes the new pivot
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row k right of the pivot; column k is now zero off the
            # pivot, so a column step changes a only in row k, where the
            # remainder stays in [0, d)
            for j in range(k + 1, nc):
                if a[k][j]:
                    q = a[k][j] // d
                    if q:
                        a[k][j] -= q * d
                        v[j] = combine(v[j], v[k], -q)
                        vinv[k] = combine(vinv[k], vinv[j], q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if dirty:
                continue
            if d == 1:
                break  # a unit divides everything
            # enforce d | every remaining entry, else fold that row in
            offender = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(k, offender, 1)

    return SnfResult(*(
        IntMatrix(len(rows), len(rows[0]), tuple(chain.from_iterable(rows)))
        for rows in (u, a, list(zip(*v)), vinv)
    ))


# ---------------------------------------------------------------------------
# row-style Hermite normal form modulo the exponent, and lattice utilities
#
# A subgroup of ⊕ Z/e_i is a lattice L with E·Z^d ⊆ L ⊆ Z^d, E = diag(e_i),
# given by generating rows.  hnf_rows returns its unique basis: square,
# upper triangular with positive pivots, entries above each pivot reduced
# into [0, pivot); it is the canonical form used to compare subgroups.


def hnf_rows(rows, orders):
    """Canonical row HNF of the lattice L in Z^d spanned by ``rows`` and
    the e_i·u_i, the e_i being the positive ``orders`` and d their number.

    L contains D·Z^d, D = lcm(e_i), so every entry is kept modulo D
    (Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.4.8).  When column c is reached the working rows vanish left
    of c, and they span L together with the basis rows so far and the
    e_j·u_j for j >= c.  Reducing them modulo D moves them by multiples
    of D·u_j with j > c only, which lie in the span of the e_j·u_j still
    to come.  The carrier starts as e_c·u_c and takes the Euclid steps
    with the rows that reach column c, so its pivot divides e_c.  In the
    finished basis, row i has its pivot in column i; reducing a row
    modulo D right of its pivot keeps every pivot and stays inside L, so
    it keeps the lattice.

    >>> hnf_rows([[2, 4]], (6, 3))
    [[2, 1], [0, 3]]
    """
    mod = lcm(*orders)
    work = [[x % mod for x in r] for r in rows]
    basis = []
    for c, e in enumerate(orders):
        carrier = [0] * len(orders)
        carrier[c] = e
        rest = []
        for r in work:
            while r[c]:
                q = carrier[c] // r[c]
                carrier, r = r, [(x - q * y) % mod for x, y in zip(carrier, r)]
            if any(r):
                rest.append(r)
        work = rest
        basis.append(carrier)
    # reduce the entries above each pivot; a pivot may equal D, so only
    # the columns from i on are taken modulo D
    for i, row in enumerate(basis):
        for above in basis[:i]:
            q = above[i] // row[i]
            if q:
                above[i:] = [(x - q * y) % mod for x, y in zip(above[i:], row[i:])]
    return basis


def lattice_solve(basis, vec):
    """Coordinates of ``vec`` in an hnf_rows basis, or None if not a member.

    >>> basis = hnf_rows([[2, 1]], (6, 3))
    >>> lattice_solve(basis, [4, 5]), lattice_solve(basis, [1, 0])
    ([2, 1], None)
    """
    v = list(vec)
    coords = []
    for i, row in enumerate(basis):
        q, r = divmod(v[i], row[i])
        if r:
            return None
        coords.append(q)
        if q:
            v[i:] = [x - q * y for x, y in zip(v[i:], row[i:])]
    return coords


def quotient_orders(sup_basis, orders) -> tuple[int, ...]:
    """Cyclic orders presenting (lattice of sup_basis) / (⊕ e_i Z), the
    e_i being ``orders``, by a Smith form over Z/n, n = lcm(e_i).

    ``sup_basis`` must be an hnf_rows basis whose lattice contains
    every e_i times the i-th unit vector.

    >>> quotient_orders(hnf_rows([[2, 1]], (6, 6)), (6, 6))
    (1, 6)
    """
    if not orders:
        return ()
    n, dim = lcm(*orders), len(orders)
    coords = []
    for i, e in enumerate(orders):
        c = lattice_solve(sup_basis, [e * (j == i) for j in range(dim)])
        if c is None:
            raise ShapeMismatch("sublattice is not contained in the overlattice")
        coords.append(c)
    return smith_normal_form(IntMatrix.from_rows(coords), n).orders(n)


# ---------------------------------------------------------------------------
# kernels


def kernel_mod_n(m: IntMatrix, n: int) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
    """Kernel of multiplication by m on (Z/n)^cols, with aligned generators.

    From the Smith form over Z/n, U M V = D modulo n, it is spanned by
    (n / gcd(d_j, n)) times the columns of V, so the i-th returned
    generator has order exactly the i-th invariant factor of the
    returned group.

    >>> g, gens = kernel_mod_n(IntMatrix.from_rows([[2, 0], [0, 4]]), 4)
    >>> str(g), gens
    ('Z/2 ⊕ Z/4', ((2, 0), (0, 1)))
    """
    if n < 2:
        raise BadModulus("kernel mod n needs n >= 2")
    snf = smith_normal_form(m, n)
    return _kernel_read_off(n, snf.orders(n), snf.V.column)


# ---------------------------------------------------------------------------
# homomorphisms between finite abelian groups


class GroupHom(Record):
    """A homomorphism given on generator coordinates.

    ``matrix`` has one column per source invariant factor and one row per
    target invariant factor; it sends a source coordinate vector (read as
    a column) to a target coordinate vector.  Entries are kept reduced
    modulo the target orders.
    """

    __slots__ = _fields = ("source", "target", "matrix")

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise ShapeMismatch(
                f"hom matrix must be {self.target.rank}x{self.source.rank}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )
        tinv = self.target.invariant_factors
        reduced = tuple(
            self.matrix.entry(i, j) % tinv[i]
            for i in range(self.matrix.rows)
            for j in range(self.matrix.cols)
        )
        set_field(self, "matrix", IntMatrix(self.matrix.rows, self.matrix.cols, reduced))
        # a generator of order s must land on a point killed by s
        sinv = self.source.invariant_factors
        for j, s in enumerate(sinv):
            for i, t in enumerate(tinv):
                if (s * self.matrix.entry(i, j)) % t:
                    raise ShapeMismatch(
                        f"entry ({i},{j}) does not respect generator orders"
                    )

    @classmethod
    def zero(cls, source: FinAbGroup, target: FinAbGroup) -> "GroupHom":
        return cls(source, target,
                   IntMatrix(target.rank, source.rank, (0,) * (target.rank * source.rank)))

    @classmethod
    def identity(cls, g: FinAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.rank))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.target != self.source:
            raise ShapeMismatch("composition needs matching middle group")
        return GroupHom(inner.source, self.target, self.matrix.mul(inner.matrix))

    def is_zero(self) -> bool:
        return not any(self.matrix.entries)

    # -- subgroup computations (lattice method) -----------------------------
    #
    # subgroups are compared by the canonical HNF of their lattices

    def image_lattice(self):
        """HNF basis of the image subgroup's lattice inside Z^target_rank."""
        cols = [self.matrix.column(j) for j in range(self.source.rank)]
        return hnf_rows(cols, self.target.invariant_factors)

    def kernel_lattice(self):
        """HNF basis of the kernel subgroup's lattice inside Z^source_rank."""
        k, l = self.source.rank, self.target.rank
        if k == 0 or l == 0:  # the whole source
            return hnf_rows([], (1,) * k)
        # B_i x ≡ 0 mod e_i is (n / e_i) B_i x ≡ 0 mod n, n = lcm(e_i); the
        # source orders lie in that kernel, since the map respects them
        n = lcm(*self.target.invariant_factors)
        scaled = IntMatrix.from_rows(
            [[n // e * x for x in self.matrix.row(i)]
             for i, e in enumerate(self.target.invariant_factors)]
        )
        return hnf_rows(kernel_mod_n(scaled, n)[1], (n,) * k)


def is_exact(f: GroupHom, g: GroupHom) -> bool:
    """Exactness at the middle of source --f--> middle --g--> target.

    Image and kernel are compared as subgroups via their canonical
    lattice bases.

    >>> z4 = FinAbGroup.cyclic(4)
    >>> two = GroupHom(z4, z4, IntMatrix.from_rows([[2]]))
    >>> is_exact(two, two)
    True
    >>> is_exact(two, GroupHom.identity(z4))
    False
    """
    if f.target != g.source:
        raise ShapeMismatch("target of f must equal source of g")
    return f.image_lattice() == g.kernel_lattice()


# ---------------------------------------------------------------------------
# subgroup enumeration


def subgroup_count_bound(p: int, t: int) -> int:
    """The number of subgroups of (Z/p)^t for prime p, the Galois number
    G_t(p) = sum_k [t choose k]_p; the recurrence
    G_{k+1} = 2 G_k + (p^k - 1) G_{k-1} gives it without enumeration.

    >>> subgroup_count_bound(2, 9), subgroup_count_bound(3, 2)
    (8283458, 6)
    """
    prev, cur = 1, 2  # G_0, G_1
    for k in range(1, t):
        prev, cur = cur, 2 * cur + (p**k - 1) * prev
    return cur


def require_element_budget(n: int, t: int) -> int:
    """The budget in force, enum_budget(); raises BudgetExceeded when
    (Z/n)^t has more elements than that."""
    limit = enum_budget()
    if n ** t > limit:
        raise BudgetExceeded(
            f"{n}^{t} = {n ** t} elements exceeds the enumeration budget {limit}"
        )
    return limit


def enumerate_subgroups(p: int, t: int):
    """Every subgroup of (Z/p)^t exactly once, for prime p, as tuples of
    generators.

    A subgroup is a subspace over Z/p, and its generators are its basis
    in reduced row echelon form: for each set of pivot columns, every
    choice of the entries right of a pivot that lie outside the pivot
    columns.  The trivial subgroup is the empty tuple.  Raises
    BadModulus unless p is a prime, and BudgetExceeded when p**t, or the
    number of subgroups (subgroup_count_bound), is larger than
    enum_budget() (default 2**16, set by CRYSTOR_ENUM_BUDGET).  So
    (Z/2)^9, with 8.3 million subgroups but only 512 elements, is
    refused before any walking.

    >>> sorted(len(s) for s in enumerate_subgroups(2, 1))
    [0, 1]
    >>> len(enumerate_subgroups(2, 2))
    5
    """
    if not _is_prime(p):
        raise BadModulus(f"subgroup enumeration needs a prime modulus, not {p}")
    if t < 1:
        raise ShapeMismatch("rank must be >= 1")
    limit = require_element_budget(p, t)
    count = subgroup_count_bound(p, t)
    if count > limit:
        raise BudgetExceeded(
            f"(Z/{p})^{t} has {count} subgroups, more than the "
            f"enumeration budget {limit}"
        )
    out = []
    for k in range(t + 1):
        for pivots in combinations(range(t), k):
            free = [(i, j) for i, c in enumerate(pivots)
                    for j in range(c + 1, t) if j not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[int(j == c) for j in range(t)] for c in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                out.append(tuple(map(tuple, rows)))
    return tuple(out)


def extend_span(elements: frozenset, g, n: int) -> frozenset:
    """The subgroup of (Z/n)^dim spanned by the subgroup ``elements``
    and one more vector ``g``.

    With k the least positive integer such that k g lies in
    ``elements``, the span is the disjoint union of the cosets
    ``elements + j g`` for j = 0..k-1, so each element is built once.

    >>> sorted(extend_span(frozenset({(0, 0), (2, 0)}), (1, 2), 4))
    [(0, 0), (1, 2), (2, 0), (3, 2)]
    """
    g = tuple(x % n for x in g)
    shifts = []
    shift = g
    while shift not in elements:
        shifts.append(shift)
        shift = tuple([(a + b) % n for a, b in zip(shift, g)])
    if not shifts:
        return elements
    return frozenset(chain(elements, (
        tuple([(a + b) % n for a, b in zip(e, s)])
        for s in shifts for e in elements)))


def subgroup_elements(gens, n: int, dim: int) -> frozenset:
    """All elements of the subgroup of (Z/n)^dim spanned by ``gens``."""
    elems = frozenset({(0,) * dim})
    for g in gens:
        elems = extend_span(elems, g, n)
    return elems
