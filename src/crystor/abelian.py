"""Exact integer linear algebra and finite abelian groups.

Everything in this module is exact: matrices hold arbitrary-precision
Python integers and finite abelian groups are kept in invariant-factor
form d_1 | d_2 | ... | d_k with every d_i >= 2 (the trivial group is the
empty list).  The workhorses are the Smith normal form over Z/n with its
transforms U, V and V^-1 from one pass, the invariant factors alone by
elimination modulo the determinant, the Smith form over the local ring
Z/p^k, and the row-style Hermite normal form of a subgroup lattice,
computed modulo the exponent of its orders; on top of them sit kernels,
torsion and primary parts, exactness tests, an enumerator of
the subgroups of (Z/p)^t as row-reduced subspaces, and the primality
test that `require_prime` applies to p.

>>> mu = IntMatrix.from_rows([[2, 1], [1, 2]])
>>> smith_normal_form(mu, 9).orders(9)
(1, 3)
>>> str(FinAbGroup.of_orders(invariant_factors_mod_det(mu, mu.det())))
'Z/3'
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import (
    BadInput,
    BadModulus,
    BudgetExceeded,
    NotPrime,
    ShapeMismatch,
)
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
# matrices


class IntMatrix(Record):
    """A rows x cols matrix of arbitrary-precision integers, row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # hashed and compared inside every GroupHom comparison: reading the
    # fields directly, not through the base's attrgetter, is faster
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.rows, self.cols, self.entries)
                    == (other.rows, other.cols, other.entries))
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        height = len(rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ShapeMismatch("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(height, width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def as_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions disagree")
        columns = [other.column(j) for j in range(other.cols)]
        entries = tuple(
            sum(map(mul, self.row(i), col))
            for i in range(self.rows) for col in columns
        )
        return IntMatrix(self.rows, other.cols, entries)

    def mod(self, n: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(x % n for x in self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows) for j in range(i)
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(self.row(i)) for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self):
        return "[" + ", ".join(str(list(self.row(i))) for i in range(self.rows)) + "]"


def diagonal_rows(entries) -> list[list[int]]:
    """Rows of the square diagonal matrix diag(entries), as lists.

    >>> diagonal_rows([2, 3])
    [[2, 0], [0, 3]]
    """
    k = len(entries)
    return [[d if j == i else 0 for j in range(k)] for i, d in enumerate(entries)]


# ---------------------------------------------------------------------------
# Smith normal form


class SnfResult(Record):
    """A Smith form over Z/n: U * M * V = D modulo n with U and V
    invertible modulo n, D diagonal, and Vinv = V^-1 modulo n."""

    __slots__ = _fields = ("U", "D", "V", "Vinv")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix, Vinv: IntMatrix):
        set_field(self, "U", U)
        set_field(self, "D", D)
        set_field(self, "V", V)
        set_field(self, "Vinv", Vinv)

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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def invariant_factors_mod_det(m: IntMatrix, det: int) -> tuple[int, ...]:
    """Invariant factors d_1 | ... | d_t of a nonsingular t x t matrix
    with |det m| = ``det``, by diagonal-only elimination modulo R.

    The column span of m contains det * Z^t, so its cokernel is presented
    by m over Z/det.  Once a pivot has cleared its row and column and
    its gcd d with R divides the rest, the cokernel splits off Z/d and
    the remainder, of order R / d, is presented over Z/(R / d)
    (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.4.14; Domich, Kannan and Trotter 1987).  Entries stay below
    R and no transform is built.  The last factor is a gcd with R like
    the others, so the product of the factors equals ``det`` only when
    ``det`` is |det m|.

    >>> invariant_factors_mod_det(IntMatrix.from_rows([[2, 1], [1, 2]]), 3)
    (1, 3)
    >>> invariant_factors_mod_det(IntMatrix.from_rows([[6, 0], [0, 4]]), 24)
    (2, 12)
    """
    t = m.rows
    r = det
    a = [[x % r for x in m.row(i)] for i in range(t)]
    factors = []
    for k in range(t):
        while True:
            _clear_cross(a, k, r)
            d = gcd(a[k][k], r)
            offender = next(
                (i for i in range(k + 1, t) if any(x % d for x in a[i][k + 1:])),
                None,
            )
            if offender is None:
                break
            # the offending row brings an entry the pivot does not divide
            a[k] = [(x + y) % r for x, y in zip(a[k], a[offender])]
        factors.append(d)
        r //= d
        for i in range(k + 1, t):
            a[i] = [x % r for x in a[i]]
    return tuple(factors)


def _clear_cross(a, k: int, r: int) -> None:
    """Zero row k and column k of ``a`` off the pivot, modulo r, by
    unimodular 2 x 2 column and row steps; rows and columns before k
    are already clear."""
    t = len(a)
    while True:
        for j in range(k + 1, t):
            b, piv = a[k][j], a[k][k]
            if not b:
                continue
            if piv and b % piv == 0:
                q = b // piv
                for row in a[k:]:
                    row[j] = (row[j] - q * row[k]) % r
                continue
            g, u, v = _xgcd(piv, b)
            x, y = piv // g, b // g
            for row in a[k:]:
                c0, c1 = row[k], row[j]
                row[k] = (u * c0 + v * c1) % r
                row[j] = (x * c1 - y * c0) % r
        row_dirty = False
        for i in range(k + 1, t):
            b, piv = a[i][k], a[k][k]
            if not b:
                continue
            if piv and b % piv == 0:
                q = b // piv
                a[i] = [(x - q * y) % r for x, y in zip(a[i], a[k])]
                continue
            g, u, v = _xgcd(piv, b)
            x, y = piv // g, b // g
            top, low = a[k], a[i]
            a[k] = [(u * c0 + v * c1) % r for c0, c1 in zip(top, low)]
            a[i] = [(x * c1 - y * c0) % r for c0, c1 in zip(top, low)]
            row_dirty = True
        if not row_dirty:
            return


# ---------------------------------------------------------------------------
# Smith form over the local ring Z/p^k


def _kernel_read_off(n: int, orders, column) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
    """A kernel read off a Smith form over Z/n: ``column(j)``, column j
    of V, scaled by n / orders[j] mod n generates a cyclic factor of
    order orders[j]; factors of order 1 are dropped.  ``orders`` must
    be increasing in divisibility."""
    kept, gens = [], []
    for j, d in enumerate(orders):
        if d > 1:
            scale = n // d
            gens.append(tuple(scale * x % n for x in column(j)))
            kept.append(d)
    return FinAbGroup(tuple(kept)), tuple(gens)


class LocalSmith(Record):
    """Smith form of a square integer matrix M over Z/p^k.

    U M V = diag(p^{v_1}, ..., p^{v_t}) modulo p^k with U and V
    invertible modulo p^k and v_1 <= ... <= v_t; a valuation of k marks
    a column that vanishes modulo p^k.  ``columns`` holds the columns of
    V modulo p^k.
    """

    __slots__ = _fields = ("p", "k", "valuations", "columns")

    def __init__(self, p: int, k: int, valuations: tuple[int, ...],
                 columns: tuple[tuple[int, ...], ...]):
        set_field(self, "p", p)
        set_field(self, "k", k)
        set_field(self, "valuations", valuations)
        set_field(self, "columns", columns)

    def kernel(self, m: int) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
        """Kernel of M on (Z/p^m)^t with aligned generators, as
        kernel_mod_n gives it: p^(m - e_i) V_i mod p^m has order
        p^{e_i}, e_i = min(v_i, m).  That reads V_i only modulo
        p^{e_i}, so every level is exact when each v_i < k.

        >>> loc = local_smith(IntMatrix.from_rows([[2, 0], [0, 4]]), 2, 3)
        >>> loc.valuations
        (1, 2)
        >>> g, gens = loc.kernel(2)
        >>> str(g), gens
        ('Z/2 ⊕ Z/4', ((2, 0), (0, 1)))
        """
        n = self.p**m
        orders = [self.p**v if v < m else n for v in self.valuations]
        return _kernel_read_off(n, orders, self.columns.__getitem__)


def local_smith(m: IntMatrix, p: int, k: int) -> LocalSmith:
    """Smith form of the square matrix m over Z/p^k.

    Each stage pivots on an entry of least p-adic valuation in the
    remaining block (row-major ties) and scales the pivot row by the
    inverse of the pivot's unit part, so the pivot is p^v and divides
    the whole block.  Only the column transform V is kept.
    """
    if m.rows != m.cols or m.rows == 0:
        raise ShapeMismatch("local Smith form needs a non-empty square matrix")
    q = p**k
    t = m.rows
    a = [[x % q for x in m.row(i)] for i in range(t)]
    v_cols = diagonal_rows((1,) * t)  # v_cols[j] is column j of V
    valuations = []
    for s in range(t):
        best = None
        for i in range(s, t):
            for j in range(s, t):
                x = a[i][j]
                if x:
                    e = p_valuation(x, p)
                    if best is None or e < best[0]:
                        best = (e, i, j)
                        if e == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            valuations += [k] * (t - s)
            break
        e, i, j = best
        a[s], a[i] = a[i], a[s]
        if j != s:
            for row in a:
                row[s], row[j] = row[j], row[s]
            v_cols[s], v_cols[j] = v_cols[j], v_cols[s]
        pe = p**e
        inv = pow(a[s][s] // pe, -1, q)
        pivot_row = a[s] = [x * inv % q for x in a[s]]
        for i in range(s + 1, t):
            c = a[i][s] // pe
            if c:
                a[i] = [(x - c * y) % q for x, y in zip(a[i], pivot_row)]
        # column s is clear below the pivot, so clearing row s by column
        # steps changes only V
        v_s = v_cols[s]
        for j in range(s + 1, t):
            c = pivot_row[j] // pe
            if c:
                v_cols[j] = [(x - c * y) % q for x, y in zip(v_cols[j], v_s)]
        valuations.append(e)
    return LocalSmith(p, k, tuple(valuations), tuple(tuple(c) for c in v_cols))


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
# finite abelian groups


def _chain_normalize(orders) -> tuple[int, ...]:
    # gcd/lcm exchanges preserve the group and converge to the chain form
    ds = [int(o) for o in orders]
    if any(d < 1 for d in ds):
        raise ShapeMismatch("cyclic orders must be >= 1")
    ds = sorted(d for d in ds if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            a, b = ds[i], ds[i + 1]
            if b % a:
                g = gcd(a, b)
                ds[i], ds[i + 1] = g, a * b // g
                changed = True
        if changed:
            ds = sorted(d for d in ds if d > 1)
    return tuple(ds)


class FinAbGroup(Record):
    """A finite abelian group by its invariant factors d_1 | d_2 | ... | d_k.

    The factors are each >= 2 and the trivial group is the empty tuple,
    so equality of values is equality of isomorphism classes.  Instances
    are immutable and slotted.  of_orders() hands out shared instances:
    equal factors give the same object while they stay among the 256
    most recent, and the trivial group is always the one that trivial()
    returns.

    >>> FinAbGroup.of_orders([4, 2, 6])
    FinAbGroup(invariant_factors=(2, 2, 12))
    >>> FinAbGroup.trivial().order
    1
    """

    __slots__ = _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        set_field(self, "invariant_factors", invariant_factors)
        self.__post_init__()

    def __post_init__(self):
        for i, d in enumerate(self.invariant_factors):
            if d < 2:
                raise ShapeMismatch("invariant factors must be >= 2")
            if i and d % self.invariant_factors[i - 1]:
                raise ShapeMismatch("invariant factors must form a divisibility chain")

    # the most compared record: reading the field directly, not through
    # the base's attrgetter, halves the cost of a call
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.invariant_factors == other.invariant_factors
        return NotImplemented

    def __hash__(self):
        return hash(self.invariant_factors)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return _TRIVIAL

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        return cls.of_orders((n,))

    @classmethod
    def of_orders(cls, orders) -> "FinAbGroup":
        """The direct sum of cyclic groups of the given orders; an order
        of 1 is the trivial factor and one below 1 raises ShapeMismatch."""
        factors = _chain_normalize(orders)
        return _shared_group(factors) if factors else _TRIVIAL

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.of_orders(self.invariant_factors + other.invariant_factors)

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " ⊕ ".join(f"Z/{d}" for d in self.invariant_factors)


_TRIVIAL = FinAbGroup(())
# equal groups recur across inputs and levels, and a caller that keeps
# many results then holds one instance of each; the trivial group stays
# outside the cache, so eviction cannot split it
_shared_group = lru_cache(maxsize=256)(FinAbGroup)


def n_torsion(g: FinAbGroup, n: int) -> FinAbGroup:
    """The n-torsion subgroup: invariant factors gcd(d_i, n).

    >>> str(n_torsion(FinAbGroup.cyclic(12), 4))
    'Z/4'
    """
    if n < 1:
        raise BadModulus("n-torsion needs n >= 1")
    return FinAbGroup.of_orders(gcd(d, n) for d in g.invariant_factors)


def p_valuation(x: int, p: int) -> int:
    """The exponent of p in the nonzero integer x.

    >>> p_valuation(-24, 2), p_valuation(7, 3)
    (3, 0)
    """
    if x == 0:
        raise BadInput("the p-adic valuation of 0 is infinite")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_primary_part(g: FinAbGroup, p: int) -> FinAbGroup:
    """The p-Sylow subgroup: invariant factors p^{v_p(d_i)}."""
    require_prime(p)
    return FinAbGroup.of_orders(p ** p_valuation(d, p) for d in g.invariant_factors)


def require_prime(p: int) -> None:
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _SMALL_PRIMES (Sorenson-Webster 2015).
_SMALL_BASES_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality by strong tests to the first 13 prime bases, which is
    exact below _SMALL_BASES_EXACT_BELOW, and by Baillie-PSW above it
    (a base-2 strong test and a strong Lucas test; no composite is
    known to pass both).

    >>> [q for q in range(-3, 30) if _is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _SMALL_BASES_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller's strong test of the odd n > a to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd n > 41 with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D)/4 (Baillie-Wagstaff 1980)."""
    if isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # |d| < n shares a factor with n
        d = 2 - d if d < 0 else -d - 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    u, v, qk = 1, 1, q  # U_k, V_k and Q^k for k = 1
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


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

    def __init__(self, source: FinAbGroup, target: FinAbGroup, matrix: IntMatrix):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "matrix", matrix)
        self.__post_init__()

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

    # the key of the presentation cache and of every monodromy-square
    # check: reading the fields directly is faster than the base's
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.target, self.matrix)
                    == (other.source, other.target, other.matrix))
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

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
