"""Exact integer linear algebra and finite abelian groups: the core that
every subcommand runs.

Everything in this module is exact: matrices hold arbitrary-precision
Python integers and finite abelian groups are kept in invariant-factor
form d_1 | d_2 | ... | d_k with every d_i >= 2 (the trivial group is the
empty list).  It holds integer matrices (``IntMatrix``), the invariant
factors of a nonsingular matrix by elimination modulo its determinant,
the Smith form over the local ring Z/p^k with the kernels read off it,
finite abelian groups with their torsion and primary parts, the p-adic
valuation, and the primality test that ``require_prime`` applies to p.
The Smith form over Z/n with transforms, subgroup lattices,
homomorphisms and the subgroup walks live in ``presentation``.

>>> mu = IntMatrix.from_rows([[2, 1], [1, 2]])
>>> str(FinAbGroup.of_orders(invariant_factors_mod_det(mu, mu.det())))
'Z/3'
>>> local_smith(mu, 3, 2).valuations
(0, 1)
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul

from .errors import BadInput, BadModulus, NotPrime, ShapeMismatch
from .record import Record

_BENCH_NAMES = frozenset((
    "enumerate_subgroups", "hnf_rows", "kernel_mod_n", "quotient_orders",
    "smith_normal_form", "subgroup_elements",
))


def __getattr__(name: str):
    """The presentation-layer names that the benchmark harness under
    ``bench/`` still reaches here, by their home before the split, from
    ``presentation`` on first use (PEP 562).  The shim exists for
    ``bench/`` alone; crystor itself imports them from ``presentation``."""
    if name not in _BENCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import presentation

    value = globals()[name] = getattr(presentation, name)
    return value


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Record):
    """A rows x cols matrix of arbitrary-precision integers, row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

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
# invariant factors by elimination modulo the determinant


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

    def kernel(self, m: int) -> tuple[FinAbGroup, tuple[tuple[int, ...], ...]]:
        """Kernel of M on (Z/p^m)^t with aligned generators, as
        presentation.kernel_mod_n gives it: p^(m - e_i) V_i mod p^m has order
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

    _defaults = {"invariant_factors": ()}

    def __post_init__(self):
        for i, d in enumerate(self.invariant_factors):
            if d < 2:
                raise ShapeMismatch("invariant factors must be >= 2")
            if i and d % self.invariant_factors[i - 1]:
                raise ShapeMismatch("invariant factors must form a divisibility chain")

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


