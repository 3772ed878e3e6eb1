"""Symbolic Kummer classes and extension classes of etale by
multiplicative torsion modules.

A KummerClass is an element of K^x/(K^x)^n written on the basis
"uniformizer valuation + unit symbols": the valuation coefficient is a
residue mod n and the unit part is a formal Z/n-linear combination of
opaque unit symbols.  Unit symbols are never resolved: two symbols are
equal only if identical, and the package never decides whether a unit is
an n-th power.  Everything downstream that matters (crystallinity,
component groups) depends only on the valuation parts.

An ExtClass is the class of an extension of (Z/n)^r (etale) by
(Z/n)^s (multiplicative), encoded as an s x r matrix of KummerClasses.
The split class is the zero matrix and Baer sum is entrywise addition.
raynaud_split takes a class apart into its unit part, which prolongs
over the ring of integers, and its valuation part.
"""

from __future__ import annotations

from .abelian import IntMatrix
from .errors import ShapeMismatch
from .record import Record, set_field


class KummerClass(Record):
    """val . (uniformizer) + sum of unit symbols, all mod n."""

    __slots__ = _fields = ("n", "val", "units")

    def __init__(self, n: int, val: int = 0, units: tuple[tuple[str, int], ...] = ()):
        set_field(self, "n", n)
        set_field(self, "val", val)
        set_field(self, "units", units)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 2:
            raise ShapeMismatch("Kummer classes need modulus >= 2")
        set_field(self, "val", self.val % self.n)
        clean = {}
        for sym, e in self.units:
            e = (clean.get(sym, 0) + e) % self.n
            if e:
                clean[sym] = e
            else:
                clean.pop(sym, None)
        set_field(self, "units", tuple(sorted(clean.items())))

    # verify compares thousands of these in class grids: reading the
    # fields directly, not through the base's attrgetter, is faster
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.val, self.units) == (other.n, other.val, other.units)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.val, self.units))

    @classmethod
    def unit(cls, n: int, symbol: str, exp: int = 1) -> "KummerClass":
        return cls(n, 0, ((symbol, exp),))

    @classmethod
    def uniformizer(cls, n: int, val: int = 1) -> "KummerClass":
        return cls(n, val, ())

    def add(self, other: "KummerClass") -> "KummerClass":
        if self.n != other.n:
            raise ShapeMismatch("moduli disagree")
        return KummerClass(self.n, self.val + other.val, self.units + other.units)

    def neg(self) -> "KummerClass":
        return self.scale(-1)

    def scale(self, k: int) -> "KummerClass":
        return KummerClass(
            self.n, k * self.val, tuple((s, k * e) for s, e in self.units)
        )

    def is_zero(self) -> bool:
        return self.val == 0 and not self.units

    def val_part(self) -> "KummerClass":
        return KummerClass(self.n, self.val, ())

    def unit_part(self) -> "KummerClass":
        return KummerClass(self.n, 0, self.units)

    def __str__(self):
        terms = []
        if self.val:
            terms.append(f"pi^{self.val}")
        for sym, e in self.units:
            terms.append(sym if e == 1 else f"{sym}^{e}")
        return " * ".join(terms) if terms else "1"


class ExtClass(Record):
    """Class of an extension of (Z/n)^etale_rank by (Z/n)^mult_rank.

    kappa[i][j] is the Kummer class glueing multiplicative generator i to
    etale generator j; the split extension is the all-zero matrix.
    """

    __slots__ = _fields = ("n", "mult_rank", "etale_rank", "kappa")

    def __init__(self, n: int, mult_rank: int, etale_rank: int,
                 kappa: tuple[tuple[KummerClass, ...], ...]):
        set_field(self, "n", n)
        set_field(self, "mult_rank", mult_rank)
        set_field(self, "etale_rank", etale_rank)
        set_field(self, "kappa", kappa)
        self.__post_init__()

    def __post_init__(self):
        if len(self.kappa) != self.mult_rank:
            raise ShapeMismatch("kappa must have mult_rank rows")
        for row in self.kappa:
            if len(row) != self.etale_rank:
                raise ShapeMismatch("kappa must have etale_rank columns")
            for c in row:
                if c.n != self.n:
                    raise ShapeMismatch("kappa entry modulus disagrees")

    @classmethod
    def split(cls, n: int, mult_rank: int, etale_rank: int) -> "ExtClass":
        zero = KummerClass(n)
        return cls(
            n,
            mult_rank,
            etale_rank,
            tuple(tuple(zero for _ in range(etale_rank)) for _ in range(mult_rank)),
        )

    @classmethod
    def from_val_matrix(cls, n: int, vals: IntMatrix) -> "ExtClass":
        """The pure-valuation class whose valuations are ``vals`` mod n."""
        rows = tuple(
            tuple(KummerClass(n, v) for v in vals.row(i))
            for i in range(vals.rows)
        )
        return cls(n, vals.rows, vals.cols, rows)

    def entry(self, i: int, j: int) -> KummerClass:
        return self.kappa[i][j]

    def val_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(
            [[c.val for c in row] for row in self.kappa]
        ) if self.mult_rank else IntMatrix(0, self.etale_rank, ())

    def column_combination(self, vec) -> tuple[KummerClass, ...]:
        """The kappa value on the etale element with coordinates ``vec``."""
        if len(vec) != self.etale_rank:
            raise ShapeMismatch("coordinate length disagrees with etale rank")
        terms = [(j, c) for j, c in enumerate(vec) if c % self.n]
        # one class per entry; its constructor merges the scaled unit pairs
        return tuple(
            KummerClass(self.n, sum(c * row[j].val for j, c in terms),
                        tuple((s, c * e) for j, c in terms for s, e in row[j].units))
            for row in self.kappa
        )

    def __str__(self):
        rows = "; ".join(
            ", ".join(str(c) for c in row) for row in self.kappa
        )
        return f"ExtClass(n={self.n}, [{rows}])"


def baer_sum(a: ExtClass, b: ExtClass) -> ExtClass:
    """Entrywise sum of kappa matrices: the group law on extension classes."""
    if (a.n, a.mult_rank, a.etale_rank) != (b.n, b.mult_rank, b.etale_rank):
        raise ShapeMismatch(
            "extension classes must share modulus and ranks to be combined"
        )
    rows = tuple(
        tuple(x.add(y) for x, y in zip(ra, rb)) for ra, rb in zip(a.kappa, b.kappa)
    )
    return ExtClass(a.n, a.mult_rank, a.etale_rank, rows)


def baer_neg(a: ExtClass) -> ExtClass:
    rows = tuple(tuple(x.neg() for x in row) for row in a.kappa)
    return ExtClass(a.n, a.mult_rank, a.etale_rank, rows)


def raynaud_split(a: ExtClass) -> tuple[ExtClass, ExtClass]:
    """Split a class into (unit part, valuation part).

    The unit part has valuation 0 in every entry, the valuation part has
    no unit symbols, and their Baer sum returns the input.
    """
    unit_rows = tuple(tuple(x.unit_part() for x in row) for row in a.kappa)
    val_rows = tuple(tuple(x.val_part() for x in row) for row in a.kappa)
    return (ExtClass(a.n, a.mult_rank, a.etale_rank, unit_rows),
            ExtClass(a.n, a.mult_rank, a.etale_rank, val_rows))


def is_one_crystalline(a: ExtClass) -> bool:
    """True iff every valuation is 0 mod n, i.e. the monodromy vanishes."""
    return all(c.val == 0 for row in a.kappa for c in row)
