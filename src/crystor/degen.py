"""Totally degenerate split degeneration data.

The whole input is a prime p and a symmetric positive-definite t x t
integer matrix mu: the monodromy pairing, recording the valuations of
the period trivialization on a rank-t torus.  Unit parts of the periods
are carried as opaque symbols (symmetric by default, u_ij = u_ji).

From this the p^m-torsion of the uniformized abelian variety is an
extension of (Z/p^m)^t (etale, spanned by y_1..y_t) by (Z/p^m)^t(1)
(multiplicative, spanned by x_1..x_t), whose class matrix has entry
(i, j) equal to the Kummer class of the (i, j) period.  The Raynaud
decomposition takes its two halves from the input directly: the
prolongable extension of the unit symbols, and the monodromy map
nu = mu mod p^m.  Their Baer sum gives the torsion class back.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from .abelian import (
    FinAbGroup,
    IntMatrix,
    LocalSmith,
    invariant_factors_mod_det,
    local_smith,
    p_valuation,
    require_prime,
)
from .errors import (
    BadInput,
    BadLevel,
    NotPositiveDefinite,
    NotPrime,
    NotSymmetric,
    RouteDisagreement,
    ShapeMismatch,
)
from .record import Record, set_field


def leading_minors(mu: IntMatrix):
    """The leading principal minors of the square matrix mu, in order,
    from one fraction-free (Bareiss) elimination without pivoting: the
    k-th pivot is the order-k minor.  Stops after the first minor that
    is not positive, where elimination without pivoting cannot go on.

    >>> list(leading_minors(IntMatrix.from_rows([[2, 1], [1, 2]])))
    [2, 3]
    >>> list(leading_minors(IntMatrix.from_rows([[1, 2, 0], [2, 1, 0], [0, 0, 1]])))
    [1, -3]
    """
    t = mu.rows
    a = [list(mu.row(i)) for i in range(t)]
    prev = 1
    for k in range(t):
        minor = a[k][k]
        yield minor
        if minor <= 0:
            return
        for i in range(k + 1, t):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, t):
                row[j] = (row[j] * minor - lead * a[k][j]) // prev
        prev = minor


class DegenerationData(Record):
    """Degeneration data (p, mu), validated on construction.

    ``__post_init__``, which the record constructor calls once the
    fields are written, runs validate() once and keeps det mu, the last
    leading minor, as ``determinant``, so an invalid (p, mu) raises
    there and no instance is invalid.  ``replace``, copy and pickle
    rebuild through the constructor and check again.  Two independent
    decompositions of ``mu`` are cached on first use:

    - ``invariants``, its invariant factors by elimination modulo
      det mu, from which the component group and every level of its
      p-power torsion are read;
    - ``local``, its Smith form over Z/p^k, from which every level of
      the maximal 1-crystalline submodule is read.

    Neither ``determinant`` nor the caches take part in equality or
    hashing, which see the fields only.  They live in the instance
    ``__dict__``, so this record has no ``__slots__``.
    """

    _fields = ("p", "mu", "unit_symbols")

    _defaults = {"unit_symbols": None}

    def __post_init__(self):
        set_field(self, "determinant", self.validate())

    @property
    def t(self) -> int:
        return self.mu.rows

    def symbol(self, i: int, j: int) -> str:
        """Unit symbol of entry (i, j); by default the fresh symmetric
        name u{a}_{b} with a <= b."""
        if self.unit_symbols is None:
            return f"u{min(i, j) + 1}_{max(i, j) + 1}"
        return self.unit_symbols[i][j]

    def validate(self) -> int:
        """Check the fields and return det mu, the last leading minor;
        the constructor calls this once."""
        try:
            require_prime(self.p)
        except NotPrime:
            raise NotPrime(f"p = {self.p} is not prime") from None
        if self.mu.rows < 1:
            raise BadInput("mu must have at least one row (toric rank >= 1)")
        if not self.mu.is_symmetric():
            raise NotSymmetric("mu must be a symmetric square matrix")
        for k, minor in enumerate(leading_minors(self.mu), 1):
            if minor <= 0:
                raise NotPositiveDefinite(k, minor)
        if self.unit_symbols is not None:
            rows = self.unit_symbols
            if len(rows) != self.t or any(len(r) != self.t for r in rows):
                raise ShapeMismatch("units must form a t x t symbol grid")
        return minor  # the order-t minor

    @cached_property
    def invariants(self) -> tuple[int, ...]:
        """Invariant factors d_1 | ... | d_t of mu, by elimination modulo
        det mu; raises RouteDisagreement unless they multiply to det mu."""
        det = self.determinant
        factors = invariant_factors_mod_det(self.mu, det)
        if prod(factors) != det:
            raise RouteDisagreement(
                "invariant factors of mu do not multiply to det mu",
                prod(factors), det)
        return factors

    @cached_property
    def local(self) -> LocalSmith:
        """Smith form of mu over Z/p^k with k = v_p(det mu) + 1.

        Every valuation is at most v_p(det mu), so all of them are exact
        and the precision needs nothing from ``invariants``.
        """
        k = p_valuation(self.determinant, self.p) + 1
        return local_smith(self.mu, self.p, k)


def level_modulus(p: int, m: int) -> int:
    """The modulus p^m of torsion level m >= 1."""
    if m < 1:
        raise BadLevel("torsion level exponent must be at least 1")
    return p**m


def torsion_module(data: DegenerationData, m: int) -> ExtClass:
    """The p^m-torsion as an extension class on the adapted basis
    x_1..x_t (multiplicative), y_1..y_t (etale): kappa[i][j] has
    valuation mu[i][j] mod p^m and unit symbol u_ij."""
    from .kummer import ExtClass, KummerClass

    n = level_modulus(data.p, m)
    t = data.t
    kappa = tuple(
        tuple(
            KummerClass(n, data.mu.entry(i, j), ((data.symbol(i, j), 1),))
            for j in range(t)
        )
        for i in range(t)
    )
    return ExtClass(n, t, t, kappa)


def monodromy_map(data: DegenerationData, m: int) -> GroupHom:
    """nu = mu mod p^m, from the etale part to the multiplicative part."""
    from .presentation import GroupHom

    n = level_modulus(data.p, m)
    free = FinAbGroup.of_orders([n] * data.t)
    return GroupHom(free, free, data.mu.mod(n))


def raynaud_decompose(data: DegenerationData, m: int) -> tuple[ExtClass, GroupHom]:
    """(unit-part class eta1, monodromy map nu).

    eta1 has the unit symbol u_ij alone in entry (i, j), so it prolongs
    over the ring of integers; nu is the obstruction.  The Baer sum of
    eta1 and the pure-valuation class of nu's matrix is the torsion
    class, which is built separately (torsion_module).
    """
    from .kummer import ExtClass, KummerClass

    nu = monodromy_map(data, m)
    n, t = level_modulus(data.p, m), data.t
    kappa = tuple(tuple(KummerClass.unit(n, data.symbol(i, j)) for j in range(t))
                  for i in range(t))
    return ExtClass(n, t, t, kappa), nu
