"""Totally degenerate split degeneration data.

The whole input is a prime p and a symmetric positive-definite t x t
integer matrix mu: the monodromy pairing, recording the valuations of
the period trivialization on a rank-t torus.  Unit parts of the periods
are carried as opaque symbols (symmetric by default, u_ij = u_ji).

From this the p^m-torsion of the uniformized abelian variety is an
extension of (Z/p^m)^t (etale, spanned by y_1..y_t) by (Z/p^m)^t(1)
(multiplicative, spanned by x_1..x_t), whose class matrix has entry
(i, j) equal to the Kummer class of the (i, j) period.  Splitting each
entry into unit and valuation parts gives the Raynaud decomposition:
a prolongable extension plus a monodromy map nu = mu mod p^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    SnfResult,
    require_prime,
    smith_normal_form,
)
from .errors import (
    BadInput,
    BadLevel,
    NotPositiveDefinite,
    NotPrime,
    NotSymmetric,
    ShapeMismatch,
)
from .kummer import ExtClass, KummerClass, baer_sum


def default_unit_symbols(t: int) -> tuple[tuple[str, ...], ...]:
    """Fresh symmetric symbol grid: entry (i, j) is u{a}_{b} with a <= b."""
    return tuple(
        tuple(f"u{min(i, j) + 1}_{max(i, j) + 1}" for j in range(t))
        for i in range(t)
    )


@dataclass(frozen=True)
class DegenerationData:
    """Construction never validates; call validate() before computing.

    The instance validates once: a passing validate() is remembered, a
    failing one raises again on every call.  ``smith`` caches the Smith
    form of ``mu``, from which the component group and every level of
    its p-power torsion are read.  Neither cache takes part in equality
    or hashing, which see the fields only.
    """

    p: int
    mu: IntMatrix
    unit_symbols: tuple[tuple[str, ...], ...] | None = None

    @property
    def t(self) -> int:
        return self.mu.rows

    def symbol(self, i: int, j: int) -> str:
        if self.unit_symbols is None:
            return f"u{min(i, j) + 1}_{max(i, j) + 1}"
        return self.unit_symbols[i][j]

    def validate(self) -> None:
        self._validated

    @cached_property
    def _validated(self) -> bool:
        # cached_property stores only a returned value, so an instance
        # that fails its checks runs them, and raises, on every call
        try:
            require_prime(self.p)
        except NotPrime:
            raise NotPrime(f"p = {self.p} is not prime") from None
        if self.mu.rows < 1:
            raise BadInput("mu must have at least one row (toric rank >= 1)")
        if self.mu.rows != self.mu.cols or not self.mu.is_symmetric():
            raise NotSymmetric("mu must be a symmetric square matrix")
        for k in range(1, self.t + 1):
            minor = IntMatrix.from_rows(
                [self.mu.row(i)[:k] for i in range(k)]
            ).det()
            if minor <= 0:
                raise NotPositiveDefinite(k, minor)
        if self.unit_symbols is not None:
            rows = self.unit_symbols
            if len(rows) != self.t or any(len(r) != self.t for r in rows):
                raise ShapeMismatch("units must form a t x t symbol grid")
        return True

    @cached_property
    def smith(self) -> SnfResult:
        """Smith normal form of mu, computed on first use."""
        return smith_normal_form(self.mu)


@dataclass(frozen=True)
class TorsionModule:
    """p^m-torsion of the uniformized variety, as an extension class on
    the adapted basis x_1..x_t (multiplicative), y_1..y_t (etale)."""

    n: int
    ext: ExtClass

    @property
    def t(self) -> int:
        return self.ext.etale_rank

    @property
    def x_labels(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.t))

    @property
    def y_labels(self) -> tuple[str, ...]:
        return tuple(f"y{i + 1}" for i in range(self.t))

    def ambient_order(self) -> int:
        return self.n ** (2 * self.t)


def level_modulus(p: int, m: int) -> int:
    """The modulus p^m of torsion level m >= 1."""
    if m < 1:
        raise BadLevel("torsion level exponent must be at least 1")
    return p**m


def torsion_module(data: DegenerationData, m: int) -> TorsionModule:
    """The p^m-torsion extension class: kappa[i][j] has valuation
    mu[i][j] mod p^m and unit symbol u_ij."""
    data.validate()
    n = level_modulus(data.p, m)
    t = data.t
    kappa = tuple(
        tuple(
            KummerClass(n, data.mu.entry(i, j), ((data.symbol(i, j), 1),))
            for j in range(t)
        )
        for i in range(t)
    )
    return TorsionModule(n, ExtClass(n, t, t, kappa))


def monodromy_map(data: DegenerationData, m: int) -> GroupHom:
    """nu = mu mod p^m, from the etale part (weight dropped by one) to
    the multiplicative part."""
    data.validate()
    n = level_modulus(data.p, m)
    free = FinAbGroup.of_orders([n] * data.t)
    return GroupHom(free, free, data.mu.mod(n))


def raynaud_decompose(data: DegenerationData, m: int) -> tuple[ExtClass, GroupHom]:
    """(unit-part class eta1, monodromy map nu).

    eta1 prolongs over the ring of integers; nu is the obstruction.
    Recombination: baer_sum(eta1, class of nu's matrix) is the full
    torsion class up to the unit symbols, and exactly equals it since
    the val/unit split is entrywise.
    """
    tors = torsion_module(data, m)
    unit_rows = tuple(
        tuple(c.unit_part() for c in row) for row in tors.ext.kappa
    )
    eta1 = ExtClass(tors.n, data.t, data.t, unit_rows)
    return eta1, monodromy_map(data, m)


def recombine(eta1: ExtClass, nu: GroupHom) -> ExtClass:
    """Baer sum of a prolongable class with the pure-valuation class of
    nu's matrix; inverse to raynaud_decompose."""
    val_class = ExtClass.from_val_matrix(eta1.n, nu.matrix.as_rows())
    return baer_sum(eta1, val_class)
