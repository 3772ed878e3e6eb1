"""Error taxonomy shared by the library and the CLI.

Every error carries a stable identifier (its class name) that the CLI
prints verbatim, and an exit code: 1 for bad input or misuse, 2 when two
independent routes to the same object disagree, 3 when an enumeration
would exceed the configured budget.  Invariant-suite failures also exit
with 2, but they are reported, not raised.
"""


class ArtifactError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    @property
    def identifier(self) -> str:
        return type(self).__name__


class ParseError(ArtifactError):
    """Input text could not be parsed; carries a 1-based position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ShapeMismatch(ArtifactError):
    """Operands have incompatible dimensions, moduli or ranks."""


class BadModulus(ArtifactError):
    """A modulus that must be >= 2, or prime, is not."""


class BadLevel(ArtifactError):
    """A torsion level exponent that must be >= 1 is not."""


class BadInput(ArtifactError):
    """A scalar argument is outside its documented range."""


class NotPrime(ArtifactError):
    """An argument required to be prime is not."""


class NotSymmetric(ArtifactError):
    """The valuation matrix is not symmetric."""


class NotPositiveDefinite(ArtifactError):
    """A leading principal minor of the valuation matrix is <= 0."""

    def __init__(self, minor_index: int, minor_value: int):
        self.minor_index = minor_index
        self.minor_value = minor_value
        super().__init__(
            f"mu: leading principal minor {minor_index} is {minor_value} "
            "(must be > 0)"
        )


class NotAMorphism(ArtifactError):
    """Matrices fail to commute with the monodromy maps."""


class NotStabilized(ArtifactError):
    """A stabilization cap was too small; reports the last level that grew."""

    def __init__(self, last_growth: int, cap: int):
        self.last_growth = last_growth
        self.cap = cap
        super().__init__(
            f"still growing at level {last_growth} with cap {cap}; raise the cap"
        )


class RouteDisagreement(ArtifactError):
    """Two independent routes to the same object gave different values.

    This is a bug in the package, never a property of the input; both
    values are kept for the report.
    """

    exit_code = 2

    def __init__(self, what: str, first, second):
        self.first = first
        self.second = second
        super().__init__(f"{what}: {first} vs {second}")


class BudgetExceeded(ArtifactError):
    """An enumeration would exceed the configured element or subgroup
    budget."""

    exit_code = 3
