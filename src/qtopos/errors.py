"""Exception hierarchy shared by every module in the package."""


class ToposError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(ToposError):
    """An operator expected to be Hermitian is not, within tolerance."""


class NotProjector(ToposError):
    """An operator expected to be an orthogonal projector is not."""


class NonCommuting(ToposError):
    """A set of operators expected to commute pairwise does not."""

    def __init__(self, message: str, i: int | None = None, j: int | None = None,
                 norm: float | None = None):
        super().__init__(message)
        self.i = i
        self.j = j
        self.norm = norm


class TrivialContext(ToposError):
    """A construction produced the trivial one-block algebra."""


class DimensionMismatch(ToposError):
    """Two objects that must share a dimension do not."""


class SizeLimit(ToposError):
    """An enumeration or search exceeded its hard size cap."""


class UnknownBuiltin(ToposError):
    """An unrecognised builtin scenario name."""


class Ambiguity(ToposError):
    """A block has no unique coarser block under restriction."""


class NotInContext(ToposError):
    """An operator is not a real combination of a context's blocks."""


class NotUnitNorm(ToposError):
    """A state vector is not normalised within tolerance."""


class NotNatural(ToposError):
    """A family of component maps fails the naturality squares."""


class ParentMismatch(ToposError):
    """Two subobjects (or related data) live over different parents."""


class BaseMismatch(ToposError):
    """Two presheaves or lower sets live over different posets."""


class ParseError(ToposError):
    """Syntax error in a scenario document or proposition expression.

    ``position`` is a column number for expressions and a JSON path for
    scenario documents.
    """

    def __init__(self, message: str, position=None):
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)
        self.position = position


class ValidationError(ToposError):
    """Semantically invalid input: names the offender and the violation."""
