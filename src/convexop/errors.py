"""Exception types shared across the package."""

__all__ = [
    "ConvexOpError",
    "IncompatibleBoundaryError",
    "InvalidEvolutionError",
    "NotInConeError",
    "NotNormalizedError",
    "NotProjectorError",
    "ScenarioError",
    "ScenarioSchemaError",
    "ScenarioSyntaxError",
    "ScenarioValidationError",
    "SpaceMismatchError",
    "UnknownOutcomeError",
    "UnsupportedSpaceError",
    "ZeroProbabilityError",
    "ZeroStateError",
]


class ConvexOpError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatchError(ConvexOpError):
    """Two objects live in incompatible spaces or have incompatible shapes."""


class UnsupportedSpaceError(ConvexOpError):
    """The operation is not defined for this kind of space or cone."""


class NotInConeError(ConvexOpError):
    """An element required to be positive is not in the cone."""


class NotNormalizedError(ConvexOpError):
    """A state required to be normalized is not."""


class NotProjectorError(ConvexOpError):
    """A matrix required to be an orthogonal projector is not."""


class ZeroStateError(ConvexOpError):
    """Normalization of a (numerically) zero state was requested."""


class IncompatibleBoundaryError(ConvexOpError):
    """A probability ratio has a vanishing denominator: the reference
    probe or post-selection is incompatible with the boundary condition."""


class ZeroProbabilityError(ConvexOpError):
    """Conditioning on an outcome of (numerically) zero probability."""


class UnknownOutcomeError(ConvexOpError, KeyError):
    """An outcome label is not part of the measurement."""


class InvalidEvolutionError(ConvexOpError):
    """The requested evolution is not structure preserving (for example a
    permutation that does not preserve the measure), or the time step is
    invalid for this evolution kind."""


class ScenarioError(ConvexOpError):
    """Base class for scenario-file problems."""


class ScenarioSyntaxError(ScenarioError):
    """Scenario file is not well-formed structured text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioSchemaError(ScenarioError):
    """Scenario document violates the schema (missing, unknown or
    wrongly typed fields)."""


class ScenarioValidationError(ScenarioError):
    """Scenario document is well-formed but semantically invalid
    (dimension mismatch, non-positive measure, failed physicality checks)."""

    def __init__(self, message: str, checks=()):
        super().__init__(message)
        self.checks = tuple(checks)
