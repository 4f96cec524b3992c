"""Exception types shared across the toolkit."""


class CohistError(Exception):
    """Base class for all toolkit errors."""


class DimError(CohistError):
    """Dimension or factor-structure mismatch."""


class NormalizationError(CohistError):
    """A state that must be normalized is not."""


class NotProjectorError(CohistError):
    """An operator required to be a (nonzero) projector is not."""


class FlavorError(CohistError, ValueError):
    """An operator is not unitary, Hermitian or positive where it must be."""


class NonFiniteError(CohistError, ValueError):
    """A ket or operator has a NaN or infinite entry."""


class ArgumentError(CohistError, ValueError):
    """Labels that must be distinct repeat, or values that must be ordered
    are not."""


class OrthogonalityError(CohistError):
    """Two projectors that must be mutually orthogonal are not."""


class CompletenessError(CohistError, ValueError):
    """A set of projectors does not sum to the identity."""


class IncompatibleFrameworksError(CohistError):
    """Attempt to combine frameworks whose projectors do not all commute."""


class WeightError(CohistError):
    """An invalid probability distribution over sample-space elements."""


class GridMismatchError(CohistError):
    """A history, family, or dynamics does not match the expected time grid."""


class InconsistentFamilyError(CohistError):
    """Probability query on a family that fails the consistency condition."""


class ZeroConditionError(CohistError):
    """Conditional probability requested with a zero-probability condition."""


class FactorizationError(CohistError):
    """Dynamics required to factorize across subsystems do not."""


class ParseError(CohistError):
    """Scenario text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(CohistError):
    """Scenario parsed but failed validation."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
