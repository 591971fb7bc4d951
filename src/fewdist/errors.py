"""Exception types shared across the package, and the tolerance check that raises one.

InputError subclasses map to CLI exit code 2, NumericalError to exit code 3.
"""

import math


class FewdistError(Exception):
    """Base class for every error raised by this package."""


class InputError(FewdistError):
    """Malformed or inconsistent input: files, parameters, preconditions."""


class ParameterError(InputError):
    """A numeric parameter violates its documented range or parity."""


class PointFileError(InputError):
    """A point or matrix file could not be parsed."""


class DimensionMismatchError(InputError):
    """Rows of a point set do not share one coordinate length."""


class DuplicatePointError(InputError):
    """Two points coincide within tolerance."""


class NotOnSphereError(InputError):
    """An operation requiring unit-norm points got a non-spherical set."""


class NotAntipodalError(InputError):
    """An operation requiring an antipodal set got a non-antipodal one."""


class AmbiguousGroupingError(InputError):
    """Pair values cannot be split into classes at the given tolerance."""


class DegenerateValuesError(InputError):
    """Two class values coincide within 1e-12, making a ratio denominator 0."""


class InvalidSignError(InputError):
    """A ratio tuple violates the alternating sign pattern (-1)**(i-1)."""


class SizeMismatchError(InputError):
    """Two point sets that must have equal cardinality do not."""


class BoxOverflowError(InputError):
    """An enumeration box exceeds the configured tuple cap."""


class SingularTupleError(FewdistError):
    """The closed-form inversion is singular (k1 + k2 = 0); use Newton."""


class NoSolutionError(FewdistError):
    """No branch of the closed-form inversion validates."""


class NumericalError(FewdistError):
    """A matrix decomposition or solve failed."""


def _valid_tol(name: str, value: float) -> float:
    """value, unless it is NaN, infinite or negative: then ParameterError."""
    if not 0 <= value < math.inf:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value
