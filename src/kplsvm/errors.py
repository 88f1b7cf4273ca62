"""Exception types shared across the package, and the integer-argument rule."""

import numbers


class KplsvmError(Exception):
    """Base class for all package-specific errors."""


class DataError(KplsvmError):
    """Malformed input data: bad rows, unknown labels, shape mismatches."""


class RepresentationError(KplsvmError):
    """A piece list cannot be expressed as a valid loss specification."""


class InfeasibleError(KplsvmError):
    """The dual QP has an empty feasible set.

    Carries ``certificate``, the width of the gap separating the two
    class-wise attainable intervals of the equality constraint (positive
    exactly when no feasible point exists).
    """

    def __init__(self, message: str, certificate: float = 0.0):
        super().__init__(message)
        self.certificate = certificate


class SolverError(KplsvmError):
    """The QP could not be set up for a solve: ``qp.gram_factor`` found
    no jitter that makes the Gram matrix positive definite."""


class TrainingError(KplsvmError):
    """Training preconditions violated or training-time verification failed."""


def check_integer(value, lo: int, error: type, message: str) -> None:
    """The one rule for an integer argument: ``error(f"{message}, got
    {value!r}")`` unless ``value`` is a Python or numpy integer >= ``lo``
    (a float or a string that holds one is not)."""
    if not (isinstance(value, numbers.Integral) and value >= lo):
        raise error(f"{message}, got {value!r}")
