"""Exception types shared across the package, and the one rule for each
kind of scalar argument, ``check_integer`` and ``check_real`` (and its
sequences, ``check_reals``); sample blocks have theirs in ``data``."""

import numbers
import sys


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


def check_integer(value, lo: int, error: type, message: str):
    """The one rule for an integer argument: ``value`` if it is a Python or
    numpy integer >= ``lo`` (a bool, a float or a string that holds one is
    not), else ``error(f"{message}, got {value!r}")``."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= lo):
        raise error(f"{message}, got {value!r}")
    return value


def check_real(value, error: type, message: str,
               positive: bool = False) -> float:
    """The one rule for a real argument: ``value`` as a float, else
    ``error(f"{message}, got {value!r}")``.  It must be a Python or numpy
    real (not a bool, not a string), finite as a float (an int too large
    for one is not), and with ``positive`` > 0."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > 0 or not positive)):
        raise error(f"{message}, got {value!r}")
    return float(value)


def check_reals(values, error: type, message: str,
                positive: bool = False) -> tuple:
    """``check_real`` over a list, a tuple or a 1-d array: the values as a
    tuple of floats; anything else raises ``error`` with ``message``."""
    if not (isinstance(values, (list, tuple))
            or getattr(values, "ndim", None) == 1):
        raise error(f"{message}: not a list, tuple or 1-d array: {values!r}")
    return tuple(check_real(v, error, message, positive) for v in values)
