"""Exception types shared across the library, and the argument checks that raise them."""
import operator

import numpy as np


class SurfNitscheError(Exception):
    """Base class for all errors raised by this library."""


class DegenerateInputError(SurfNitscheError, ValueError):
    """Geometry query at a point where the closest-point map is not unique."""


class ProjectionError(SurfNitscheError, RuntimeError):
    """Boundary-curve projection did not converge to a valid minimizer."""


class UnsupportedDegreeError(SurfNitscheError, ValueError):
    """Requested quadrature or polynomial degree outside the supported range."""


class InvalidArgumentError(SurfNitscheError, ValueError):
    """Argument outside its valid range or set of choices."""


class MeshInvalidError(SurfNitscheError, RuntimeError):
    """Mesh with a folded element (nonpositive area Jacobian), or too coarse for the surface."""


class DegenerateElementError(SurfNitscheError, RuntimeError):
    """Element or edge geometry is singular at an evaluation point."""


class InvalidPenaltyError(SurfNitscheError, ValueError):
    """Penalty beta not finite and positive, overflowing the system, or below stability."""


class SolverError(SurfNitscheError, RuntimeError):
    """Base class for linear-solver failures."""


class NotPositiveDefiniteError(SolverError):
    """Negative curvature or a nonpositive pivot; the matrix is not positive definite."""


class MaxIterationsExceededError(SolverError):
    """Iteration cap reached before the requested tolerance was met."""


def integer(name, value, error=InvalidArgumentError):
    """value as an int (Python and NumPy integers); otherwise ``error`` naming it and its value."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def choice(name, value, choices):
    """value if it is a string among ``choices``; otherwise InvalidArgumentError naming it."""
    if isinstance(value, str) and value in choices:
        return value
    raise InvalidArgumentError(f"unknown {name} {value!r}")


def float_array(name, values, shape=None, finite=False, error=InvalidArgumentError):
    """values as a float array of ``shape`` (any shape if None), with only
    finite entries if ``finite``; otherwise ``error`` naming them.  Only bool,
    integer and float data are real: no string (even "1.5") or complex value."""
    try:
        array = np.asarray(values)
        real = array.dtype.kind in "biuf"
    except (TypeError, ValueError):  # ragged nesting
        real = False
    if not real:
        raise error(f"{name} must be real-valued")
    array = array.astype(float, copy=False)
    if shape is not None and array.shape != shape:
        raise error(f"{name} has shape {array.shape}, expected {shape}")
    if finite and not np.all(np.isfinite(array)):
        raise error(f"{name} has non-finite entries")
    return array
