"""Exception types shared across the package, and the three checks that
every entry point applies to outside input: real_array (element coords,
map and congruence matrices, spectra, mixture weights), check_count
(restarts, max_iters, seed, trials, starts, n, grid_points) and check_tol
(the tol of EstimatorConfig and is_invertible). Each raises TypeError on
complex input, a non-integer count or a bool, ValueError on a wrong shape,
a value below its minimum or an array size past NumPy's largest
dimension, and NonFiniteInputError on a NaN or infinite value. This
module imports nothing else from the package."""

import numbers

import numpy as np


class JspecError(Exception):
    """Base class for all package-specific errors."""


class AlgebraMismatchError(JspecError):
    """Two operands live on different algebra descriptors."""


class DegenerateInputError(JspecError):
    """An input is zero / non-invertible where the operation needs otherwise."""


class NonFiniteInputError(JspecError):
    """An array input or a tolerance holds a NaN or infinite value."""


class UnsupportedCaseError(JspecError):
    """No closed form or bound is known for the requested combination."""


class DescriptorError(JspecError):
    """Malformed algebra descriptor string."""


class ReportError(JspecError):
    """A report file could not be read or written, or failed schema or
    checksum validation."""


def real_array(x, shape: tuple, what: str) -> np.ndarray:
    """x as a new, read-only, C-ordered float array of the given shape.
    C order keeps later matmuls on one BLAS path whatever the layout of x."""
    if np.iscomplexobj(x):  # the float cast would drop the imaginary parts
        raise TypeError(f"{what} must be real")
    a = np.array(x, dtype=float, order="C")
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteInputError(f"{what} must be finite")
    a.flags.writeable = False
    return a


def check_count(name: str, value, low: int, size: bool = False) -> None:
    """Reject a count that is not an integer (a bool included), is below
    low or, if it sizes an array (size), is past NumPy's largest dimension."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    high = np.iinfo(np.intp).max
    if size and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def check_tol(name: str, value) -> None:
    """Reject a tolerance that is a bool, NaN or infinite, or negative."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise NonFiniteInputError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
