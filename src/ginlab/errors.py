"""The one exception class for bad parameters, and the checks of sizes, points and times.

``UsageError`` marks a caller's parameter that no computation can satisfy
(a size, a sample count, a point set); the command line maps it to exit
code 2.  Numerical failures keep their own classes and exit code 1.

Every matrix size, sample count, point list and time in the package goes
through :func:`at_least`, :func:`point_array` and :func:`positive_time`: a
size or a count is an integer no smaller than what its formula needs, a
point list is nonempty and finite, a time is finite and positive.  Bin
edges, which :func:`ginlab.sampler.estimate_signed_density` checks, must be
finite too.
"""

import numpy as np


class UsageError(ValueError):
    """A parameter is out of its supported range."""


def at_least(value, minimum: int, what: str) -> int:
    """``value`` as an int: an int or np.integer no smaller than ``minimum``.
    ``what`` is its unit in the refusal, such as "samples"."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise UsageError(f"need a whole number of at least {minimum} {what}, got {value!r}")
    return int(value)


def point_array(points, even: bool = False) -> np.ndarray:
    """``points`` as a flat float array, nonempty and finite (of even length if ``even``)."""
    x = np.asarray(points, dtype=float).reshape(-1)
    if not x.size or not np.isfinite(x).all():
        raise UsageError(f"points must be a nonempty finite list, got {points!r}")
    if even and x.size % 2:
        raise UsageError(f"need an even number of points, got {x.size}")
    return x


def _finite_positive(value, name: str) -> float:
    """``value`` as a float, finite and positive; a refusal calls it ``name``."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise UsageError(f"{name} must be finite and positive, got {value!r}")
    return value


def positive_time(t) -> float:
    """``t`` as a float, finite and positive."""
    return _finite_positive(t, "t")
