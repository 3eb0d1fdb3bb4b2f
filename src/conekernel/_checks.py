"""Argument validators shared across the package: one per kind of argument.

Each returns the normalized value or raises DomainError.  Any
numbers.Real is a number here, NumPy scalars included, but booleans are
not, although Python counts them as integers; is_real is the test, for
callers that raise another error type.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError


def is_real(v) -> bool:
    # float first: it is the usual argument, and the numbers.Real check
    # costs about 1 us, paid once per order on the power-series path
    return isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def check_finite(name: str, v) -> float:
    if not (is_real(v) and math.isfinite(v)):
        raise DomainError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


def check_positive(name: str, v) -> float:
    if not (is_real(v) and math.isfinite(v) and v > 0):
        raise DomainError(f"{name} must be a positive finite number, got {v!r}")
    return float(v)


def check_angle(phi) -> float:
    check_finite("phi", phi)
    if not 0.0 <= phi <= math.pi:
        raise DomainError(f"phi must lie in [0, pi], got {phi}")
    return float(phi)


def check_endpoint_angle(phi0) -> float:
    if phi0 == 0.0:
        return 0.0
    if phi0 == math.pi:
        return math.pi
    raise DomainError(f"phi0 must be exactly 0 or pi, got {phi0!r}")


def check_sign(name: str, v) -> int:
    if not (isinstance(v, numbers.Real) and not isinstance(v, bool) and v in (1, -1)):
        raise DomainError(f"{name} must be +1 or -1, got {v!r}")
    return int(v)


def check_nonnegative_int(name: str, v) -> int:
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")
    return int(v)


def check_integer(name: str, v) -> int:
    """An integer, or a float with an integral value (a hand-written JSON
    config may spell 3 as 3.0)."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    return int(v)
