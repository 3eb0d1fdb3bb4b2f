"""Cone parameters and the angular eigenvalue ladder.

A product cone C(rho * S^{n-1}) with inverse-square coupling c carries the
spherical eigenvalue ladder

    nu_m = sqrt(m (m + 2d) / rho^2 + d^2 + c),   d = (n - 2) / 2,

valid in the subcritical range c > -d^2 (so nu_0 = sqrt(d^2 + c) > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_finite
from .errors import DomainError

__all__ = ["ConeParams", "nu_many"]


def _validate_common(rho: float, n: float, c: float) -> None:
    for name, v in (("rho", rho), ("n", n), ("c", c)):
        check_finite(name, v)
    if rho <= 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    d = (n - 2.0) / 2.0
    if d <= 0.0:
        raise DomainError(f"n must exceed 2 (got n = {n}, so d = {d} <= 0)")
    if not c > -d * d:
        raise DomainError(
            f"subcritical condition violated: need c > -((n-2)/2)^2 = {-d * d}, got c = {c}"
        )


@dataclass(frozen=True)
class ConeParams:
    """Cross-section radius rho > 0, ambient dimension n >= 3 (integer),
    inverse-square coupling c > -((n-2)/2)^2."""

    rho: float
    n: float
    c: float

    def __post_init__(self) -> None:
        _validate_common(self.rho, self.n, self.c)
        if not float(self.n).is_integer() or self.n < 3:
            raise DomainError(f"n must be an integer >= 3, got {self.n!r}")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(self, "c", float(self.c))

    @staticmethod
    def _from_d(rho: float, d: float, c: float) -> "ConeParams":
        """Test-harness hook: build directly from real d > 0, bypassing the
        integer-n gate (n = 2d + 2 may then be non-integral or < 3)."""
        n = 2.0 * float(d) + 2.0
        _validate_common(float(rho), n, float(c))
        obj = object.__new__(ConeParams)
        object.__setattr__(obj, "rho", float(rho))
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "c", float(c))
        return obj

    @property
    def d(self) -> float:
        return (self.n - 2.0) / 2.0

    @property
    def nu0(self) -> float:
        return math.sqrt(self.d * self.d + self.c)


def nu_many(params: ConeParams, ms: np.ndarray) -> np.ndarray:
    """Angular eigenvalue orders nu_m = sqrt(m(m+2d)/rho^2 + d^2 + c) over an
    integer array of mode indices."""
    ms = np.asarray(ms)
    if ms.size and (np.any(ms < 0) or not np.issubdtype(ms.dtype, np.integer)):
        raise DomainError("mode indices must be nonnegative integers")
    fm = ms.astype(float)
    d = params.d
    return np.sqrt(fm * (fm + 2.0 * d) / (params.rho * params.rho) + d * d + params.c)

