"""Cone parameters and the angular eigenvalue ladder.

A product cone C(rho * S^{n-1}) with inverse-square coupling c carries the
spherical eigenvalue ladder

    nu_m = sqrt(m (m + 2d) / rho^2 + d^2 + c),   d = (n - 2) / 2,

valid in the subcritical range c > -d^2 (so nu_0 = sqrt(d^2 + c) > 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_nonnegative_int
from .errors import DomainError

__all__ = ["ConeParams", "nu", "nu_many", "nu_asymptotic_gap"]


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

    def to_json(self) -> str:
        n = self.n
        return json.dumps(
            {"rho": self.rho, "n": int(n) if float(n).is_integer() else n, "c": self.c}
        )

    @staticmethod
    def from_json(text: str) -> "ConeParams":
        """Parameters from a JSON object with exactly the keys rho, n and c;
        each value is checked as the constructor checks it."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"cone parameters are not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError(f"cone parameters must be a JSON object, got {data!r}")
        extra = set(data) - {"rho", "n", "c"}
        if extra:
            raise DomainError(f"unexpected keys in cone parameters: {sorted(extra)}")
        try:
            return ConeParams(rho=data["rho"], n=data["n"], c=data["c"])
        except KeyError as exc:
            raise DomainError(f"missing key in cone parameters: {exc}") from exc


def nu(params: ConeParams, m: int) -> float:
    """Angular eigenvalue order nu_m = sqrt(m(m+2d)/rho^2 + d^2 + c)."""
    fm = float(check_nonnegative_int("mode index m", m))
    d = params.d
    return math.sqrt(fm * (fm + 2.0 * d) / (params.rho * params.rho) + d * d + params.c)


def nu_many(params: ConeParams, ms: np.ndarray) -> np.ndarray:
    """Vectorized nu_m over an integer array of mode indices."""
    ms = np.asarray(ms)
    if ms.size and (np.any(ms < 0) or not np.issubdtype(ms.dtype, np.integer)):
        raise DomainError("mode indices must be nonnegative integers")
    fm = ms.astype(float)
    d = params.d
    return np.sqrt(fm * (fm + 2.0 * d) / (params.rho * params.rho) + d * d + params.c)


def nu_asymptotic_gap(params: ConeParams, m: int) -> float:
    """nu_m - (m + d)/rho, evaluated cancellation-free.

    Since nu_m^2 - ((m+d)/rho)^2 = c + d^2 (1 - rho^{-2}) is constant in m,
    the gap is that constant over nu_m + (m+d)/rho, which decays like 1/m.
    """
    fm = float(check_nonnegative_int("mode index m", m))
    if fm < 1:
        raise DomainError("nu_asymptotic_gap requires m >= 1")
    d = params.d
    rho = params.rho
    numerator = params.c + d * d * (1.0 - 1.0 / (rho * rho))
    return numerator / (nu(params, m) + (fm + d) / rho)
