"""Spectral series for the cone propagator kernel.

The central object is

    I(x, phi) = x^{-d} * sum_{m>=0} e^{-i pi nu_m / 2} J_{nu_m}(x)
                * ((m + d)/d) * C_m^d(cos phi),

evaluated by certified truncation: the analytic tail majorant

    sum_{m>M} x^{-d} ((m+d)/d) C_m^d(1) (x/2)^{nu_m} / Gamma(nu_m + 1)

is driven below the requested tolerance with a geometric-ratio closure.
The physical propagator kernel at time t and radii r1, r2 is a prefactor
times I(r1 r2 / (2t), phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .specfun import (
    DEFAULT_TOL,
    _lanczos,
    _log_gamma_array,
    bessel_j_many,
    gegenbauer_all,
    log_gamma,
)
from .spectrum import ConeParams, nu, nu_many

__all__ = [
    "KernelPoint",
    "PhysicalPoint",
    "SeriesResult",
    "truncation_index",
    "eval_I",
    "eval_I_multi",
    "eval_kernel",
    "kernel_prefactor",
    "kappa",
]

_TRUNCATION_CAP = 10_000_000
_RATIO_CAP = 0.95
# Candidate indices screened per NumPy pass of the truncation search: the
# block doubles from the first size up to the last, so a search that ends
# at M costs O(M) array work and never allocates more than one block.
_BLOCK_FIRST = 64
_BLOCK_LAST = 1 << 15
# Relative width of the screen's margin, measured against the magnitude of
# the summands of a log-tail term.  The array and scalar forms of a term
# differ by a few ulps of that magnitude (np.log and math.log may round
# differently); the margin is over a thousand times wider.
_SCREEN_SLACK = 1e-12


def _check_positive(name: str, v) -> float:
    if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
        raise DomainError(f"{name} must be a positive finite number, got {v!r}")
    return float(v)


def _check_angle(phi) -> float:
    if not (isinstance(phi, (int, float)) and math.isfinite(phi)):
        raise DomainError(f"phi must be a finite real number, got {phi!r}")
    if not 0.0 <= phi <= math.pi:
        raise DomainError(f"phi must lie in [0, pi], got {phi}")
    return float(phi)


@dataclass(frozen=True)
class KernelPoint:
    """Spectral-variable point: x = r1 r2 / (2t) > 0 and angle phi in [0, pi]."""

    x: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _check_positive("x", self.x))
        object.__setattr__(self, "phi", _check_angle(self.phi))


@dataclass(frozen=True)
class PhysicalPoint:
    """Physical-variable point: time t > 0, radii r1, r2 > 0, angle phi."""

    t: float
    r1: float
    r2: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _check_positive("t", self.t))
        object.__setattr__(self, "r1", _check_positive("r1", self.r1))
        object.__setattr__(self, "r2", _check_positive("r2", self.r2))
        object.__setattr__(self, "phi", _check_angle(self.phi))

    def to_kernel_point(self) -> KernelPoint:
        return KernelPoint(x=self.r1 * self.r2 / (2.0 * self.t), phi=self.phi)


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_bound: float


def _log_tail_term(params: ConeParams, x: float, m: int) -> float:
    """log of the m-th tail majorant term (endpoint Gegenbauer bound)."""
    # m >= 1 keeps every argument but 2d at or above 1, where log_gamma is
    # the bare Lanczos sum
    d = params.d
    nm = nu(params, m)
    log_c_end = _lanczos(m + 2.0 * d, math.log) - _lanczos(m + 1.0, math.log) - log_gamma(2.0 * d)
    return (
        -d * math.log(x)
        + math.log((m + d) / d)
        + log_c_end
        + nm * math.log(0.5 * x)
        - _lanczos(nm + 1.0, math.log)
    )


def _certify_tail(params: ConeParams, x: float, m: int, tol: float) -> float | None:
    """Certified bound on the tail beyond index m, or None if the
    geometric closure does not yet apply."""
    lt1 = _log_tail_term(params, x, m + 1)
    if lt1 >= math.log(tol) - math.log(10.0):
        return None
    lt2 = _log_tail_term(params, x, m + 2)
    lt3 = _log_tail_term(params, x, m + 3)
    r = max(math.exp(lt2 - lt1), math.exp(lt3 - lt2))
    if r > _RATIO_CAP:
        return None
    tail = math.exp(lt1) / (1.0 - r)
    return tail if tail < tol else None


def _screen(params: ConeParams, x: float, tol: float, m0: int, m1: int) -> np.ndarray:
    """Indices m in [m0, m1) that may pass _certify_tail, from one array
    pass.  Every test is biased towards passing by more than the array and
    scalar forms of the log-tail terms can differ, so every index that the
    scalar check accepts is kept; the caller confirms them in order."""
    d = params.d
    ms = np.arange(m0 + 1, m1 + 3)
    fm = ms.astype(float)
    nms = nu_many(params, ms)
    log_h = math.log(0.5 * x)
    lg_top, lg_fact, lg_nu = _log_gamma_array(
        np.concatenate((fm + 2.0 * d, fm + 1.0, nms + 1.0))
    ).reshape(3, -1)
    lt = (
        np.log((fm + d) / d)
        + (lg_top - lg_fact)
        + (nms * log_h - lg_nu)
        + (-d * math.log(x) - log_gamma(2.0 * d))
    )
    # every summand, log-gamma internals included, is largest at the last m
    size = float(nms[-1] + fm[-1]) + 2.0 * d + 10.0
    slack = _SCREEN_SLACK * (
        1.0 + abs(d * math.log(x)) + float(nms[-1]) * abs(log_h) + 4.0 * size * math.log(size)
    )
    # clipping keeps exp finite without changing any verdict
    lt_cut = math.log(tol) - math.log(10.0)
    lt1 = np.minimum(lt[:-2] - slack, lt_cut)
    steps = lt[1:] - lt[:-1]
    r = np.exp(np.minimum(np.maximum(steps[:-1], steps[1:]) - slack, 0.0))
    tail = np.exp(lt1) / (1.0 - np.minimum(r, _RATIO_CAP))
    ok = (lt1 < lt_cut) & (r <= _RATIO_CAP) & (tail < tol)
    return m0 + np.nonzero(ok)[0]


def _truncation(params: ConeParams, x: float, tol: float) -> tuple[int, float]:
    """First m in [0, _TRUNCATION_CAP] that _certify_tail accepts, with its
    tail bound: blocks of m are screened in bulk, then each surviving index
    is confirmed in order by the scalar check, so M and the bound equal a
    scan of _certify_tail over m = 0, 1, 2, ..."""
    m0 = 0
    block = _BLOCK_FIRST
    while m0 <= _TRUNCATION_CAP:
        m1 = min(m0 + block, _TRUNCATION_CAP + 1)
        for m in _screen(params, x, tol, m0, m1):
            tail = _certify_tail(params, x, int(m), tol)
            if tail is not None:
                return int(m), tail
        m0 = m1
        block = min(2 * block, _BLOCK_LAST)
    raise CapacityError(f"truncation index exceeded {_TRUNCATION_CAP} at x = {x}")


def truncation_index(params: ConeParams, x: float, tol: float) -> int:
    """Smallest M whose certified analytic tail bound beyond M is < tol."""
    x = _check_positive("x", x)
    tol = _check_positive("tol", tol)
    return _truncation(params, x, tol)[0]


def eval_I_multi(
    params: ConeParams,
    x: float,
    phis,
    tol: float = 1e-10,
    terms: int | None = None,
) -> list[SeriesResult]:
    """Evaluate the series at one x and several angles, sharing the Bessel
    batch across angles.  eval_I(params, KernelPoint(x, phi)) is exactly
    the single-angle case of this path, so the two agree bitwise.
    """
    x = _check_positive("x", x)
    tol = _check_positive("tol", tol)
    phis = [_check_angle(p) for p in phis]
    if not phis:
        raise DomainError("need at least one angle")
    if terms is None:
        m_top, tail = _truncation(params, x, tol)
    else:
        if not isinstance(terms, (int, np.integer)) or terms < 0:
            raise DomainError(f"terms must be a nonnegative integer, got {terms!r}")
        m_top = int(terms)
        certified = _certify_tail(params, x, m_top, tol)
        tail = certified if certified is not None else math.inf

    d = params.d
    ms = np.arange(m_top + 1)
    nus = nu_many(params, ms)
    js = bessel_j_many(nus, x, DEFAULT_TOL)
    # e^{-i pi nu/2}: reduce nu mod 4 exactly first (fmod is exact).
    r4 = np.mod(nus, 4.0)
    angles = -0.5 * math.pi * r4
    phase_re = np.cos(angles)
    phase_im = np.sin(angles)
    amp = js * ((ms + d) / d)
    scale = x ** (-d)

    results = []
    for phi in phis:
        cg = gegenbauer_all(m_top, d, math.cos(phi))
        a = amp * cg
        # fsum is correctly rounded: no accumulation error beyond the products
        re = math.fsum((a * phase_re).tolist())
        im = math.fsum((a * phase_im).tolist())
        value = complex(scale * re, scale * im)
        results.append(SeriesResult(value=value, terms_used=m_top + 1, tail_bound=tail))
    return results


def eval_I(
    params: ConeParams,
    pt: KernelPoint,
    tol: float = 1e-10,
    terms: int | None = None,
) -> SeriesResult:
    """Certified evaluation of I(x, phi): |value - I| <= tail_bound plus
    accumulated special-function error; tail_bound <= tol."""
    return eval_I_multi(params, pt.x, [pt.phi], tol=tol, terms=terms)[0]


def kappa(n: float) -> float:
    """Normalization constant d 2^d Gamma(d) (2 pi)^{-n/2}, calibrated so the
    flat-space (rho=1, c=0) kernel modulus equals (4 pi t)^{-n/2}."""
    d = (float(n) - 2.0) / 2.0
    if d <= 0.0:
        raise DomainError(f"kappa requires n > 2, got {n}")
    return d * 2.0**d * math.exp(log_gamma(d)) * (2.0 * math.pi) ** (-n / 2.0)


def kernel_prefactor(params: ConeParams, pt: PhysicalPoint) -> complex:
    """Everything in front of I(x, phi) in the propagator kernel:
    (kappa_n / rho^{n-1}) (2t)^{-n/2} e^{+i (r1^2+r2^2)/(4t)} / i.

    Phase convention: e^{-(r1^2+r2^2)/(4it)} = e^{+i(r1^2+r2^2)/(4t)}.
    The overall unimodular factor 1/i is fixed only up to the sign of the
    calibration constant; moduli are convention-free.
    """
    n = params.n
    pref = kappa(n) / params.rho ** (n - 1.0) * (2.0 * pt.t) ** (-n / 2.0)
    phase = (pt.r1 * pt.r1 + pt.r2 * pt.r2) / (4.0 * pt.t)
    return pref * complex(math.cos(phase), math.sin(phase)) * complex(0.0, -1.0)


def eval_kernel(params: ConeParams, pt: PhysicalPoint, tol: float = 1e-10) -> complex:
    """Propagator kernel value at a physical point."""
    series = eval_I(params, pt.to_kernel_point(), tol=tol)
    return kernel_prefactor(params, pt) * series.value
