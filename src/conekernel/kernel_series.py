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
from itertools import groupby

import numpy as np

from . import specfun
from ._checks import check_angle, check_nonnegative_int, check_positive
from .errors import CapacityError, DomainError
from .specfun import (
    DEFAULT_TOL,
    _lanczos,
    _log_gamma_array,
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
# Largest (x values x candidate indices) array of one screen pass (2 MB).
_SCREEN_ELEMS = 1 << 18


@dataclass(frozen=True)
class KernelPoint:
    """Spectral-variable point: x = r1 r2 / (2t) > 0 and angle phi in [0, pi]."""

    x: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", check_positive("x", self.x))
        object.__setattr__(self, "phi", check_angle(self.phi))


@dataclass(frozen=True)
class PhysicalPoint:
    """Physical-variable point: time t > 0, radii r1, r2 > 0, angle phi."""

    t: float
    r1: float
    r2: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", check_positive("t", self.t))
        object.__setattr__(self, "r1", check_positive("r1", self.r1))
        object.__setattr__(self, "r2", check_positive("r2", self.r2))
        object.__setattr__(self, "phi", check_angle(self.phi))

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


def _screen(params: ConeParams, xs, tol: float, m0: int, m1: int):
    """For each x, the indices m in [m0, m1) that may pass _certify_tail,
    from array passes over the (x, m) grid.  Every test is biased towards
    passing by more than the array and scalar forms of the log-tail terms
    can differ, so every index that the scalar check accepts is kept; the
    caller confirms them in order.  The x-independent parts of the terms
    are formed once; at most _SCREEN_ELEMS grid cells are held at a time."""
    d = params.d
    ms = np.arange(m0 + 1, m1 + 3)
    fm = ms.astype(float)
    nms = nu_many(params, ms)
    lg_top, lg_fact, lg_nu = _log_gamma_array(
        np.concatenate((fm + 2.0 * d, fm + 1.0, nms + 1.0))
    ).reshape(3, -1)
    base = np.log((fm + d) / d) + (lg_top - lg_fact)
    # every summand, log-gamma internals included, is largest at the last m
    size = float(nms[-1] + fm[-1]) + 2.0 * d + 10.0
    lt_cut = math.log(tol) - math.log(10.0)
    found = []
    rows = max(1, _SCREEN_ELEMS // ms.shape[0])
    for lo in range(0, len(xs), rows):
        part = xs[lo : lo + rows]
        log_x = np.array([math.log(x) for x in part])[:, None]
        log_h = np.array([math.log(0.5 * x) for x in part])[:, None]
        lt = base + (nms * log_h - lg_nu) + (-d * log_x - log_gamma(2.0 * d))
        slack = _SCREEN_SLACK * (
            1.0 + np.abs(d * log_x) + float(nms[-1]) * np.abs(log_h) + 4.0 * size * math.log(size)
        )
        # clipping keeps exp finite without changing any verdict
        lt1 = np.minimum(lt[:, :-2] - slack, lt_cut)
        steps = np.diff(lt, axis=1)
        r = np.exp(np.minimum(np.maximum(steps[:, :-1], steps[:, 1:]) - slack, 0.0))
        tail = np.exp(lt1) / (1.0 - np.minimum(r, _RATIO_CAP))
        ok = (lt1 < lt_cut) & (r <= _RATIO_CAP) & (tail < tol)
        found.extend(m0 + np.nonzero(row)[0] for row in ok)
    return found


def _truncations(params: ConeParams, xs, tol: float) -> list[tuple[int, float]]:
    """(M, tail bound) of _truncation for every x, searched together: each
    block of the schedule is screened for all still-uncertified x in one
    grid pass, and each x's survivors are confirmed in order by the scalar
    check, so every M and bound equals the one-x search."""
    found: list = [None] * len(xs)
    pending = list(range(len(xs)))
    m0 = 0
    block = _BLOCK_FIRST
    while pending and m0 <= _TRUNCATION_CAP:
        m1 = min(m0 + block, _TRUNCATION_CAP + 1)
        candidates = _screen(params, [xs[i] for i in pending], tol, m0, m1)
        for i, cands in zip(pending, candidates):
            for m in cands:
                tail = _certify_tail(params, xs[i], int(m), tol)
                if tail is not None:
                    found[i] = (int(m), tail)
                    break
        pending = [i for i in pending if found[i] is None]
        m0 = m1
        block = min(2 * block, _BLOCK_LAST)
    if pending:
        raise CapacityError(f"truncation index exceeded {_TRUNCATION_CAP} at x = {xs[pending[0]]}")
    return found


def _truncation(params: ConeParams, x: float, tol: float) -> tuple[int, float]:
    """First m in [0, _TRUNCATION_CAP] that _certify_tail accepts, with its
    tail bound: blocks of m are screened in bulk, then each surviving index
    is confirmed in order by the scalar check, so M and the bound equal a
    scan of _certify_tail over m = 0, 1, 2, ..."""
    return _truncations(params, [x], tol)[0]


def truncation_index(params: ConeParams, x: float, tol: float) -> int:
    """Smallest M whose certified analytic tail bound beyond M is < tol."""
    x = check_positive("x", x)
    tol = check_positive("tol", tol)
    return _truncation(params, x, tol)[0]


def _eval_grid(
    params: ConeParams,
    xs,
    phis,
    tol: float,
    terms: int | None = None,
) -> list[list[SeriesResult]]:
    """The series at every x of xs and every angle of phis, unvalidated:
    per x, the list eval_I_multi(params, x, phis, tol, terms) returns,
    bitwise.  What does not depend on x is formed once: the truncation
    screen, the nu ladder and its phases up to the largest M, one
    Gegenbauer row per angle, and the quadrature faces per panel count.
    Each x uses a prefix of these; every one is an elementwise or
    sequential prefix computation, so the slices equal what a one-x
    evaluation forms.  The x values are visited grouped by panel count so
    only one count's faces are held at a time."""
    if terms is None:
        truncated = _truncations(params, xs, tol)
    else:
        m_top = int(terms)
        certified = [_certify_tail(params, x, m_top, tol) for x in xs]
        truncated = [(m_top, math.inf if c is None else c) for c in certified]
    m_max = max(m for m, _ in truncated)

    d = params.d
    ms = np.arange(m_max + 1)
    nus = nu_many(params, ms)
    # e^{-i pi nu/2}: reduce nu mod 4 exactly first (fmod is exact).
    angles = -0.5 * math.pi * np.mod(nus, 4.0)
    phase_re = np.cos(angles)
    phase_im = np.sin(angles)
    weight = (ms + d) / d
    cgs = [gegenbauer_all(m_max, d, math.cos(phi)) for phi in phis]

    # nu_m increases with m, so each x's quadrature orders (x > max(12,
    # nu/2), as in bessel_j_many) are a prefix of the ladder: its length
    # and the panel count it implies
    quad = []
    for x, (m_top, _) in zip(xs, truncated):
        n_quad = int(np.count_nonzero(x > np.maximum(12.0, 0.5 * nus[: m_top + 1])))
        n_panels = specfun._panel_count(float(nus[n_quad - 1]), x) if n_quad else 0
        quad.append((n_panels, n_quad))

    results: list = [None] * len(xs)
    order = sorted(range(len(xs)), key=lambda i: quad[i][0])
    for _, group in groupby(order, key=lambda i: quad[i][0]):
        group = list(group)
        longest = max(quad[i][1] for i in group)
        # a lone x on its panel count forms its faces chunk by chunk, as a
        # one-x batch does, so scans that share nothing hold nothing extra
        n_panels = quad[group[0]][0]
        faces = specfun._quad_faces(nus[:longest], n_panels) if longest and len(group) > 1 else None
        for i in group:
            x = xs[i]
            m_top, tail = truncated[i]
            n_terms = m_top + 1
            n_quad = quad[i][1]
            js = np.empty(n_terms)
            for m in range(n_quad, n_terms):
                js[m] = specfun._bessel_series(float(nus[m]), x, DEFAULT_TOL)
            if n_quad:
                js[:n_quad] = specfun._bessel_quad_batch(
                    nus[:n_quad],
                    x,
                    DEFAULT_TOL,
                    faces=None if faces is None else tuple(f[:n_quad] for f in faces),
                )
            amp = js * weight[:n_terms]
            scale = x ** (-d)
            out = []
            for cg in cgs:
                a = amp * cg[:n_terms]
                # fsum is correctly rounded: no accumulation error beyond the products
                re = math.fsum((a * phase_re[:n_terms]).tolist())
                im = math.fsum((a * phase_im[:n_terms]).tolist())
                value = complex(scale * re, scale * im)
                out.append(SeriesResult(value=value, terms_used=n_terms, tail_bound=tail))
            results[i] = out
    return results


def eval_I_multi(
    params: ConeParams,
    x: float,
    phis,
    tol: float = 1e-10,
    terms: int | None = None,
) -> list[SeriesResult]:
    """Evaluate the series at one x and several angles, sharing the Bessel
    batch across angles.  eval_I(params, KernelPoint(x, phi)) is exactly
    the single-angle case of this path, so the two agree bitwise, and a
    scan evaluates every x through the same path.
    """
    x = check_positive("x", x)
    tol = check_positive("tol", tol)
    phis = [check_angle(p) for p in phis]
    if not phis:
        raise DomainError("need at least one angle")
    if terms is not None:
        terms = check_nonnegative_int("terms", terms)
    return _eval_grid(params, [x], phis, tol, terms)[0]


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
