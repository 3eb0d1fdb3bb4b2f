"""Spectral series for the cone propagator kernel.

The central object is

    I(x, phi) = x^{-d} * sum_{m>=0} e^{-i pi nu_m / 2} J_{nu_m}(x)
                * ((m + d)/d) * C_m^d(cos phi),

evaluated by certified truncation: the analytic tail majorant

    sum_{m>M} x^{-d} ((m+d)/d) C_m^d(1) (x/2)^{nu_m} / Gamma(nu_m + 1)

is driven below the requested tolerance with a geometric-ratio closure.
The physical propagator kernel at time t and radii r1, r2 is a prefactor
times I(r1 r2 / (2t), phi).

Every evaluation goes through one grid path, _eval_grid, which forms what
does not depend on x once per grid.  A one-x call (eval_I, eval_I_multi)
computes J_{nu_m}(x) order by order and sums the products exactly
rounded.  In the Bessel quadrature region J comes from the sinc series
of its own samples at half-integer orders (specfun), with weights that
depend on the order alone, built once per grid.  On a dense grid, runs
of x whose orders all lie in that region are banded: the m-sum is moved
through the sampling series once per run (specfun._bessel_quad_band),
so each x costs its samples and one product, in the spirit of the
functional-calculus form of cone kernels (Cheeger & Taylor, CPAM 35,
1982).  A band value differs from the one-x
value by a few eps * sum_{m < N_b} |a_m| x^{-d},
|a_m| = ((m+d)/d) max_phi |C_m^d(cos phi)|, and bands are sized so that
this scale stays within 1.25 times each x's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .spectrum import ConeParams, nu_many

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
# A band's rounding scale eps * sum_{m < N_b} |a_m| may exceed each
# member's own eps * sum_{m <= M(x)} |a_m| by at most this factor (_groups).
_BAND_GROWTH = 1.25


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


def _log_tail_term(params: ConeParams, x: float, m: int, log_gamma_2d: float) -> float:
    """log of the m-th tail majorant term (endpoint Gegenbauer bound), given
    log_gamma(2d)."""
    # m >= 1 keeps every argument but 2d at or above 1, where log_gamma is
    # the bare Lanczos sum; nu_m is nu_many's arithmetic on one m, unvalidated
    d = params.d
    fm = float(m)
    nm = math.sqrt(fm * (fm + 2.0 * d) / (params.rho * params.rho) + d * d + params.c)
    log_c_end = _lanczos(m + 2.0 * d, math.log) - _lanczos(m + 1.0, math.log) - log_gamma_2d
    return (
        -d * math.log(x)
        + math.log((m + d) / d)
        + log_c_end
        + nm * math.log(0.5 * x)
        - _lanczos(nm + 1.0, math.log)
    )


def _certify_tail(
    params: ConeParams, x: float, m: int, tol: float, log_gamma_2d: float | None = None
) -> float | None:
    """Certified bound on the tail beyond index m, or None if the
    geometric closure does not yet apply.  A caller that certifies many
    indices passes log_gamma(2d) in once."""
    if log_gamma_2d is None:
        log_gamma_2d = log_gamma(2.0 * params.d)
    lt1 = _log_tail_term(params, x, m + 1, log_gamma_2d)
    if lt1 >= math.log(tol) - math.log(10.0):
        return None
    lt2 = _log_tail_term(params, x, m + 2, log_gamma_2d)
    lt3 = _log_tail_term(params, x, m + 3, log_gamma_2d)
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
    """(M, tail bound) for every x: the first m in [0, _TRUNCATION_CAP] that
    _certify_tail accepts, with its tail bound.  Each block of the schedule
    is screened for all still-uncertified x in one grid pass, and each x's
    survivors are confirmed in order by the scalar check, so M and the
    bound equal a scan of _certify_tail over m = 0, 1, 2, ... at that x."""
    found: list = [None] * len(xs)
    pending = list(range(len(xs)))
    log_gamma_2d = log_gamma(2.0 * params.d)
    m0 = 0
    block = _BLOCK_FIRST
    while pending and m0 <= _TRUNCATION_CAP:
        m1 = min(m0 + block, _TRUNCATION_CAP + 1)
        candidates = _screen(params, [xs[i] for i in pending], tol, m0, m1)
        for i, cands in zip(pending, candidates):
            for m in cands:
                tail = _certify_tail(params, xs[i], int(m), tol, log_gamma_2d)
                if tail is not None:
                    found[i] = (int(m), tail)
                    break
        pending = [i for i in pending if found[i] is None]
        m0 = m1
        block = min(2 * block, _BLOCK_LAST)
    if pending:
        raise CapacityError(f"truncation index exceeded {_TRUNCATION_CAP} at x = {xs[pending[0]]}")
    return found


def truncation_index(params: ConeParams, x: float, tol: float) -> int:
    """Smallest M whose certified analytic tail bound beyond M is < tol."""
    x = check_positive("x", x)
    tol = check_positive("tol", tol)
    return _truncations(params, [x], tol)[0][0]


def _ladder(params: ConeParams, m_max: int, phis):
    """nu_m, the phase e^{-i pi nu_m/2} as (cos, sin), the weight (m+d)/d
    and one Gegenbauer row per angle, for m = 0..m_max.  Each entry is an
    elementwise or sequential prefix computation, so a longer ladder,
    sliced, is bitwise the shorter one."""
    d = params.d
    ms = np.arange(m_max + 1)
    nus = nu_many(params, ms)
    # e^{-i pi nu/2}: reduce nu mod 4 exactly first (fmod is exact).
    angles = -0.5 * math.pi * np.mod(nus, 4.0)
    weight = (ms + d) / d
    cgs = [gegenbauer_all(m_max, d, math.cos(phi)) for phi in phis]
    return nus, (np.cos(angles), np.sin(angles)), weight, cgs


def _groups(xs, truncated, nus, weight, cgs) -> list[list[int]]:
    """The x of a grid, as indices in ascending x, cut into runs that may
    share one band over the orders [0, N_b), N_b = max M(x) + 1.
    A run grows while all three hold for every member:
      * its rounding scale eps * sum_{m < N_b} |a_m| stays within
        _BAND_GROWTH of its own eps * sum_{m <= M(x)} |a_m|, with
        |a_m| = ((m+d)/d) max_phi |C_m^d(cos phi)|;
      * every order below N_b is a quadrature order at the run's smallest
        x, x > max(12, nu/2);
      * its quadrature precision needs no relative floor,
        _quad_achieved(x) <= abs_tol.
    An x with series orders, or past that precision, is a run of its own."""
    scale = np.cumsum(weight * np.max(np.abs(cgs), axis=0))
    abs_tol = DEFAULT_TOL.abs_tol
    runs: list[list[int]] = []
    x_lo = None
    for i in sorted(range(len(xs)), key=xs.__getitem__):
        x = xs[i]
        m_top = truncated[i][0]
        eligible = x > max(12.0, 0.5 * nus[m_top]) and specfun._quad_achieved(x) <= abs_tol
        if eligible and x_lo is not None:
            n_new = max(n_band, m_top + 1)
            s_new = min(s_low, scale[m_top])
            if scale[n_new - 1] <= _BAND_GROWTH * s_new and x_lo > max(12.0, 0.5 * nus[n_new - 1]):
                runs[-1].append(i)
                n_band, s_low = n_new, s_new
                continue
        runs.append([i])
        x_lo = x if eligible else None
        n_band, s_low = m_top + 1, scale[m_top]
    return runs


def _eval_grid(
    params: ConeParams,
    xs,
    phis,
    tol: float,
    terms: int | None = None,
) -> list[list[SeriesResult]]:
    """The series at every x of xs and every angle of phis, unvalidated,
    as one list of per-angle results per x.  What does not depend on x is
    formed once: the truncation screen, the nu ladder and its phases up to
    the largest M, one Gegenbauer row per angle, and the Bessel sinc window
    over the longest run of quadrature orders (none if there is none).

    The x are visited in ascending order, in the runs of _groups.  A run
    of more than 2 x per angle is a band: its values come from one
    specfun._bessel_quad_band call, which sums the Bessel sinc series of
    the coefficients a_m(phi) e^{-i pi nu_m/2} over the orders [0, N_b)
    coefficient-first; each reports terms_used = N_b and keeps its own
    tail bound, which also covers the tail beyond N_b - 1.  A band value
    differs from the per-x one by at most a few
    eps * sum_{m < N_b} |a_m| * x^{-d}.  Every other x is evaluated alone,
    and is bitwise eval_I_multi(params, x, phis, tol, terms); a one-x call
    is always such an x."""
    if terms is None:
        truncated = _truncations(params, xs, tol)
    else:
        log_gamma_2d = log_gamma(2.0 * params.d)
        certified = [_certify_tail(params, x, int(terms), tol, log_gamma_2d) for x in xs]
        truncated = [(int(terms), math.inf if c is None else c) for c in certified]
    nus, (phase_re, phase_im), weight, cgs = _ladder(params, max(m for m, _ in truncated), phis)
    scales = [x ** (-params.d) for x in xs]
    # nu_m increases with m, so the quadrature orders (x > max(12, nu/2),
    # as in bessel_j) are a prefix of the ladder; every Bessel batch and
    # band reads a slice of one sinc window over the longest such prefix
    n_quads = [
        int(np.count_nonzero(x > np.maximum(12.0, 0.5 * nus[: m + 1]))) for x, (m, _) in zip(xs, truncated)
    ]
    window = specfun._sinc_window(nus[: max(n_quads)]) if max(n_quads) else None

    results: list = [None] * len(xs)
    for run in _groups(xs, truncated, nus, weight, cgs):
        if len(run) > 2 * len(phis):
            n_terms = max(truncated[i][0] for i in run) + 1
            a = weight[:n_terms] * np.array(cgs)[:, :n_terms]
            # rows 2j and 2j + 1: the real and imaginary coefficients of angle j
            coef = np.stack((a * phase_re[:n_terms], a * phase_im[:n_terms]), axis=1)
            sums = specfun._bessel_quad_band(
                coef.reshape(-1, n_terms), np.array([xs[i] for i in run]), tuple(w[:n_terms] for w in window)
            )
            for i, row in zip(run, sums.tolist()):
                s = scales[i]
                results[i] = [
                    SeriesResult(
                        value=complex(s * re, s * im), terms_used=n_terms, tail_bound=truncated[i][1]
                    )
                    for re, im in zip(row[::2], row[1::2])
                ]
            continue
        for i in run:
            x = xs[i]
            m_top, tail = truncated[i]
            n_terms = m_top + 1
            n_quad = n_quads[i]
            js = np.empty(n_terms)
            for m in range(n_quad, n_terms):
                js[m] = specfun._bessel_series(float(nus[m]), x, DEFAULT_TOL)
            if n_quad:
                js[:n_quad] = specfun._bessel_quad_batch(
                    nus[:n_quad], x, DEFAULT_TOL, tuple(w[:n_quad] for w in window)
                )
            amp = js * weight[:n_terms]
            out = []
            for cg in cgs:
                a = amp * cg[:n_terms]
                # fsum is correctly rounded: no accumulation error beyond the products
                re = math.fsum((a * phase_re[:n_terms]).tolist())
                im = math.fsum((a * phase_im[:n_terms]).tolist())
                value = complex(scales[i] * re, scales[i] * im)
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
