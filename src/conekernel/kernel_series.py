"""Spectral series for the cone propagator kernel.

The central object is

    I(x, phi) = x^{-d} * sum_{m>=0} e^{-i pi nu_m / 2} J_{nu_m}(x)
                * ((m + d)/d) * C_m^d(cos phi),

evaluated by certified truncation: the analytic tail majorant

    sum_{m>M} x^{-d} ((m+d)/d) C_m^d(1) (x/2)^{nu_m} / Gamma(nu_m + 1)

is driven below the requested tolerance with a geometric-ratio closure.
The physical propagator kernel at time t and radii r1, r2 is a prefactor
times I(r1 r2 / (2t), phi).

Every evaluation goes through one grid path, _eval_grid.  What does not
depend on x (the nu ladder and its phases, the truncation search's
per-order terms, one Gegenbauer row per angle, the Bessel sinc window) is
formed once per cone and kept for later calls on it: a one-entry memo
(_Cone) holds the last cone's prefixes, and a call slices them, growing
them when it needs more orders.  Every slice is bitwise what a fresh build
gives, so no value depends on what ran before.  The truncation search
starts at an index below which no term can pass (_first_index).  A one-x
call (eval_I, eval_I_multi) computes J_{nu_m}(x) order by order and sums
the products exactly rounded.  In the Bessel quadrature region J comes
from the sinc series of its own samples at half-integer orders
(specfun), with weights that depend on the order alone.  On a dense grid, runs
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
# The memo (_cone_of) keeps orders m < _MEMO_ORDERS.
_MEMO_ORDERS = 1 << 14


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


def _certify_tail(params: ConeParams, x: float, m: int, tol: float) -> float | None:
    """Certified bound on the tail beyond index m, or None if the
    geometric closure does not yet apply.  The x-independent summands of
    each log-tail term come from the cone's memo (_Cone.summands)."""
    summands = _cone_of(params, m + 4).summands
    d = params.d

    def log_term(j):  # log of the j-th tail majorant term (endpoint Gegenbauer bound)
        log_weight, log_c_end, nm, lg_nu = summands(j)
        return -d * math.log(x) + log_weight + log_c_end + nm * math.log(0.5 * x) - lg_nu

    lt1 = log_term(m + 1)
    if lt1 >= math.log(tol) - math.log(10.0):
        return None
    lt2 = log_term(m + 2)
    lt3 = log_term(m + 3)
    r = max(math.exp(lt2 - lt1), math.exp(lt3 - lt2))
    if r > _RATIO_CAP:
        return None
    tail = math.exp(lt1) / (1.0 - r)
    return tail if tail < tol else None


def _nu(params: ConeParams, m: int) -> float:
    """nu_m by nu_many's arithmetic on one m, unvalidated."""
    fm, d = float(m), params.d
    return math.sqrt(fm * (fm + 2.0 * d) / (params.rho * params.rho) + d * d + params.c)


def _per_order(params: ConeParams, lo: int, hi: int) -> tuple:
    """For m in [lo, hi): nu_m, cos and sin of the phase -pi nu_m/2, the
    weight (m+d)/d, and the screen's x-independent parts of a log-tail
    term, log((m+d)/d) + log Gamma(m+2d) - log Gamma(m+1) and
    log Gamma(nu_m + 1).  Every entry is elementwise in m."""
    d = params.d
    ms = np.arange(lo, hi)
    fm = ms.astype(float)
    nus = nu_many(params, ms)
    # e^{-i pi nu/2}: reduce nu mod 4 exactly first (fmod is exact).
    angles = -0.5 * math.pi * np.mod(nus, 4.0)
    weight = (fm + d) / d
    lg_top, lg_fact, lg_nu = _log_gamma_array(
        np.concatenate((fm + 2.0 * d, fm + 1.0, nus + 1.0))
    ).reshape(3, -1)
    return nus, np.cos(angles), np.sin(angles), weight, np.log(weight) + (lg_top - lg_fact), lg_nu


def _joined(have: tuple, new: tuple) -> tuple:
    """Each array of have with its counterpart in new appended, read-only."""
    out = tuple(np.concatenate(p) for p in zip(have, new))
    for a in out:
        a.flags.writeable = False
    return out


def _grown(k: int, need: int) -> int:
    """The length a prefix of length k refills to: need, or up to twice k."""
    return max(need, min(2 * k, _MEMO_ORDERS))


class _Cone:
    """The x-independent work on one cone: the _per_order arrays and the
    sinc window as prefixes over m = 0, 1, ..., one Gegenbauer row per
    angle of the last call, and the confirm's summands per m.  Each entry
    is elementwise in m or a sequential recurrence, so a slice is bitwise
    one pass over it.  Arrays and rows refill by _grown; the window, nearly
    all of the memory, only to what a call needs (doubled, it held 2.2-2.8
    MB more peak RSS over six thin-growth rounds).  Arrays are read-only
    and a call reads one snapshot of each entry."""

    def __init__(self, params: ConeParams) -> None:
        self.params = params
        self.log_gamma_2d = log_gamma(2.0 * params.d)
        self._orders = (np.empty(0),) * 6
        self._window = (np.empty(0, np.int64), np.empty((0, 2 * specfun._TAPS + 1)))
        self._rows: dict = {}
        self._summands: dict = {}

    def orders(self, lo: int, hi: int) -> tuple:
        """_per_order(params, lo, hi); a search block past the memo's
        orders is built alone."""
        if hi > _MEMO_ORDERS:
            return _per_order(self.params, lo, hi)
        have = self._orders
        if len(have[0]) < hi:
            k = len(have[0])
            have = self._orders = _joined(have, _per_order(self.params, k, _grown(k, hi)))
        return tuple(a[lo:hi] for a in have)

    def window(self, n: int) -> tuple:
        """specfun._sinc_window of nu_0 .. nu_{n-1}, or of a longer prefix."""
        have = self._window
        if len(have[0]) < n:
            have = self._window = _joined(have, specfun._sinc_window(self.orders(len(have[0]), n)[0]))
        return have

    def rows(self, phis, n: int) -> list:
        """C_m^d(cos phi) for m < n, one row per angle of phis."""
        rows = {phi: self._rows.get(phi) for phi in phis}
        for phi, row in rows.items():
            if row is None or len(row) < n:
                size = _grown(0 if row is None else len(row), n)
                row = rows[phi] = gegenbauer_all(size - 1, self.params.d, math.cos(phi))
                row.flags.writeable = False
        self._rows = rows
        return [rows[phi][:n] for phi in phis]

    def summands(self, m: int) -> tuple:
        """log((m+d)/d), log C_m^d(1), nu_m and log Gamma(nu_m + 1) as
        scalars: the x-independent summands of the m-th log-tail term."""
        out = self._summands.get(m)
        if out is None:
            # m >= 1 keeps every argument but 2d at or above 1, where
            # log_gamma is the bare Lanczos sum
            d, nm = self.params.d, _nu(self.params, m)
            log_c_end = _lanczos(m + 2.0 * d, math.log) - _lanczos(m + 1.0, math.log) - self.log_gamma_2d
            out = self._summands[m] = (math.log((m + d) / d), log_c_end, nm, _lanczos(nm + 1.0, math.log))
        return out


_cone: _Cone | None = None


def _cone_of(params: ConeParams, n: int = 0) -> _Cone:
    """The memo: the _Cone of the last cone evaluated.  A call that needs
    n > _MEMO_ORDERS orders gets a _Cone that is not kept, so the memo
    holds no order past the cap (at most about 11 MB)."""
    global _cone
    if n > _MEMO_ORDERS:
        return _Cone(params)
    cone = _cone
    if cone is None or cone.params != params:
        cone = _cone = _Cone(params)
    return cone


def _screen(cone: _Cone, xs, tol: float, m0: int, m1: int):
    """For each x, the indices m in [m0, m1) that may pass _certify_tail,
    from array passes over the (x, m) grid.  Every test is biased towards
    passing by more than the array and scalar forms of the log-tail terms
    can differ, so every index that the scalar check accepts is kept; the
    caller confirms them in order.  The x-independent parts of the terms
    come from the cone's memo; at most _SCREEN_ELEMS grid cells are held
    at a time."""
    d = cone.params.d
    nms, _, _, _, base, lg_nu = cone.orders(m0 + 1, m1 + 3)
    # every summand, log-gamma internals included, is largest at the last m
    size = float(nms[-1]) + float(m1 + 2) + 2.0 * d + 10.0
    lt_cut = math.log(tol) - math.log(10.0)
    found = []
    rows = max(1, _SCREEN_ELEMS // nms.shape[0])
    for lo in range(0, len(xs), rows):
        part = xs[lo : lo + rows]
        log_x = np.array([math.log(x) for x in part])[:, None]
        log_h = np.array([math.log(0.5 * x) for x in part])[:, None]
        lt = base + (nms * log_h - lg_nu) + (-d * log_x - cone.log_gamma_2d)
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


def _first_index(params: ConeParams, xs, tol: float) -> int:
    """An index below which no m passes _certify_tail at any x of xs:
    m0 = #{m >= 0 : nu_{m+1} <= x_min/2} when 2d >= 1, x_min >= 2 and
    -d log x_max >= log(tol/10) + 1, and 0 otherwise.

    Proof.  _certify_tail(m) needs log t_{m+1}(x) < log(tol/10), with
    t_j(x) = x^{-d} ((j+d)/d) C_j^d(1) (x/2)^{nu_j} / Gamma(nu_j + 1).  For
    m < m0, nu = nu_{m+1} <= x_min/2 <= x/2, and (x/2)^nu / Gamma(nu+1) >= 1:
    for nu <= 1, Gamma(nu+1) <= 1 <= (x/2)^nu as x >= 2; for nu >= 1,
    Gamma(nu+1) <= nu^nu (equality at 1, and the log of the ratio has
    derivative psi(nu+1) - log nu - 1 < 1/(2 nu) - 1 < 0), and
    nu^nu <= (x/2)^nu.  Also (j+d)/d >= 1, and C_j^d(1) = (2d)_j / j! >= 1
    as 2d >= 1.  So t_{m+1}(x) >= x^{-d} >= x_max^{-d}, and log t exceeds
    the cut by at least 1, far beyond the rounding of its computed form."""
    d = params.d
    x_min, x_max = min(xs), max(xs)
    if 2.0 * d < 1.0 or x_min < 2.0 or -d * math.log(x_max) < math.log(tol) - math.log(10.0) + 1.0:
        return 0
    h = 0.5 * x_min
    # nu_j <= h solves to (j + d)^2 <= rho^2 (h^2 - d^2 - c) + d^2; the
    # loops settle the rounding of that estimate against nu itself, and an
    # m0 past the cap only needs to be past it
    estimate = math.sqrt(max(0.0, params.rho**2 * (h * h - d * d - params.c) + d * d)) - d
    m0 = int(min(max(estimate, 0.0), _TRUNCATION_CAP + 1.0))
    while m0 > 0 and _nu(params, m0) > h:
        m0 -= 1
    while m0 <= _TRUNCATION_CAP and _nu(params, m0 + 1) <= h:
        m0 += 1
    return m0


def _truncations(params: ConeParams, xs, tol: float) -> list[tuple[int, float]]:
    """(M, tail bound) for every x: the first m in [0, _TRUNCATION_CAP] that
    _certify_tail accepts, with its tail bound.  The search starts at
    _first_index, below which no m can pass.  Each block of the schedule
    is screened for all still-uncertified x in one grid pass, and each x's
    survivors are confirmed in order by the scalar check, with the cone's
    cached summands, so M and the bound equal a scan of _certify_tail over
    m = 0, 1, 2, ... at that x."""
    cone = _cone_of(params)
    found: list = [None] * len(xs)
    pending = list(range(len(xs)))
    m0 = _first_index(params, xs, tol)
    block = _BLOCK_FIRST
    while pending and m0 <= _TRUNCATION_CAP:
        m1 = min(m0 + block, _TRUNCATION_CAP + 1)
        candidates = _screen(cone, [xs[i] for i in pending], tol, m0, m1)
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


def truncation_index(params: ConeParams, x: float, tol: float) -> int:
    """Smallest M whose certified analytic tail bound beyond M is < tol."""
    x = check_positive("x", x)
    tol = check_positive("tol", tol)
    return _truncations(params, [x], tol)[0][0]


def _ladder(params: ConeParams, m_max: int, phis):
    """nu_m, the phase e^{-i pi nu_m/2} as (cos, sin), the weight (m+d)/d
    and one Gegenbauer row per angle, for m = 0..m_max, sliced from the
    cone's memo."""
    cone = _cone_of(params, m_max + 1)
    nus, phase_re, phase_im, weight, _, _ = cone.orders(0, m_max + 1)
    return nus, (phase_re, phase_im), weight, cone.rows(phis, m_max + 1)


def _quad_count(nus: np.ndarray, x: float) -> int:
    """How many orders of the increasing ladder nus lie in the quadrature
    region at x (x > max(12, nu/2), as in bessel_j): a prefix, counted by
    bisection.  0.5 nu < x exactly when nu < 2x, since both scalings are
    by a power of two."""
    return int(np.searchsorted(nus, 2.0 * x)) if x > 12.0 else 0


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
    sliced from the cone's memo (_Cone), formed once per cone and grown
    when this grid needs more: the truncation screen's terms, the nu
    ladder and its phases up to the largest M, one Gegenbauer row per
    angle, and the Bessel sinc window over the longest run of quadrature
    orders (none if there is none).

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
        certified = [_certify_tail(params, x, int(terms), tol) for x in xs]
        truncated = [(int(terms), math.inf if c is None else c) for c in certified]
    nus, (phase_re, phase_im), weight, cgs = _ladder(params, max(m for m, _ in truncated), phis)
    scales = [x ** (-params.d) for x in xs]
    # every Bessel batch and band reads a slice of one sinc window over the
    # longest prefix of quadrature orders
    n_quads = [_quad_count(nus[: m + 1], x) for x, (m, _) in zip(xs, truncated)]
    window = _cone_of(params, max(n_quads)).window(max(n_quads)) if max(n_quads) else None

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
