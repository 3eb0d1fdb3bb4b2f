"""Special functions for the cone-kernel series.

Everything here is self-contained (numpy only): real-order Bessel J,
Gegenbauer polynomials, log-gamma, and an arccosine on [0, 1] that stays
accurate near 1.

Bessel evaluation strategy
--------------------------
* ``x <= max(12, nu/2)``: ascending power series, accumulated in
  double-double arithmetic so the alternating-series cancellation near
  x ~ 12 costs no accuracy.  It stops at the first term u_k with
  |u_k| <= 2^-60 |s_k| (s_k the partial sum) once the terms decrease
  (z = x^2/4 < k (nu+k)): the tail then alternates with decreasing terms,
  so it is below 2^-60 |s|, under 1/128 ulp of the result, and is charged
  to the achieved bound.  That bounds the error; a sum within 2^-60 |s| of
  a rounding boundary can still round to the neighbouring double.
* otherwise: the sinc series of J's own samples at half-integer orders.
  By DLMF 10.9.6, J_nu = AJ_nu - sin(pi nu)/pi D_nu, with the Anger
  function (DLMF 11.10) and a decaying part

      AJ_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt,
      D_nu(x) = int_0^inf e^{-nu t - x sinh t} dt.

  As a function of nu, AJ_nu is entire, bounded by 1 on the real axis and
  of exponential type pi: a band-limited signal, so its samples on the
  half-integer grid nu = n/2 (twice the Nyquist rate) determine it.
  sin(pi nu) D_nu is a superposition of e^{(+-i pi - t) nu} weighted by
  e^{-x sinh t}, t >= 0, of the same type, so the same series reproduces
  it, up to its growth at the negative orders a window reads (below).
  For one x:

  1. J at every integer and half-integer order the windows read, from two
     Miller backward recurrences (DLMF 3.6(iii)) started at
     max(top order, 2x + 20) + 30 + 12 x^{1/3}.  The integer orders are
     normalized by J_0 + 2 sum_k J_{2k} = 1 (an exactly rounded sum), the
     half-integer ones by the closed forms J_{-1/2} = A cos x and
     J_{1/2} = A sin x, A = sqrt(2/(pi x)).  Negative orders, read by the
     windows of orders below 20, are J_{-k} = (-1)^k J_k and
     J_{-k-1/2} = (-1)^{k+1} Y_{k+1/2}, Y by forward recurrence from
     Y_{-1/2} = A sin x, Y_{1/2} = -A cos x.
  2. J_nu from the Gaussian-regularized sinc series on that grid (Qian,
     Proc. AMS 131, 2003): the _TAPS = 40 samples on each side of 2 nu,
     weighted by sinc(2 nu - n) exp(-(2 nu - n)^2 / (2 sigma^2)),
     sigma^2 = 2 * 40/pi.  An order with 2 nu an integer is its sample.
     The weights depend on nu alone (``_sinc_window``), so the series
     builds them once per cone for its longest run of quadrature orders
     and each batch and band reads a slice.

  Error model.  In the sample index u = 2 nu the signal has type pi/2, a
  gap of pi/2 below the grid's Nyquist band, and sigma^2 = 40/(pi/2)
  balances the two error terms of Qian's bound, which then decays like
  exp(-(pi/2) 40/2) = exp(-10 pi) ~ 2e-14 times the signal's size over
  the window.  Each recurrence coefficient 2(k+s)/x is one division (a
  precomputed 2/x biases every step alike), and a column is scaled by an
  exact power of two before it overflows.  In the oscillatory range
  k < x the recurrence's rounding adds up like a random walk, to about
  2e-15/sqrt(x) rms absolute (some 13 ulps of J's amplitude, measured at
  x in [800, 2000]); J errors are below 1e-16 rms at x = 1500.  At the
  edge of the region the window of an order nu < 20 reads samples down
  to J_{nu-20}, where D grows (D_{-s}(x) = int_0^inf e^{s t - x sinh t} dt
  grows with s and falls with x).  Measured against 30-digit mpmath, the
  error there is at most 3.5e-15 at x -> 12+ (nu ~ 0.75), 1.2e-15 at
  x = 13 and 3.3e-16 at x = 14, and at rounding level (<= 2.5e-16) from
  x = 15; for orders above 2 it is at most 5.5e-16.  The power series
  carries up to 2.3e-15 at x = 12 itself (orders near x).
  ``_quad_achieved`` charges x*eps/2 + 5e-15, above all of these.  The
  recurrence start depends on x alone in the quadrature region (every
  order is below 2x), so a one-x batch and a band share their samples
  bitwise.  Per x this costs O(x) for the recurrences and O(orders * 81)
  for the windows.

* a band of x, all in the quadrature region for every order of a series
  sum_m c_m J_{nu_m}(x), is summed coefficient-first
  (``_bessel_quad_band``): the sum is linear in the samples, so

      H(n) = sum_m c_m W(nu_m - n/2)

  is formed once per band, and each x then costs its J samples and one
  product, sum_n H(n) J_{n/2}(x).  The rounding of H is a few
  eps * sum_m |c_m|, so the caller bounds the band
  (``kernel_series._groups``) to keep that scale close to each member's
  own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import check_finite, check_nonnegative_int, check_positive
from ._compensated import dd_add, dd_div, dd_mul, two_prod, two_sum
from .errors import DomainError, PrecisionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "bessel_j",
    "gegenbauer_all",
    "log_gamma",
    "acos_unit",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative error targets for special-function evaluation."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            check_positive(name, getattr(self, name))


DEFAULT_TOL = Tolerance()

# Lanczos approximation, g = 7, 9 coefficients (double-precision classic).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.9189385332046727


def log_gamma(z: float) -> float:
    """log Gamma(z) for real z > 0 (Lanczos, relative error ~1e-14)."""
    z = check_finite("z", z)
    if z <= 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    if z < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z); 1-z >= 0.5
        return math.log(math.pi / math.sin(math.pi * z)) - log_gamma(1.0 - z)
    return _lanczos(z, math.log)


def _log_gamma_error(z: float) -> float:
    """A bound on the absolute error of log_gamma(z) for z >= 1: two ulps of
    the Lanczos sum's largest terms, (z - 1/2) log t and t = z + 6.5.  On
    3,300 seeded z in [1, 5e4] against 40-digit mpmath the error is at most
    1.54 ulps of them (2.9e-15 for z <= 3, where the approximation's own
    error dominates)."""
    t = z + _LANCZOS_G - 0.5
    return ((z - 0.5) * math.log(t) + t) * 4.4e-16


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    """log Gamma over an array of arguments z >= 0.5, unvalidated.  The
    same Lanczos sum as log_gamma; np.log may round differently from
    math.log, so a value can differ from the scalar one in the last ulp."""
    return _lanczos(z, np.log)


def _lanczos(z, log):
    # Lanczos sum for z >= 0.5; z is a float or an array and log matches it.
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, 9):
        acc = acc + _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * log(t) - t + log(acc)


def acos_unit(mu: float) -> float:
    """arccos on [0, 1] (range [0, pi/2]), stable against cancellation
    near mu = 1 via 2*asin(sqrt((1-mu)/2))."""
    mu = check_finite("mu", mu)
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"acos_unit requires mu in [0, 1], got {mu}")
    return 2.0 * math.asin(math.sqrt(0.5 * (1.0 - mu)))


# ---------------------------------------------------------------------------
# Bessel J, power-series region
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 20000
# The series stops once a term is below this fraction of the partial sum.
_SERIES_STOP = 2.0**-60


def _bessel_series(nu: float, x: float, tol: Tolerance) -> float:
    # J_nu(x) = t0 * S, t0 = (x/2)^nu / Gamma(nu+1),
    # S = sum_k (-1)^k u_k with u_0 = 1, u_k = u_{k-1} * z / (k (nu+k)).
    h = 0.5 * x
    z = two_prod(h, h)
    u = (1.0, 0.0)
    s = (1.0, 0.0)
    u_max = 1.0
    k = 0
    while True:
        k += 1
        if k > _SERIES_MAX_TERMS:
            raise PrecisionError(
                f"power series for J_{nu}({x}) did not converge", math.inf
            )
        dk = float(k)
        a, ae = two_sum(nu, dk)
        den_hi, den_lo = two_prod(dk, a)
        den_lo += dk * ae
        u = dd_mul(u, z)
        u = dd_div(u, (den_hi, den_lo))
        if k % 2 == 1:
            s = dd_add(s, (-u[0], -u[1]))
        else:
            s = dd_add(s, u)
        au = abs(u[0])
        if au > u_max:
            u_max = au
        # Stop once |u_k| <= 2^-60 |s_k| and z < k (nu+k).  Every later ratio
        # u_{j+1}/u_j = z/((j+1)(nu+j+1)) is then below 1, so the tail
        # sum_{j>k} (-1)^j u_j alternates with decreasing terms and is at
        # most u_{k+1} < u_k <= 2^-60 |s| (+1e-320 for s ~ 0): under 1/128
        # ulp of the returned double, and charged to achieved below.
        if au <= _SERIES_STOP * abs(s[0]) + 1e-320 and z[0] < dk * (nu + dk):
            break
    if nu == 0.0:
        t0 = 1.0
        expo_err = 4.0 * 2.3e-16
    else:
        a = nu * math.log(h)
        lg = _lanczos(nu + 1.0, math.log)  # nu + 1 >= 1: log_gamma without its checks
        expo = a - lg
        t0 = math.exp(expo) if expo > -745.0 else 0.0
        # the rounding of a and of lg, each far larger than expo near
        # x ~ nu, and log_gamma's own error; exp() then costs about
        # |expo| + 4 ulps
        expo_err = (abs(a) + abs(lg) + abs(expo) + 4.0) * 2.3e-16 + _log_gamma_error(nu + 1.0)
    val = t0 * (s[0] + s[1])
    # error model: double-double accumulation leaves ~2^-100 of the largest
    # term; an error e in the prefactor's exponent costs |val| e; the tail
    # left out by the stop is below t0 * 2^-60 |s|.
    achieved = (
        t0 * u_max * 1e-30
        + abs(val) * expo_err
        + t0 * (_SERIES_STOP * abs(s[0]) + 1e-320)
    )
    if achieved > max(tol.abs_tol, tol.rel_tol * abs(val)):
        raise PrecisionError(
            f"J_{nu}({x}): achieved error bound {achieved:.3e} exceeds tolerance",
            achieved,
        )
    return val


# ---------------------------------------------------------------------------
# Bessel J, quadrature region (x > max(12, nu/2)): sinc series of J samples
# ---------------------------------------------------------------------------

def _quad_achieved(x: float) -> float:
    # The bound charged to every quadrature-region value: x*eps/2, what
    # the rounding of x alone moves J by (relative to its amplitude), plus
    # 5e-15.  The sampling method's own errors lie well below it (module
    # docstring).
    return x * 1.6e-16 + 5e-15


# Sinc window: _TAPS samples on each side of an order's nearest half-order,
# Gaussian factor exp(-z^2/(2 sigma^2)) with sigma^2 = 2*_TAPS/pi.
_TAPS = 40
_GAUSS = -0.25 * math.pi / _TAPS
# A backward recurrence scales a column by 2^-600, exactly, once it passes 2^600.
_RESCALE = 2.0**600
# Largest (samples x arguments) array of one chunk of a band (1 MB).
_BAND_CELLS = 1 << 17


def _sinc_window(nus: np.ndarray):
    """The Gaussian-regularized sinc series of every order on the grid of
    half-orders n/2: order nu reads the 2*_TAPS + 1 samples n = base ..
    base + 2*_TAPS, base = rint(2 nu) - _TAPS, with the weights

        W(nu - n/2) = sinc(2 nu - n) exp(-(2 nu - n)^2 / (2 sigma^2)).

    An order with 2 nu an integer gets the single weight 1 on its own
    sample, so its series is that sample exactly.  Each row depends on its
    own order alone, so a slice of the result is the result of the slice.
    Returns base and the (orders x taps) weights."""
    u = 2.0 * nus
    centre = np.rint(u)
    f = u - centre  # exact, in [-1/2, 1/2]
    offsets = np.arange(_TAPS, -_TAPS - 1, -1)  # 2 nu - n - f
    z = f[:, None] + offsets
    # sin(pi z) = (-1)^offset sin(pi f)
    sign = 1.0 - 2.0 * (offsets % 2)
    weights = z * z
    weights *= _GAUSS
    np.exp(weights, out=weights)
    weights *= sign
    with np.errstate(divide="ignore", invalid="ignore"):
        weights /= math.pi * z
        weights *= np.sin(math.pi * f)[:, None]
    whole = f == 0.0
    weights[whole] = 0.0
    weights[whole, _TAPS] = 1.0
    return centre.astype(np.int64) - _TAPS, weights


def _recur(x, s, k_top) -> np.ndarray:
    """Rows k = -1 .. K of y_k, proportional to J_{k+s}(x), by the backward
    recurrence y_{k-1} = (2(k+s)/x) y_k - y_{k+1} from y_{k_top+1} = 0,
    y_{k_top} = 1 (Miller's algorithm, DLMF 3.6(iii)).  x, s and k_top are
    scalars, with K = k_top, or arrays with one column per entry, with K
    the largest start and zeros above a column's own start.
    A column's arithmetic is the same whatever the other columns are: each
    coefficient 2(k+s)/x is one division, and a column that passes 2^600 is
    scaled by 2^-600 (exact), with every row of it stored before."""
    steps = np.arange(int(np.max(k_top)) + 1)
    # step j of a column takes k = k_top - j; a column that starts below K
    # is done before the last step and then only flips signs (coefficient 0)
    coefs = (2.0 * (s - np.subtract.outer(steps, k_top))) / x
    if np.ndim(x) == 0:
        coefs = coefs.tolist()
    else:
        coefs[steps[:, None] > k_top] = 0.0
    nxt = 0.0 * x
    cur = nxt + 1.0
    vals = [cur]
    marks = []
    for lo in range(0, len(coefs), 16):
        for a in coefs[lo : lo + 16]:
            nxt, cur = cur, a * cur - nxt
            vals.append(cur)
        # 16 steps grow a column by at most (max|a| + 1)^16, far below 2^423
        # (|a| < 18 in the quadrature region); for a float x, big is a bool,
        # and np.any of a bool is slow
        big = abs(cur) > _RESCALE
        if big is not False and np.any(big):
            f = 1.0 / _RESCALE if big is True else np.where(big, 1.0 / _RESCALE, 1.0)
            nxt, cur = nxt * f, cur * f
            marks.append((len(vals), f))
    out = np.array(vals)
    del vals
    with np.errstate(under="ignore"):
        for end, f in marks:
            out[:end] *= f
    if np.ndim(x) == 0:
        return out[::-1]
    # row k + 1 of column c is step k_top[c] - k
    rows = np.zeros(out.shape)
    for c, top in enumerate(k_top.tolist()):
        rows[: top + 2, c] = out[top + 1 :: -1, c]
    return rows


def _fsum_columns(a: np.ndarray):
    """math.fsum down the rows of a, column by column."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.array([math.fsum(col) for col in a.T.tolist()])


def _j_half_orders(x, n_lo: int, n_hi: int) -> np.ndarray:
    """J_{n/2}(x) for n = n_lo .. n_hi, n_lo >= -2*_TAPS, as rows; x is a
    float, or an array with one column per entry, and a column is bitwise
    what its x alone gives.  Integer orders come from one Miller recurrence
    normalized by J_0 + 2 sum_k J_{2k} = 1, half-integer orders from
    another normalized by the closed forms J_{-1/2} = A cos x,
    J_{1/2} = A sin x, A = sqrt(2/(pi x)), fitted as a pair.  Both start at
    max(n_hi/2, 2x + 20) + 30 + 12 x^{1/3}: above x, and for the
    quadrature region (every order below 2x, so n_hi/2 <= 2x + 20) a
    function of x alone, so one-x batches and bands share their samples.
    Below -1/2: J_{-k} = (-1)^k J_k, and J_{-k-1/2} = (-1)^{k+1} Y_{k+1/2}
    with Y by forward recurrence from Y_{-1/2} = A sin x, Y_{1/2} = -A cos x."""
    k_top = np.ceil(np.maximum(0.5 * n_hi, 2.0 * x + 20.0) + 30.0 + 12.0 * np.cbrt(x)).astype(int)
    if np.ndim(x) == 0:
        x = float(x)  # a float, not a numpy scalar, keeps the recurrence in plain floats
        y_int, y_half = _recur(x, 0.0, k_top), _recur(x, 0.5, k_top)
    else:
        # one loop for both recurrences: half as many array steps
        both = _recur(np.tile(x, 2), np.repeat((0.0, 0.5), x.shape[0]), np.tile(k_top, 2))
        y_int, y_half = np.split(both, 2, axis=1)
    amp = np.sqrt(2.0 / (math.pi * x))
    cos_x, sin_x = np.cos(x), np.sin(x)
    # row r is n = r - 2: integer orders k = n/2 on even rows, k + 1/2 on odd
    full = np.empty((2 * y_int.shape[0],) + y_int.shape[1:])
    full[0::2] = y_int / _fsum_columns(np.concatenate((y_int[1:2], 2.0 * y_int[3::2])))
    full[1::2] = y_half * (amp / (y_half[0] * cos_x + y_half[1] * sin_x))
    out = full[max(n_lo, -2) + 2 : n_hi + 3]
    if n_lo >= -2:
        return out
    ys = [amp * sin_x, -amp * cos_x]  # Y_{k+1/2} at index k + 1
    for k in range(1, (1 - n_lo) // 2):
        ys.append((2.0 * k - 1.0) / x * ys[-1] - ys[-2])
    neg = []
    for n in range(n_lo, -2):
        if n % 2 == 0:
            neg.append(full[2 - n] if n % 4 == 0 else -full[2 - n])
        else:
            k = (-1 - n) // 2
            neg.append(ys[k + 1] if k % 2 else -ys[k + 1])
    return np.concatenate((np.array(neg), out))


def _bessel_quad_batch(nus: np.ndarray, x: float, tol: Tolerance, window) -> np.ndarray:
    # J at every half-order the windows read, then each order's sinc series;
    # window is _sinc_window(nus), or an elementwise slice of a longer one.
    base, weights = window
    n_lo = int(np.min(base))
    samples = _j_half_orders(x, n_lo, int(np.max(base)) + 2 * _TAPS)
    out = np.einsum("ij,ij->i", weights, sliding_window_view(samples, 2 * _TAPS + 1)[base - n_lo])

    achieved = _quad_achieved(x)
    floor = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(out))
    if np.any(achieved > floor):
        raise PrecisionError(
            f"J_nu({x}): achieved error bound {achieved:.3e} exceeds tolerance",
            achieved,
        )
    return out


def _bessel_quad_band(coef: np.ndarray, xs: np.ndarray, window) -> np.ndarray:
    """sum_m coef[j, m] J_{nu_m}(x) for every x of the ascending array xs
    and every row j of coef, unvalidated: the sinc series summed
    coefficient-first.  window is _sinc_window of the orders nu_m, or an
    elementwise slice of a longer one.  Once per band,

        H_j(n) = sum_m coef[j, m] W(nu_m - n/2)          on the samples;

    each x then costs its J samples, from recurrences run for a chunk of x
    at once, and one product sum_n H_j(n) J_{n/2}(x).  The caller checks
    the precision."""
    base, weights = window
    n_lo = int(np.min(base))
    n_hi = int(np.max(base)) + 2 * _TAPS
    n_samples = n_hi - n_lo + 1
    idx = ((base - n_lo)[:, None] + np.arange(2 * _TAPS + 1)).ravel()
    h = np.array(
        [np.bincount(idx, weights=(row[:, None] * weights).ravel(), minlength=n_samples) for row in coef]
    )
    h = np.ascontiguousarray(h.T)

    out = np.empty((xs.shape[0], coef.shape[0]))
    step = max(1, _BAND_CELLS // n_samples)
    for lo in range(0, xs.shape[0], step):
        out[lo : lo + step] = _j_half_orders(xs[lo : lo + step], n_lo, n_hi).T @ h
    return out


def bessel_j(nu: float, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    Absolute error <= max(tol.abs_tol, tol.rel_tol * |J|); raises
    PrecisionError (carrying the achieved bound) when that cannot be met.
    """
    nu = check_finite("nu", nu)
    x = check_finite("x", x)
    if nu < 0.0:
        raise DomainError(f"bessel_j requires nu >= 0, got {nu}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= max(12.0, 0.5 * nu):
        return _bessel_series(nu, x, tol)
    nus = np.array([nu])
    return float(_bessel_quad_batch(nus, x, tol, _sinc_window(nus))[0])


# ---------------------------------------------------------------------------
# Gegenbauer polynomials
# ---------------------------------------------------------------------------

def gegenbauer_all(m_max: int, d: float, t: float) -> np.ndarray:
    """C_m^d(t) for m = 0..m_max as one array, by one pass of the
    three-term recurrence m C_m = 2 t (m+d-1) C_{m-1} - (m+2d-2) C_{m-2}."""
    m_max = check_nonnegative_int("Gegenbauer degree", m_max)
    d = check_finite("d", d)
    if d <= 0.0:
        raise DomainError(f"Gegenbauer weight d must be positive, got {d}")
    if d > 10.0:
        # C_m^d(1) ~ m^{2d-1}/Gamma(2d): beyond d = 10 the endpoint values
        # overflow doubles long before useful degrees.
        raise DomainError(f"Gegenbauer weight d must be <= 10, got {d}")
    t = check_finite("t", t)
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"Gegenbauer argument must lie in [-1, 1], got {t}")
    # the row is built in plain floats: NumPy scalar arithmetic is slower
    row = [1.0, 2.0 * d * t][: m_max + 1]
    for j in range(2, m_max + 1):
        row.append((2.0 * t * (j + d - 1.0) * row[-1] - (j + 2.0 * d - 2.0) * row[-2]) / j)
    return np.array(row)
