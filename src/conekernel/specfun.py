"""Special functions for the cone-kernel series.

Everything here is self-contained (numpy only): real-order Bessel J,
Gegenbauer polynomials, log-gamma, and the phase profile
h1(mu) = sqrt(1 - mu^2) - mu*arccos(mu) together with its derivative.

Bessel evaluation strategy
--------------------------
* ``x <= max(12, nu/2)``: ascending power series, accumulated in
  double-double arithmetic so the alternating-series cancellation near
  x ~ 12 costs no accuracy.
* otherwise: the real-order Schlaefli integral (DLMF 10.9.6)

      J_nu(x) = (1/pi) * int_0^pi cos(nu*t - x*sin t) dt
                - (sin(nu*pi)/pi) * int_0^inf exp(-nu*t - x*sinh t) dt

  with composite 16-point Gauss-Legendre panels.  Oscillatory panels are
  uniform, sized so each carries at most ~two oscillations, and shared by
  every order of a batch, so the oscillatory integral is a contraction of
  e^{i nu t} against order-independent weights w * e^{-i x sin t}.  With
  panel p = q*K + r (K ~ sqrt(P) for P panels) the node splits as
  t = (r + 1/2)*w + q*K*w + o_k, so e^{i nu t} factors into three small
  trig faces per order (K, P/K and 16 entries) and the sum over panels
  becomes one complex matrix product followed by weighted sums over q and
  k; no (orders x panels) trig array is formed.

  The faces depend on the orders and the panel count only, never on x,
  and each entry on one order alone.  A scan therefore forms them once
  per panel count, for the longest ladder prefix any of its x needs on
  that count (``_quad_faces``), and hands each x's batch the rows of its
  own prefix: the same numbers a one-x batch forms chunk by chunk.  What
  does depend on x (the node matrix e^{-i x sin t}, the matrix product,
  the contractions and the non-oscillatory part) is formed per batch.

  Error model.  Every face phase nu*s is an exact double-double product;
  libm reduces its high part exactly and the low part enters linearly,
  so each face entry is good to ~1 ulp.  x*sin t is a double-double as
  well: sin of the panel centre comes from ``dd_cis`` (~1e-21) and the
  small centre-to-node increment, at most w/2, from plain doubles.  The
  phase error of every node is therefore a few ulps of 2*pi whatever x
  is, and what remains is the rounding of the sums (J errors ~1e-16 rms
  at x = 1500).  ``_quad_achieved`` keeps charging the larger x*eps/2 of a
  double-precision x*sin t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compensated import dd_add, dd_cis, dd_div, dd_mul, two_prod, two_sum
from .errors import DomainError, PrecisionError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "bessel_j",
    "bessel_j_many",
    "gegenbauer_c",
    "gegenbauer_all",
    "log_gamma",
    "h1",
    "h1_prime",
    "acos_unit",
    "sinpi",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative error targets for special-function evaluation."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive finite number, got {v!r}")


DEFAULT_TOL = Tolerance()

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

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


def _check_finite(name: str, v) -> float:
    if not (isinstance(v, (int, float)) and math.isfinite(v)):
        raise DomainError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


def log_gamma(z: float) -> float:
    """log Gamma(z) for real z > 0 (Lanczos, relative error ~1e-14)."""
    z = _check_finite("z", z)
    if z <= 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    if z < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z); 1-z >= 0.5
        return math.log(math.pi / math.sin(math.pi * z)) - log_gamma(1.0 - z)
    return _lanczos(z, math.log)


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
    mu = _check_finite("mu", mu)
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"acos_unit requires mu in [0, 1], got {mu}")
    return 2.0 * math.asin(math.sqrt(0.5 * (1.0 - mu)))


def h1(mu: float) -> float:
    """h1(mu) = sqrt(1 - mu^2) - mu*arccos(mu) on [0, 1].

    Strictly decreasing from h1(0) = 1 to h1(1) = 0.  Near mu = 1 the two
    terms cancel to O((1-mu)^{3/2}); there we switch to the series
    sin t - t cos t = sum_{j>=1} (-1)^{j+1} t^{2j+1} (2j)/(2j+1)!
    in t = arccos(mu).
    """
    mu = _check_finite("mu", mu)
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"h1 requires mu in [0, 1], got {mu}")
    t = acos_unit(mu)
    if t >= 0.5:
        return math.sqrt((1.0 - mu) * (1.0 + mu)) - mu * t
    tt = t * t
    s = 0.0
    pw = t * tt      # t^{2j+1} at j = 1
    fact = 6.0       # (2j+1)! at j = 1
    j = 1
    while True:
        term = pw * (2.0 * j) / fact
        s += term if j % 2 == 1 else -term
        if term <= 1e-18 * abs(s) + 5e-324:
            return s
        j += 1
        pw *= tt
        fact *= (2.0 * j) * (2.0 * j + 1.0)


def h1_prime(mu: float) -> float:
    """Derivative h1'(mu) = -arccos(mu) on [0, 1]."""
    return -acos_unit(mu)


def sinpi(nu: float) -> float:
    """sin(pi * nu), exact zero at integers and accurate for large nu."""
    r = math.remainder(nu, 2.0)  # exact, r in [-1, 1]
    if r == 0.0 or abs(r) == 1.0:
        return 0.0
    return math.sin(math.pi * r)


def _sinpi_array(nus: np.ndarray) -> np.ndarray:
    """sinpi over an array: the same exact reduction and the same sine."""
    # nu - 2*rint(nu/2) is math.remainder(nu, 2.0): both round the quotient
    # half-to-even and the subtraction is exact.
    r = nus - 2.0 * np.rint(0.5 * nus)
    out = np.sin(math.pi * r)
    out[(r == 0.0) | (np.abs(r) == 1.0)] = 0.0
    return out


# ---------------------------------------------------------------------------
# Bessel J, power-series region
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 20000


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
        # safe stop: terms are decreasing once z < k (nu+k)
        if au <= 1e-34 * abs(s[0]) + 1e-320 and z[0] < dk * (nu + dk):
            break
    if nu == 0.0:
        t0 = 1.0
        expo = 0.0
    else:
        expo = nu * math.log(h) - log_gamma(nu + 1.0)
        t0 = math.exp(expo) if expo > -745.0 else 0.0
    val = t0 * (s[0] + s[1])
    # error model: double-double accumulation leaves ~2^-100 of the largest
    # term; the prefactor exp() costs ~(|expo|+4) ulps relative.
    achieved = t0 * u_max * 1e-30 + abs(val) * (abs(expo) + 4.0) * 2.3e-16
    if achieved > max(tol.abs_tol, tol.rel_tol * abs(val)):
        raise PrecisionError(
            f"J_{nu}({x}): achieved error bound {achieved:.3e} exceeds tolerance",
            achieved,
        )
    return val


# ---------------------------------------------------------------------------
# Bessel J, quadrature region (x > max(12, nu/2))
# ---------------------------------------------------------------------------

def _quad_achieved(x: float) -> float:
    # Irreducible phase noise: x*sin(theta) carries x*eps/2 of absolute
    # phase rounding; panel sums add a few ulps more.
    return x * 1.6e-16 + 5e-15


def _cos_sin_split(hi: np.ndarray, lo: np.ndarray):
    """cos/sin of an angle given as an unevaluated sum hi + lo with
    |lo| << 1: libm reduces hi exactly, the lo correction is linear."""
    c = np.cos(hi)
    s = np.sin(hi)
    return c - s * lo, s + c * lo


def _unit_phases(nus: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """e^{i nu a} on the (orders x angles) face, each phase nu*a formed as
    an exact double-double product."""
    hi, lo = two_prod(nus[:, None], angles[None, :])
    c, s = _cos_sin_split(hi, lo)
    out = np.empty(c.shape, dtype=complex)
    out.real = c
    out.imag = s
    return out


@lru_cache(maxsize=16)
def _panel_nodes(n_panels: int):
    """Order- and x-independent node data for n_panels uniform panels of
    width w on [0, pi], grouped in blocks of K ~ sqrt(n_panels) panels.

    Panel p = q*K + r has its centre at c = a_r + b_q with a_r = (r + 1/2) w
    and block start b_q = q*K*w; its Gauss nodes are t = c + o_k.  Returns
    a (K,), b (Q,), o (16,), sin c as a double-double on the (K, Q) grid,
    sin t - sin c on the (K, Q, 16) cube and the quadrature weights / pi on
    that cube, zero on the padding panels p >= n_panels.  Cached because
    consecutive x in a scan mostly share a panel count.
    """
    width = math.pi / n_panels
    k_in = int(math.ceil(math.sqrt(n_panels)))
    n_blocks = -(-n_panels // k_in)
    centers = (np.arange(k_in) + 0.5) * width
    starts = np.arange(n_blocks) * (k_in * width)
    offsets = 0.5 * width * _GL_NODES
    cos_c, sin_c = dd_cis(*two_sum(centers[:, None], starts[None, :]))
    # sin(c + o) - sin c = sin c (cos o - 1) + cos c sin o is at most w/2,
    # so its double rounding costs only a few ulps of x*w/2 <= 2*pi.
    shift = (
        sin_c[0][:, :, None] * (-2.0 * np.sin(0.5 * offsets) ** 2)
        + cos_c[0][:, :, None] * np.sin(offsets)
    )
    panel = np.arange(n_blocks)[None, :] * k_in + np.arange(k_in)[:, None]
    weights = np.where((panel < n_panels)[:, :, None], _GL_WEIGHTS * (0.5 / n_panels), 0.0)
    nodes = (centers, starts, offsets, sin_c, shift, weights)
    for a in (centers, starts, offsets, *sin_c, shift, weights):
        a.setflags(write=False)
    return nodes


# Largest (orders x blocks x 16) complex intermediate of one chunk (16 MB).
_QUAD_CHUNK_ELEMS = 1 << 20


def _panel_count(nu_max: float, x: float) -> int:
    """Oscillatory panels for orders up to nu_max at argument x: each
    panel sees at most ~2 oscillations of cos(nu t - x sin t)."""
    return max(4, int(math.ceil((nu_max + x) / 4.0)) + 2)


def _quad_faces(nus: np.ndarray, n_panels: int):
    """The three trig faces e^{i nu a_r}, e^{i nu b_q}, e^{i nu o_k} of
    _bessel_quad_batch for every order in nus, or None when they would
    hold more than _QUAD_CHUNK_ELEMS entries.  Each entry depends on one
    order and one node offset only, so the faces of a ladder, sliced, are
    bitwise the faces of its prefix: a caller that evaluates many x on one
    panel count forms them once and passes each batch its slice."""
    centers, starts, offsets = _panel_nodes(n_panels)[:3]
    if nus.shape[0] * (centers.shape[0] + starts.shape[0] + 16) > _QUAD_CHUNK_ELEMS:
        return None
    return tuple(_unit_phases(nus, a) for a in (centers, starts, offsets))


def _bessel_quad_batch(nus: np.ndarray, x: float, tol: Tolerance, faces=None) -> np.ndarray:
    # Oscillatory part (1/pi) int_0^pi cos(nu t - x sin t) dt, on panels
    # sized so each sees at most ~2 oscillations, written with the node
    # split t = a_r + b_q + o_k of _panel_nodes:
    #     Re sum_{r,q,k} e^{i nu a_r} e^{i nu b_q} e^{i nu o_k} E_rqk,
    #     E = (weight / pi) e^{-i x sin t}.
    # Per chunk of orders the sum over r is one complex product
    # (orders x K) @ (K x Q*16); the sums over q and k are contractions
    # against the other two faces.  Phases: x sin t = x sin c + x (sin t -
    # sin c), the first an exact product of x with the double-double sin c,
    # the second a double of size <= x*w/2 <= 2*pi; face phases nu*s are
    # exact double-double products.  Error model: module docstring.
    # faces, when given, is _quad_faces of these orders on this panel count.
    n_panels = _panel_count(float(np.max(nus)), x)
    centers, starts, offsets, (s_hi, s_lo), shift, weights = _panel_nodes(n_panels)
    p_hi, p_lo = two_prod(x, s_hi)
    phi_hi, phi_lo = two_sum(p_hi[:, :, None], x * shift)
    phi_lo += (p_lo + x * s_lo)[:, :, None]
    cos_phi, sin_phi = _cos_sin_split(phi_hi, phi_lo)
    e = np.empty(phi_hi.shape, dtype=complex)  # (K, Q, 16)
    e.real = cos_phi * weights
    e.imag = -sin_phi * weights
    n_blocks = starts.shape[0]
    e_mat = e.reshape(centers.shape[0], n_blocks * 16)

    out = np.empty(nus.shape[0])
    chunk = max(1, _QUAD_CHUNK_ELEMS // (n_blocks * 16))
    for lo_i in range(0, nus.shape[0], chunk):
        rows = slice(lo_i, lo_i + chunk)
        # without shared faces, each face is formed for this chunk only
        f_c = _unit_phases(nus[rows], centers) if faces is None else faces[0][rows]
        t = (f_c @ e_mat).reshape(-1, n_blocks, 16)
        f_s = _unit_phases(nus[rows], starts) if faces is None else faces[1][rows]
        u = (f_s[:, None, :] @ t)[:, 0, :]  # (m, 16)
        v = _unit_phases(nus[rows], offsets) if faces is None else faces[2][rows]
        out[rows] = np.sum(v.real * u.real - v.imag * u.imag, axis=1)

    sp = _sinpi_array(nus)
    if np.any(sp != 0.0):
        # int_0^inf exp(-nu t - x sinh t) dt on dyadic panels of [0, T];
        # beyond T the integrand is below exp(-45).
        T = math.asinh(45.0 / x)
        n_dyadic = max(4, int(math.ceil(math.log2(x))) + 2)
        edges = [0.0] + [T * 2.0 ** (-j) for j in range(n_dyadic - 1, -1, -1)]
        t_nodes = []
        w_nodes = []
        for a, b in zip(edges[:-1], edges[1:]):
            hw = 0.5 * (b - a)
            t_nodes.append(0.5 * (a + b) + hw * _GL_NODES)
            w_nodes.append(hw * _GL_WEIGHTS)
        t_flat = np.concatenate(t_nodes)
        w_flat = np.concatenate(w_nodes)
        g = np.exp(-x * np.sinh(t_flat)) * w_flat
        with np.errstate(under="ignore"):
            for lo_i in range(0, nus.shape[0], 4096):
                nu_c = nus[lo_i : lo_i + 4096]
                second = np.exp(-np.outer(nu_c, t_flat)) @ g
                out[lo_i : lo_i + 4096] -= sp[lo_i : lo_i + 4096] * second / math.pi

    achieved = _quad_achieved(x)
    floor = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(out))
    if np.any(achieved > floor):
        raise PrecisionError(
            f"J_nu({x}): achieved error bound {achieved:.3e} exceeds tolerance",
            achieved,
        )
    return out


def bessel_j(nu: float, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    Absolute error <= max(tol.abs_tol, tol.rel_tol * |J|); raises
    PrecisionError (carrying the achieved bound) when that cannot be met.
    """
    nu = _check_finite("nu", nu)
    x = _check_finite("x", x)
    if nu < 0.0:
        raise DomainError(f"bessel_j requires nu >= 0, got {nu}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= max(12.0, 0.5 * nu):
        return _bessel_series(nu, x, tol)
    return float(_bessel_quad_batch(np.array([nu]), x, tol)[0])


def bessel_j_many(nus: np.ndarray, x: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """J_nu(x) for an array of orders at one argument.

    Same per-order contract as bessel_j; orders in the quadrature region
    share one panel grid (sized by the largest order) so series evaluation
    over many orders stays O(total nodes).
    """
    x = _check_finite("x", x)
    if x < 0.0:
        raise DomainError(f"bessel_j_many requires x >= 0, got {x}")
    nus = np.asarray(nus, dtype=float)
    if nus.ndim != 1 or nus.shape[0] == 0:
        raise DomainError("bessel_j_many requires a nonempty 1-d array of orders")
    if not np.all(np.isfinite(nus)) or np.any(nus < 0.0):
        raise DomainError("bessel_j_many requires finite orders >= 0")
    out = np.empty(nus.shape[0])
    if x == 0.0:
        out[:] = np.where(nus == 0.0, 1.0, 0.0)
        return out
    quad_mask = x > np.maximum(12.0, 0.5 * nus)
    for i in np.nonzero(~quad_mask)[0]:
        out[i] = _bessel_series(float(nus[i]), x, tol)
    if np.any(quad_mask):
        out[quad_mask] = _bessel_quad_batch(nus[quad_mask], x, tol)
    return out


# ---------------------------------------------------------------------------
# Gegenbauer polynomials
# ---------------------------------------------------------------------------

def _check_gegenbauer_args(m: int, d: float, t: float) -> tuple[int, float, float]:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise DomainError(f"Gegenbauer degree must be a nonnegative integer, got {m!r}")
    d = _check_finite("d", d)
    if d <= 0.0:
        raise DomainError(f"Gegenbauer weight d must be positive, got {d}")
    if d > 10.0:
        # C_m^d(1) ~ m^{2d-1}/Gamma(2d): beyond d = 10 the endpoint values
        # overflow doubles long before useful degrees.
        raise DomainError(f"Gegenbauer weight d must be <= 10, got {d}")
    t = _check_finite("t", t)
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"Gegenbauer argument must lie in [-1, 1], got {t}")
    return int(m), d, t


def gegenbauer_c(m: int, d: float, t: float) -> float:
    """Gegenbauer polynomial C_m^d(t) by the three-term recurrence
    m C_m = 2 t (m+d-1) C_{m-1} - (m+2d-2) C_{m-2}."""
    m, d, t = _check_gegenbauer_args(m, d, t)
    if m == 0:
        return 1.0
    c_prev = 1.0
    c_cur = 2.0 * d * t
    for j in range(2, m + 1):
        c_prev, c_cur = c_cur, (
            2.0 * t * (j + d - 1.0) * c_cur - (j + 2.0 * d - 2.0) * c_prev
        ) / j
    return c_cur


def gegenbauer_all(m_max: int, d: float, t: float) -> np.ndarray:
    """C_m^d(t) for m = 0..m_max as one array (single recurrence pass)."""
    m_max, d, t = _check_gegenbauer_args(m_max, d, t)
    out = np.empty(m_max + 1)
    out[0] = 1.0
    if m_max == 0:
        return out
    out[1] = 2.0 * d * t
    c_prev = 1.0
    c_cur = out[1]
    for j in range(2, m_max + 1):
        c_prev, c_cur = c_cur, (
            2.0 * t * (j + d - 1.0) * c_cur - (j + 2.0 * d - 2.0) * c_prev
        ) / j
        out[j] = c_cur
    return out
