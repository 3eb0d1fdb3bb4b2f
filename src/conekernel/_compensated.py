"""Error-free transformations and double-double arithmetic.

The arithmetic takes scalar doubles and numpy arrays alike: it is written
with plain arithmetic operators (dd_cis alone needs arrays).  Double-double
values are (hi, lo) pairs with hi + lo the intended value and
|lo| <= ulp(hi)/2.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    """a + b as (sum, exact roundoff)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def quick_two_sum(a, b):
    """two_sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a):
    """Veltkamp split of a into high/low 26-bit halves."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """a * b as (product, exact roundoff). No FMA assumed."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(a, b):
    s, e = two_sum(a[0], b[0])
    e = e + a[1] + b[1]
    return quick_two_sum(s, e)


def dd_mul(a, b):
    p, e = two_prod(a[0], b[0])
    e = e + a[0] * b[1] + a[1] * b[0]
    return quick_two_sum(p, e)


def dd_div(a, b):
    q1 = a[0] / b[0]
    p, e = two_prod(q1, b[0])
    r = (((a[0] - p) - e) + a[1]) - q1 * b[1]
    q2 = r / b[0]
    return quick_two_sum(q1, q2)


# ---------------------------------------------------------------------------
# Double-double cosine and sine
# ---------------------------------------------------------------------------
# pi/64 as a double-double (an exact power-of-two scaling of pi's hi/lo).
_STEP_HI = 3.141592653589793 / 64.0
_STEP_LO = 1.2246467991473532e-16 / 64.0


def dd_cmul(a, b):
    """Complex product of a = (re, im) and b = (re, im), parts double-double."""
    (ar, ai), (br, bi) = a, b
    ii = dd_mul(ai, bi)
    return dd_add(dd_mul(ar, br), (-ii[0], -ii[1])), dd_add(dd_mul(ar, bi), dd_mul(ai, br))


def _cis_small(z_hi, z_lo):
    # (cos z, sin z) for |z| <= pi/128 by Taylor series: only z and z^2/2
    # need double-double; the remaining terms are below 3e-6 (sin) and
    # 2e-8 (cos), so their double rounding stays under 1e-21, as does the
    # first omitted term.
    zz = z_hi * z_hi
    sin_tail = -(z_hi * zz / 6.0) * (1.0 - zz / 20.0 * (1.0 - zz / 42.0 * (1.0 - zz / 72.0)))
    cos_tail = zz * zz / 24.0 * (1.0 - zz / 30.0 * (1.0 - zz / 56.0))
    sq_hi, sq_lo = two_prod(z_hi, z_hi)
    sq_lo = sq_lo + 2.0 * z_hi * z_lo
    c_hi, c_lo = two_sum(1.0, -0.5 * sq_hi)
    cos = quick_two_sum(c_hi, c_lo - 0.5 * sq_lo + cos_tail)
    sin = quick_two_sum(z_hi, z_lo + sin_tail)
    return cos, sin


def _cis_table():
    # cos and sin of k*pi/64, k = 0..127, as hi/lo arrays, by repeated
    # squaring and doubling.  The seed angle pi/16384 is small enough that
    # its Taylor error (~1e-28) survives the 2^8 * 127-fold amplification.
    step = _cis_small(_STEP_HI / 256.0, _STEP_LO / 256.0)
    for _ in range(8):
        step = dd_cmul(step, step)
    parts = [np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1)]
    while parts[0].size < 128:
        (c_hi, c_lo), (s_hi, s_lo) = dd_cmul(((parts[0], parts[1]), (parts[2], parts[3])), step)
        parts = [np.concatenate(pair) for pair in zip(parts, (c_hi, c_lo, s_hi, s_lo))]
        step = dd_cmul(step, step)
    return parts


_CIS_TABLE = _cis_table()


def dd_cis(y_hi, y_lo):
    """(cos y, sin y) as double-double pairs for arrays y = y_hi + y_lo,
    |y| up to a few times 2*pi, with absolute error ~1e-21.

    y is reduced exactly against the nearest multiple k*pi/64; the
    remainder's cosine and sine come from a short Taylor series and are
    rotated by the tabulated e^{i k pi/64}."""
    k = np.rint(y_hi / _STEP_HI)
    p_hi, p_lo = two_prod(k, _STEP_HI)
    # y_hi - p_hi is exact (Sterbenz): p_hi is within pi/128 of y_hi
    z = two_sum(y_hi - p_hi, (y_lo - p_lo) - k * _STEP_LO)
    idx = k.astype(np.intp) % 128
    c_hi, c_lo, s_hi, s_lo = _CIS_TABLE
    rot = ((c_hi[idx], c_lo[idx]), (s_hi[idx], s_lo[idx]))
    return dd_cmul(rot, _cis_small(*z))
