"""Error-free transformations and double-double arithmetic.

The arithmetic takes scalar doubles and numpy arrays alike: it is written
with plain arithmetic operators.  Double-double values are (hi, lo) pairs
with hi + lo the intended value and |lo| <= ulp(hi)/2.
"""

from __future__ import annotations

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
