"""Error-free transformations and double-double arithmetic.

The arithmetic takes scalar doubles and numpy arrays alike: it is written
with plain arithmetic operators.  Double-double values are (hi, lo) pairs
with hi + lo the intended value and |lo| <= ulp(hi)/2.

No helper calls another.  The small-x Bessel series calls them five times
per term, about 1.5 million times in ten rounds of perfbench's tip-verify
stream, and a nested Python call per Veltkamp split and per
renormalization costs more than the flops it wraps.  So each helper does
its own splits (c = (2^27 + 1) a, hi = c - (c - a), lo = a - hi) and its
own closing quick-two-sum (s = a + b, e = b - (s - a) for |a| >= |b|) in
place, with the operations in the classic order.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    """a + b as (sum, exact roundoff)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def two_prod(a, b):
    """a * b as (product, exact roundoff). No FMA assumed."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(a, b):
    """Double-double a + b."""
    a0, b0 = a[0], b[0]
    s = a0 + b0
    t = s - a0
    e = (a0 - (s - t)) + (b0 - t)
    e = e + a[1] + b[1]
    hi = s + e
    return hi, e - (hi - s)


def dd_mul(a, b):
    """Double-double a * b."""
    a0, b0 = a[0], b[0]
    p = a0 * b0
    c = _SPLITTER * a0
    ah = c - (c - a0)
    al = a0 - ah
    c = _SPLITTER * b0
    bh = c - (c - b0)
    bl = b0 - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = e + a0 * b[1] + a[1] * b0
    hi = p + e
    return hi, e - (hi - p)


def dd_div(a, b):
    """Double-double a / b."""
    a0, b0 = a[0], b[0]
    q1 = a0 / b0
    p = q1 * b0
    c = _SPLITTER * q1
    qh = c - (c - q1)
    ql = q1 - qh
    c = _SPLITTER * b0
    bh = c - (c - b0)
    bl = b0 - bh
    e = ((qh * bh - p) + qh * bl + ql * bh) + ql * bl
    r = (((a0 - p) - e) + a[1]) - q1 * b[1]
    q2 = r / b0
    hi = q1 + q2
    return hi, q2 - (hi - q1)
