"""Error-free transformations and double-double arithmetic (_compensated).

two_sum and two_prod must be exact, the double-double product and quotient
within 2^-98 relative of the exact result, and every helper must give on
numpy arrays, element by element, the bits of its scalar call.  Inputs are
finite doubles kept away from overflow, and for products and quotients
away from underflow, where the roundoff itself would not be representable.
"""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conekernel._compensated import dd_add, dd_div, dd_mul, two_prod, two_sum

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# sums of two of these cannot overflow
SUMMANDS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
# products and quotients of two of these, and of their 26-bit halves, stay
# normal doubles, so the roundoff of each is representable
FACTORS = st.one_of(
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


@st.composite
def double_doubles(draw):
    """A normalized double-double (hi, lo), |lo| <= ulp(hi)/2."""
    hi = draw(FACTORS)
    lo = hi * draw(st.floats(min_value=-1.0, max_value=1.0)) * 2.0**-52
    return two_sum(hi, lo)


def _exact(pair) -> Fraction:
    return Fraction(pair[0]) + Fraction(pair[1])


@SETTINGS
@given(SUMMANDS, SUMMANDS)
def test_two_sum_is_error_free(a, b):
    s, e = two_sum(a, b)
    assert s == a + b
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@SETTINGS
@given(FACTORS, FACTORS)
def test_two_prod_is_error_free(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@SETTINGS
@given(double_doubles(), double_doubles())
def test_dd_mul_and_dd_div_are_within_2_pow_minus_98(a, b):
    for got, exact in ((dd_mul(a, b), _exact(a) * _exact(b)), (dd_div(a, b), _exact(a) / _exact(b))):
        assert abs(_exact(got) - exact) <= abs(exact) * Fraction(1, 2**98)


@SETTINGS
@given(st.lists(st.tuples(double_doubles(), double_doubles()), min_size=1, max_size=6))
def test_array_calls_match_scalar_calls_bitwise(pairs):
    a = tuple(np.array([p[0][i] for p in pairs]) for i in (0, 1))
    b = tuple(np.array([p[1][i] for p in pairs]) for i in (0, 1))
    calls = {
        "two_sum": (two_sum, lambda x, y: (x[0], y[0])),
        "two_prod": (two_prod, lambda x, y: (x[0], y[0])),
        "dd_add": (dd_add, lambda x, y: (x, y)),
        "dd_mul": (dd_mul, lambda x, y: (x, y)),
        "dd_div": (dd_div, lambda x, y: (x, y)),
    }
    for name, (helper, args) in calls.items():
        hi, lo = helper(*args(a, b))
        for k, (x, y) in enumerate(pairs):
            want = helper(*args(x, y))
            got = (float(hi[k]), float(lo[k]))
            assert [v.hex() for v in got] == [float(v).hex() for v in want], (name, k)
