"""Error-free transformations and double-double arithmetic (_compensated).

two_sum and two_prod must be exact, the double-double product and quotient
within 2^-98 relative of the exact result, and every helper must give on
numpy arrays, element by element, the bits of its scalar call.  Inputs are
finite doubles kept away from overflow, and for products and quotients
away from underflow, where the roundoff itself would not be representable.
Both output words of every helper, the low word included, are also frozen
bitwise over seeded inputs, so a re-association that moves a bit shows.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest
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


# SHA-256 of float.hex of both output words of each helper over the 2,000
# seeded input pairs of test_helpers_frozen_bitwise, frozen from the
# helpers as they stand.
FROZEN_DIGESTS = {
    "two_sum": "d64cdcf8acc8015c9773df4489d9b1b16ba39b7ef2e49352050c538c93d115a7",
    "two_prod": "e1353fd0c9aed3e51888e86874d37d6c42caf9a67a136bbdb01607dd85c4117a",
    "dd_add": "df635ff2d0bee38aa7e428bd0ba7f91b916db3886749a1efaddb6a9088ab1392",
    "dd_mul": "ee0b62659229b5a88e153b671ae364ea74ecfba57834f0d6d26187d73362da88",
    "dd_div": "edfa6a31ced6a3ce16bf9e31ba260d3cf4178cac0f70567d30274c29d6083a61",
}


def _seeded_double_doubles(rng, n):
    """n normalized double-doubles with non-zero low words: hi of either
    sign in [1, 2) 2^k, k in [-30, 30], and |lo| < ulp(hi)/2."""
    hi = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-30, 31, n)
    lo = hi * rng.uniform(-1.0, 1.0, n) * 2.0**-53
    return [two_sum(h, l) for h, l in zip(hi.tolist(), lo.tolist())]


@pytest.mark.parametrize("helper", [two_sum, two_prod, dd_add, dd_mul, dd_div], ids=lambda f: f.__name__)
def test_helpers_frozen_bitwise(helper):
    rng = np.random.default_rng(2027)
    a, b = _seeded_double_doubles(rng, 2000), _seeded_double_doubles(rng, 2000)
    assert all(p[1] != 0.0 for p in a + b)
    digest = hashlib.sha256()
    for x, y in zip(a, b):
        # the error-free transformations take the high words alone
        hi, lo = helper(x[0], y[0]) if helper in (two_sum, two_prod) else helper(x, y)
        digest.update(f"{hi.hex()} {lo.hex()}\n".encode())
    assert digest.hexdigest() == FROZEN_DIGESTS[helper.__name__]
