"""Argument validators: any real number type is a number, a boolean is not.

A NumPy integer or float32 scalar must give bitwise the value its float
gives, at every entry point that takes a real argument.
"""
import math

import numpy as np
import pytest

from conekernel import (
    ConeParams,
    KernelPoint,
    bessel_j,
    eval_I,
    eval_I_multi,
    make_grid,
    principal_prediction,
    scan,
    verify_bound,
)

P = ConeParams(rho=2 / 3, n=3, c=0.0)
TABLE = scan(P, [1.0, 2.0], [0.0], tol=1e-10)

# entry point -> (call, an integral value it takes)
CALLS = {
    "eval_I_multi-x": (lambda v: eval_I_multi(P, v, [0.0, math.pi]), 20),
    "eval_I_multi-phi": (lambda v: eval_I_multi(P, 20.0, [v]), 3),
    "eval_I-x": (lambda v: eval_I(P, KernelPoint(x=v, phi=1.0)), 20),
    "bessel_j-nu": (lambda v: bessel_j(v, 5.0), 2),
    "bessel_j-x": (lambda v: bessel_j(2.0, v), 13),
    "ConeParams-rho": (lambda v: ConeParams(rho=v, n=3, c=0.0), 1),
    "ConeParams-n": (lambda v: ConeParams(rho=1.0, n=v, c=0.0), 3),
    "make_grid-lo": (lambda v: make_grid(v, 2.0, 5), 1),
    "principal_prediction-x": (lambda v: principal_prediction(P, 0.0, v), 20),
    "verify_bound-threshold": (lambda v: verify_bound(TABLE, "interior", v), 10),
}


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # repr gives every float's shortest round-trip digits, and the types
    return repr(a) == repr(b)


@pytest.mark.parametrize("scalar", [np.int64, np.int32, np.float32], ids=lambda t: t.__name__)
@pytest.mark.parametrize("call", list(CALLS))
def test_numpy_scalars_match_floats(call, scalar):
    fn, value = CALLS[call]
    assert _same_bits(fn(scalar(value)), fn(float(value)))
