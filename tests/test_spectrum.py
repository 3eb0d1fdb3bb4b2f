"""Cone configuration and the order sequence nu_m.

Frozen literals come from a 40-digit mpmath reference run.
"""
import math

import numpy as np
import pytest

from conekernel import ConeParams, DomainError, nu_many


def test_params_derived_fields():
    p = ConeParams(rho=0.5, n=3, c=2.0)
    assert p.d == 0.5
    assert p.nu0 == pytest.approx(1.5, rel=1e-15)
    assert p.nu0 ** 2 == pytest.approx(p.d ** 2 + p.c, rel=1e-15)


def test_params_subcriticality_gate():
    # c must exceed -d^2; equality is already supercritical.
    ConeParams(rho=1.0, n=3, c=-0.2499)  # fine
    with pytest.raises(DomainError):
        ConeParams(rho=1.0, n=3, c=-0.25)
    with pytest.raises(DomainError):
        ConeParams(rho=1.0, n=3, c=-0.3)
    with pytest.raises(DomainError):
        ConeParams(rho=1.0, n=4, c=-1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        ConeParams(rho=0.0, n=3, c=0.0)
    with pytest.raises(DomainError):
        ConeParams(rho=-1.0, n=3, c=0.0)
    with pytest.raises(DomainError):
        ConeParams(rho=1.0, n=2, c=0.0)
    with pytest.raises(DomainError):
        ConeParams(rho=1.0, n=3.5, c=0.0)
    with pytest.raises(DomainError):
        ConeParams(rho=float("nan"), n=3, c=0.0)
    for bad in (True, np.True_, "a"):
        with pytest.raises(DomainError, match="rho must be a finite real number"):
            ConeParams(rho=bad, n=3, c=0.0)
    with pytest.raises(DomainError, match="c must be a finite real number, got False"):
        ConeParams(rho=1.0, n=3, c=False)


def test_params_real_d_constructor_for_harnesses():
    p = ConeParams._from_d(rho=2.0, d=0.75, c=0.1)
    assert p.d == 0.75
    assert p.nu0 == pytest.approx(math.sqrt(0.75 ** 2 + 0.1), rel=1e-15)


def test_nu_integer_profile_examples():
    # d = 1 collapses m(m+2d) + d^2 to (m+d)^2, so nu_m = m + 1 at rho = 1.
    assert nu_many(ConeParams(rho=1.0, n=4, c=0.0), [5])[0] == pytest.approx(6.0, abs=1e-13)
    assert nu_many(ConeParams(rho=1.0, n=3, c=0.0), [2])[0] == pytest.approx(2.5, abs=1e-13)


def test_nu_frozen_value():
    # rho = 1/2, n = 3, c = 0, m = 1: sqrt(4 * 1 * 2 + 0.25) = sqrt(8.25)
    p = ConeParams(rho=0.5, n=3, c=0.0)
    assert nu_many(p, [1])[0] == pytest.approx(2.8722813232690143299, rel=1e-15)


def test_nu_zero_mode_equals_nu0():
    for p in (
        ConeParams(rho=0.5, n=3, c=2.0),
        ConeParams(rho=2.0, n=5, c=-1.0),
        ConeParams(rho=1.0, n=4, c=0.0),
    ):
        assert nu_many(p, [0])[0] == p.nu0


def test_nu_exact_linear_profile_at_unit_radius():
    # rho = 1, c = 0: nu_m = m + d exactly for m <= 1e6, since
    # m (m + 2d) + d^2 = (m + d)^2 is exact in doubles.
    ms = np.unique(np.concatenate([np.arange(0, 2000), np.geomspace(2000, 10 ** 6, 200).astype(np.int64), [10 ** 6]]))
    for n in (3, 4, 5):
        assert np.array_equal(nu_many(ConeParams(rho=1.0, n=n, c=0.0), ms), ms + (n - 2) / 2)
    # At the conic coupling c* = d^2 (1/rho^2 - 1) the profile is
    # nu_m = (m + d)/rho for every rho, to a few ulps.
    for rho in (0.3, 2 / 3, 0.9, 1.5, 3.0):
        for n in (3, 5, 8):
            d = (n - 2) / 2
            vals = nu_many(ConeParams(rho=rho, n=n, c=d * d * (1.0 / (rho * rho) - 1.0)), ms)
            expected = (ms + d) / rho
            assert np.all(np.abs(vals - expected) <= 4.0 * np.spacing(expected)), (rho, n)


def test_nu_strict_monotonicity():
    for p in (
        ConeParams(rho=1 / 3, n=3, c=0.0),
        ConeParams(rho=2.0, n=5, c=-2.0),
        ConeParams(rho=1.0, n=3, c=5.0),
    ):
        ms = np.unique(np.concatenate([np.arange(0, 5000), np.geomspace(5000, 10 ** 6, 100).astype(np.int64)]))
        vals = nu_many(p, ms)
        assert np.all(np.diff(vals) > 0.0)
