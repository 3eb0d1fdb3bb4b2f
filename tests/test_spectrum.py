"""Cone configuration and the order sequence nu_m.

Frozen literals come from a 40-digit mpmath reference run.
"""
import math

import numpy as np
import pytest

from conekernel import ConeParams, DomainError, nu, nu_asymptotic_gap, nu_many


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


def test_params_real_d_constructor_for_harnesses():
    p = ConeParams._from_d(rho=2.0, d=0.75, c=0.1)
    assert p.d == 0.75
    assert p.nu0 == pytest.approx(math.sqrt(0.75 ** 2 + 0.1), rel=1e-15)


def test_nu_integer_profile_examples():
    # d = 1 collapses m(m+2d) + d^2 to (m+d)^2, so nu_m = m + 1 at rho = 1.
    assert nu(ConeParams(rho=1.0, n=4, c=0.0), 5) == pytest.approx(6.0, abs=1e-13)
    assert nu(ConeParams(rho=1.0, n=3, c=0.0), 2) == pytest.approx(2.5, abs=1e-13)


def test_nu_frozen_value():
    # rho = 1/2, n = 3, c = 0, m = 1: sqrt(4 * 1 * 2 + 0.25) = sqrt(8.25)
    p = ConeParams(rho=0.5, n=3, c=0.0)
    assert nu(p, 1) == pytest.approx(2.8722813232690143299, rel=1e-15)


def test_nu_zero_mode_equals_nu0():
    for p in (
        ConeParams(rho=0.5, n=3, c=2.0),
        ConeParams(rho=2.0, n=5, c=-1.0),
        ConeParams(rho=1.0, n=4, c=0.0),
    ):
        assert nu(p, 0) == p.nu0


def test_nu_exact_linear_profile_at_unit_radius():
    # rho = 1, c = 0: nu_m = m + d exactly (within 1e-13 relative), m <= 1e6.
    p = ConeParams(rho=1.0, n=3, c=0.0)
    ms = np.unique(np.concatenate([np.arange(0, 2000), np.geomspace(2000, 10 ** 6, 200).astype(np.int64)]))
    vals = nu_many(p, ms)
    expected = ms + 0.5
    assert np.all(np.abs(vals - expected) <= 1e-13 * expected)


def test_nu_strict_monotonicity():
    for p in (
        ConeParams(rho=1 / 3, n=3, c=0.0),
        ConeParams(rho=2.0, n=5, c=-2.0),
        ConeParams(rho=1.0, n=3, c=5.0),
    ):
        ms = np.unique(np.concatenate([np.arange(0, 5000), np.geomspace(5000, 10 ** 6, 100).astype(np.int64)]))
        vals = nu_many(p, ms)
        assert np.all(np.diff(vals) > 0.0)


def test_gap_frozen_values():
    # rho = 1, n = 4, c = 3, m = 10: nu_10 = sqrt(10 * 12 + 1 + 3) = sqrt(124),
    # linear profile (m + d)/rho = 11, so the gap is sqrt(124) - 11.
    p = ConeParams(rho=1.0, n=4, c=3.0)
    g = nu_asymptotic_gap(p, 10)
    assert g == pytest.approx(0.13552872566004384424, rel=1e-13)
    assert abs(g) * 10 <= 2.0 * abs(p.c) * p.rho / 2.0  # O(1/m) envelope

    # rho = 2, n = 3, c = 0, m = 1e6: deep asymptotic regime.
    p2 = ConeParams(rho=2.0, n=3, c=0.0)
    g2 = nu_asymptotic_gap(p2, 10 ** 6)
    assert g2 == pytest.approx(1.8749990625001171878e-7, rel=1e-10)


def test_gap_vanishes_identically_at_unit_radius_free_case():
    p = ConeParams(rho=1.0, n=3, c=0.0)
    for m in (1, 7, 100, 10 ** 6):
        assert nu_asymptotic_gap(p, m) == 0.0


def test_gap_is_order_one_over_m():
    # m * gap stays bounded for each parameter set.
    for p in (
        ConeParams(rho=2.0, n=3, c=0.0),
        ConeParams(rho=0.5, n=4, c=1.5),
        ConeParams(rho=1.0, n=5, c=-2.0),
    ):
        cap = abs(p.c + p.d ** 2 * (1.0 - p.rho ** -2)) * p.rho / 2.0 + 1.0
        for m in (1, 10, 1000, 10 ** 6):
            assert abs(nu_asymptotic_gap(p, m)) * m <= cap * (1.0 + 1e-9)


def test_gap_requires_positive_mode():
    p = ConeParams(rho=1.0, n=3, c=0.0)
    with pytest.raises(DomainError):
        nu_asymptotic_gap(p, 0)


def test_json_round_trip():
    p = ConeParams(rho=2 / 3, n=5, c=-0.7)
    q = ConeParams.from_json(p.to_json())
    assert q == p
    # Serialized keys are exactly rho, n, c (derived fields never serialized).
    import json

    blob = json.loads(p.to_json())
    assert set(blob) == {"rho", "n", "c"}


def test_json_rejects_unknown_keys():
    with pytest.raises(DomainError):
        ConeParams.from_json('{"rho": 1.0, "n": 3, "c": 0.0, "d": 0.5}')
    with pytest.raises(DomainError):
        ConeParams.from_json('{"rho": 1.0, "n": 3}')


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"rho": true, "n": 3, "c": 0}', "rho must be a finite real number, got True"),
        ('{"rho": "a", "n": 3, "c": 0}', "rho must be a finite real number, got 'a'"),
        ('{"rho": 1, "n": 3, "c": false}', "c must be a finite real number, got False"),
        ("[1]", "cone parameters must be a JSON object, got [1]"),
        ("{rho: 1}", "cone parameters are not valid JSON"),
    ],
)
def test_json_values_are_checked(text, message):
    # before, true was read as 1.0, "a" raised a bare ValueError and [1]
    # was reported as an unexpected key
    with pytest.raises(DomainError, match=message.replace("[", r"\[").replace("]", r"\]")):
        ConeParams.from_json(text)
