"""Special-function layer: Bessel J of real order, Gegenbauer recurrence, helpers.

Expected values marked "frozen" were produced by an extended-precision
(40-digit mpmath) reference implementation and pasted here as literals.
"""
import hashlib
import math

import numpy as np
import pytest

from conekernel import (
    DEFAULT_TOL,
    DomainError,
    PrecisionError,
    Tolerance,
    acos_unit,
    bessel_j,
    gegenbauer_all,
    log_gamma,
)
from conekernel import specfun
from conekernel.specfun import _log_gamma_array

# ---------------------------------------------------------------------------
# Bessel J: frozen extended-precision spot values covering every code region
# (power series, oscillatory quadrature, turning point nu ~ x, nu >> x decay,
# non-integer orders that exercise the monotone correction integral).
# ---------------------------------------------------------------------------
BESSEL_SPOTS = [
    # (nu, x, value, abs_tol)
    (1.0, 1.0, 0.44005058574493351596, 1e-13),
    (0.3, 0.2, 0.55415772554834812975, 1e-13),
    (2.5, 10.0, 0.19665848358181841265, 1e-13),
    (7.5, 40.0, -0.12605877787102172227, 3e-13),
    (25.5, 60.0, 0.096449899535408800714, 3e-13),
    (100.0, 120.0, 0.075737179130010701447, 1e-12),
    (150.25, 150.0, 0.080531955393124314095, 1e-12),
    (350.5, 400.0, -0.057448345939965620798, 2e-12),
    (80.0, 30.0, 1.0110980590558345848e-26, 1e-36),
    (0.3, 20.0, 0.17731275838228064709, 3e-13),
    (5.0, 500.0, 0.0096512364353543636321, 2e-12),
    (12.5, 500.0, -0.021392119339787415028, 2e-12),
    (0.0, 0.5, 0.93846980724081290423, 1e-14),
    (2.0, 14.0, -0.15201988258205962291, 3e-13),
]


@pytest.mark.parametrize("nu,x,expected,tol", BESSEL_SPOTS)
def test_bessel_spot_values(nu, x, expected, tol):
    assert abs(bessel_j(nu, x) - expected) <= tol


def test_bessel_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.5, 0.0) == 0.0
    assert bessel_j(3.0, 0.0) == 0.0


def test_bessel_half_integer_zero_at_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at x = pi.
    assert abs(bessel_j(0.5, math.pi)) <= 1e-13


@pytest.mark.parametrize("x", np.geomspace(0.1, 200.0, 37).tolist() + [math.pi, 2 * math.pi, 150.0])
def test_bessel_half_integer_closed_forms(x):
    pref = math.sqrt(2.0 / (math.pi * x))
    assert abs(bessel_j(0.5, x) - pref * math.sin(x)) <= 1e-10
    assert abs(bessel_j(1.5, x) - pref * (math.sin(x) / x - math.cos(x))) <= 1e-10


def test_bessel_recurrence_residual():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
    for nu in (1.0, 1.5, 2.7, 10.0, 25.5, 100.0, 350.5):
        for x in (0.5, 1.0, 8.0, 40.0, 170.0, 500.0):
            jm = bessel_j(nu - 1.0, x)
            j0 = bessel_j(nu, x)
            jp = bessel_j(nu + 1.0, x)
            resid = abs(jm + jp - (2.0 * nu / x) * j0)
            assert resid <= 1e-9 * (1.0 + abs(j0)), (nu, x, resid)


def test_bessel_uniform_decay_bound():
    # |J_nu(x)| <= 1.2 x^{-1/3} uniformly in the order.
    for nu in (0.0, 0.5, 1.7, 5.0, 20.25, 137.0):
        for x in np.geomspace(8.0, 800.0, 12):
            assert abs(bessel_j(nu, float(x))) <= 1.2 * x ** (-1.0 / 3.0)


def _quad(nus, x):
    """J at orders in the quadrature region of x, as one batch."""
    return specfun._bessel_quad_batch(nus, x, DEFAULT_TOL, specfun._sinc_window(nus))


def test_bessel_many_matches_scalar():
    # The batch path sizes one set of Bessel samples by its largest order, so
    # it agrees with the scalar path to sampling accuracy (not bitwise).
    nus = np.array([0.5, 1.5, 2.5, 7.5, 40.25, 120.0])
    x = 75.0
    batch = _quad(nus, x)
    for i, nu in enumerate(nus):
        assert batch[i] == pytest.approx(bessel_j(float(nu), x), abs=1e-13)
    again = _quad(nus, x)
    assert np.array_equal(batch, again)


def test_bessel_determinism():
    a = bessel_j(17.25, 260.0)
    b = bessel_j(17.25, 260.0)
    assert a == b


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(float("nan"), 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, float("inf"))


def test_bessel_unreachable_tolerance_reports_achieved():
    # Quadrature at large argument cannot certify 1e-30; the error must carry
    # the error bound that was actually achieved.
    with pytest.raises(PrecisionError) as exc:
        bessel_j(5.0, 400.0, tol=Tolerance(abs_tol=1e-30, rel_tol=1e-30))
    assert exc.value.achieved > 0.0
    assert exc.value.achieved < 1e-10


def test_tolerance_validation():
    assert DEFAULT_TOL.abs_tol == 1e-12 and DEFAULT_TOL.rel_tol == 1e-10
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0, rel_tol=1e-10)
    with pytest.raises(DomainError):
        Tolerance(abs_tol=1e-12, rel_tol=-1.0)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials.
# ---------------------------------------------------------------------------
def test_gegenbauer_low_degrees():
    assert gegenbauer_all(0, 0.5, -0.7)[0] == 1.0
    assert gegenbauer_all(1, 0.5, 0.3)[1] == pytest.approx(0.3, abs=1e-15)  # C_1 = 2 d t
    assert gegenbauer_all(2, 1.0, 1.0)[2] == pytest.approx(3.0, abs=1e-12)


GEGENBAUER_SPOTS = [
    (5, 1.5, 0.3, 2.0217487500000000514, 1e-12),
    (7, 0.5, -0.6, -0.32259840000000000521, 1e-12),
    (12, 2.5, 0.9, -115.09131606286546318, 1e-9),
    (30, 3.0, -0.95, 4396.468780398183321, 1e-6),
]


@pytest.mark.parametrize("m,d,t,expected,tol", GEGENBAUER_SPOTS)
def test_gegenbauer_spot_values(m, d, t, expected, tol):
    assert abs(gegenbauer_all(m, d, t)[m] - expected) <= tol


def test_gegenbauer_endpoint_formula():
    # C_m^d(1) = Gamma(m + 2d) / (Gamma(m + 1) Gamma(2d)), relative 1e-10,
    # for m <= 2000 and the half-integer weights used by dimensions 3, 4, 5.
    for d in (0.5, 1.0, 1.5):
        vals = gegenbauer_all(2000, d, 1.0)
        ms = np.arange(2001, dtype=float)
        expected = np.exp(
            np.vectorize(log_gamma)(ms + 2.0 * d)
            - np.vectorize(log_gamma)(ms + 1.0)
            - log_gamma(2.0 * d)
        )
        rel = np.abs(vals - expected) / expected
        assert float(rel.max()) <= 1e-10, (d, float(rel.max()))


def test_gegenbauer_endpoint_is_maximum():
    for d in (0.5, 1.0, 1.5):
        tops = gegenbauer_all(2000, d, 1.0)
        for t in np.linspace(-1.0, 1.0, 41):
            vals = gegenbauer_all(2000, d, float(t))
            assert np.all(np.abs(vals) <= tops * (1.0 + 1e-12))


def test_gegenbauer_parity():
    for d in (0.5, 1.0, 1.5, 2.5):
        for t in (0.1, 0.45, 0.9):
            plus = gegenbauer_all(60, d, t)
            minus = gegenbauer_all(60, d, -t)
            signs = (-1.0) ** np.arange(61)
            scale = np.maximum(np.abs(plus), 1e-300)
            assert np.all(np.abs(minus - signs * plus) / scale <= 1e-10)


def test_gegenbauer_domain_errors():
    with pytest.raises(DomainError):
        gegenbauer_all(3, 0.5, 1.5)
    with pytest.raises(DomainError):
        gegenbauer_all(3, -1.0, 0.5)
    with pytest.raises(DomainError):
        gegenbauer_all(3, 11.0, 0.5)  # weights above 10 are refused (overflow envelope)
    with pytest.raises(DomainError):
        gegenbauer_all(-1, 0.5, 0.5)


def _gegenbauer_scalar(m, d, t):
    # the three-term recurrence, one degree at a time
    c_prev, c_cur = 1.0, 2.0 * d * t
    if m == 0:
        return c_prev
    for j in range(2, m + 1):
        c_prev, c_cur = c_cur, (2.0 * t * (j + d - 1.0) * c_cur - (j + 2.0 * d - 2.0) * c_prev) / j
    return c_cur


def test_gegenbauer_all_matches_scalar():
    for t in (-1.0, -0.37, 1.0):
        for m_max in (0, 1, 25):
            vals = gegenbauer_all(m_max, 1.5, t)
            want = np.array([_gegenbauer_scalar(m, 1.5, t) for m in range(m_max + 1)])
            assert vals.shape == (m_max + 1,)
            assert np.array_equal(vals.view(np.int64), want.view(np.int64)), (t, m_max)


# ---------------------------------------------------------------------------
# The stable arccosine.
# ---------------------------------------------------------------------------
def test_acos_unit_near_one_is_accurate():
    # 2 asin(sqrt((1-mu)/2)) formulation keeps 12+ digits near mu = 1.
    assert acos_unit(1.0) == 0.0
    assert acos_unit(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    for mu in (0.999999, 1.0 - 1e-10, 0.25, 0.5):
        assert abs(math.cos(acos_unit(mu)) - mu) <= 1e-15


# ---------------------------------------------------------------------------
# log Gamma.
# ---------------------------------------------------------------------------
def test_log_gamma_frozen_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(0.57236494292470008707, rel=1e-13)
    assert log_gamma(11.0) == pytest.approx(15.104412573075515295, rel=1e-13)
    assert log_gamma(7.25) == pytest.approx(7.0521854507385394449, rel=1e-13)
    assert log_gamma(0.1) == pytest.approx(2.252712651734205902, rel=1e-13)


def test_log_gamma_recursion_property():
    # ln Gamma(z+1) = ln Gamma(z) + ln z
    for z in (0.3, 1.7, 4.25, 40.0, 333.5):
        assert log_gamma(z + 1.0) == pytest.approx(log_gamma(z) + math.log(z), rel=1e-12)


def test_log_gamma_array_matches_scalar():
    # Same Lanczos sum; np.log may round differently from math.log.
    z = np.concatenate([np.geomspace(0.5, 1e5, 400), np.arange(1.0, 60.0)])
    want = np.array([log_gamma(float(v)) for v in z])
    np.testing.assert_allclose(_log_gamma_array(z), want, rtol=1e-14, atol=1e-14)


def test_log_gamma_domain_errors():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


# ---------------------------------------------------------------------------
# The sinc window of the quadrature path.
# ---------------------------------------------------------------------------
def test_sinc_window_slice_is_window_of_slice():
    # A scan builds one window for its longest ladder prefix and hands each
    # batch and band a slice, so a slice must be bitwise a window of its own.
    rng = np.random.default_rng(7)
    nus = np.sort(np.concatenate([
        rng.uniform(0.0, 5000.0, 997),
        np.arange(0.0, 9.0),
        np.arange(0.0, 9.0) + 0.5,
        [1e-12, 0.5 + 1e-10, 2.0**20 + 0.25],
    ]))
    base, weights = specfun._sinc_window(nus)
    for n in (1, 2, 3, 17, 255, 256, 257, 600, nus.size):
        b, w = specfun._sinc_window(nus[:n])
        assert np.array_equal(b, base[:n])
        assert np.array_equal(w.view(np.int64), weights[:n].view(np.int64))


# ---------------------------------------------------------------------------
# Oracle sweep: J against scipy.special.jv under the documented
# per-order contract |error| <= max(abs_tol, rel_tol * |J|).
# ---------------------------------------------------------------------------
def _contract_ratio(got, ref):
    allowed = np.maximum(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * np.abs(ref))
    return float(np.max(np.abs(got - ref) / allowed))


def test_bessel_many_matches_scipy_oracle():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20251018)
    for x in np.exp(rng.uniform(math.log(12.0), math.log(3000.0), 16)):
        x = float(x)
        nus = np.abs(np.concatenate([
            rng.uniform(0.0, 2.5 * x, 150),  # both paths and the transition
            x + rng.normal(0.0, 2.0 * x ** (1.0 / 3.0), 60),  # turning point
            np.round(rng.uniform(0.0, 2.0 * x, 20)),  # integer orders
            np.round(rng.uniform(0.0, 2.0 * x, 20)) + 0.5,
        ]))
        got = np.empty(nus.shape[0])
        quad = x > np.maximum(12.0, 0.5 * nus)
        got[quad] = _quad(nus[quad], x)
        got[~quad] = [bessel_j(float(v), x) for v in nus[~quad]]  # power series
        assert _contract_ratio(got, special.jv(nus, x)) <= 1.0, x


def test_bessel_many_multi_chunk_batch_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = 3000.0
    nus = np.linspace(0.0, 5900.0, 4000)
    got = _quad(nus, x)
    assert _contract_ratio(got, special.jv(nus, x)) <= 1.0


def _sinc_oracle_orders(x):
    """Orders that exercise every branch of the sinc series of J's samples:
    0 and 1e-12, integers and half-integers (whose samples are the values)
    and their neighbours, nu < 20 (windows reaching negative samples), the
    turning point nu ~ x and the edge of the quadrature region nu ~ 2x."""
    nus = [
        0.0, 1e-12, 1.0 - 1e-9, 1.0 + 1e-9, 7.0, 7.0 + 1e-9, 0.5 - 1e-10, 0.5 + 1e-10,
        3.5, 3.5 + 1e-10, 2.3, 5.7, 9.9, 17.25, x - 0.3, x, x + 0.7, 1.9 * x, 2.0 * x - 1e-3,
    ]
    return np.array([v for v in nus if x > max(12.0, 0.5 * v)])


@pytest.mark.parametrize("x", [12.01, 13.0, 150.0, 1500.0, 5000.0])
def test_bessel_quad_matches_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    nus = _sinc_oracle_orders(x)
    ref = np.array([float(mpmath.besselj(mpmath.mpf(float(v)), mpmath.mpf(x))) for v in nus])
    # one unsorted batch, and every order alone
    perm = np.random.default_rng(5).permutation(nus.size)
    batch = _quad(nus[perm], x)
    assert np.max(np.abs(batch - ref[perm])) <= 1e-15
    single = np.array([bessel_j(float(v), x) for v in nus])
    assert np.max(np.abs(single - ref)) <= 1e-15


@pytest.mark.parametrize("x", [12.0001, 12.3, 13.0, 14.0, 16.0])
def test_bessel_quad_edge_matches_mpmath(x):
    # The sinc series reads J's own samples, down to J_{nu-20}: for nu < 2
    # near x = 12 the windows reach +-Y_{k+1/2} at k ~ 19, large enough to
    # show through the window's Gaussian tail (measured up to 3.5e-15 at
    # x -> 12+, nu = 0.75).  Below x = 14 that is allowed the 5e-15 that
    # _quad_achieved charges on top of x*eps/2; from x = 14 on, the 1e-15
    # of the test above.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(int(1000 * x))
    nus = np.concatenate((np.linspace(0.0, 3.0, 61), rng.uniform(0.0, 2.0 * x, 40)))
    ref = np.array([float(mpmath.besselj(mpmath.mpf(float(v)), mpmath.mpf(x))) for v in nus])
    got = _quad(nus, x)
    assert np.max(np.abs(got - ref)) <= (5e-15 if x < 14.0 else 1e-15)


def test_bessel_quad_band_matches_batch_near_twelve():
    # direct band calls below any band a scan forms: windows that reach
    # negative samples, where J's samples stray furthest from the Anger
    # function's (its decaying part D is largest near x = 12)
    rng = np.random.default_rng(9)
    nus = np.sort(rng.uniform(0.0, 24.0, 40))
    coef = rng.normal(size=(3, 40))
    xs = np.linspace(12.5, 14.0, 7)
    window = specfun._sinc_window(nus)
    band = specfun._bessel_quad_band(coef, xs, window)
    bound = 4.0 * 2.0**-52 * np.sum(np.abs(coef), axis=1)
    for x, row in zip(xs, band):
        assert np.all(np.abs(row - coef @ specfun._bessel_quad_batch(nus, x, DEFAULT_TOL, window)) <= bound)


def test_bessel_quad_phase_noise_does_not_scale_with_x():
    # A quadrature with a double-precision phase x*sin(t) would carry ~x*eps/2
    # (1.7e-13 at x = 1500) of phase noise on every node, about 5e-16 rms in
    # J; the recurrence samples keep the rms error below 1e-16.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = 1500.0
    nus = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * x, 50))
    ref = np.array([float(mpmath.besselj(v, x)) for v in nus])
    err = _quad(nus, x) - ref
    assert math.sqrt(float(np.mean(err**2))) <= 2.5e-16


# ---------------------------------------------------------------------------
# Power-series region (x <= max(12, nu/2)) against mpmath
# ---------------------------------------------------------------------------
# float.hex of the power series' values, frozen from the series that summed
# until |u_k| <= 1e-34 |s|.  The stop at 2^-60 |s| left each of these bitwise
# unchanged; the rule itself bounds only the error (under 1/128 ulp), so a
# value within 2^-60 |s| of a rounding boundary could change.  Tiny x, x -> 12-, 12 < x <= nu/2, points within 1e-3 of the
# first zero j_{nu,1} and values down to 1e-220.
SERIES_FROZEN = [
    (0.0, 0.0001, "0x1.ffffffea86712p-1"),
    (1.0, 0.001, "0x1.0624db0959245p-11"),
    (0.5, 0.3, "0x1.b8d34ae841d8ep-2"),
    (2.5, 1.7, "0x1.4c43c41696418p-3"),
    (7.0, 4.2, "0x1.4b46d3876cca2p-6"),
    (13.5, 6.25, "0x1.b4f6e1fae4579p-14"),
    (0.3, 11.9, "-0x1.4cae0cc42c78bp-4"),
    (0.75, 11.999999999999998, "-0x1.7ed48c904c95fp-3"),
    (5.5, 11.5, "-0x1.f049e17200979p-3"),
    (12.0, 11.75, "0x1.693a78dd481fdp-3"),
    (21.25, 9.3, "0x1.1348293af3094p-21"),
    (33.0, 2.0, "0x1.306a0d8354e2fp-123"),
    (47.5, 10.0, "0x1.4f9db2c26aaa7p-91"),
    (60.0, 0.01, "0x1.2d6f1127b55f1p-731"),
    (59.9, 11.0, "0x1.0abccb1cf89bfp-125"),
    (40.0, 19.0, "0x1.6840feb0743d5p-33"),
    (60.0, 29.5, "0x1.6eff7445fa473p-45"),
    (26.5, 13.0, "0x1.7128641cc2c98p-22"),
    (0.0, 2.403825557695773, "0x1.103d46fb5076ap-11"),
    (1.0, 3.8327059702075124, "-0x1.a644c79f533eap-12"),
    (2.5, 5.7634581968945495, "0x1.547d65af875eep-22"),
    (6.7, 10.74361313179565, "-0x1.c5a0c7b85c35ap-13"),
    (17.3, 0.07, "0x1.ae07eb9ddad13p-134"),
    (3.25, 8.8, "-0x1.0b48348ec2452p-2"),
]


def test_bessel_series_frozen_bitwise():
    for nu, x, frozen in SERIES_FROZEN:
        assert bessel_j(nu, x).hex() == frozen, (nu, x)


# SHA-256 of every outcome below, frozen from the power series as it was
# before its double-double helpers were flattened: any change of a value's
# bits, or of a refusal's achieved bound, changes the digest.
SERIES_GRID_DIGEST = "12a56e11e0c830711fc45ca91dcc524025354f6d3498a71e4e5c9f9baf67ce3f"


def test_bessel_series_grid_digest_frozen():
    # 2,000 seeded (nu, x): integer, half-integer and generic nu in [0, 80],
    # log-uniform x in [1e-6, 12], each at the default tolerance and at
    # rel_tol 1e-14, which about two in five of them refuse.
    rng = np.random.default_rng(2026)
    nus = rng.uniform(0.0, 80.0, 2000)
    nus[:400] = np.round(nus[:400])
    nus[400:800] = np.floor(nus[400:800]) + 0.5
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(12.0), 2000))
    tight = Tolerance(abs_tol=1e-300, rel_tol=1e-14)
    digest = hashlib.sha256()
    refused = 0
    for nu, x in zip(nus.tolist(), xs.tolist()):
        for tol in (DEFAULT_TOL, tight):
            try:
                out = specfun._bessel_series(nu, x, tol).hex()
            except PrecisionError as exc:
                out = "PrecisionError " + float(exc.achieved).hex()
                refused += 1
            digest.update(f"{nu.hex()} {x.hex()} {out}\n".encode())
    assert refused == 1598
    assert digest.hexdigest() == SERIES_GRID_DIGEST


def _series_achieved(nu, x):
    """The power series' own error bound at (nu, x): the achieved bound of
    the PrecisionError it raises when no tolerance above 0 is left to meet
    (0 when even that bound underflows)."""
    try:
        specfun._bessel_series(nu, x, Tolerance(abs_tol=math.ulp(0.0), rel_tol=1e-300))
    except PrecisionError as exc:
        return exc.achieved
    return 0.0


def test_bessel_series_matches_mpmath():
    # Integer, half-integer and generic orders in [0, 60] at log-uniform x
    # in [1e-4, 12], x -> 12-, 12 < x <= nu/2 and points near the first zero
    # j_{nu,1} < 12.  Each value is within the series' achieved bound (1e-300
    # where that underflows), and within the 2.3e-15 absolute the module
    # documents at x = 12, whatever the achieved bound charges.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(22)
    nus = rng.uniform(0.0, 60.0, 150)
    nus[:50] = np.round(nus[:50])
    nus[50:100] = np.floor(nus[50:100]) + 0.5
    points = list(zip(nus.tolist(), np.exp(rng.uniform(math.log(1e-4), math.log(12.0), 150)).tolist()))
    below_twelve = float(np.nextafter(12.0, 0.0))
    points += [(nu, below_twelve) for nu in (0.0, 0.75, 5.5, 11.0, 12.0, 12.3, 30.0)]
    points += [(40.0, 19.0), (60.0, 29.5), (26.5, 13.0), (33.3, 16.6), (50.0, 24.99)]
    for nu in (0.0, 0.5, 1.0, 2.5, 4.0, 6.7):
        zero = float(mpmath.besseljzero(nu, 1))
        points += [(nu, zero + dx) for dx in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)]
    points += [(nu, x) for nu, x, _ in SERIES_FROZEN]
    for nu, x in points:
        assert x <= max(12.0, 0.5 * nu)
        got = bessel_j(nu, x)
        err = abs(got - float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))))
        assert err <= max(_series_achieved(nu, x), 1e-300), (nu, x, err)
        assert err <= 2.3e-15, (nu, x, err)


def test_bessel_series_tight_tolerance_is_met_or_refused():
    # Tolerances far below the default are either met or refused with
    # PrecisionError.  The two named points are where the prefactor's
    # exponent, nu log(x/2) - log Gamma(nu+1), is a small difference of
    # large terms whose rounding a charge on the difference alone misses
    # (errors 2.2e-17 on J = 1.9e-3 and 1.1e-15 on J = 0.32).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    nus = rng.uniform(0.0, 60.0, 240)
    nus[:80] = np.round(nus[:80])
    xs = np.exp(rng.uniform(math.log(1e-4), math.log(12.0), 240))
    points = list(zip(nus.tolist(), xs.tolist())) + [(17.0, 11.03), (8.42, 9.93)]
    met = dict.fromkeys((2e-15, 1e-13, 1e-12), 0)
    for nu, x in points:
        with mpmath.workdps(40):
            ref = mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))
        for rel_tol in met:
            tight = Tolerance(abs_tol=1e-300, rel_tol=rel_tol)
            try:
                got = bessel_j(nu, x, tol=tight)
            except PrecisionError:
                continue
            err = abs(got - float(ref))
            assert err <= max(tight.abs_tol, rel_tol * abs(float(ref))), (nu, x, rel_tol, err)
            met[rel_tol] += 1
    # the loosest of them is met nearly everywhere: the check has points to check
    assert met[1e-12] >= 0.9 * len(points), met
