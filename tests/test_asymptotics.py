"""Large-x principal terms, their sign convention, and decay envelopes.

Amplitude/phase literals are closed-form arithmetic double-checked by a
40-digit reference run.
"""
import cmath
import math

import pytest

from conekernel import (
    ConeParams,
    DomainError,
    KernelPoint,
    PhysicalPoint,
    PrincipalTerm,
    UnsupportedRegimeError,
    conjugate_frequencies,
    dispersive_envelope,
    envelope_general,
    envelope_interior,
    eval_I,
    eval_kernel,
    principal_prediction,
    principal_terms,
)

THIRD = ConeParams(rho=1 / 3, n=3, c=0.0)
TWO_THIRDS = ConeParams(rho=2 / 3, n=3, c=0.0)

AMP_THIRD = 0.19245008972987525484  # rho^{2d+1} mu0^{2d} / (d Gamma(2d)) = sqrt(3)/9
AMP_TWO_THIRDS = 0.76980035891950101935  # = 4 sqrt(3)/9
SQRT3_OVER_2 = 0.86602540378443864676


def literal_terms(params, phi0):
    """Reference for the opposite sign convention, s1 = +sigma1, built
    from the conjugate points with the phase constant recomputed."""
    d = params.d
    out = []
    for sigma1 in (1, -1):
        for datum in conjugate_frequencies(params.rho, sigma1, phi0):
            out.append(
                PrincipalTerm(
                    amplitude=params.rho ** (2 * d + 1) * datum.mu0 ** (2 * d) / (d * math.gamma(2 * d)),
                    frequency=datum.frequency,
                    phase_constant=-sigma1 * (d / params.rho) * math.acos(datum.mu0)
                    - math.pi * d / (2.0 * params.rho),
                    sigma1=sigma1,
                    mu0=datum.mu0,
                )
            )
    return out


def terms_sum(terms, d, x):
    return sum(
        t.amplitude * cmath.exp(1j * (t.sigma1 * t.frequency * x + t.phase_constant)) for t in terms
    ) * x**d


# ---------------------------------------------------------------------------
# Principal terms.
# ---------------------------------------------------------------------------
def test_terms_third_radius_diagonal():
    terms = principal_terms(THIRD, 0.0)
    assert len(terms) == 1
    (term,) = terms
    assert term.amplitude == pytest.approx(AMP_THIRD, rel=1e-12)
    assert term.frequency == pytest.approx(0.5, abs=1e-13)
    assert term.mu0 == pytest.approx(SQRT3_OVER_2, abs=1e-13)
    # The two conventions assign opposite propagation directions.
    assert term.sigma1 == -literal_terms(THIRD, 0.0)[0].sigma1


def test_terms_two_thirds_antipodal():
    terms = principal_terms(TWO_THIRDS, math.pi)
    assert len(terms) == 1
    (term,) = terms
    assert term.amplitude == pytest.approx(AMP_TWO_THIRDS, rel=1e-12)
    assert term.frequency == pytest.approx(0.5, abs=1e-13)


def test_term_fields_satisfy_their_formulas():
    # Multi-point case: rho = 0.13 has three conjugate points at phi0 = 0.
    params = ConeParams(rho=0.13, n=3, c=0.0)
    terms = principal_terms(params, 0.0)
    assert len(terms) == 3
    d = params.d
    gamma_2d = math.gamma(2.0 * d)
    for term in terms:
        assert term.amplitude == pytest.approx(
            params.rho ** (2 * d + 1) * term.mu0 ** (2 * d) / (d * gamma_2d),
            rel=1e-12,
        )
        assert term.frequency == pytest.approx(math.sqrt(1 - term.mu0 ** 2), rel=1e-12)
        assert term.phase_constant == pytest.approx(
            -term.sigma1 * (d / params.rho) * math.acos(term.mu0)
            - math.pi * d / (2.0 * params.rho),
            rel=1e-12,
        )


def test_terms_pairing_invariant_content():
    # Frequencies, amplitudes, and source points do not depend on the
    # sign convention; only the sign carried into the exponent does.
    for params, phi0 in ((THIRD, 0.0), (TWO_THIRDS, math.pi), (ConeParams(rho=0.13, n=3, c=0.0), 0.0)):
        fixed = principal_terms(params, phi0)
        literal = literal_terms(params, phi0)
        content = [
            [v for t in sorted(terms, key=lambda t: t.mu0) for v in (t.amplitude, t.frequency, t.mu0)]
            for terms in (fixed, literal)
        ]
        assert content[0] == pytest.approx(content[1], rel=1e-14)
        assert sorted((t.mu0, -t.sigma1) for t in fixed) == sorted((t.mu0, t.sigma1) for t in literal)


def test_terms_empty_at_large_radius():
    for rho in (1.0, 1.5, 2.0):
        params = ConeParams(rho=rho, n=3, c=0.0)
        assert principal_terms(params, 0.0) == []
        assert principal_prediction(params, 0.0, 100.0) == 0j


def test_resonant_radius_is_refused():
    for rho in (0.5, 0.25, 0.5 + 1e-10):
        params = ConeParams(rho=rho, n=3, c=0.0)
        with pytest.raises(UnsupportedRegimeError):
            principal_terms(params, 0.0)
        with pytest.raises(UnsupportedRegimeError):
            principal_prediction(params, 0.0, 10.0)


def test_prediction_requires_unit_or_larger_argument():
    with pytest.raises(DomainError):
        principal_prediction(THIRD, 0.0, 0.5)


def test_prediction_refuses_boolean_argument():
    # True == 1 would otherwise give the value at x = 1
    with pytest.raises(DomainError, match="prediction requires x >= 1, got True"):
        principal_prediction(THIRD, 0.0, True)


def test_prediction_closed_form_third_radius():
    # At rho = 1/3, phi0 = 0:
    # P(x) = (sqrt(3)/9) exp(i(x sin(pi/6) - pi)) sqrt(x).
    freq = math.sin(math.pi / 6.0)
    for x in (1.0, 37.5, 400.0, 1999.0):
        expected = AMP_THIRD * cmath.exp(1j * (freq * x - math.pi)) * math.sqrt(x)
        got = principal_prediction(THIRD, 0.0, x)
        assert got == pytest.approx(expected, rel=1e-11)


def test_prediction_triangle_inequality():
    params = ConeParams(rho=0.13, n=3, c=0.0)
    total_amp = sum(t.amplitude for t in principal_terms(params, 0.0))
    for x in (1.0, 10.0, 250.0):
        for pred in (principal_prediction(params, 0.0, x), terms_sum(literal_terms(params, 0.0), params.d, x)):
            assert abs(pred) <= total_amp * math.sqrt(x) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# The measurement that fixes the sign convention.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "rho, phi0", [(1 / 3, 0.0), (2 / 3, math.pi), (0.13, 0.0), (0.46, 0.0)]
)
def test_fixed_convention_beats_literal(rho, phi0):
    # Over x = 500..2000 the fixed convention's residual against the
    # series is at least 10x smaller than the literal one's (22x at
    # worst, at rho = 0.46).
    params = ConeParams(rho=rho, n=3, c=0.0)
    literal = literal_terms(params, phi0)
    assert literal
    sq_fixed = sq_literal = 0.0
    for x in (500.0, 900.0, 1400.0, 2000.0):
        value = eval_I(params, KernelPoint(x=x, phi=phi0)).value
        sq_fixed += abs(value - principal_prediction(params, phi0, x)) ** 2
        sq_literal += abs(value - terms_sum(literal, params.d, x)) ** 2
    assert math.sqrt(sq_literal) >= 10.0 * math.sqrt(sq_fixed)


def test_auto_prediction_tracks_series():
    # The prediction should sit within O(1) of the series while the
    # series itself grows like sqrt(x).
    x = 1500.0
    series = eval_I(THIRD, KernelPoint(x=x, phi=0.0)).value
    pred = principal_prediction(THIRD, 0.0, x)
    assert abs(series - pred) < 1.0
    assert abs(series) > 5.0


# ---------------------------------------------------------------------------
# Envelopes.
# ---------------------------------------------------------------------------
def test_interior_envelope_free_case_is_one():
    params = ConeParams(rho=2.0, n=3, c=0.0)
    for x in (1e-6, 0.3, 1.0, 50.0):
        assert envelope_interior(params, x) == 1.0


def test_interior_envelope_repulsive_values():
    params = ConeParams(rho=1.0, n=3, c=2.0)  # nu0 = 1.5, nu0 - d = 1
    assert envelope_interior(params, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert envelope_interior(params, 0.01) == pytest.approx(1.0 / 101.0, rel=1e-13)
    assert envelope_interior(params, 1e12) == pytest.approx(1.0, rel=1e-11)


def test_general_envelope_values():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    assert envelope_general(params, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # Large x: grows like x^d.
    assert envelope_general(params, 1e6) == pytest.approx(1e3, rel=1e-5)


def test_envelope_domain():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    with pytest.raises(DomainError):
        envelope_interior(params, 0.0)
    with pytest.raises(DomainError):
        envelope_general(params, -1.0)


def test_dispersive_envelope_free_kernel_ratio():
    # For c = 0, n = 3 the interior envelope equals the kernel prefactor
    # modulus, so |kernel| / envelope is the flat-space constant sqrt(2/pi).
    params = ConeParams(rho=1.0, n=3, c=0.0)
    for t, r1, r2 in ((1.0, 1.0, 1.0), (2.0, 1.0, 3.0), (0.25, 0.5, 2.0)):
        pt = PhysicalPoint(t=t, r1=r1, r2=r2, phi=0.7)
        ratio = abs(eval_kernel(params, pt)) / dispersive_envelope(params, pt, "interior")
        assert ratio == pytest.approx(0.79788456080286535588, abs=1e-8)


def test_dispersive_envelope_general_vs_interior():
    params = ConeParams(rho=2 / 3, n=4, c=1.0)
    pt = PhysicalPoint(t=0.5, r1=2.0, r2=1.5, phi=1.0)
    x = pt.to_kernel_point().x
    ratio = dispersive_envelope(params, pt, "general") / dispersive_envelope(params, pt, "interior")
    assert ratio == pytest.approx((1.0 + x) ** params.d, rel=1e-12)


def test_dispersive_envelope_regime_validation():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    pt = PhysicalPoint(t=1.0, r1=1.0, r2=1.0, phi=0.0)
    with pytest.raises(DomainError):
        dispersive_envelope(params, pt, "smallx")
