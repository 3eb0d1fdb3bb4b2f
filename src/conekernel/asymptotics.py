"""Large- and small-argument structure of the series.

Large x at an endpoint angle phi0 in {0, pi}: each conjugate point
mu0 in D_{rho,sigma1}(phi0) contributes one oscillatory principal term

    A(mu0) * exp(i*(s1*omega*x + L)) * x**d,
    A = rho**(2d+1) * mu0**(2d) / (d * Gamma(2d)),
    omega = sqrt(1 - mu0**2),
    L = -s1*(d/rho)*arccos(mu0) - pi*d/(2*rho),

where s1 = -sigma1 is the sign carried into the exponent.  This sign
convention is fixed by measurement: against direct evaluation of the
series at x = 500 to 2000, the opposite choice s1 = sigma1 left a
residual at least 13 times larger in every case measured (tests keep
that comparison).  The sum of principal terms approximates the series
value with residual O(max(x**(d - 1/2), 1)).

Small x: the modulus is governed by (1 + 1/x)**(d - nu0), which decays
like x**(nu0 - d) as x -> 0 and flattens to 1 for large x.  The general
envelope multiplies this by (1 + x)**d to admit endpoint growth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._checks import check_endpoint_angle, check_positive, is_real
from .critical_points import _RESONANCE_TOL, conjugate_frequencies, is_resonant_rho
from .errors import DomainError, UnsupportedRegimeError
from .kernel_series import PhysicalPoint, kappa
from .specfun import acos_unit, log_gamma
from .spectrum import ConeParams

__all__ = [
    "PrincipalTerm",
    "principal_terms",
    "principal_prediction",
    "envelope_interior",
    "envelope_general",
    "dispersive_envelope",
]


def _check_regime(rho: float) -> None:
    if is_resonant_rho(rho):
        k = round(1.0 / (2.0 * rho))
        raise UnsupportedRegimeError(
            f"large-x principal terms are undefined when 1/rho is an even "
            f"integer: 1/rho = {1.0 / rho} is within {_RESONANCE_TOL} of {2 * k}"
        )


@dataclass(frozen=True)
class PrincipalTerm:
    """One oscillatory contribution amplitude*exp(i*(sigma1*frequency*x
    + phase_constant))*x**d; mu0 records the source conjugate point."""

    amplitude: float
    frequency: float
    phase_constant: float
    sigma1: int
    mu0: float


def principal_terms(params: ConeParams, phi0: float) -> list[PrincipalTerm]:
    """All principal terms at endpoint angle phi0."""
    phi0 = check_endpoint_angle(phi0)
    _check_regime(params.rho)
    d = params.d
    gamma_2d = math.exp(log_gamma(2.0 * d))
    out: list[PrincipalTerm] = []
    for label_sign in (1, -1):
        for datum in conjugate_frequencies(params.rho, label_sign, phi0):
            s1 = -label_sign
            amplitude = (
                params.rho ** (2.0 * d + 1.0) * datum.mu0 ** (2.0 * d) / (d * gamma_2d)
            )
            phase_constant = (
                -s1 * (d / params.rho) * acos_unit(datum.mu0)
                - math.pi * d / (2.0 * params.rho)
            )
            out.append(
                PrincipalTerm(
                    amplitude=amplitude,
                    frequency=datum.frequency,
                    phase_constant=phase_constant,
                    sigma1=s1,
                    mu0=datum.mu0,
                )
            )
    out.sort(key=lambda term: (term.mu0, term.sigma1))
    return out


def principal_prediction(params: ConeParams, phi0: float, x: float) -> complex:
    """Sum of principal terms at argument x >= 1."""
    if not (is_real(x) and math.isfinite(x) and x >= 1.0):
        raise DomainError(f"prediction requires x >= 1, got {x!r}")
    return _principal_sum(principal_terms(params, phi0), params.d, float(x))


def _principal_sum(terms: list[PrincipalTerm], d: float, x: float) -> complex:
    """The sum of `terms` at x, in their order: principal_prediction's
    arithmetic, for a caller that builds the terms once for many x."""
    total = 0j
    for term in terms:
        total += term.amplitude * cmath.exp(
            1j * (term.sigma1 * term.frequency * x + term.phase_constant)
        )
    return total * x**d


def envelope_interior(params: ConeParams, x: float) -> float:
    """(1 + 1/x)**(d - nu0): the interior-angle modulus envelope, exact
    order x**(nu0 - d) as x -> 0 and bounded by 1 as x -> infinity when
    the coupling is repulsive (nu0 >= d)."""
    x = check_positive("x", x)
    return (1.0 + 1.0 / x) ** (params.d - params.nu0)


def envelope_general(params: ConeParams, x: float) -> float:
    """(1 + x)**d * envelope_interior: admits the x**d endpoint growth."""
    x = check_positive("x", x)
    return (1.0 + x) ** params.d * envelope_interior(params, x)


def dispersive_envelope(params: ConeParams, point: PhysicalPoint, regime: str) -> float:
    """Physical-space bound for the propagator kernel modulus:
    kappa(n)/rho**(n-1) * (2t)**(-n/2) times the chosen series envelope
    at x = r1*r2/(2t).  regime is "interior" or "general"."""
    if regime == "interior":
        env = envelope_interior
    elif regime == "general":
        env = envelope_general
    else:
        raise DomainError(f'regime must be "interior" or "general", got {regime!r}')
    x = point.to_kernel_point().x
    prefactor = (
        kappa(params.n)
        / params.rho ** (params.n - 1)
        * (2.0 * point.t) ** (-params.n / 2.0)
    )
    return prefactor * env(params, x)
