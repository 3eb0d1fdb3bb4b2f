"""Stationary-phase critical sets of the kernel series.

For branch signs sigma = (sigma1, sigma2) and winding q, the stationary
points of the phase sigma1*h1(mu) + (sigma2*phi - pi/(2 rho) + 2 pi q)*mu,
with h1(mu) = sqrt(1 - mu^2) - mu*arccos(mu) and so h1'(mu) = -arccos(mu),
over mu in [0, 1] solve

    arccos(mu) = theta_q := sigma1*(sigma2*rho*phi - pi/2 + 2*pi*rho*q),

so the cell is nonempty iff theta_q lies in [0, pi/2], with mu0 = cos(theta_q).
The conjugate-point family relevant at phi0 in {0, pi} is

    D_{rho,sigma1}(phi0) = { mu in (0,1) :
        arccos(mu) = sigma1*(pi/2 + rho*phi0 + 2*pi*rho*q), some integer q }.

All windings with solutions satisfy |q| <= Q(rho) = floor(1/(2 rho) + 1/2) + 1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from ._checks import check_angle, check_endpoint_angle, check_positive, check_sign
from .errors import DomainError
from .specfun import acos_unit

__all__ = [
    "BranchLabel",
    "CriticalDatum",
    "ClassificationRecord",
    "q_bound",
    "critical_set",
    "critical_set_union",
    "conjugate_frequencies",
    "classify",
    "is_resonant_rho",
    "critical_data_to_json",
]

# Absolute slack for floating-point membership of theta_q in [0, pi/2];
# hits within slack of an endpoint are snapped there and flagged.
BOUNDARY_SLACK = 1e-13

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class BranchLabel:
    """Branch signs and winding: sigma1, sigma2 in {+1, -1}, integer q."""

    sigma1: int
    sigma2: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma1", check_sign("sigma1", self.sigma1))
        object.__setattr__(self, "sigma2", check_sign("sigma2", self.sigma2))
        if not isinstance(self.q, numbers.Integral) or isinstance(self.q, bool):
            raise DomainError(f"q must be an integer, got {self.q!r}")
        object.__setattr__(self, "q", int(self.q))


@dataclass(frozen=True)
class CriticalDatum:
    """One stationary point: location mu0 in [0, 1], its branch, the
    oscillation frequency sqrt(1 - mu0^2), and a boundary flag set when
    theta_q landed within slack of an endpoint of [0, pi/2]."""

    mu0: float
    branch: BranchLabel
    frequency: float
    boundary: bool = False
    residual: float = 0.0


def q_bound(rho: float) -> int:
    """Q(rho): enumerate |q| <= Q to exhaust all solvable windings."""
    rho = check_positive("rho", rho)
    return int(math.floor(1.0 / (2.0 * rho) + 0.5)) + 1


def _cell_residual(rho: float, branch: BranchLabel, phi: float, mu0: float) -> float:
    return abs(
        -(branch.sigma1 / rho) * acos_unit(mu0)
        + (branch.sigma2 * phi - math.pi / (2.0 * rho))
        + 2.0 * math.pi * branch.q
    )


def critical_set(rho: float, branch: BranchLabel, phi: float) -> list[CriticalDatum]:
    """Solutions mu0 in [0, 1] for one (branch, q) cell: zero or one point."""
    rho = check_positive("rho", rho)
    phi = check_angle(phi)
    theta = branch.sigma1 * (branch.sigma2 * rho * phi - _HALF_PI + 2.0 * math.pi * rho * branch.q)
    if theta < -BOUNDARY_SLACK or theta > _HALF_PI + BOUNDARY_SLACK:
        return []
    if abs(theta) <= BOUNDARY_SLACK:
        mu0, freq, boundary = 1.0, 0.0, True
    elif abs(theta - _HALF_PI) <= BOUNDARY_SLACK:
        mu0, freq, boundary = 0.0, 1.0, True
    else:
        mu0, freq, boundary = math.cos(theta), math.sin(theta), False
    datum = CriticalDatum(
        mu0=mu0,
        branch=branch,
        frequency=freq,
        boundary=boundary,
        residual=_cell_residual(rho, branch, phi, mu0),
    )
    if datum.residual > 1e-12 * max(1.0, 1.0 / rho):
        raise DomainError(
            f"critical point failed its defining equation: residual {datum.residual:.3e}"
        )
    return [datum]


def critical_set_union(rho: float, sigma1: int, sigma2: int, phi: float) -> list[CriticalDatum]:
    """Union of critical_set over all windings |q| <= Q(rho), sorted by mu0."""
    sigma1 = check_sign("sigma1", sigma1)
    sigma2 = check_sign("sigma2", sigma2)
    out: list[CriticalDatum] = []
    for q in range(-q_bound(rho), q_bound(rho) + 1):
        out.extend(critical_set(rho, BranchLabel(sigma1, sigma2, q), phi))
    out.sort(key=lambda datum: (datum.mu0, datum.branch.q))
    return out


def conjugate_frequencies(rho: float, sigma1: int, phi0: float) -> list[CriticalDatum]:
    """The conjugate-point set D_{rho,sigma1}(phi0) over mu in the OPEN
    interval (0, 1); endpoint hits within slack are excluded."""
    rho = check_positive("rho", rho)
    sigma1 = check_sign("sigma1", sigma1)
    phi0 = check_endpoint_angle(phi0)
    out: list[CriticalDatum] = []
    for q in range(-q_bound(rho), q_bound(rho) + 1):
        theta = sigma1 * (_HALF_PI + rho * phi0 + 2.0 * math.pi * rho * q)
        if not (BOUNDARY_SLACK < theta < _HALF_PI - BOUNDARY_SLACK):
            continue
        mu0 = math.cos(theta)
        residual = abs(acos_unit(mu0) - theta)
        out.append(
            CriticalDatum(
                mu0=mu0,
                branch=BranchLabel(sigma1, 1, q),
                frequency=math.sin(theta),
                boundary=False,
                residual=residual,
            )
        )
    out.sort(key=lambda datum: (datum.mu0, datum.branch.q))
    return out


# How close 1/rho must come to an even integer to count as resonant.
_RESONANCE_TOL = 1e-9


def is_resonant_rho(rho: float) -> bool:
    """True when 1/rho is within 1e-9 of an even integer (the regime the
    large-x asymptotics exclude)."""
    rho = check_positive("rho", rho)
    inv = 1.0 / rho
    k = round(inv / 2.0)
    return k >= 1 and abs(inv - 2.0 * k) <= _RESONANCE_TOL


_CLASSIFY_PHIS = (
    ("0", 0.0),
    ("pi/4", math.pi / 4.0),
    ("pi/2", math.pi / 2.0),
    ("3pi/4", 3.0 * math.pi / 4.0),
    ("pi", math.pi),
)


@dataclass(frozen=True)
class ClassificationRecord:
    """Per-rho summary: regime flags plus the emptiness table of every
    (sigma1, sigma2, q, phi) cell on a standard angle grid."""

    rho: float
    rho_ge_1: bool
    rho_gt_half: bool
    rho_inv_in_2n: bool
    q_bound: int
    cells: dict

    def to_json(self) -> str:
        cells = [
            {
                "phi": label,
                "sigma1": sigma1,
                "sigma2": sigma2,
                "q": q,
                "mu0s": [datum.mu0 for datum in data],
                "boundary": [datum.boundary for datum in data],
            }
            for (sigma1, sigma2, q, label), data in self.cells.items()
            if data
        ]
        return json.dumps(
            {
                "rho": self.rho,
                "rho_ge_1": self.rho_ge_1,
                "rho_gt_half": self.rho_gt_half,
                "rho_inv_in_2n": self.rho_inv_in_2n,
                "q_bound": self.q_bound,
                "nonempty_cells": cells,
            },
            indent=2,
        )


def classify(rho: float) -> ClassificationRecord:
    """Enumerate every critical cell on phi in {0, pi/4, pi/2, 3pi/4, pi}."""
    rho = check_positive("rho", rho)
    qb = q_bound(rho)
    cells = {}
    for label, phi in _CLASSIFY_PHIS:
        for sigma1 in (1, -1):
            for sigma2 in (1, -1):
                for q in range(-qb, qb + 1):
                    data = critical_set(rho, BranchLabel(sigma1, sigma2, q), phi)
                    cells[(sigma1, sigma2, q, label)] = data
    return ClassificationRecord(
        rho=rho,
        rho_ge_1=rho >= 1.0,
        rho_gt_half=rho > 0.5,
        rho_inv_in_2n=is_resonant_rho(rho),
        q_bound=qb,
        cells=cells,
    )


def critical_data_to_json(data: list[CriticalDatum]) -> str:
    """JSON array of {mu0, sigma1, sigma2, q, frequency}."""
    return json.dumps(
        [
            {
                "mu0": datum.mu0,
                "sigma1": datum.branch.sigma1,
                "sigma2": datum.branch.sigma2,
                "q": datum.branch.q,
                "frequency": datum.frequency,
            }
            for datum in data
        ],
        indent=2,
    )
