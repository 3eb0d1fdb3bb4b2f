"""Quantitative checks: grid scans of the series, log-log decay fits,
dominant-frequency extraction, and envelope-bound verification.

Conventions:
  * fits run on half-octave maxima of |value| so that oscillation zeros
    do not drag the envelope slope;
  * frequency detection uses a Hann-windowed FFT of the growth-detrended
    complex values on a uniform grid, with parabolic peak interpolation;
  * bound checks report the sup (and inf) of |value| / envelope over a
    scan table and compare against a threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._checks import check_positive, is_real
from .asymptotics import envelope_general, envelope_interior, _principal_sum, principal_terms
from .critical_points import is_resonant_rho
from .errors import DomainError, InputError
from .kernel_series import _eval_grid
from .spectrum import ConeParams

__all__ = [
    "ScanRow",
    "ScanTable",
    "FitResult",
    "BoundReport",
    "make_grid",
    "scan",
    "csv_lines",
    "write_csv",
    "octave_maxima",
    "fit_decay_exponent",
    "dominant_frequency",
    "verify_bound",
]

CSV_HEADER = "x,phi,re,im,modulus,env_interior,env_general,pred_re,pred_im"

_ENDPOINT_TOL = 1e-12
_MIN_FIT_SAMPLES = 8
_MIN_FFT_SAMPLES = 256


@dataclass(frozen=True)
class ScanRow:
    x: float
    phi: float
    value: complex
    env_interior: float
    env_general: float
    prediction: complex | None = None

    @property
    def modulus(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class ScanTable:
    """Scan results sorted by (phi, x); rows carry predictions when the
    scan was asked for them."""

    params: ConeParams
    rows: tuple

    def angles(self) -> list[float]:
        seen: list[float] = []
        for row in self.rows:
            if not seen or seen[-1] != row.phi:
                seen.append(row.phi)
        return seen

    def rows_for_phi(self, phi: float) -> list[ScanRow]:
        return [row for row in self.rows if row.phi == phi]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class BoundReport:
    which: str
    threshold: float
    sup_ratio: float
    inf_ratio: float
    sup_x: float
    sup_phi: float
    n_rows: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "threshold": self.threshold,
            "sup_ratio": self.sup_ratio,
            "inf_ratio": self.inf_ratio,
            "sup_x": self.sup_x,
            "sup_phi": self.sup_phi,
            "n_rows": self.n_rows,
            "passed": self.passed,
        }


def make_grid(lo: float, hi: float, count: int, spacing: str = "log") -> np.ndarray:
    """Monotone evaluation grid: "log" (geometric) or "linear"."""
    if not (is_real(lo) and is_real(hi) and math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise InputError(f"grid needs finite 0 < lo < hi, got lo={lo}, hi={hi}")
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 2:
        raise InputError(f"grid count must be an integer >= 2, got {count!r}")
    if spacing == "log":
        return np.geomspace(float(lo), float(hi), int(count))
    if spacing == "linear":
        return np.linspace(float(lo), float(hi), int(count))
    raise InputError(f'spacing must be "log" or "linear", got {spacing!r}')


def _endpoint_angle(phi: float) -> float | None:
    if abs(phi) <= _ENDPOINT_TOL:
        return 0.0
    if abs(phi - math.pi) <= _ENDPOINT_TOL:
        return math.pi
    return None


def scan(
    params: ConeParams,
    x_grid,
    phi_grid,
    tol: float = 1e-10,
    with_prediction: bool = False,
) -> ScanTable:
    """Evaluate the series on the product grid.  The x values go through
    one grid evaluation, kernel_series._eval_grid: what does not depend on
    x (the truncation search's terms, the nu ladder, one Gegenbauer row per
    angle, the Bessel sinc window) is formed once per cone and reused by
    later calls on the same cone, and each x's Bessel work is shared by all
    angles.
    Dense runs of x that need only quadrature orders are banded: the
    Bessel sinc series is summed coefficient-first once for the whole run,
    so each x costs its Bessel samples and one product.  A value outside
    a band is bitwise the one eval_I_multi gives at that x; a value inside
    one differs from it by at most a few eps * sum_{m < N_b} |a_m| * x^{-d}
    (a_m = ((m+d)/d) max_phi |C_m^d(cos phi)|, N_b the band's order count).
    Values are identical for any order of the x grid, because bands are
    formed on the sorted grid.  When several x fail, the error raised may
    name another x than a per-x loop would: every truncation runs before
    any Bessel work, so a CapacityError comes first, and Bessel work runs
    in ascending x.  Envelopes are computed once per x.  With
    `with_prediction`, rows at endpoint angles (within 1e-12 of 0 or pi)
    with x >= 1 carry the sum of principal terms that principal_prediction
    gives, with the terms built once per angle, unless 1/rho is an even
    integer."""
    xs = [float(x) for x in x_grid]
    phis = [float(p) for p in phi_grid]
    if not xs or not phis:
        raise InputError("scan needs nonempty x and phi grids")
    for x in xs:
        if not (math.isfinite(x) and x > 0):
            raise InputError(f"scan x values must be positive and finite, got {x}")
    for phi in phis:
        if not (math.isfinite(phi) and 0.0 <= phi <= math.pi):
            raise InputError(f"scan angles must lie in [0, pi], got {phi}")
    if len(set(xs)) != len(xs) or len(set(phis)) != len(phis):
        raise InputError("scan grids must not contain duplicates")
    tol = check_positive("tol", tol)
    predict = with_prediction and not is_resonant_rho(params.rho)
    per_x = [[res.value for res in per_phi] for per_phi in _eval_grid(params, xs, phis, tol)]

    envelopes = [(envelope_interior(params, x), envelope_general(params, x)) for x in xs]
    rows: list[ScanRow] = []
    for j, phi in enumerate(phis):
        endpoint = _endpoint_angle(phi)
        terms = None
        if predict and endpoint is not None and max(xs) >= 1.0:
            terms = principal_terms(params, endpoint)
        for i, x in enumerate(xs):
            prediction = None
            if terms is not None and x >= 1.0:
                prediction = _principal_sum(terms, params.d, x)
            rows.append(
                ScanRow(
                    x=x,
                    phi=phi,
                    value=per_x[i][j],
                    env_interior=envelopes[i][0],
                    env_general=envelopes[i][1],
                    prediction=prediction,
                )
            )
    rows.sort(key=lambda row: (row.phi, row.x))
    return ScanTable(params=params, rows=tuple(rows))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def csv_lines(table: ScanTable) -> list[str]:
    """Header plus one line per scan point, full double precision; the
    pred columns are empty when no prediction is attached."""
    lines = [CSV_HEADER]
    for row in table.rows:
        pred_re = _fmt(row.prediction.real) if row.prediction is not None else ""
        pred_im = _fmt(row.prediction.imag) if row.prediction is not None else ""
        lines.append(
            ",".join(
                (
                    _fmt(row.x),
                    _fmt(row.phi),
                    _fmt(row.value.real),
                    _fmt(row.value.imag),
                    _fmt(row.modulus),
                    _fmt(row.env_interior),
                    _fmt(row.env_general),
                    pred_re,
                    pred_im,
                )
            )
        )
    return lines


def write_csv(table: ScanTable, path: str) -> None:
    """One row per scan point; pred columns are empty when absent."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(csv_lines(table)) + "\n")


def octave_maxima(xs, ys, bins_per_octave: int = 2):
    """Per-bin maxima of ys on a logarithmic binning of xs; returns
    (bin_xs, bin_ys) at the location of each bin's maximum.  Used to
    sample the upper envelope of an oscillation before fitting."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise InputError("octave_maxima needs matching nonempty 1-d arrays")
    if not (np.all(np.isfinite(xs)) and np.all(xs > 0) and np.all(np.isfinite(ys))):
        raise InputError("octave_maxima needs finite data with positive xs")
    if not isinstance(bins_per_octave, numbers.Integral) or isinstance(bins_per_octave, bool) or bins_per_octave < 1:
        raise InputError(f"bins_per_octave must be a positive integer, got {bins_per_octave!r}")
    idx = np.floor(np.log2(xs / xs.min()) * bins_per_octave).astype(int)
    out_x, out_y = [], []
    # sorted(set(...)), not np.unique: np.unique imports numpy.ma on first use,
    # about 25 ms and 1 MB
    for b in sorted(set(idx.tolist())):
        sel = np.nonzero(idx == b)[0]
        best = sel[np.argmax(ys[sel])]
        out_x.append(xs[best])
        out_y.append(ys[best])
    return np.asarray(out_x), np.asarray(out_y)


def fit_decay_exponent(xs, ys) -> FitResult:
    """Least-squares fit log y = slope*log x + intercept.  Requires at
    least _MIN_FIT_SAMPLES (8) strictly positive samples at distinct xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InputError("fit needs matching 1-d arrays")
    if xs.size < _MIN_FIT_SAMPLES:
        raise InputError(f"fit needs at least {_MIN_FIT_SAMPLES} samples, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(xs > 0)):
        raise InputError("fit xs must be positive and finite")
    if not (np.all(np.isfinite(ys)) and np.all(ys > 0)):
        raise InputError("fit ys must be positive and finite")
    if len(set(xs.tolist())) != xs.size:
        raise InputError("fit xs must be distinct")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = ly - ly.mean()
    ss_tot = float(np.dot(centered, centered))
    # ss_tot at rounding level means the data are constant: a perfect fit.
    negligible = xs.size * (1e-14 * (1.0 + float(np.max(np.abs(ly))))) ** 2
    if ss_tot <= negligible:
        r_squared = 1.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_samples=int(xs.size),
    )


def dominant_frequency(xs, values, growth_exponent: float = 0.0) -> float | None:
    """|omega| of the strongest oscillation e^{i omega x} in values /
    x**growth_exponent, from a Hann-windowed FFT with parabolic peak
    interpolation.  Needs >= 256 samples on a uniform grid (relative
    spacing jitter <= 1e-8).  Returns None when no spectral line stands
    clearly above the background (at least 3x the median magnitude and
    holding at least 5% of the total spectral energy)."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if xs.shape != values.shape or xs.ndim != 1:
        raise InputError("dominant_frequency needs matching 1-d arrays")
    n = xs.size
    if n < _MIN_FFT_SAMPLES:
        raise InputError(f"dominant_frequency needs at least {_MIN_FFT_SAMPLES} samples, got {n}")
    if not np.all(np.isfinite(xs)):
        raise InputError("dominant_frequency xs must be finite")
    steps = np.diff(xs)
    dx = float(np.mean(steps))
    if dx <= 0 or np.max(np.abs(steps - dx)) > 1e-8 * abs(dx):
        raise InputError("dominant_frequency needs a uniformly spaced, increasing grid")
    if not np.all(np.isfinite(values)):
        raise InputError("dominant_frequency values must be finite")

    detrended = values / xs**growth_exponent
    detrended = detrended - detrended.mean()
    spectrum = np.fft.fft(detrended * np.hanning(n))
    magnitude = np.abs(spectrum)
    magnitude[0] = 0.0
    k = int(np.argmax(magnitude))
    if k == 0:
        return None
    # the median by sort: np.median imports numpy.ma on first use
    ordered = np.sort(magnitude[1:])
    half = ordered.size // 2
    median = float(ordered[half] if ordered.size % 2 else (ordered[half - 1] + ordered[half]) / 2.0)
    energy = float(np.dot(magnitude, magnitude))
    if magnitude[k] == 0.0 or energy == 0.0:
        return None
    if magnitude[k] < 3.0 * median or magnitude[k] ** 2 < 0.05 * energy:
        return None

    delta = 0.0
    if 2 <= k <= n - 2:
        m_minus, m_zero, m_plus = magnitude[k - 1], magnitude[k], magnitude[k + 1]
        if m_minus > 0.0 and m_plus > 0.0:
            la, lb, lc = math.log(m_minus), math.log(m_zero), math.log(m_plus)
            denom = la - 2.0 * lb + lc
            if denom != 0.0:
                delta = max(-0.5, min(0.5, 0.5 * (la - lc) / denom))
    k_signed = k - n if k > n // 2 else k
    omega = 2.0 * math.pi * (k_signed + delta) / (n * dx)
    return abs(omega)


def verify_bound(table: ScanTable, which: str, threshold: float = 10.0) -> BoundReport:
    """Compare |value| against an envelope over the whole table.
    which="interior" or "general": pass iff sup ratio <= threshold.
    which="smallx": two-sided order check against the interior envelope,
    pass iff sup <= threshold and inf >= 1/threshold."""
    if which not in ("interior", "general", "smallx"):
        raise DomainError(f'which must be "interior", "general" or "smallx", got {which!r}')
    if not (is_real(threshold) and math.isfinite(threshold) and threshold > 1.0):
        raise DomainError(f"threshold must be a finite number > 1, got {threshold!r}")
    threshold = float(threshold)
    if not table.rows:
        raise InputError("verify_bound needs a nonempty table")
    sup_ratio = -math.inf
    inf_ratio = math.inf
    sup_x = sup_phi = math.nan
    for row in table.rows:
        env = row.env_general if which == "general" else row.env_interior
        ratio = row.modulus / env
        if ratio > sup_ratio:
            sup_ratio, sup_x, sup_phi = ratio, row.x, row.phi
        inf_ratio = min(inf_ratio, ratio)
    passed = sup_ratio <= threshold
    if which == "smallx":
        passed = passed and inf_ratio >= 1.0 / threshold
    return BoundReport(
        which=which,
        threshold=threshold,
        sup_ratio=sup_ratio,
        inf_ratio=inf_ratio,
        sup_x=sup_x,
        sup_phi=sup_phi,
        n_rows=len(table.rows),
        passed=passed,
    )
