"""Acceptance gate: nine quantitative criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion states its numeric tolerance and wall-clock cap inline; a
criterion fails if any sub-check fails or if it exceeds its cap.
"""

import math
import time

import numpy as np
import pytest

from conekernel import (
    ConeParams,
    KernelPoint,
    bessel_j,
    classify,
    dominant_frequency,
    eval_I,
    eval_I_multi,
    fit_decay_exponent,
    gegenbauer_all,
    log_gamma,
    make_grid,
    octave_maxima,
    principal_prediction,
    scan,
)

THIRD = ConeParams(rho=1.0 / 3.0, n=3, c=0.0)
TWO_THIRDS = ConeParams(rho=2.0 / 3.0, n=3, c=0.0)

SQRT3_OVER_2 = 0.86602540378443864676

# 1/(d 2^d Gamma(d)) for n = 3, 4, 5: the flat-space modulus of the series.
FLAT_MODULUS = {
    3: 0.79788456080286535588,
    4: 0.5,
    5: 0.26596152026762178529,
}

_SCAN_CACHE = {}


def _cached_scan(key, params, xs, phis):
    if key not in _SCAN_CACHE:
        _SCAN_CACHE[key] = scan(params, xs, list(phis), tol=1e-10)
    return _SCAN_CACHE[key]


def _report(index, label, cap_seconds, elapsed, checks):
    """Print the single verdict line for one criterion, then assert."""
    failures = [name for name, ok in checks if not ok]
    timed_out = elapsed > cap_seconds
    passed = not failures and not timed_out
    status = "PASS" if passed else "FAIL"
    parts = [f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks]
    if timed_out:
        parts.append(f"cap-exceeded({elapsed:.1f}s>{cap_seconds}s)")
    line = (
        f"[criterion {index}] {status} {label}: "
        + ", ".join(parts)
        + f" ({elapsed:.1f}s / cap {cap_seconds}s)"
    )
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. Flat-space modulus identity across dimensions.
# ---------------------------------------------------------------------------
def test_criterion_1_flat_space_modulus():
    start = time.monotonic()
    angles = (0.0, 0.3, math.pi / 2.0, 2.8, math.pi)
    # 24 logarithmic points per decade across [0.1, 200].
    count = int(round(24 * math.log10(200.0 / 0.1))) + 1
    xs = make_grid(0.1, 200.0, count, "log")

    worst = 0.0
    for n in (3, 4, 5):
        params = ConeParams(rho=1.0, n=n, c=0.0)
        target = FLAT_MODULUS[n]
        for x in xs:
            for res in eval_I_multi(params, float(x), angles):
                worst = max(worst, abs(abs(res.value) - target))

    # Independent cross-check: doubling the truncation must not move the value.
    cross_worst = 0.0
    spots = [
        (3, 0.1, 0.0),
        (3, 200.0, 2.8),
        (4, 0.5, 0.3),
        (4, 17.3, math.pi / 2.0),
        (5, 3.7, 0.0),
        (5, 200.0, math.pi),
    ]
    for n, x, phi in spots:
        params = ConeParams(rho=1.0, n=n, c=0.0)
        pt = KernelPoint(x=x, phi=phi)
        base = eval_I(params, pt)
        double = eval_I(params, pt, terms=2 * base.terms_used)
        cross_worst = max(cross_worst, abs(base.value - double.value))

    elapsed = time.monotonic() - start
    _report(
        1,
        f"flat modulus constant (worst dev {worst:.2e}, 2x-truncation dev {cross_worst:.2e})",
        120.0,
        elapsed,
        [("modulus-within-1e-8", worst <= 1e-8), ("truncation-stable-1e-9", cross_worst <= 1e-9)],
    )


# ---------------------------------------------------------------------------
# 2. Small-argument scaling with a repulsive coupling.
# ---------------------------------------------------------------------------
def test_criterion_2_small_x_scaling():
    start = time.monotonic()
    params = ConeParams(rho=1.0, n=3, c=2.0)
    angles = (0.0, math.pi / 2.0, math.pi)
    xs = make_grid(1e-4, 1e-2, 49, "log")

    moduli = {phi: [] for phi in angles}
    for x in xs:
        for phi, res in zip(angles, eval_I_multi(params, float(x), angles)):
            moduli[phi].append(abs(res.value))

    fit = fit_decay_exponent(xs, np.array(moduli[math.pi / 2.0]))
    ratios = np.array([m / x for phi in angles for x, m in zip(xs, moduli[phi])])
    median = float(np.median(ratios))
    bracket_ok = bool(np.all(ratios >= 0.2 * median) and np.all(ratios <= 5.0 * median))

    elapsed = time.monotonic() - start
    _report(
        2,
        f"small-x exponent (slope {fit.slope:.4f}, ratio spread "
        f"[{ratios.min() / median:.2f}, {ratios.max() / median:.2f}]x median)",
        30.0,
        elapsed,
        [("slope-1.0+-0.05", abs(fit.slope - 1.0) <= 0.05), ("ratio-bracket", bracket_ok)],
    )


# ---------------------------------------------------------------------------
# 3. Diagonal growth at rho = 1/3: sqrt(x) envelope and frequency 1/2.
# ---------------------------------------------------------------------------
def test_criterion_3_diagonal_growth():
    start = time.monotonic()
    table = _cached_scan("third-diag", THIRD, make_grid(100.0, 2000.0, 600, "log"), (0.0,))
    rows = table.rows_for_phi(0.0)
    xs = np.array([r.x for r in rows])
    mods = np.array([r.modulus for r in rows])
    mx, my = octave_maxima(xs, mods, bins_per_octave=2)
    fit = fit_decay_exponent(mx, my)

    win = np.linspace(200.0, 200.0 + 511 * 0.2, 512)
    wrows = scan(THIRD, win, [0.0], tol=1e-10).rows_for_phi(0.0)
    freq = dominant_frequency(
        np.array([r.x for r in wrows]),
        np.array([r.value for r in wrows]),
        growth_exponent=0.5,
    )

    elapsed = time.monotonic() - start
    _report(
        3,
        f"diagonal growth (slope {fit.slope:.4f}, frequency {freq})",
        600.0,
        elapsed,
        [
            ("slope-0.5+-0.1", abs(fit.slope - 0.5) <= 0.1),
            ("frequency-0.5+-2%", freq is not None and abs(freq - 0.5) <= 0.01),
        ],
    )


# ---------------------------------------------------------------------------
# 4. Antipodal growth at rho = 2/3, with a quiet diagonal.
# ---------------------------------------------------------------------------
def test_criterion_4_antipodal_growth():
    start = time.monotonic()
    xs_grid = make_grid(100.0, 2000.0, 600, "log")
    table = scan(TWO_THIRDS, xs_grid, [0.0, math.pi], tol=1e-10)

    fits = {}
    for phi in (0.0, math.pi):
        rows = table.rows_for_phi(phi)
        xs = np.array([r.x for r in rows])
        mods = np.array([r.modulus for r in rows])
        mx, my = octave_maxima(xs, mods, bins_per_octave=2)
        fits[phi] = fit_decay_exponent(mx, my)

    win = np.linspace(200.0, 200.0 + 511 * 0.2, 512)
    wrows = scan(TWO_THIRDS, win, [math.pi], tol=1e-10).rows_for_phi(math.pi)
    freq = dominant_frequency(
        np.array([r.x for r in wrows]),
        np.array([r.value for r in wrows]),
        growth_exponent=0.5,
    )

    elapsed = time.monotonic() - start
    _report(
        4,
        f"antipodal growth (pi-slope {fits[math.pi].slope:.4f}, frequency {freq}, "
        f"diagonal slope {fits[0.0].slope:.4f})",
        600.0,
        elapsed,
        [
            ("pi-slope-0.5+-0.1", abs(fits[math.pi].slope - 0.5) <= 0.1),
            ("pi-frequency-0.5+-2%", freq is not None and abs(freq - 0.5) <= 0.01),
            ("diagonal-slope<=0.05", fits[0.0].slope <= 0.05),
        ],
    )


# ---------------------------------------------------------------------------
# 5. Uniform bound for rho >= 1: no growth anywhere on the cone.
# ---------------------------------------------------------------------------
def test_criterion_5_large_rho_bounded():
    start = time.monotonic()
    angles = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
    checks = []
    details = []
    for rho in (1.0, 1.5):
        params = ConeParams(rho=rho, n=3, c=0.0)
        xs_grid = make_grid(1.0, 2000.0, 180, "log")
        table = scan(params, xs_grid, list(angles), tol=1e-10)
        per_phi = {phi: table.rows_for_phi(phi) for phi in angles}
        max_per_x = np.array(
            [max(per_phi[phi][i].modulus for phi in angles) for i in range(len(xs_grid))]
        )
        ref = float(max_per_x[0])  # largest modulus over the angles at x = 1
        sup = float(max_per_x.max())
        mx, my = octave_maxima(xs_grid, max_per_x, bins_per_octave=2)
        fit = fit_decay_exponent(mx, my)
        checks.append((f"rho={rho}-sup<=10x-ref", sup <= 10.0 * ref))
        checks.append((f"rho={rho}-slope<=0.05", fit.slope <= 0.05))
        details.append(f"rho={rho}: sup/ref {sup / ref:.3f}, slope {fit.slope:+.4f}")

    elapsed = time.monotonic() - start
    _report(5, "uniform bound (" + "; ".join(details) + ")", 600.0, elapsed, checks)


# ---------------------------------------------------------------------------
# 6. Interior angles stay bounded even when endpoints grow.
# ---------------------------------------------------------------------------
def test_criterion_6_interior_angles_bounded():
    start = time.monotonic()
    angles = (0.4, math.pi / 2.0, math.pi - 0.4)
    xs_grid = make_grid(50.0, 2000.0, 480, "log")
    table = scan(THIRD, xs_grid, list(angles), tol=1e-10)

    checks = []
    details = []
    for phi in angles:
        rows = table.rows_for_phi(phi)
        xs = np.array([r.x for r in rows])
        mods = np.array([r.modulus for r in rows])
        mx, my = octave_maxima(xs, mods, bins_per_octave=2)
        fit = fit_decay_exponent(mx, my)
        checks.append((f"phi={phi:.3f}-slope<=0.05", fit.slope <= 0.05))
        details.append(f"{phi:.3f}:{fit.slope:+.4f}")

    elapsed = time.monotonic() - start
    _report(6, f"interior slopes ({', '.join(details)})", 600.0, elapsed, checks)


# ---------------------------------------------------------------------------
# 7. The stationary-phase principal term captures the diagonal growth.
# ---------------------------------------------------------------------------
def test_criterion_7_principal_term_residual():
    start = time.monotonic()
    table = _cached_scan("third-diag", THIRD, make_grid(100.0, 2000.0, 600, "log"), (0.0,))
    rows = [r for r in table.rows_for_phi(0.0) if r.x >= 200.0]
    xs = np.array([r.x for r in rows])
    residuals = np.array([abs(r.value - principal_prediction(THIRD, 0.0, r.x)) for r in rows])
    mx, my = octave_maxima(xs, residuals, bins_per_octave=3)
    fit = fit_decay_exponent(mx, my)

    # d = 1/2 here: the residual must grow strictly slower than x^(d - 0.2).
    elapsed = time.monotonic() - start
    _report(
        7,
        f"principal-term residual (residual slope {fit.slope:+.4f})",
        600.0,
        elapsed,
        [("residual-slope<=0.3", fit.slope <= 0.3)],
    )


# ---------------------------------------------------------------------------
# 8. Critical-set classification tables.
# ---------------------------------------------------------------------------
COS_02PI = math.cos(0.2 * math.pi)
COS_01PI = math.cos(0.1 * math.pi)

EXPECTED_ENDPOINT_TABLES = {
    2.0: {
        "0": {(-1, 1, 0): [0.0], (-1, -1, 0): [0.0]},
        "pi": {},
    },
    1.0: {
        "0": {(-1, 1, 0): [0.0], (-1, -1, 0): [0.0]},
        "pi": {(1, 1, 0): [0.0], (1, -1, 1): [0.0]},
    },
    0.7: {
        "0": {(-1, 1, 0): [0.0], (-1, -1, 0): [0.0]},
        "pi": {(1, 1, 0): [COS_02PI], (1, -1, 1): [COS_02PI]},
    },
    0.6: {
        "0": {(-1, 1, 0): [0.0], (-1, -1, 0): [0.0]},
        "pi": {(1, 1, 0): [COS_01PI], (1, -1, 1): [COS_01PI]},
    },
    1.0 / 3.0: {
        "0": {
            (1, 1, 1): [SQRT3_OVER_2],
            (1, -1, 1): [SQRT3_OVER_2],
            (-1, 1, 0): [0.0],
            (-1, -1, 0): [0.0],
        },
        "pi": {
            (1, 1, 1): [0.0],
            (1, -1, 2): [0.0],
            (-1, 1, 0): [SQRT3_OVER_2],
            (-1, -1, 1): [SQRT3_OVER_2],
        },
    },
    2.0 / 3.0: {
        "0": {(-1, 1, 0): [0.0], (-1, -1, 0): [0.0]},
        "pi": {(1, 1, 0): [SQRT3_OVER_2], (1, -1, 1): [SQRT3_OVER_2]},
    },
}

INTERIOR_LABELS = ("pi/4", "pi/2", "3pi/4")


def test_criterion_8_classification_tables():
    start = time.monotonic()
    checks = []
    for rho, expected in EXPECTED_ENDPOINT_TABLES.items():
        rec = classify(rho)

        # Endpoint tables match exactly, cell by cell.
        got = {"0": {}, "pi": {}}
        for (s1, s2, q, label), data in rec.cells.items():
            if label in ("0", "pi") and data:
                got[label][(s1, s2, q)] = [d.mu0 for d in data]
        table_ok = set(got["0"]) == set(expected["0"]) and set(got["pi"]) == set(
            expected["pi"]
        )
        if table_ok:
            for label in ("0", "pi"):
                for key, mu0s in expected[label].items():
                    if len(got[label][key]) != len(mu0s) or any(
                        abs(a - b) > 1e-12 for a, b in zip(got[label][key], mu0s)
                    ):
                        table_ok = False
        checks.append((f"rho={rho:.4g}-endpoint-table", table_ok))

        # No nonzero winding contributes at interior angles (scope: the
        # pi/4 column for rho > 1/2, all interior columns for rho >= 1).
        interior_labels = INTERIOR_LABELS if rho >= 1.0 else ("pi/4",) if rho > 0.5 else ()
        interior_ok = all(
            data == []
            for (s1, s2, q, label), data in rec.cells.items()
            if label in interior_labels and q != 0
        )
        checks.append((f"rho={rho:.4g}-interior-empty", interior_ok))

        # The reflection sigma2 -> -sigma2 is a relabeling at the endpoint
        # angles: identical mu0 lists at q (phi = 0) resp. q + 1 (phi = pi).
        sym_ok = True
        for (s1, s2, q, label), data in rec.cells.items():
            if label == "0":
                partner = rec.cells.get((s1, -s2, q, "0"), [])
            elif label == "pi" and s2 == 1:
                partner = rec.cells.get((s1, -1, q + 1, "pi"), [])
            else:
                continue
            mine = [d.mu0 for d in data]
            theirs = [d.mu0 for d in partner]
            if len(mine) != len(theirs) or any(
                abs(a - b) > 1e-12 for a, b in zip(mine, theirs)
            ):
                sym_ok = False
        checks.append((f"rho={rho:.4g}-sigma2-redundant", sym_ok))

        # mu = 1 never appears at the endpoint angles for these radii (1/rho
        # is not an even integer; at interior angles mu = 1 can occur as a
        # boundary solution), and every enumerated point satisfies its
        # defining equation tightly.
        mu_ok = True
        res_ok = True
        for (s1, s2, q, label), data in rec.cells.items():
            for datum in data:
                if label in ("0", "pi") and datum.mu0 > 1.0 - 1e-9:
                    mu_ok = False
                if datum.residual > 1e-12:
                    res_ok = False
        checks.append((f"rho={rho:.4g}-mu1-excluded", mu_ok))
        checks.append((f"rho={rho:.4g}-residuals<=1e-12", res_ok))

    elapsed = time.monotonic() - start
    _report(8, "classification tables (6 radii)", 1.0, elapsed, checks)


# ---------------------------------------------------------------------------
# 9. Special-function backbone: recurrence, closed forms, endpoint values.
# ---------------------------------------------------------------------------
def test_criterion_9_special_function_suite():
    start = time.monotonic()

    rec_worst = 0.0
    for nu in (1.0, 1.5, 2.7, 10.0, 25.5, 100.0, 350.5):
        for x in (0.5, 1.0, 8.0, 40.0, 170.0, 500.0):
            jm, j0, jp = bessel_j(nu - 1.0, x), bessel_j(nu, x), bessel_j(nu + 1.0, x)
            resid = abs(jm + jp - (2.0 * nu / x) * j0)
            rec_worst = max(rec_worst, resid / (1.0 + abs(j0)))

    half_worst = 0.0
    for x in np.geomspace(0.1, 200.0, 37):
        amp = math.sqrt(2.0 / (math.pi * x))
        half_worst = max(half_worst, abs(bessel_j(0.5, x) - amp * math.sin(x)))
        closed_3half = amp * (math.sin(x) / x - math.cos(x))
        half_worst = max(half_worst, abs(bessel_j(1.5, x) - closed_3half))

    geg_worst = 0.0
    degrees = list(range(51)) + [100, 500, 1000, 2000]
    for d in (0.5, 1.0, 1.5):
        for m in degrees:
            expected = math.exp(log_gamma(m + 2.0 * d) - log_gamma(m + 1.0) - log_gamma(2.0 * d))
            geg_worst = max(geg_worst, abs(gegenbauer_all(m, d, 1.0)[m] - expected) / expected)

    elapsed = time.monotonic() - start
    _report(
        9,
        f"special functions (recurrence {rec_worst:.2e}, half-integer {half_worst:.2e}, "
        f"endpoint {geg_worst:.2e})",
        60.0,
        elapsed,
        [
            ("recurrence<=1e-9", rec_worst <= 1e-9),
            ("half-integer<=1e-10", half_worst <= 1e-10),
            ("gegenbauer-endpoint<=1e-10", geg_worst <= 1e-10),
        ],
    )
