"""A scan is one grid evaluation.

Outside bands, every value a scan returns must be bitwise the value
eval_I_multi gives at that x alone, whatever mix of Bessel paths the grid
holds.  Inside a band (a run of quadrature-only x sharing one band
quadrature) a value may differ from it by at most
4 eps sum_{m < N_b} |a_m| x^{-d}, |a_m| = ((m+d)/d) max_phi |C_m^d(cos phi)|.
Either way the values are identical whatever order the x values come in.
The batched truncation search must return the one-x search's M and tail
bound.
"""
import math
import tracemalloc

import numpy as np
import pytest
from test_truncation_frozen import FROZEN_M, TRUNCATION_XS

import conekernel.kernel_series as ks
from conekernel import CapacityError, ConeParams, DomainError, eval_I_multi, make_grid, nu_many, scan
from conekernel.kernel_series import _eval_grid, _groups, _ladder, _quad_count, _truncations
from conekernel.specfun import gegenbauer_all

EPS = 2.0**-52


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _result_bits(res) -> tuple:
    return (*_bits(res.value), res.terms_used, res.tail_bound.hex())


def _grid_case(seed: int):
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(0.25, 2.5))
    n = int(rng.integers(3, 7))
    d = (n - 2) / 2.0
    c = float(rng.choice([0.0, rng.uniform(0.1, 2.0), -d * d * rng.uniform(0.1, 0.9)]))
    tol = float(rng.choice([1e-6, 1e-10, 1e-12]))
    x0 = float(rng.uniform(150.0, 250.0))
    window = np.linspace(x0, x0 + 6.0, 24)
    xs = np.concatenate(
        (
            rng.uniform(0.01, 12.0, 4),  # power series only
            rng.uniform(12.5, 16.0, 3),  # low orders by quadrature, high by series
            rng.uniform(40.0, 400.0, 4),  # quadrature only
            window,  # neighbouring x, banded
        )
    )
    rng.shuffle(xs)
    phis = [0.0, float(rng.uniform(0.1, 3.0)), math.pi]
    return ConeParams(rho=rho, n=n, c=c), [float(x) for x in xs], phis, tol, window


def _bessel_path(params, x, tol):
    """The kind of Bessel batch at x: whether its orders lie in the
    quadrature region x > max(12, nu/2), below it (power series), or both."""
    m_top, _ = _truncations(params, [x], tol)[0]
    nus = nu_many(params, np.arange(m_top + 1))
    quad = x > np.maximum(12.0, 0.5 * nus)
    return "quad" if quad.all() else ("series" if not quad.any() else "mixed")


def test_quad_count_matches_elementwise_count():
    # the bisection count of quadrature orders is the elementwise one, on a
    # 512-x window across x = 12, a log grid on [1, 2000], x = 12 itself and
    # x = nu_k/2 exactly, for the whole ladder and for prefixes of it
    nus, _, _, _ = _ladder(ConeParams(rho=0.35, n=3, c=0.0), 1500, [0.0])
    xs = np.concatenate(
        (np.linspace(11.0, 113.2, 512), np.geomspace(1.0, 2000.0, 400), [12.0], 0.5 * nus[nus > 24.0][:50])
    )
    for m in (0, 7, 300, 1500):
        for x in xs.tolist():
            assert _quad_count(nus[: m + 1], x) == np.count_nonzero(x > np.maximum(12.0, 0.5 * nus[: m + 1]))


def _scan_groups(params, xs, phis, truncated):
    """The runs _eval_grid cuts a grid into, given its truncations."""
    nus, _, weight, cgs = _ladder(params, max(m for m, _ in truncated), phis)
    return _groups(xs, truncated, nus, weight, cgs)


def _banded(params, xs, phis, tol):
    """Indices of the x that the grid evaluates in bands."""
    runs = _scan_groups(params, xs, phis, _truncations(params, xs, tol))
    return {i for run in runs if len(run) > 2 * len(phis) for i in run}


def _band_scale(params, phis, n_terms, x):
    """eps sum_{m < N_b} |a_m| x^{-d}: the rounding scale of a band value."""
    d = params.d
    cg = np.max([np.abs(gegenbauer_all(n_terms - 1, d, math.cos(phi))) for phi in phis], axis=0)
    return EPS * float(np.sum((np.arange(n_terms) + d) / d * cg)) * x ** (-d)


@pytest.mark.parametrize("seed", range(5))
def test_scan_and_grid_are_bitwise_per_x_evaluation(seed):
    params, xs, phis, tol, window = _grid_case(seed)
    assert {_bessel_path(params, x, tol) for x in xs} == {"series", "mixed", "quad"}
    banded = _banded(params, xs, phis, tol)
    assert banded and banded <= {xs.index(float(x)) for x in window}

    reference = {x: eval_I_multi(params, x, phis, tol=tol) for x in xs}
    grid = _eval_grid(params, xs, phis, tol)
    for i, (x, per_x) in enumerate(zip(xs, grid)):
        if i not in banded:
            assert [_result_bits(r) for r in per_x] == [_result_bits(r) for r in reference[x]]
            continue
        n_terms = per_x[0].terms_used
        assert n_terms >= reference[x][0].terms_used
        bound = 4.0 * _band_scale(params, phis, n_terms, x)
        for res, ref in zip(per_x, reference[x]):
            assert res.tail_bound == ref.tail_bound
            assert abs(res.value - ref.value) <= bound
    values = {x: [_bits(r.value) for r in per_x] for x, per_x in zip(xs, grid)}
    for grid_xs in (xs, list(reversed(xs))):
        table = scan(params, grid_xs, phis, tol=tol)
        assert len(table.rows) == len(xs) * len(phis)
        for row in table.rows:
            assert _bits(row.value) == values[row.x][phis.index(row.phi)]


# Bounds on the per-x path's largest flat-space error over the grid below
# (measured 1.1e-14, 3.1e-12 and 1.7e-9 on 2 vCPU x86_64).
PER_X_FLAT_BOUND = {3: 1e-13, 5: 3e-11, 8: 1.5e-8}


@pytest.mark.parametrize("n", [3, 5, 8])
def test_band_flat_space_no_worse_than_per_x(n):
    # rho = 1, c = 0: |I| = 1/(d 2^d Gamma(d)) exactly, so the error of
    # both paths is known
    params = ConeParams(rho=1.0, n=n, c=0.0)
    d = params.d
    exact = 1.0 / (d * 2.0**d * math.gamma(d))
    phis = [0.0, math.pi]
    xs = [float(x) for x in make_grid(100.0, 2000.0, 600, "log")]
    banded = sorted(_banded(params, xs, phis, 1e-10))
    assert len(banded) >= len(xs) // 2
    grid = _eval_grid(params, xs, phis, 1e-10)
    band_err = max(abs(abs(r.value) - exact) for i in banded for r in grid[i])
    per_x_err = max(
        abs(abs(r.value) - exact) for i in banded for r in eval_I_multi(params, xs[i], phis)
    )
    assert per_x_err <= PER_X_FLAT_BOUND[n]
    assert band_err <= 1.25 * per_x_err


def test_grid_terms_override_matches_one_x():
    params = ConeParams(rho=0.6, n=4, c=0.5)
    xs = [0.3, 14.0, 90.0, 91.0]
    for terms in (0, 5, 80):
        grid = _eval_grid(params, xs, [0.4, math.pi], 1e-10, terms)
        for x, per_x in zip(xs, grid):
            one = eval_I_multi(params, x, [0.4, math.pi], tol=1e-10, terms=terms)
            assert [_result_bits(r) for r in per_x] == [_result_bits(r) for r in one]


def test_batched_truncation_on_frozen_grid():
    for (rho, n, c, tol), frozen in FROZEN_M.items():
        params = ConeParams(rho=rho, n=n, c=c)
        batched = _truncations(params, list(TRUNCATION_XS), tol)
        assert [m for m, _ in batched] == list(frozen)
        assert batched == [_truncations(params, [x], tol)[0] for x in TRUNCATION_XS]


@pytest.mark.parametrize("screen_elems", [ks._SCREEN_ELEMS, 64])
@pytest.mark.parametrize("rho,n,c", [(2 / 3, 4, 1.3), (2.5, 8, 0.0)])
def test_batched_truncation_on_log_grid(monkeypatch, screen_elems, rho, n, c):
    # 64 cells per pass forces one x per screen pass
    params = ConeParams(rho=rho, n=n, c=c)
    xs = [float(x) for x in make_grid(1e-3, 2000.0, 600, "log")]
    one_x = [_truncations(params, [x], 1e-10)[0] for x in xs]
    monkeypatch.setattr(ks, "_SCREEN_ELEMS", screen_elems)
    assert _truncations(params, xs, 1e-10) == one_x
    assert _truncations(params, xs[::-1], 1e-10) == one_x[::-1]


def test_batched_truncation_capacity_error_at_first_failing_x(monkeypatch):
    # At rho = 100 the one-x search needs M = 419, 703, 2584 and 8494 at
    # these x: with the cap at 1000 it first fails at x = 0.3.
    monkeypatch.setattr(ks, "_TRUNCATION_CAP", 1000)
    params = ConeParams(rho=100.0, n=3, c=0.0)
    xs = [1e-3, 0.3, 0.05, 1.0]
    with pytest.raises(CapacityError) as one_x:
        for x in xs:
            _truncations(params, [x], 1e-10)
    assert str(one_x.value).endswith("at x = 0.3")
    with pytest.raises(CapacityError) as batched:
        _truncations(params, xs, 1e-10)
    assert str(batched.value) == str(one_x.value)
    with pytest.raises(CapacityError, match="at x = 0.3$"):
        scan(params, xs, [0.0])


@pytest.mark.parametrize("n_x", [1, 2])
@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan, "1e-10", None])
def test_scan_rejects_bad_tol(tol, n_x):
    # a one-x scan and a grid scan check tol alike
    with pytest.raises(DomainError, match="tol"):
        scan(ConeParams(rho=0.5, n=3, c=0.0), [1.0, 200.0][:n_x], [0.0], tol=tol)


def test_gate_sized_scan_memory():
    params = ConeParams(rho=2 / 3, n=3, c=0.0)
    xs = make_grid(100.0, 2000.0, 600, "log")
    tracemalloc.start()
    try:
        scan(params, xs, [0.0, math.pi], tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 35e6


def test_audit_window_memory():
    # a growth audit's FFT window: 512 x on a linear grid, one band
    # quadrature per run, chunked so no large node cube is held
    params = ConeParams(rho=0.6, n=3, c=0.0)
    xs = make_grid(110.0, 212.2, 512, "linear")
    tracemalloc.start()
    try:
        scan(params, xs, [0.0], tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@pytest.mark.parametrize("rho,n,c,phis", [(0.6, 3, 0.0, [0.0]), (1.5, 6, 0.7, [0.0, 1.1, math.pi])])
def test_band_rules(rho, n, c, phis):
    params = ConeParams(rho=rho, n=n, c=c)
    d = params.d
    xs = [float(x) for x in make_grid(13.0, 600.0, 300, "linear")]
    truncated = _truncations(params, xs, 1e-10)
    runs = _scan_groups(params, xs, phis, truncated)
    assert sorted(i for run in runs for i in run) == list(range(len(xs)))
    assert [xs[i] for run in runs for i in run] == sorted(xs)
    n_max = max(m for m, _ in truncated) + 1
    nus = nu_many(params, np.arange(n_max))
    cg = np.max([np.abs(gegenbauer_all(n_max - 1, d, math.cos(phi))) for phi in phis], axis=0)
    scale = np.cumsum((np.arange(n_max) + d) / d * cg)
    bands = [run for run in runs if len(run) > 2 * len(phis)]
    assert len(bands) >= 2
    for run in bands:
        n_band = max(truncated[i][0] for i in run) + 1
        assert xs[run[0]] > max(12.0, 0.5 * nus[n_band - 1])
        for i in run:
            assert scale[n_band - 1] <= 1.25 * scale[truncated[i][0]]


def test_no_band_below_twelve_or_beyond_quadrature_precision():
    params = ConeParams(rho=0.6, n=3, c=0.0)
    for lo, hi in ((0.5, 12.0), (7000.0, 7010.0)):
        xs = [float(x) for x in make_grid(lo, hi, 40, "linear")]
        runs = _scan_groups(params, xs, [0.0], _truncations(params, xs, 1e-10))
        assert all(len(run) == 1 for run in runs)
