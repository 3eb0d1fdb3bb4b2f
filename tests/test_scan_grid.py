"""A scan is one grid evaluation.

Every value a scan returns must be bitwise the value eval_I_multi gives at
that x alone, whatever mix of Bessel paths the grid holds, whatever order
its x values come in and whatever the worker count.  The batched
truncation search must return the one-x search's M and tail bound.
"""
import math
import tracemalloc

import numpy as np
import pytest
from test_truncation_frozen import FROZEN_M, TRUNCATION_XS

import conekernel.kernel_series as ks
from conekernel import CapacityError, ConeParams, DomainError, eval_I_multi, make_grid, nu_many, scan
from conekernel.kernel_series import _eval_grid, _truncation, _truncations
from conekernel.specfun import _panel_count


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
            window,  # neighbouring x, many on one panel count
        )
    )
    rng.shuffle(xs)
    phis = [0.0, float(rng.uniform(0.1, 3.0)), math.pi]
    return ConeParams(rho=rho, n=n, c=c), [float(x) for x in xs], phis, tol, window


def _bessel_paths(params, x, tol):
    """(kind, panel count) of the Bessel batch at x, by bessel_j_many's split."""
    m_top, _ = _truncation(params, x, tol)
    nus = nu_many(params, np.arange(m_top + 1))
    quad = x > np.maximum(12.0, 0.5 * nus)
    kind = "quad" if quad.all() else ("series" if not quad.any() else "mixed")
    panels = _panel_count(float(nus[quad][-1]), x) if quad.any() else 0
    return kind, panels


@pytest.mark.parametrize("seed", range(5))
def test_scan_and_grid_are_bitwise_per_x_evaluation(seed):
    params, xs, phis, tol, window = _grid_case(seed)
    assert {_bessel_paths(params, x, tol)[0] for x in xs} == {"series", "mixed", "quad"}
    assert len({_bessel_paths(params, float(x), tol)[1] for x in window}) < len(window) // 2

    reference = {x: [_result_bits(r) for r in eval_I_multi(params, x, phis, tol=tol)] for x in xs}
    grid = _eval_grid(params, xs, phis, tol)
    assert [[_result_bits(r) for r in per_x] for per_x in grid] == [reference[x] for x in xs]
    for workers in (1, 2):
        table = scan(params, xs, phis, tol=tol, workers=workers)
        assert len(table.rows) == len(xs) * len(phis)
        for row in table.rows:
            assert _bits(row.value) == reference[row.x][phis.index(row.phi)][:2]


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
        assert batched == [_truncation(params, x, tol) for x in TRUNCATION_XS]


@pytest.mark.parametrize("screen_elems", [ks._SCREEN_ELEMS, 64])
@pytest.mark.parametrize("rho,n,c", [(2 / 3, 4, 1.3), (2.5, 8, 0.0)])
def test_batched_truncation_on_log_grid(monkeypatch, screen_elems, rho, n, c):
    # 64 cells per pass forces one x per screen pass
    params = ConeParams(rho=rho, n=n, c=c)
    xs = [float(x) for x in make_grid(1e-3, 2000.0, 600, "log")]
    one_x = [_truncation(params, x, 1e-10) for x in xs]
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
            _truncation(params, x, 1e-10)
    assert str(one_x.value).endswith("at x = 0.3")
    with pytest.raises(CapacityError) as batched:
        _truncations(params, xs, 1e-10)
    assert str(batched.value) == str(one_x.value)
    with pytest.raises(CapacityError, match="at x = 0.3$"):
        scan(params, xs, [0.0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan, "1e-10", None])
def test_scan_rejects_bad_tol(tol, workers):
    with pytest.raises(DomainError, match="tol"):
        scan(ConeParams(rho=0.5, n=3, c=0.0), [1.0, 200.0], [0.0], tol=tol, workers=workers)


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
