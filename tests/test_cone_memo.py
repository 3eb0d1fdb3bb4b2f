"""The per-cone memo and the truncation search's first index.

kernel_series keeps the x-independent work of the last cone it evaluated
(_Cone).  No value may depend on what the memo holds: every result must be
bitwise the one a cold memo gives, whatever ran before.  The truncation
search starts at _first_index, and must still equal a scan from m = 0 of
one-cell tail certificates (_certify_tail, one cell of _tails).
"""
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scan_grid import _result_bits
from test_truncation_frozen import _certify_tail

import conekernel.kernel_series as ks
from conekernel import ConeParams, eval_I_multi, make_grid, scan
from conekernel.kernel_series import _eval_grid, _first_index, _ladder, _truncations

CONE = ConeParams(rho=0.6, n=3, c=0.0)
OTHER = ConeParams(rho=1.7, n=5, c=0.4)
PHIS = [0.0, 1.2, math.pi]
ONE_X = [0.7, 13.0, 150.0]  # power series, both Bessel paths, quadrature
BAND = [float(x) for x in make_grid(110.0, 116.0, 12, "linear")]


def _bits(results) -> list:
    return [_result_bits(r) for r in results]


CALLS = {
    "one x": lambda: [_bits(eval_I_multi(CONE, x, PHIS)) for x in ONE_X],
    "terms": lambda: [_bits(eval_I_multi(CONE, x, PHIS, terms=40)) for x in ONE_X],
    "grid": lambda: [_bits(per_x) for per_x in _eval_grid(CONE, ONE_X + BAND, PHIS, 1e-10)],
    "scan": lambda: [
        (row.value.real.hex(), row.value.imag.hex()) for row in scan(CONE, BAND, PHIS, tol=1e-12).rows
    ],
}

WARMERS = {
    "larger x": lambda: eval_I_multi(CONE, 1900.0, [0.0]),
    "other cone": lambda: eval_I_multi(OTHER, 300.0, PHIS),
    "other angles": lambda: scan(CONE, [90.0, 95.0, 400.0], [0.3, 2.0]),
    "terms": lambda: eval_I_multi(CONE, 50.0, [1.2], terms=900),
}


@pytest.fixture
def cold(monkeypatch):
    """Empties the memo; returns the function that empties it again."""

    def empty():
        monkeypatch.setattr(ks, "_cone", None)

    empty()
    return empty


@pytest.mark.parametrize("warmer", WARMERS)
def test_values_do_not_depend_on_the_memo(cold, warmer):
    for call in CALLS.values():
        cold()
        reference = call()
        cold()
        WARMERS[warmer]()
        assert call() == reference
        # and warmed by itself, as a repeated call finds it
        assert call() == reference


def test_memo_holds_the_last_cone_only(cold):
    eval_I_multi(CONE, 200.0, PHIS)
    first = weakref.ref(ks._cone)
    eval_I_multi(OTHER, 200.0, PHIS)
    gc.collect()
    assert ks._cone.params == OTHER
    assert first() is None


def test_memo_arrays_are_read_only(cold):
    scan(CONE, BAND, PHIS)
    eval_I_multi(CONE, 30.0, PHIS)
    cone = ks._cone
    held = [*cone._orders, *cone._window, *cone._rows.values()]
    nus, phases, weight, rows = _ladder(CONE, 50, PHIS)
    handed = [nus, *phases, weight, *rows]
    for a in held + handed:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_memo_keeps_no_order_past_its_cap(cold, monkeypatch):
    xs = [14.0, 200.0, 900.0]
    reference = [_bits(eval_I_multi(CONE, x, PHIS)) for x in xs]
    monkeypatch.setattr(ks, "_MEMO_ORDERS", 32)
    for _ in range(2):
        cold()
        assert [_bits(eval_I_multi(CONE, x, PHIS)) for x in xs] == reference
    cone = ks._cone
    assert max(len(cone._orders[0]), len(cone._window[0]), *map(len, cone._rows.values())) <= 32


def test_threads_sharing_the_memo_get_cold_values(cold):
    cases = [(params, x) for params in (CONE, OTHER) for x in (20.0, 150.0, 600.0)]
    reference = {}
    for params, x in cases:
        cold()
        reference[params, x] = _bits(eval_I_multi(params, x, PHIS))
    cold()
    mismatches = []

    def work(offset):
        for k in range(12):
            params, x = cases[(offset + k) % len(cases)]
            if _bits(eval_I_multi(params, x, PHIS)) != reference[params, x]:
                mismatches.append((params, x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


# ---------------------------------------------------------------------------
# First index of the truncation search.
# ---------------------------------------------------------------------------
def _first_certified(params, x, tol):
    """M and its bound by one-cell _certify_tail calls from m = 0."""
    m = 0
    while (tail := _certify_tail(params, x, m, tol)) is None:
        m += 1
    return m, tail


def _coupling(kind, d, frac):
    return {"attractive": -d * d * frac, "zero": 0.0, "repulsive": 3.0 * frac}[kind]


def _threshold_x(d, tol, shift):
    """The x at which -d log x = log(tol/10) + 1 + shift."""
    return math.exp(-(math.log(tol / 10.0) + 1.0 + shift) / d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rho=st.floats(0.2, 1.5),
    n=st.integers(3, 12),
    kind=st.sampled_from(["attractive", "zero", "repulsive"]),
    frac=st.floats(0.1, 0.9),
    xs=st.lists(st.one_of(st.floats(0.5, 600.0), st.floats(2.0, 2.1)), min_size=1, max_size=3),
    log_tol=st.floats(-14.0, -6.0),
    shift=st.none() | st.floats(-1.0, 1.0),
)
@example(rho=1.5, n=12, kind="repulsive", frac=0.5, xs=[2.0000001, 3.0], log_tol=-10.0, shift=None)
@example(rho=0.3, n=12, kind="zero", frac=0.5, xs=[40.0], log_tol=-12.0, shift=0.05)
@example(rho=0.3, n=12, kind="zero", frac=0.5, xs=[40.0], log_tol=-12.0, shift=-0.05)
def test_truncation_search_equals_scan_from_zero(rho, n, kind, frac, xs, log_tol, shift):
    d = (n - 2) / 2.0
    tol = 10.0**log_tol
    if shift is not None:
        # the largest x sits within 1 of the edge of the first-index condition
        xs = xs + [min(max(_threshold_x(d, tol, shift), 0.5), 600.0)]
    params = ConeParams(rho=rho, n=n, c=_coupling(kind, d, frac))
    assert _truncations(params, xs, tol) == [_first_certified(params, x, tol) for x in xs]


def test_first_index_starts_late_only_where_the_proof_holds():
    params = ConeParams(rho=0.6, n=3, c=0.0)
    assert _first_index(params, [100.0, 2000.0], 1e-10) > 0
    assert _first_index(params, [1.9, 2000.0], 1e-10) == 0  # x_min < 2
    # -d log x_max just inside and just outside log(tol/10) + 1
    wide = ConeParams(rho=0.6, n=12, c=0.0)
    for shift, started in ((0.01, True), (-0.01, False)):
        x = _threshold_x(wide.d, 1e-6, shift)
        assert (_first_index(wide, [x], 1e-6) > 0) is started
        assert _truncations(wide, [x], 1e-6) == [_first_certified(wide, x, 1e-6)]
    # 2d < 1: C_m^d(1) < 1, outside the proof, so the search starts at 0
    thin = ConeParams._from_d(0.6, 0.3, 0.0)
    xs = [100.0, 300.0]
    assert _first_index(thin, xs, 1e-10) == 0
    assert _truncations(thin, xs, 1e-10) == [_first_certified(thin, x, 1e-10) for x in xs]


def test_first_index_counts_the_orders_below_half_x():
    for params in (ConeParams(rho=0.6, n=3, c=0.0), ConeParams(rho=1.4, n=8, c=-2.0)):
        for x in (2.0, 7.5, 100.0, 1234.5):
            nus = ks.nu_many(params, np.arange(1, 2000))
            assert _first_index(params, [x, 2 * x], 1e-12) == int(np.count_nonzero(nus <= 0.5 * x))
