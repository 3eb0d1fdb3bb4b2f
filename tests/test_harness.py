"""Scan machinery: grids, regression, frequency extraction, bound checks."""
import math

import numpy as np
import pytest

from conekernel import (
    ConeParams,
    DomainError,
    InputError,
    KernelPoint,
    ScanTable,
    csv_lines,
    dominant_frequency,
    envelope_general,
    envelope_interior,
    eval_I,
    fit_decay_exponent,
    make_grid,
    octave_maxima,
    principal_prediction,
    scan,
    verify_bound,
    write_csv,
    CSV_HEADER,
)


# ---------------------------------------------------------------------------
# Grids.
# ---------------------------------------------------------------------------
def test_make_grid_log_and_linear():
    g = make_grid(1.0, 100.0, 5, "log")
    assert g[0] == pytest.approx(1.0) and g[-1] == pytest.approx(100.0)
    assert np.allclose(np.diff(np.log(g)), np.log(10.0) / 2.0)
    lin = make_grid(2.0, 4.0, 5, "linear")
    assert np.allclose(lin, [2.0, 2.5, 3.0, 3.5, 4.0])


def test_make_grid_validation():
    with pytest.raises(InputError):
        make_grid(5.0, 1.0, 4)
    with pytest.raises(InputError):
        make_grid(1.0, 10.0, 1)
    with pytest.raises(InputError):
        make_grid(0.0, 10.0, 4)
    with pytest.raises(InputError):
        make_grid(1.0, 10.0, 4, "cubic")


def test_make_grid_refuses_non_numbers():
    with pytest.raises(InputError, match="grid needs finite 0 < lo < hi"):
        make_grid("1", 2.0, 3)
    with pytest.raises(InputError, match="grid needs finite 0 < lo < hi"):
        make_grid(1.0, None, 3)
    with pytest.raises(InputError, match="grid count must be an integer"):
        make_grid(1.0, 2.0, "3")


def test_make_grid_takes_any_integral_count():
    for count in (np.int64(5), np.int32(5), np.uint8(5)):
        for spacing in ("log", "linear"):
            assert np.array_equal(make_grid(1.0, 2.0, count, spacing), make_grid(1.0, 2.0, 5, spacing))
    for count in (True, np.int64(1), 5.0):
        with pytest.raises(InputError, match="grid count must be an integer"):
            make_grid(1.0, 2.0, count)


# ---------------------------------------------------------------------------
# Decay-exponent regression.
# ---------------------------------------------------------------------------
def test_fit_exact_power_law():
    xs = np.arange(1.0, 21.0)
    fit = fit_decay_exponent(xs, 3.0 * xs ** 0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 20


def test_fit_exact_decay():
    xs = np.geomspace(0.1, 50.0, 30)
    fit = fit_decay_exponent(xs, 5.0 * xs ** -1.5)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)


def test_fit_constant_data():
    xs = np.arange(1.0, 21.0)
    fit = fit_decay_exponent(xs, np.full(20, 7.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # no variance to explain


def test_fit_validation():
    xs = np.arange(1.0, 8.0)  # 7 samples: too few
    with pytest.raises(InputError):
        fit_decay_exponent(xs, xs)
    with pytest.raises(InputError):
        fit_decay_exponent(np.arange(1.0, 21.0), np.full(20, -1.0))
    with pytest.raises(InputError):
        fit_decay_exponent(np.arange(1.0, 21.0), np.ones(19))


def test_fit_small_x_exponent_physical():
    # Repulsive n = 3, c = 2: |I| ~ x^{nu0 - d} = x^1 at small x.
    params = ConeParams(rho=1.0, n=3, c=2.0)
    xs = make_grid(1e-4, 1e-2, 49, "log")  # 24 points/decade
    mags = np.array([abs(eval_I(params, KernelPoint(x=float(x), phi=1.0)).value) for x in xs])
    fit = fit_decay_exponent(xs, mags)
    assert fit.slope == pytest.approx(1.0, abs=0.05)


def test_fit_to_dict():
    xs = np.arange(1.0, 21.0)
    d = fit_decay_exponent(xs, xs).to_dict()
    assert set(d) == {"slope", "intercept", "r_squared", "n_samples"}


# ---------------------------------------------------------------------------
# Octave maxima (upper envelope of oscillatory data).
# ---------------------------------------------------------------------------
def test_octave_maxima_selects_peaks():
    xs = np.geomspace(1.0, 1000.0, 4000)
    ys = np.abs(np.sin(xs)) * xs ** 0.5
    ox, oy = octave_maxima(xs, ys)
    # ~10 octaves at 2 bins each; every bin wide enough to catch a peak.
    assert len(ox) == 20
    fit = fit_decay_exponent(ox, oy)
    assert fit.slope == pytest.approx(0.5, abs=0.05)


def test_octave_maxima_validation():
    with pytest.raises(InputError):
        octave_maxima(np.array([]), np.array([]))
    with pytest.raises(InputError):
        octave_maxima(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(InputError):
        octave_maxima(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        octave_maxima(np.array([1.0, 2.0]), np.array([1.0, 1.0]), bins_per_octave=0)
    with pytest.raises(InputError, match="bins_per_octave must be a positive integer, got True"):
        octave_maxima(np.array([1.0, 2.0]), np.array([1.0, 1.0]), bins_per_octave=True)
    xs, ys = np.geomspace(1.0, 100.0, 50), np.abs(np.sin(np.arange(50.0)))
    for got, want in zip(octave_maxima(xs, ys, np.int64(3)), octave_maxima(xs, ys, 3)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Dominant-frequency extraction.
# ---------------------------------------------------------------------------
def test_frequency_pure_cosine():
    xs = np.linspace(0.0, 512.0 * math.pi, 4096)
    freq = dominant_frequency(xs, np.cos(0.5 * xs))
    assert freq == pytest.approx(0.5, abs=0.002)


def test_frequency_growing_complex_tone():
    xs = np.linspace(1.0, 1.0 + 512.0 * math.pi, 4096)
    vals = xs ** 0.5 * np.exp(1j * 0.5 * xs)
    freq = dominant_frequency(xs, vals, growth_exponent=0.5)
    assert freq == pytest.approx(0.5, abs=0.002)


def test_frequency_off_bin_tone():
    # A tone halfway between DFT bins still lands within 0.5 bin after
    # quadratic peak interpolation.
    xs = np.linspace(0.0, 512.0, 2048)
    dx = xs[1] - xs[0]
    bin_width = 2.0 * math.pi / (len(xs) * dx)
    target = 0.5 + 0.5 * bin_width
    freq = dominant_frequency(xs, np.cos(target * xs))
    assert freq == pytest.approx(target, abs=0.5 * bin_width)


def test_frequency_rejects_noise():
    rng = np.random.default_rng(512)
    xs = np.linspace(0.0, 100.0, 1024)
    for _ in range(5):
        assert dominant_frequency(xs, rng.standard_normal(1024)) is None


def test_frequency_validation():
    xs = np.linspace(0.0, 10.0, 255)
    with pytest.raises(InputError):
        dominant_frequency(xs, np.cos(xs))  # too few samples
    bad = np.concatenate([np.linspace(0.0, 5.0, 200), np.geomspace(5.1, 20.0, 112)])
    with pytest.raises(InputError):
        dominant_frequency(bad, np.cos(bad))  # non-uniform grid


def test_frequency_physical_tone():
    # rho = 1/3 diagonal: conjugate point sqrt(3)/2 forces frequency 1/2.
    params = ConeParams(rho=1 / 3, n=3, c=0.0)
    xs = np.linspace(200.0, 200.0 + 511 * 0.2, 512)
    table = scan(params, xs, [0.0], tol=1e-9)
    vals = np.array([row.value for row in table.rows])
    freq = dominant_frequency(xs, vals, growth_exponent=0.5)
    assert freq == pytest.approx(0.5, rel=0.02)


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------
def test_scan_single_cell_matches_direct_evaluation():
    params = ConeParams(rho=0.5, n=3, c=0.0)
    table = scan(params, [5.0], [0.7], tol=1e-10)
    assert len(table.rows) == 1
    direct = eval_I(params, KernelPoint(x=5.0, phi=0.7), tol=1e-10)
    assert table.rows[0].value == direct.value  # bitwise


def test_scan_rows_sorted_and_enveloped():
    params = ConeParams(rho=1.0, n=3, c=2.0)
    table = scan(params, [3.0, 1.0, 2.0], [1.5, 0.0], tol=1e-10)
    keys = [(row.phi, row.x) for row in table.rows]
    assert keys == sorted(keys)
    assert table.angles() == [0.0, 1.5]
    assert len(table.rows_for_phi(1.5)) == 3
    for row in table.rows:
        assert row.env_interior == envelope_interior(params, row.x)
        assert row.env_general == envelope_general(params, row.x)


def test_scan_predictions_zero_for_large_radius():
    params = ConeParams(rho=1.5, n=3, c=0.0)
    table = scan(params, [1.0, 10.0], [0.0, math.pi / 2, math.pi], tol=1e-10, with_prediction=True)
    for row in table.rows:
        if row.phi in (0.0, math.pi):
            assert row.prediction == 0j
        else:
            assert row.prediction is None


def test_scan_predictions_at_both_endpoints():
    # At rho = 2/3 only the antipodal angle has a conjugate point.
    params = ConeParams(rho=2 / 3, n=3, c=0.0)
    table = scan(params, [50.0, 100.0], [0.0, math.pi], tol=1e-10, with_prediction=True)
    for row in table.rows:
        assert row.prediction == principal_prediction(params, row.phi, row.x)
        assert (row.prediction != 0j) == (row.phi == math.pi)


@pytest.mark.parametrize("rho", [0.3, 2 / 3, 0.9])
def test_scan_predictions_bitwise_principal_prediction(rho):
    # a thin-growth-like scan: both endpoint angles and an interior one,
    # x from below 1 to 2000; the scan builds the terms once per angle
    params = ConeParams(rho=rho, n=3, c=0.0)
    xs = [0.5, *(float(x) for x in make_grid(100.0, 2000.0, 16, "log"))]
    table = scan(params, xs, [0.0, math.pi / 2, math.pi], tol=1e-10, with_prediction=True)
    for row in table.rows:
        if row.phi == math.pi / 2 or row.x < 1.0:
            assert row.prediction is None
            continue
        expected = principal_prediction(params, row.phi, row.x)
        assert (row.prediction.real.hex(), row.prediction.imag.hex()) == (
            expected.real.hex(),
            expected.imag.hex(),
        )


def test_scan_predictions_skipped_for_resonant_radius():
    params = ConeParams(rho=0.5, n=3, c=0.0)
    table = scan(params, [2.0], [0.0], tol=1e-10, with_prediction=True)
    assert table.rows[0].prediction is None


def test_scan_prediction_below_unit_argument_absent():
    params = ConeParams(rho=1.5, n=3, c=0.0)
    table = scan(params, [0.5, 2.0], [0.0], tol=1e-10, with_prediction=True)
    by_x = {row.x: row for row in table.rows}
    assert by_x[0.5].prediction is None
    assert by_x[2.0].prediction == 0j


def test_scan_validation():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    with pytest.raises(InputError):
        scan(params, [], [0.0])
    with pytest.raises(InputError):
        scan(params, [1.0, 1.0], [0.0])
    with pytest.raises(InputError):
        scan(params, [1.0], [4.0])


# ---------------------------------------------------------------------------
# CSV serialization.
# ---------------------------------------------------------------------------
def test_csv_shape_and_precision(tmp_path):
    params = ConeParams(rho=1.5, n=3, c=0.0)
    table = scan(params, [1.0, 3.0], [0.0, 1.0], tol=1e-10, with_prediction=True)
    lines = csv_lines(table)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    # Numbers round-trip at 17 significant digits.
    first = lines[1].split(",")
    row = table.rows[0]
    assert float(first[0]) == row.x
    assert float(first[2]) == row.value.real
    assert float(first[3]) == row.value.imag
    # Rows without predictions leave the prediction fields empty.
    interior_line = next(l for l in lines[1:] if l.split(",")[1] == "1")
    assert interior_line.endswith(",,")

    path = tmp_path / "table.csv"
    write_csv(table, str(path))
    assert path.read_text().splitlines() == lines


# ---------------------------------------------------------------------------
# Bound verification.
# ---------------------------------------------------------------------------
def test_bound_general_passes_mid_radius():
    params = ConeParams(rho=0.7, n=3, c=0.0)
    table = scan(params, make_grid(1.0, 60.0, 10), [0.0, 1.2, math.pi], tol=1e-9)
    report = verify_bound(table, "general")
    assert report.passed
    assert 0.0 < report.sup_ratio <= 10.0
    assert report.n_rows == 30


def test_bound_interior_fails_under_conjugate_growth():
    # Antipodal growth at rho = 2/3 defeats the flat interior envelope.
    params = ConeParams(rho=2 / 3, n=3, c=0.0)
    table = scan(params, make_grid(10.0, 400.0, 10), [math.pi], tol=1e-9)
    report = verify_bound(table, "interior")
    assert not report.passed
    assert report.sup_ratio > 10.0
    assert report.sup_x == pytest.approx(400.0)


def test_bound_smallx_two_sided():
    # Attractive coupling: |I| and the envelope share the small-x order, so
    # the ratio is pinched inside [1/threshold, threshold] — and tightening
    # the threshold below the actual spread flips the verdict via the lower
    # edge.
    params = ConeParams(rho=1.0, n=3, c=-3.0 / 16.0)
    table = scan(params, make_grid(1e-4, 0.5, 12), [0.0, 1.0, math.pi], tol=1e-10)
    report = verify_bound(table, "smallx")
    assert report.passed
    assert report.inf_ratio >= 0.1 and report.sup_ratio <= 10.0
    tight = verify_bound(table, "smallx", threshold=1.2)
    assert not tight.passed
    assert tight.inf_ratio < 1.0 / 1.2


def test_bound_validation():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    table = scan(params, [1.0], [0.0], tol=1e-10)
    with pytest.raises(DomainError):
        verify_bound(table, "everywhere")
    with pytest.raises(DomainError):
        verify_bound(table, "interior", threshold=1.0)
    with pytest.raises(InputError):
        verify_bound(ScanTable(params=params, rows=()), "interior")


def test_bound_report_to_dict():
    params = ConeParams(rho=1.0, n=3, c=0.0)
    table = scan(params, [1.0, 2.0], [0.0], tol=1e-10)
    d = verify_bound(table, "interior").to_dict()
    assert set(d) == {
        "which", "threshold", "sup_ratio", "inf_ratio", "sup_x", "sup_phi", "n_rows", "passed",
    }
