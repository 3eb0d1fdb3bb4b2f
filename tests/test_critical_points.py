"""Closed-form enumeration of stationary points and conjugate frequencies.

The classification facts asserted here (which (sigma1, sigma2, q) cells are
nonempty at which angles, for which radii) are the exactly-solvable content
of the stationary-phase analysis; residual checks confirm every returned
point satisfies its defining equation.
"""
import json
import math

import numpy as np
import pytest

from conekernel import (
    BranchLabel,
    CriticalDatum,
    DomainError,
    classify,
    conjugate_frequencies,
    critical_data_to_json,
    critical_set,
    critical_set_union,
    is_resonant_rho,
    q_bound,
)

SQRT3_OVER_2 = 0.86602540378443864676

INTERIOR_LABELS = ("pi/4", "pi/2", "3pi/4")
ENDPOINT_LABELS = ("0", "pi")


def nonempty_endpoint_cells(record):
    """Map (sigma1, sigma2, q, phi-label) -> [mu0...] for endpoint angles."""
    return {
        key: [datum.mu0 for datum in data]
        for key, data in record.cells.items()
        if data and key[3] in ENDPOINT_LABELS
    }


# ---------------------------------------------------------------------------
# Types and the winding bound.
# ---------------------------------------------------------------------------
def test_branch_label_validation():
    BranchLabel(1, -1, 3)
    with pytest.raises(DomainError):
        BranchLabel(0, 1, 0)
    with pytest.raises(DomainError):
        BranchLabel(1, 2, 0)
    with pytest.raises(DomainError):
        BranchLabel(1, 1, 0.5)
    with pytest.raises(DomainError, match="q must be an integer, got True"):
        BranchLabel(1, 1, True)
    label = BranchLabel(np.int64(1), -1, np.int64(3))
    assert label == BranchLabel(1, -1, 3) and type(label.sigma1) is type(label.q) is int


def test_branch_label_refuses_boolean_signs():
    with pytest.raises(DomainError, match="sigma1 must be \\+1 or -1, got True"):
        BranchLabel(True, -1, 0)
    with pytest.raises(DomainError, match="sigma2 must be \\+1 or -1, got True"):
        BranchLabel(1, True, 0)
    assert BranchLabel(np.int64(-1), 1, 0).sigma1 == -1


def test_q_bound_values():
    assert q_bound(1 / 3) == 3
    assert q_bound(0.5) == 2
    assert q_bound(0.6) == 2
    assert q_bound(2 / 3) == 2
    assert q_bound(0.7) == 2
    assert q_bound(1.0) == 2
    assert q_bound(1.5) == 1
    assert q_bound(2.0) == 1


# ---------------------------------------------------------------------------
# Single-cell solutions: the worked examples.
# ---------------------------------------------------------------------------
def test_cell_large_radius_diagonal():
    data = critical_set(2.0, BranchLabel(-1, 1, 0), 0.0)
    assert len(data) == 1
    assert data[0].mu0 == 0.0
    assert data[0].frequency == 1.0
    assert data[0].boundary  # theta lands exactly on pi/2


def test_cell_unit_radius_antipodal():
    data = critical_set(1.0, BranchLabel(1, -1, 1), math.pi)
    assert len(data) == 1
    assert data[0].mu0 == 0.0
    assert data[0].boundary


def test_cell_third_radius_diagonal():
    data = critical_set(1 / 3, BranchLabel(1, 1, 1), 0.0)
    assert len(data) == 1
    assert data[0].mu0 == pytest.approx(SQRT3_OVER_2, abs=1e-13)
    assert data[0].frequency == pytest.approx(0.5, abs=1e-13)
    assert not data[0].boundary
    assert data[0].residual <= 1e-12


def test_cell_is_empty_off_window():
    assert critical_set(2.0, BranchLabel(1, 1, 0), 0.0) == []
    assert critical_set(1.0, BranchLabel(-1, 1, 0), math.pi) == []


def test_cell_cardinality_at_most_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        phi = float(rng.uniform(0.0, math.pi))
        q = int(rng.integers(-4, 5))
        s1 = 1 if rng.random() < 0.5 else -1
        s2 = 1 if rng.random() < 0.5 else -1
        assert len(critical_set(rho, BranchLabel(s1, s2, q), phi)) <= 1


def test_frequency_mu0_circle_identity():
    for rho, phi in ((1 / 3, 0.0), (2 / 3, math.pi), (0.7, 1.1), (1.3, 2.4)):
        for s1 in (1, -1):
            for s2 in (1, -1):
                for datum in critical_set_union(rho, s1, s2, phi):
                    assert abs(datum.frequency ** 2 + datum.mu0 ** 2 - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# Endpoint classification tables.
# ---------------------------------------------------------------------------
def test_classification_rho_2():
    rec = classify(2.0)
    assert rec.rho_ge_1 and rec.rho_gt_half and not rec.rho_inv_in_2n
    table = nonempty_endpoint_cells(rec)
    assert set(table) == {(-1, 1, 0, "0"), (-1, -1, 0, "0")}
    for mu0s in table.values():
        assert mu0s == [0.0]


def test_classification_rho_1():
    rec = classify(1.0)
    table = nonempty_endpoint_cells(rec)
    assert set(table) == {
        (-1, 1, 0, "0"),
        (-1, -1, 0, "0"),
        (1, 1, 0, "pi"),
        (1, -1, 1, "pi"),
    }
    for mu0s in table.values():
        assert mu0s == [0.0]


@pytest.mark.parametrize("rho", [0.7, 0.6])
def test_classification_above_half(rho):
    # Diagonal table: only sigma1 = -1, q = 0 is populated, with mu0 = 0.
    rec = classify(rho)
    assert not rec.rho_ge_1 and rec.rho_gt_half
    diag = {k: v for k, v in nonempty_endpoint_cells(rec).items() if k[3] == "0"}
    assert set(diag) == {(-1, 1, 0, "0"), (-1, -1, 0, "0")}
    for mu0s in diag.values():
        assert mu0s == [0.0]
    # No nonzero winding contributes at angles strictly inside (0, pi/2).
    for (s1, s2, q, label), data in rec.cells.items():
        if label == "pi/4" and q != 0:
            assert data == []


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0])
def test_interior_angles_need_zero_winding_at_large_radius(rho):
    rec = classify(rho)
    for (s1, s2, q, label), data in rec.cells.items():
        if label in INTERIOR_LABELS and q != 0:
            assert data == [], (rho, s1, s2, q, label)


def test_classification_rho_third_diagonal():
    rec = classify(1 / 3)
    table = nonempty_endpoint_cells(rec)
    diag = {k: v for k, v in table.items() if k[3] == "0"}
    assert set(diag) == {
        (1, 1, 1, "0"),
        (1, -1, 1, "0"),
        (-1, 1, 0, "0"),
        (-1, -1, 0, "0"),
    }
    assert diag[(1, 1, 1, "0")] == pytest.approx([SQRT3_OVER_2], abs=1e-13)
    assert diag[(-1, 1, 0, "0")] == [0.0]


def test_classification_rho_two_thirds_antipodal():
    rec = classify(2 / 3)
    table = nonempty_endpoint_cells(rec)
    anti = {k: v for k, v in table.items() if k[3] == "pi"}
    assert set(anti) == {(1, 1, 0, "pi"), (1, -1, 1, "pi")}
    for mu0s in anti.values():
        assert mu0s == pytest.approx([SQRT3_OVER_2], abs=1e-13)


def test_all_residuals_within_tolerance():
    for rho in (2.0, 1.0, 0.7, 0.6, 1 / 3, 2 / 3):
        rec = classify(rho)
        for data in rec.cells.values():
            for datum in data:
                assert datum.residual <= 1e-12


def test_mu_equals_one_never_appears_for_generic_radius():
    # When 1/rho is not an even integer, mu = 1 is excluded at both
    # endpoint angles; verify via the enumerated cells and directly on
    # the solvability windows.
    for rho in (1 / 3, 2 / 3, 0.7, 1.3):
        assert not is_resonant_rho(rho)
        for phi in (0.0, math.pi):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    for datum in critical_set_union(rho, s1, s2, phi):
                        assert datum.mu0 < 1.0
                    for q in range(-q_bound(rho), q_bound(rho) + 1):
                        theta = s1 * (s2 * rho * phi - math.pi / 2.0 + 2.0 * math.pi * rho * q)
                        assert abs(theta) >= 1e-9  # mu = 1 would need theta = 0


def test_resonant_radius_flags():
    assert is_resonant_rho(0.5)
    assert is_resonant_rho(0.25)
    assert is_resonant_rho(1.0 / 6.0)
    assert is_resonant_rho(0.5 + 1e-12)
    assert not is_resonant_rho(1.0)
    assert not is_resonant_rho(1 / 3)
    assert not is_resonant_rho(0.75)
    assert not is_resonant_rho(2.0)


# ---------------------------------------------------------------------------
# Winding-shift identities between the antipodal and diagonal tables.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rho", [1 / 3, 2 / 3, 0.7, 1.3, 2.0])
def test_sigma2_is_redundant_at_the_diagonal(rho):
    for s1 in (1, -1):
        for q in range(-q_bound(rho), q_bound(rho) + 1):
            plus = [d.mu0 for d in critical_set(rho, BranchLabel(s1, 1, q), 0.0)]
            minus = [d.mu0 for d in critical_set(rho, BranchLabel(s1, -1, q), 0.0)]
            assert plus == minus


@pytest.mark.parametrize("rho", [1 / 3, 2 / 3, 0.7, 1.3, 2.0])
def test_sigma2_shifts_winding_at_the_antipode(rho):
    for s1 in (1, -1):
        for q in range(-q_bound(rho), q_bound(rho)):
            plus = [d.mu0 for d in critical_set(rho, BranchLabel(s1, 1, q), math.pi)]
            minus = [d.mu0 for d in critical_set(rho, BranchLabel(s1, -1, q + 1), math.pi)]
            assert plus == pytest.approx(minus, abs=1e-12)


# ---------------------------------------------------------------------------
# Conjugate-frequency sets.
# ---------------------------------------------------------------------------
def test_conjugate_set_empty_at_large_radius():
    for rho in (1.0, 1.5, 2.0):
        for s1 in (1, -1):
            for phi0 in (0.0, math.pi):
                assert conjugate_frequencies(rho, s1, phi0) == []


def test_conjugate_set_third_radius_diagonal():
    data = conjugate_frequencies(1 / 3, -1, 0.0)
    assert len(data) == 1
    assert data[0].mu0 == pytest.approx(SQRT3_OVER_2, abs=1e-13)
    assert data[0].frequency == pytest.approx(0.5, abs=1e-13)


def test_conjugate_set_two_thirds_antipodal():
    data = conjugate_frequencies(2 / 3, -1, math.pi)
    assert len(data) == 1
    assert data[0].mu0 == pytest.approx(SQRT3_OVER_2, abs=1e-13)
    assert data[0].frequency == pytest.approx(0.5, abs=1e-13)


def test_conjugate_set_excludes_endpoints():
    rhos = [0.3, 1 / 3, 0.45, 0.49999999, 0.5, 0.52, 2 / 3, 0.7, 0.9, 0.99, 1.0, 1.3]
    for rho in rhos:
        for s1 in (1, -1):
            for phi0 in (0.0, math.pi):
                for datum in conjugate_frequencies(rho, s1, phi0):
                    assert 0.0 < datum.mu0 < 1.0


def test_conjugate_set_residuals_away_from_resonance():
    # The angle-space residual |acos(mu0) - theta| is meaningful only while
    # mu0 is representable away from 1: within ~1e-8 of a resonant radius,
    # cos(theta) rounds onto the epsilon grid near 1 and the recovered angle
    # is off by ~sqrt(eps).  Generic radii must still satisfy 1e-12.
    for rho in (0.3, 1 / 3, 0.45, 0.52, 2 / 3, 0.7, 0.9, 0.99):
        for s1 in (1, -1):
            for phi0 in (0.0, math.pi):
                for datum in conjugate_frequencies(rho, s1, phi0):
                    assert datum.residual <= 1e-12


def test_conjugate_set_nonempty_below_half_at_diagonal():
    for rho in (0.07, 0.13, 0.21, 0.3, 1 / 3, 0.4, 0.45, 0.49):
        assert not is_resonant_rho(rho)
        union = conjugate_frequencies(rho, 1, 0.0) + conjugate_frequencies(rho, -1, 0.0)
        assert union, rho


def test_conjugate_set_nonempty_below_one_at_antipode():
    for rho in (0.3, 0.45, 0.55, 2 / 3, 0.7, 0.85, 0.99):
        assert not is_resonant_rho(rho)
        union = conjugate_frequencies(rho, 1, math.pi) + conjugate_frequencies(rho, -1, math.pi)
        assert union, rho


def test_conjugate_set_requires_exact_endpoint_angle():
    with pytest.raises(DomainError):
        conjugate_frequencies(1 / 3, 1, 0.5)
    with pytest.raises(DomainError):
        conjugate_frequencies(1 / 3, 1, math.pi - 1e-9)


@pytest.mark.parametrize("rho", [0.3, 1 / 3, 0.49, 0.6, 2 / 3, 0.7])
@pytest.mark.parametrize("phi0", [0.0, math.pi])
def test_conjugate_set_equals_interior_cell_union(rho, phi0):
    # Union over sigma1 of the conjugate sets = union over (sigma1, q) of the
    # open-interval part of the critical cells, as plain mu-value sets.
    from_cells = sorted(
        d.mu0
        for s1 in (1, -1)
        for d in critical_set_union(rho, s1, 1, phi0)
        if 0.0 < d.mu0 < 1.0 and not d.boundary
    )
    from_conjugate = sorted(
        d.mu0 for s1 in (1, -1) for d in conjugate_frequencies(rho, s1, phi0)
    )
    assert len(from_cells) == len(from_conjugate)
    assert from_cells == pytest.approx(from_conjugate, abs=1e-12)


# ---------------------------------------------------------------------------
# Finiteness on random samples.
# ---------------------------------------------------------------------------
def test_per_branch_count_is_bounded():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        rho = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        phi = float(rng.uniform(0.0, math.pi))
        cap = 2 * q_bound(rho) + 2
        for s1 in (1, -1):
            for s2 in (1, -1):
                data = critical_set_union(rho, s1, s2, phi)
                assert len(data) <= cap
                for datum in data:
                    assert datum.residual <= 1e-12 * max(1.0, 1.0 / rho)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------
def test_critical_data_json_fields():
    data = critical_set_union(1 / 3, 1, 1, 0.0)
    blob = json.loads(critical_data_to_json(data))
    assert blob
    for entry in blob:
        assert set(entry) == {"mu0", "sigma1", "sigma2", "q", "frequency"}


def test_classification_json_round_trip_content():
    rec = classify(2.0)
    blob = json.loads(rec.to_json())
    assert blob["rho"] == 2.0
    assert blob["rho_ge_1"] is True
    assert blob["rho_inv_in_2n"] is False
    assert blob["q_bound"] == 1
    endpoint_cells = [c for c in blob["nonempty_cells"] if c["phi"] in ENDPOINT_LABELS]
    assert {(c["sigma1"], c["sigma2"], c["q"], c["phi"]) for c in endpoint_cells} == {
        (-1, 1, 0, "0"),
        (-1, -1, 0, "0"),
    }


def test_classification_resonant_flag_set():
    rec = classify(0.5)
    assert rec.rho_inv_in_2n
    rec2 = classify(0.25)
    assert rec2.rho_inv_in_2n
