"""Piecewise-constant covariate paths and loan-level cumulative hazard."""

from __future__ import annotations

import numpy as np
import pytest

from mortsurv import (
    CovariatePath,
    Dataset,
    LoanObservation,
    LoanStatus,
    LognormalBaseline,
    baseline_cumhaz,
    covariate_at,
    cumulative_hazard,
)


def test_constant_path_single_row():
    p = CovariatePath.constant(np.array([1.0, -2.0]))
    assert p.obs_times.shape == (1,)
    assert p.values.shape == (1, 2)
    np.testing.assert_array_equal(covariate_at(p, 0.01), [1.0, -2.0])
    np.testing.assert_array_equal(covariate_at(p, 500.0), [1.0, -2.0])


def test_segment_boundaries_are_midpoints():
    p = CovariatePath(np.array([1.0, 3.0, 7.0]), np.zeros((3, 1)))
    np.testing.assert_allclose(p.boundaries, [0.0, 2.0, 5.0, np.inf])


def test_covariate_lookup_between_boundaries(two_interval_path):
    # observations at t=1 and t=3: first row applies on (0, 2], second after
    np.testing.assert_array_equal(covariate_at(two_interval_path, 0.5),
                                  two_interval_path.values[0])
    np.testing.assert_array_equal(covariate_at(two_interval_path, 1.99),
                                  two_interval_path.values[0])
    np.testing.assert_array_equal(covariate_at(two_interval_path, 2.01),
                                  two_interval_path.values[1])
    np.testing.assert_array_equal(covariate_at(two_interval_path, 100.0),
                                  two_interval_path.values[1])


def test_covariate_boundary_tie_goes_to_earlier_interval(two_interval_path):
    np.testing.assert_array_equal(covariate_at(two_interval_path, 2.0),
                                  two_interval_path.values[0])


def test_path_requires_strictly_increasing_positive_times():
    increasing = r"^row 1: obs_time must be strictly increasing within a loan, got "
    with pytest.raises(ValueError, match=increasing + r"1\.0 after 1\.0$"):
        CovariatePath(np.array([1.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=increasing + r"1\.0 after 2\.0$"):
        CovariatePath(np.array([2.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"^row 0: obs_time must be finite and positive, got 0\.0$"):
        CovariatePath(np.array([0.0]), np.zeros((1, 1)))
    with pytest.raises(ValueError, match=r"^row 1: obs_time must be finite and positive, got inf$"):
        CovariatePath(np.array([1.0, np.inf]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"^row 1: values column 2 must be finite, got nan$"):
        CovariatePath(np.array([1.0, 2.0]), [[0.0, 1.0, 2.0], [3.0, 4.0, np.nan]])


def test_path_requires_matching_row_count():
    with pytest.raises(ValueError):
        CovariatePath(np.array([1.0, 2.0]), np.zeros((3, 1)))


def test_cumhaz_constant_path_reduces_to_scaled_baseline():
    b = LognormalBaseline(2.0, 0.8)
    theta = np.array([0.4, -0.7])
    x = np.array([1.0, 0.5])
    p = CovariatePath.constant(x)
    t = 6.0
    expected = np.exp(theta @ x) * baseline_cumhaz(0.0, t, b)
    assert cumulative_hazard(p, theta, b, t) == pytest.approx(expected, rel=1e-14)


def test_cumhaz_two_intervals_frozen_oracle():
    # independently computed with mpmath: eta = -0.1 on (0,2], 0.5 on (2,inf),
    # midpoint boundary at 2.0 from observations at 1 and 3
    b = LognormalBaseline(0.5, 0.8)
    p = CovariatePath(np.array([1.0, 3.0]), np.array([[-0.1], [0.5]]))
    theta = np.array([1.0])
    assert cumulative_hazard(p, theta, b, 4.0) == pytest.approx(
        2.3574241549981582, rel=1e-13)


def test_cumhaz_piecewise_matches_sum_of_pieces(two_interval_path):
    b = LognormalBaseline(1.578, 0.717**2)
    theta = np.array([0.3, -0.2, 0.4])
    t = 5.0
    e0 = np.exp(theta @ two_interval_path.values[0])
    e1 = np.exp(theta @ two_interval_path.values[1])
    expected = e0 * baseline_cumhaz(0.0, 2.0, b) + e1 * baseline_cumhaz(2.0, t, b)
    assert cumulative_hazard(two_interval_path, theta, b, t) == pytest.approx(
        expected, rel=1e-13)


def test_cumhaz_before_first_boundary_uses_only_first_segment(two_interval_path):
    b = LognormalBaseline(1.578, 0.717**2)
    theta = np.array([0.3, -0.2, 0.4])
    e0 = np.exp(theta @ two_interval_path.values[0])
    expected = e0 * baseline_cumhaz(0.0, 1.5, b)
    assert cumulative_hazard(two_interval_path, theta, b, 1.5) == pytest.approx(
        expected, rel=1e-14)


def test_cumhaz_monotone_in_t(two_interval_path):
    b = LognormalBaseline(1.0, 0.5)
    theta = np.array([0.2, 0.1, -0.3])
    ts = np.linspace(0.1, 12.0, 60)
    vals = [cumulative_hazard(two_interval_path, theta, b, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_loan_validation():
    p = CovariatePath.constant(np.array([1.0]))
    with pytest.raises(ValueError):
        LoanObservation("a", LoanStatus.DEFAULTED, 0.0, p)
    with pytest.raises(ValueError):
        # active loans cannot outlive their maturity
        LoanObservation("a", LoanStatus.ACTIVE, 31.0, p, maturity=30.0)
    # terminated after maturity is allowed (late default on an extended book)
    LoanObservation("a", LoanStatus.DEFAULTED, 31.0, p, maturity=30.0)


def test_dataset_checks_schema_width():
    p = CovariatePath.constant(np.array([1.0, 2.0]))
    loan = LoanObservation("a", LoanStatus.PREPAID, 2.0, p)
    with pytest.raises(ValueError):
        Dataset(loans=(loan,), schema=("only_one",))
    ds = Dataset(loans=(loan,), schema=("c0", "c1"))
    assert ds.count(LoanStatus.PREPAID) == 1
    assert ds.count(LoanStatus.DEFAULTED) == 0
