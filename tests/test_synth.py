"""Synthetic portfolio generation: exact survival inversion, competing-event
composition, censoring, and reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mortsurv import (
    BenchmarkConfig,
    CovariatePath,
    LoanStatus,
    LognormalBaseline,
    cumulative_hazard,
    invert_survival,
    make_benchmark,
    simulate_loan,
    total_loglik,
)

from conftest import params_small


def test_inversion_recovers_survival_probability(two_interval_path):
    b = LognormalBaseline(1.578, 0.717**2)
    theta = np.array([0.3, -0.2, 0.4])
    for u in [1e-9, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-12]:
        t = invert_survival(two_interval_path, theta, b, u)
        s = math.exp(-cumulative_hazard(two_interval_path, theta, b, t))
        assert s == pytest.approx(u, abs=5e-15)


def test_inversion_constant_path_matches_lognormal_quantile():
    # with eta = 0 the event time is exactly lognormal
    from scipy.stats import lognorm

    b = LognormalBaseline(2.0, 0.49)
    path = CovariatePath.constant(np.array([0.0]))
    theta = np.array([1.0])
    for u in [0.1, 0.5, 0.9]:
        t = invert_survival(path, theta, b, u)
        expected = float(lognorm(s=0.7, scale=math.exp(2.0)).ppf(1.0 - u))
        assert t == pytest.approx(expected, rel=1e-12)


def test_inversion_u_zero_means_event_never_happens():
    b = LognormalBaseline(1.0, 1.0)
    path = CovariatePath.constant(np.array([1.0]))
    assert invert_survival(path, np.array([0.5]), b, 0.0) == math.inf


def test_inversion_monotone_in_u(two_interval_path):
    b = LognormalBaseline(1.0, 0.6)
    theta = np.array([0.1, 0.2, -0.1])
    us = np.linspace(0.01, 0.99, 25)
    ts = [invert_survival(two_interval_path, theta, b, u) for u in us]
    # larger survival probability = earlier time
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_inversion_extreme_coefficients_do_not_overflow():
    b = LognormalBaseline(1.0, 1.0)
    path = CovariatePath.constant(np.array([1.0]))
    t = invert_survival(path, np.array([800.0]), b, 0.5)
    assert t > 0 and math.isfinite(t)


def test_simulated_event_is_min_of_latents():
    params = params_small(3)
    path = CovariatePath.constant(np.array([1.0, 0.3, -0.4]))
    rng = np.random.default_rng(0)
    for _ in range(200):
        loan = simulate_loan(params, path, maturity=30.0, rng=rng)
        if loan.status is LoanStatus.DEFAULTED:
            assert loan.time == loan.latent_default
            assert loan.latent_default <= loan.latent_prepay
        elif loan.status is LoanStatus.PREPAID:
            assert loan.time == loan.latent_prepay
            assert loan.latent_prepay < loan.latent_default
        else:
            assert loan.time == 30.0
            assert loan.latent_default >= 30.0
            assert loan.latent_prepay >= 30.0


def test_latent_tie_goes_to_default():
    # both latents beyond maturity is the only reachable tie in continuous time;
    # the mature branch must catch it before any default/prepay comparison
    params = params_small(3)
    path = CovariatePath.constant(np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(1)
    loan = simulate_loan(params, path, maturity=1e-8, rng=rng)
    assert loan.status is LoanStatus.ACTIVE
    assert loan.time == 1e-8


def test_censor_time_cuts_observation_short():
    params = params_small(3)
    path = CovariatePath.constant(np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(2)
    censored = 0
    for _ in range(300):
        loan = simulate_loan(params, path, maturity=30.0, rng=rng, censor_time=1.0)
        if loan.status is LoanStatus.ACTIVE:
            censored += 1
            assert loan.time == 1.0
        else:
            assert loan.time <= 1.0
    assert censored > 0


def test_benchmark_reproducible_and_truth_consistent():
    params = params_small(4)
    config = BenchmarkConfig(n_loans=60, true_params=params, n_covariates=3, seed=3)
    ds1, truth1 = make_benchmark(config)
    ds2, truth2 = make_benchmark(config)
    assert [l.loan_id for l in ds1.loans] == [l.loan_id for l in ds2.loans]
    assert [l.time for l in ds1.loans] == [l.time for l in ds2.loans]
    assert truth1.params.theta_default.tolist() == params.theta_default.tolist()
    assert truth1.seed == 3
    assert ds1.schema == ("intercept", "x1", "x2", "ind")
    assert total_loglik(ds1, params) == total_loglik(ds2, params)


def test_benchmark_loans_are_independent_of_count():
    # loan i's draws come from its own substream, so prefixes agree
    params = params_small(3)
    big = make_benchmark(BenchmarkConfig(n_loans=40, true_params=params,
                                         n_covariates=2, seed=9))[0]
    small = make_benchmark(BenchmarkConfig(n_loans=10, true_params=params,
                                           n_covariates=2, seed=9))[0]
    for a, b in zip(small.loans, big.loans):
        assert a.time == b.time
        assert a.status == b.status
        np.testing.assert_array_equal(a.covariates.values, b.covariates.values)


def test_benchmark_covariate_layout():
    params = params_small(4)
    ds, _ = make_benchmark(BenchmarkConfig(n_loans=30, true_params=params,
                                           n_covariates=3, seed=4))
    for loan in ds.loans:
        x = loan.covariates.values[0]
        assert x[0] == 1.0  # intercept column
        assert x[-1] in (0.0, 1.0)  # trailing binary indicator


def test_benchmark_produces_all_statuses():
    params = params_small(3)
    ds, _ = make_benchmark(BenchmarkConfig(n_loans=400, true_params=params,
                                           n_covariates=2, seed=5,
                                           censor_time=2.0))
    counts = {s: ds.count(s) for s in LoanStatus}
    assert counts[LoanStatus.DEFAULTED] > 0
    assert counts[LoanStatus.PREPAID] > 0
    assert counts[LoanStatus.ACTIVE] > 0


def test_empty_benchmark_keeps_schema_and_truth():
    params = params_small(3)
    ds, truth = make_benchmark(BenchmarkConfig(n_loans=0, true_params=params,
                                               n_covariates=2, seed=3))
    assert ds.n_loans == 0
    assert ds.schema == ("intercept", "x1", "ind")
    assert truth.params is params
    assert truth.seed == 3


def test_benchmark_config_validation():
    params = params_small(3)
    with pytest.raises(ValueError):
        BenchmarkConfig(n_loans=-1, true_params=params, n_covariates=2)
    with pytest.raises(ValueError):
        # dimension mismatch: 3-vector truth cannot drive 4 columns
        BenchmarkConfig(n_loans=5, true_params=params, n_covariates=3)
    with pytest.raises(ValueError):
        BenchmarkConfig(n_loans=5, true_params=params, n_covariates=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(n_loans=5, true_params=params, n_covariates=2,
                        maturity=0.0)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        BenchmarkConfig(n_loans=5, true_params=params, n_covariates=2, seed=-3)
