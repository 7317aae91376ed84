"""Residuals, observed quantiles, predictive moments, and interval coverage."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mortsurv import (
    CovariatePath,
    LoanObservation,
    LoanStatus,
    RiskKind,
    coverage_report,
    loan_diagnostics,
    observed_quantile,
    predictive_moments,
    predictive_reliability,
    sample_event_time,
    standardized_residual,
)

from mortsurv.predict import RiskCurves

from conftest import params_small, samples_at


@pytest.fixture()
def spread_samples():
    params = params_small(3)
    return params, samples_at(params, n_draws=20, n_chains=2, jitter=0.05, seed=2)


def _loan(status, time, x=(1.0, 0.2, 0.0), maturity=30.0, loan_id="a"):
    return LoanObservation(loan_id, status, time,
                           CovariatePath.constant(np.array(x)), maturity=maturity)


def test_moments_match_monte_carlo(spread_samples):
    _, samples = spread_samples
    path = CovariatePath.constant(np.array([1.0, 0.2, 0.0]))
    m = predictive_moments(path, samples, RiskKind.PREPAY, horizon=300.0)
    rng = np.random.default_rng(0)
    draws = np.array([
        sample_event_time(path, samples, RiskKind.PREPAY, rng, horizon=300.0).time
        for _ in range(4000)
    ])
    assert m.mean == pytest.approx(float(draws.mean()), rel=0.05)
    assert m.sd == pytest.approx(float(draws.std()), rel=0.15)
    assert 0.0 <= m.tail_mass < 0.02


def _quad_moments(path, samples, risk, horizon):
    """Reference: adaptive quadrature of t^k times the predictive density on (0, H]."""
    curves = RiskCurves(path, samples, risk)
    breaks = [float(b) for b in path.boundaries[1:-1] if b < horizon] or None

    def moment(k):
        def f(t):
            return float(curves.curves(np.array([t]))[1][0]) * t**k

        return quad(f, 0.0, horizon, points=breaks, limit=500, epsabs=0.0, epsrel=1e-10)[0]

    mass, m1, m2 = moment(0), moment(1), moment(2)
    mean = m1 / mass
    return mean, math.sqrt(m2 / mass - mean * mean), mass


_PATHS = {
    "constant": CovariatePath.constant(np.array([1.0, 0.2, 0.0])),
    "step": CovariatePath(
        obs_times=np.array([1.0, 2.5, 6.0]),
        values=np.array([[1.0, 0.5, -1.2], [1.0, 0.8, 0.3], [1.0, -1.0, 1.0]]),
    ),
}


@pytest.mark.parametrize(
    "case, risk, horizon",
    [
        ("constant", RiskKind.PREPAY, 300.0),
        ("step", RiskKind.DEFAULT, 300.0),
        ("step", RiskKind.PREPAY, 300.0),
        ("constant", RiskKind.DEFAULT, 2.0),  # short horizon, most mass in the tail
    ],
)
def test_grid_moments_match_quadrature(case, risk, horizon):
    samples = samples_at(params_small(3), n_draws=30, n_chains=2, jitter=0.2, seed=1)
    path = _PATHS[case]
    m = predictive_moments(path, samples, risk, horizon=horizon)
    mean, sd, mass = _quad_moments(path, samples, risk, horizon)
    assert m.mean == pytest.approx(mean, rel=1e-10)
    assert m.sd == pytest.approx(sd, rel=1e-10)
    assert 1.0 - m.tail_mass == pytest.approx(mass, rel=1e-10)
    if horizon < 10.0:
        assert m.tail_mass > 0.9


def _mp_moments(path, samples, risk, horizon):
    """Reference at the working precision: mean, sd and mass of the draw mixture
    on (0, H], integrating t^k f(t) in s = log t between the covariate boundaries."""
    d = risk is RiskKind.DEFAULT
    draws = [
        (mp.mpf(mu), mp.sqrt(sigma2), [mp.exp(mp.fdot(theta, row)) for row in path.values])
        for mu, sigma2, theta in zip(
            samples.mu_default if d else samples.mu_prepay,
            samples.sigma2_default if d else samples.sigma2_prepay,
            samples.theta_default if d else samples.theta_prepay,
        )
    ]
    bounds = [mp.mpf(b) for b in path.boundaries[:-1]]  # s_0 = 0 < ... < s_{m-1}

    def draw_density(mu, sigma, weights, t):
        def h0(x):  # integrated baseline rate -log(1 - Phi(z)), zero at time 0
            return -mp.log(mp.ncdf(-(mp.log(x) - mu) / sigma)) if x > 0 else mp.mpf(0)

        j = max(i for i, b in enumerate(bounds) if b < t)  # t lies in (s_j, s_j+1]
        edges = bounds[: j + 1] + [t]
        cumhaz = mp.fsum(weights[i] * (h0(edges[i + 1]) - h0(edges[i])) for i in range(j + 1))
        z = (mp.log(t) - mu) / sigma
        return weights[j] * mp.npdf(z) / (sigma * t * mp.ncdf(-z)) * mp.exp(-cumhaz)

    def integrand(s, k):
        t = mp.exp(s)
        return t ** (k + 1) * mp.fsum(draw_density(*draw, t) for draw in draws) / len(draws)

    cuts = [-mp.inf] + [mp.log(b) for b in bounds[1:] if b < horizon] + [mp.log(horizon)]
    m0, m1, m2 = (mp.quad(lambda s, k=k: integrand(s, k), cuts) for k in range(3))
    mean = m1 / m0
    return float(mean), float(mp.sqrt(m2 / m0 - mean * mean)), float(m0)


@pytest.mark.parametrize("case", ["constant", "step"])
def test_grid_moments_match_mpmath(case):
    samples = samples_at(params_small(3), n_draws=3, n_chains=1, jitter=0.2, seed=5)
    path = _PATHS[case]
    m = predictive_moments(path, samples, RiskKind.DEFAULT, horizon=300.0)
    with mp.workdps(30):
        mean, sd, mass = _mp_moments(path, samples, RiskKind.DEFAULT, 300.0)
    assert m.mean == pytest.approx(mean, rel=1e-10)
    assert m.sd == pytest.approx(sd, rel=1e-10)
    assert 1.0 - m.tail_mass == pytest.approx(mass, rel=1e-10)


def test_moments_tail_mass_counts_events_past_horizon(spread_samples):
    _, samples = spread_samples
    path = CovariatePath.constant(np.array([1.0, 0.2, 0.0]))
    short = 2.0
    m = predictive_moments(path, samples, RiskKind.DEFAULT, horizon=short)
    expected = float(predictive_reliability(path, samples, RiskKind.DEFAULT,
                                            np.array([short]))[0])
    assert m.tail_mass == pytest.approx(expected, rel=1e-6)
    assert m.horizon == short


def test_observed_quantile_is_reliability_at_event(spread_samples):
    _, samples = spread_samples
    loan = _loan(LoanStatus.PREPAID, 3.7)
    q = observed_quantile(loan, samples)
    rel = float(predictive_reliability(loan.covariates, samples, RiskKind.PREPAY,
                                       np.array([3.7]))[0])
    assert q == pytest.approx(rel, rel=1e-12)


def test_observed_quantile_uses_the_loans_own_risk(spread_samples):
    _, samples = spread_samples
    q_def = observed_quantile(_loan(LoanStatus.DEFAULTED, 3.7), samples)
    q_pre = observed_quantile(_loan(LoanStatus.PREPAID, 3.7), samples)
    assert q_def != q_pre


def test_active_loan_rejected(spread_samples):
    _, samples = spread_samples
    with pytest.raises(ValueError):
        standardized_residual(_loan(LoanStatus.ACTIVE, 5.0), samples)
    with pytest.raises(ValueError):
        observed_quantile(_loan(LoanStatus.ACTIVE, 5.0), samples)


def test_residual_signs_track_early_vs_late(spread_samples):
    _, samples = spread_samples
    early = standardized_residual(_loan(LoanStatus.PREPAID, 0.05), samples)
    late = standardized_residual(_loan(LoanStatus.PREPAID, 200.0), samples)
    assert early < 0
    assert late > 0


def test_loan_diagnostics_interval_brackets_quantiles(spread_samples):
    _, samples = spread_samples
    loan = _loan(LoanStatus.PREPAID, 4.0)
    d = loan_diagnostics(loan, samples, level=0.9)
    assert d.interval_low < d.interval_high
    # interval endpoints sit at reliability 0.95 / 0.05
    lo = float(predictive_reliability(loan.covariates, samples, RiskKind.PREPAY,
                                      np.array([d.interval_low]))[0])
    hi = float(predictive_reliability(loan.covariates, samples, RiskKind.PREPAY,
                                      np.array([d.interval_high]))[0])
    assert lo == pytest.approx(0.95, abs=1e-6)
    assert hi == pytest.approx(0.05, abs=1e-6)
    assert d.in_interval == (d.interval_low <= 4.0 <= d.interval_high)


def test_level_one_interval_always_covers(spread_samples):
    _, samples = spread_samples
    loan = _loan(LoanStatus.DEFAULTED, 9.0)
    d = loan_diagnostics(loan, samples, level=1.0)
    assert d.in_interval


def test_level_zero_interval_almost_never_covers(spread_samples):
    _, samples = spread_samples
    loan = _loan(LoanStatus.DEFAULTED, 9.0)
    d = loan_diagnostics(loan, samples, level=0.0)
    assert d.interval_low == pytest.approx(d.interval_high, rel=1e-6)


def test_bad_level_rejected(spread_samples):
    _, samples = spread_samples
    with pytest.raises(ValueError):
        loan_diagnostics(_loan(LoanStatus.PREPAID, 1.0), samples, level=1.5)


def test_coverage_report_counts_by_category(spread_samples):
    _, samples = spread_samples
    loans = [
        _loan(LoanStatus.PREPAID, 3.0, loan_id="p1"),
        _loan(LoanStatus.PREPAID, 4.0, loan_id="p2"),
        _loan(LoanStatus.DEFAULTED, 9.0, loan_id="d1"),
        _loan(LoanStatus.ACTIVE, 5.0, loan_id="x1"),  # skipped
    ]
    rep = coverage_report(loans, samples, level=0.95)
    assert rep.level == 0.95
    assert rep.prepaid.n_loans == 2
    assert rep.defaulted.n_loans == 1
    assert len(rep.rows) == 3
    assert {r.loan_id for r in rep.rows} == {"p1", "p2", "d1"}
    assert 0.0 <= rep.prepaid.rate <= 1.0


def test_coverage_rate_empty_cell_is_nan(spread_samples):
    _, samples = spread_samples
    rep = coverage_report([_loan(LoanStatus.PREPAID, 3.0)], samples)
    assert rep.defaulted.n_loans == 0
    assert math.isnan(rep.defaulted.rate)


def test_calibrated_data_hits_nominal_coverage(spread_samples):
    # simulate loans from the same parameters the posterior sits on, then
    # check the 90% predictive interval covers roughly 90% of them
    params, samples = spread_samples
    from mortsurv import simulate_loan

    rng = np.random.default_rng(33)
    loans = []
    i = 0
    while len(loans) < 120:
        x = np.array([1.0, float(rng.normal()), float(rng.integers(0, 2))])
        path = CovariatePath.constant(x)
        sim = simulate_loan(params, path, maturity=30.0, rng=rng)
        if sim.status is LoanStatus.ACTIVE:
            continue
        loans.append(LoanObservation(f"L{i}", sim.status, sim.time, path))
        i += 1
    rep = coverage_report(loans, samples, level=0.9)
    total_hits = rep.prepaid.n_hits + rep.defaulted.n_hits
    rate = total_hits / 120
    assert 0.82 <= rate <= 0.98
