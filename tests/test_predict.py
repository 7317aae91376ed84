"""Posterior-predictive curves, event-time sampling, and outcome probabilities."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps
from scipy import stats

from mortsurv import (
    CovariatePath,
    LognormalBaseline,
    RiskKind,
    classify,
    cumulative_hazard,
    invert_survival,
    lognormal_hazard,
    predictive_density,
    predictive_reliability,
    sample_event_time,
)
from mortsurv.diagnostics import _MixtureGrid
from mortsurv.model import PathHazard, _integrated_baseline
from mortsurv.predict import RiskCurves, _exact_partition

from conftest import params_small, samples_at


@pytest.fixture()
def point_samples():
    """Degenerate posterior: every draw identical, so predictive = plug-in."""
    params = params_small(3)
    return params, samples_at(params, n_draws=4, n_chains=2, jitter=0.0)


@pytest.fixture()
def spread_samples():
    params = params_small(3)
    return params, samples_at(params, n_draws=24, n_chains=2, jitter=0.08, seed=4)


def test_reliability_at_point_mass_is_plugin_survival(point_samples, two_interval_path):
    params, samples = point_samples
    times = np.array([0.5, 2.0, 7.5])
    rel = predictive_reliability(two_interval_path, samples, RiskKind.DEFAULT, times)
    for k, t in enumerate(times):
        lam = cumulative_hazard(two_interval_path, params.theta_default,
                                params.baseline_default, float(t))
        assert rel[k] == pytest.approx(math.exp(-lam), rel=1e-12)


def test_reliability_is_mean_over_draws(spread_samples, two_interval_path):
    params, samples = spread_samples
    times = np.array([1.0, 4.0])
    rel = predictive_reliability(two_interval_path, samples, RiskKind.PREPAY, times)
    from mortsurv import LognormalBaseline

    manual = np.zeros_like(times)
    for g in range(samples.n_draws):
        b = LognormalBaseline(float(samples.mu_prepay[g]), float(samples.sigma2_prepay[g]))
        th = samples.theta_prepay[g]
        for k, t in enumerate(times):
            manual[k] += math.exp(-cumulative_hazard(two_interval_path, th, b, float(t)))
    manual /= samples.n_draws
    np.testing.assert_allclose(rel, manual, rtol=1e-12)


def test_density_at_point_mass_is_hazard_times_survival(point_samples):
    params, samples = point_samples
    x = np.array([1.0, 0.4, -0.2])
    path = CovariatePath.constant(x)
    t = 3.0
    dens = predictive_density(path, samples, RiskKind.DEFAULT, np.array([t]))
    eta = float(params.theta_default @ x)
    lam = cumulative_hazard(path, params.theta_default, params.baseline_default, t)
    expected = lognormal_hazard(t, params.baseline_default) * math.exp(eta) * math.exp(-lam)
    assert dens[0] == pytest.approx(expected, rel=1e-12)


def test_density_matches_derivative_of_reliability(spread_samples, two_interval_path):
    params, samples = spread_samples
    t = 2.5
    h = 1e-5
    rel = predictive_reliability(two_interval_path, samples, RiskKind.DEFAULT,
                                 np.array([t - h, t + h]))
    numeric = (rel[0] - rel[1]) / (2 * h)
    dens = predictive_density(two_interval_path, samples, RiskKind.DEFAULT,
                              np.array([t]))
    assert dens[0] == pytest.approx(numeric, rel=1e-6)


def test_reliability_monotone_and_bounded(spread_samples, two_interval_path):
    _, samples = spread_samples
    times = np.linspace(0.05, 40.0, 120)
    rel = predictive_reliability(two_interval_path, samples, RiskKind.DEFAULT, times)
    assert np.all(rel > 0) and np.all(rel <= 1)
    assert np.all(np.diff(rel) <= 0)


def test_curve_inversion_hits_requested_levels(spread_samples, two_interval_path):
    _, samples = spread_samples
    curves = RiskCurves(two_interval_path, samples, RiskKind.PREPAY)
    u = np.array([0.9, 0.5, 0.1, 0.02])
    times, censored = _MixtureGrid(curves, horizon=300.0).quantiles(u)
    assert not censored.any()
    back = curves.reliability(times)
    np.testing.assert_allclose(back, u, rtol=1e-8, atol=1e-10)

    # levels crossed just after each covariate boundary of a step path, where
    # the bracket runs from the boundary to the first node of its panel
    step = _KERNEL_PATHS["step"]
    for risk in RiskKind:
        curves = RiskCurves(step, samples, risk)
        bounds = step.boundaries[1:-1]
        u = curves.reliability(np.concatenate([bounds * (1 + 1e-9), bounds * (1 + 1e-4),
                                               bounds * 1.01]))
        times, censored = _MixtureGrid(curves, horizon=300.0).quantiles(u)
        assert not censored.any()
        np.testing.assert_allclose(curves.reliability(times), u, rtol=0.0, atol=1e-12)


def test_curve_inversion_censors_past_horizon(spread_samples, two_interval_path):
    _, samples = spread_samples
    curves = RiskCurves(two_interval_path, samples, RiskKind.DEFAULT)
    horizon = 300.0
    floor = float(curves.reliability(np.array([horizon]))[0])
    u = np.array([floor / 2.0])  # below the reachable range: event past horizon
    times, censored = _MixtureGrid(curves, horizon).quantiles(u)
    assert censored[0]
    assert times[0] == horizon


def _walk_reference(path, theta, baseline, u):
    """The scalar interval walk: spend each interval's hazard capacity in turn."""
    target = -math.log(u) if u > 0.0 else math.inf
    h0 = _integrated_baseline(path.boundaries, baseline)
    etas = path.values @ theta
    for j in range(path.m):
        weight = math.exp(min(etas[j], 700.0))
        cap = weight * (h0[j + 1] - h0[j])
        if target <= cap:
            z = -sps.ndtri_exp(-(h0[j] + target / weight))
            return float(np.exp(baseline.mu + baseline.sigma * z))
        target -= cap
    raise AssertionError("unreachable")


_KERNEL_PATHS = {
    "constant": CovariatePath.constant(np.array([1.0, 0.4, -0.3])),
    "step": CovariatePath(
        obs_times=np.array([0.8, 2.0, 5.0, 9.0]),
        values=np.array([[1.0, 0.5, -1.2], [1.0, 0.8, 0.3], [1.0, -1.5, 2.0], [1.0, 0.0, 0.1]]),
    ),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_PATHS))
def test_kernel_equals_scalar_walk_element_by_element(name):
    path = _KERNEL_PATHS[name]
    rng = np.random.default_rng(8)
    n = 400
    mu = rng.normal(2.0, 0.8, n)
    sigma = np.sqrt(rng.uniform(0.2, 1.5, n))
    theta = rng.normal(0.0, 1.0, (n, 3))
    theta[::50, 0] = 800.0  # eta > 700: the weight clamp
    u = rng.uniform(size=n)
    u[::37] = 0.0  # the event never happens: +inf
    ref, synth_t, weights = [], [], []
    for i in range(n):
        base = LognormalBaseline(float(mu[i]), float(sigma[i] ** 2))
        ref.append(_walk_reference(path, theta[i], base, float(u[i])))
        synth_t.append(invert_survival(path, theta[i], base, float(u[i])))
        weights.append([math.exp(min(e, 700.0)) for e in path.values @ theta[i]])
    with np.errstate(divide="ignore"):  # sqrt(sigma**2): the sigma the baselines carry
        kernel = PathHazard(path, np.array(weights), mu, np.sqrt(sigma**2)).invert(
            np.arange(n), -np.log(u)
        )
    assert np.array_equal(kernel, ref)
    assert np.array_equal(synth_t, ref)
    assert np.all(np.isinf(kernel[u == 0.0])) and np.all(np.isfinite(kernel[u > 0.0]))


_ROW = st.tuples(
    st.floats(-3.0, 6.0),  # mu
    st.floats(0.05, 3.0),  # sigma
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),  # theta
    st.sampled_from([0.0, 0.0, 800.0, -800.0]),  # added to the intercept: eta > 700, weight 0
    st.floats(-6.0, math.log10(50.0)),  # log10 of the target
)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_KERNEL_PATHS)), rows=st.lists(_ROW, min_size=1, max_size=40))
def test_path_hazard_inverse_and_forward_agree(name, rows):
    path = _KERNEL_PATHS[name]
    mu, sigma, theta, shift, log_target = (np.array(col, dtype=float) for col in zip(*rows))
    theta[:, 0] += shift
    with np.errstate(over="ignore", under="ignore"):
        weights = np.exp(theta @ path.values.T)
    hazard = PathHazard(path, weights, mu, sigma)
    n = mu.size
    target = 10.0**log_target
    t = hazard.invert(np.arange(n), target)
    assert np.all(np.isinf(t[shift < 0.0]))  # no hazard: the event never happens
    ok = np.flatnonzero(np.isfinite(t))
    cumhaz = -hazard.log_survival(t[ok])[ok, np.arange(ok.size)]
    assert np.allclose(cumhaz, target[ok], rtol=1e-10, atol=0.0), (t[ok], cumhaz, target[ok])
    assert np.all(np.isinf(hazard.invert(np.arange(n), np.full(n, np.inf))))


def test_classify_evaluates_the_boundaries_once_per_draw_not_per_simulation(monkeypatch):
    counted = []
    log_ndtr = sps.log_ndtr

    def counting(x, *args, **kwargs):
        counted.append(np.size(x))
        return log_ndtr(x, *args, **kwargs)

    monkeypatch.setattr(sps, "log_ndtr", counting)
    path = CovariatePath(obs_times=np.array([0.8, 2.0, 5.0]),
                         values=np.array([[1.0, 0.5, -1.2], [1.0, 0.8, 0.3], [1.0, -1.5, 2.0]]))
    samples = samples_at(params_small(3), n_draws=20, n_chains=2, jitter=0.1, seed=2)
    evaluated = []
    for n_sims in (100, 10_000):
        counted.clear()
        classify(path, samples, 30.0, n_sims, np.random.default_rng(1))
        evaluated.append(sum(counted))
    assert evaluated[0] == evaluated[1] > 0


def test_event_times_cap_at_horizon_and_match_kernel(spread_samples, two_interval_path):
    _, samples = spread_samples
    clamped = samples.theta_default.copy()
    clamped[3, 0] = 800.0  # eta > 700
    g = np.arange(samples.n_draws)
    u = np.linspace(0.0, 0.98, g.size)
    horizon = 40.0
    for theta in (samples.theta_default, clamped):
        curves = RiskCurves(two_interval_path, replace(samples, theta_default=theta), RiskKind.DEFAULT)
        times, censored = curves.event_times(g, u, horizon)
        for i in g:
            base = LognormalBaseline(float(samples.mu_default[i]), float(samples.sigma2_default[i]))
            ref = _walk_reference(two_interval_path, theta[i], base, float(u[i]))
            assert censored[i] == (ref > horizon)
            assert times[i] == pytest.approx(min(ref, horizon), rel=1e-12)
        assert censored[0] and times[0] == horizon  # u = 0: +inf, then capped


def test_sampled_times_pass_ks_against_reliability_on_step_path():
    params = params_small(3)
    samples = samples_at(params, n_draws=30, n_chains=2, jitter=0.3, seed=9)
    path = _KERNEL_PATHS["step"]
    curves = RiskCurves(path, samples, RiskKind.PREPAY)
    horizon = 1e6
    times, censored = curves.sample(np.random.default_rng(17), 4000, horizon)
    assert not censored.any()
    ks = stats.kstest(times, lambda t: 1.0 - curves.reliability(t))
    assert ks.pvalue > 0.01
    # the mixture, not one draw: the plug-in law at the central parameters is rejected
    plug = RiskCurves(path, samples_at(params, n_draws=2, n_chains=2), RiskKind.PREPAY)
    assert stats.kstest(times, lambda t: 1.0 - plug.reliability(t)).pvalue < 0.01


def test_sample_event_time_reproducible(spread_samples, two_interval_path):
    _, samples = spread_samples
    d1 = sample_event_time(two_interval_path, samples, RiskKind.PREPAY,
                           np.random.default_rng(11))
    d2 = sample_event_time(two_interval_path, samples, RiskKind.PREPAY,
                           np.random.default_rng(11))
    assert d1.time == d2.time
    assert d1.censored == d2.censored
    assert d1.time > 0


def test_sampled_times_match_predictive_distribution(spread_samples):
    # empirical survival of sampled times should track the curve itself
    _, samples = spread_samples
    path = CovariatePath.constant(np.array([1.0, 0.2, 0.5]))
    rng = np.random.default_rng(12)
    draws = np.array([
        sample_event_time(path, samples, RiskKind.PREPAY, rng).time
        for _ in range(800)
    ])
    for t in [1.0, 3.0, 8.0]:
        model = float(predictive_reliability(path, samples, RiskKind.PREPAY,
                                             np.array([t]))[0])
        empirical = float(np.mean(draws > t))
        assert empirical == pytest.approx(model, abs=4 * math.sqrt(model * (1 - model) / 800))


def test_exact_partition_sums_to_one_exhaustively():
    for n in [1, 2, 3, 7, 100]:
        for nd in range(n + 1):
            for npre in range(n + 1 - nd):
                pd_, pp, pm = _exact_partition(nd, npre, n)
                assert pd_ + pp + pm == 1.0
                assert pd_ >= 0 and pp >= 0 and pm >= 0


def test_classify_probabilities_and_counts(point_samples):
    params, samples = point_samples
    path = CovariatePath.constant(np.array([1.0, 0.0, 1.0]))
    res = classify(path, samples, maturity=30.0, n_sims=400,
                   rng=np.random.default_rng(21))
    assert res.n_sims == 400
    assert res.n_default + res.n_prepay + res.n_mature == 400
    assert res.p_default + res.p_prepay + res.p_mature == 1.0
    assert res.p_default == res.n_default / 400
    assert res.horizon == 300.0
    # with these baselines nearly every loan terminates long before year 30
    assert res.p_mature < 0.05


def test_classify_reproducible(point_samples):
    _, samples = point_samples
    path = CovariatePath.constant(np.array([1.0, -0.3, 0.0]))
    r1 = classify(path, samples, 30.0, 200, np.random.default_rng(5))
    r2 = classify(path, samples, 30.0, 200, np.random.default_rng(5))
    assert r1 == r2


def test_classify_tiny_maturity_is_all_mature(point_samples):
    _, samples = point_samples
    path = CovariatePath.constant(np.array([1.0, 0.0, 0.0]))
    res = classify(path, samples, maturity=1e-9, n_sims=50,
                   rng=np.random.default_rng(6))
    assert (res.p_default, res.p_prepay, res.p_mature) == (0.0, 0.0, 1.0)


def test_classify_agrees_with_latent_race_on_point_mass(point_samples):
    # at a point-mass posterior, classification probabilities should match
    # directly simulating the two-risk race with the true parameters
    params, samples = point_samples
    path = CovariatePath.constant(np.array([1.0, 0.5, 0.0]))
    res = classify(path, samples, maturity=30.0, n_sims=4000,
                   rng=np.random.default_rng(7))
    from mortsurv import simulate_loan, LoanStatus

    rng = np.random.default_rng(1234)
    wins = sum(
        simulate_loan(params, path, 30.0, rng).status is LoanStatus.DEFAULTED
        for _ in range(4000)
    )
    se = math.sqrt(res.p_default * (1 - res.p_default) / 4000) * 3
    assert wins / 4000 == pytest.approx(res.p_default, abs=max(3 * se, 0.03))


def test_risk_curves_validates_shapes(point_samples):
    _, samples = point_samples
    bad_path = CovariatePath.constant(np.array([1.0, 2.0]))  # p=2, samples have 3
    with pytest.raises(ValueError):
        RiskCurves(bad_path, samples, RiskKind.DEFAULT)


def test_times_must_be_positive(point_samples, two_interval_path):
    _, samples = point_samples
    with pytest.raises(ValueError):
        predictive_reliability(two_interval_path, samples, RiskKind.DEFAULT,
                               np.array([0.0, 1.0]))


def _parent_reliability(curves, times):
    """``RiskCurves.reliability`` as it was before ``curves`` existed."""
    return np.exp(curves.hazard.log_survival(times)).mean(axis=0)


def _parent_density(curves, times):
    """The deleted ``RiskCurves.density``, kept as the reference for ``curves``."""
    logt = np.log(times)[None, :]
    z = (logt - curves.hazard.mu) / curves.hazard.sigma
    h0 = -sps.log_ndtr(-z)
    log_pdf = -0.5 * np.log(2.0 * math.pi * curves.hazard.sigma**2) - logt - 0.5 * z * z
    eta_at_t = curves._etas[:, np.searchsorted(curves.path.boundaries, times, side="left") - 1]
    with np.errstate(over="ignore"):
        return np.exp(log_pdf + h0 + eta_at_t + curves.hazard.log_survival(times, h0)).mean(axis=0)


# the step path's grid also hits each covariate boundary
_STEP_GRID = np.concatenate([np.linspace(0.1, 12.0, 119), [0.8, 2.0, 5.0, 9.0]])
_CURVE_CASES = {
    "constant": (_KERNEL_PATHS["constant"], np.linspace(0.25, 30.0, 120), None),
    "step": (_KERNEL_PATHS["step"], _STEP_GRID, None),
    "eta>700": (_KERNEL_PATHS["step"], _STEP_GRID, 800.0),
    "underflow": (_KERNEL_PATHS["step"], np.geomspace(1e-20, 1e60, 160), None),
}


@pytest.mark.parametrize("case", list(_CURVE_CASES))
def test_curves_bitwise_equal_parent_formulas(case):
    path, times, clamp = _CURVE_CASES[case]
    samples = samples_at(params_small(3), n_draws=40, n_chains=2, jitter=0.3, seed=5)
    if clamp is not None:
        for theta in (samples.theta_default, samples.theta_prepay):
            theta[::7, 0] = clamp  # inf weights on some draws
    other = CovariatePath.constant(np.array([1.0, 1.7, -0.4]))  # another loan, same grid
    for risk in RiskKind:
        curves = RiskCurves(path, samples, risk)
        rel, dens = _parent_reliability(curves, times), _parent_density(curves, times)
        if case == "underflow":
            assert rel[0] == 1.0 and rel[-1] == 0.0 and dens[0] == 0.0 and dens[-1] == 0.0
        shared = RiskCurves(other, samples, risk).baseline(times)
        for got in (curves.curves(times), curves.curves(times, shared)):
            assert np.array_equal(got[0], rel)
            assert np.array_equal(got[1], dens)
        assert np.array_equal(curves.reliability(times), rel)


def test_curves_rejects_baseline_of_another_grid(spread_samples, two_interval_path):
    _, samples = spread_samples
    curves = RiskCurves(two_interval_path, samples, RiskKind.DEFAULT)
    with pytest.raises(ValueError, match="baseline has shape"):
        curves.curves(np.array([1.0, 2.0, 3.0]), curves.baseline(np.array([1.0, 2.0])))


def _exact_outcome_law(path, samples, maturity):
    """(p_default, p_prepay, p_mature) of the race ``classify`` simulates.

    The two latent times are independent, so p_mature = R_d(m) R_p(m) and
    p_default is the integral over (0, m] of f_d R_p, here by 8-point
    Gauss-Legendre on 64 panels per covariate interval.
    """
    d = RiskCurves(path, samples, RiskKind.DEFAULT)
    p = RiskCurves(path, samples, RiskKind.PREPAY)
    p_mature = float(d.reliability([maturity])[0] * p.reliability([maturity])[0])
    inner = [b for b in path.boundaries[1:-1] if b < maturity]
    edges = np.concatenate([np.linspace(a, b, 65) for a, b in
                            zip([0.0, *inner], [*inner, maturity])])
    lo, hi = edges[:-1][np.diff(edges) > 0], edges[1:][np.diff(edges) > 0]
    x, w = np.polynomial.legendre.leggauss(8)
    half = (hi - lo)[:, None] / 2.0
    t = ((lo + hi)[:, None] / 2.0 + half * x).ravel()
    p_default = float(np.sum((half * w).ravel() * d.curves(t)[1] * p.curves(t)[0]))
    return p_default, 1.0 - p_default - p_mature, p_mature


_LAW_PATHS = {
    "constant": CovariatePath.constant(np.array([1.0, -0.6, -0.8])),
    "step": CovariatePath(
        obs_times=np.array([0.8, 2.0, 5.0, 9.0]),
        values=np.array(
            [[1.0, -0.5, -1.2], [1.0, -0.8, -0.3], [1.0, -1.5, -1.0], [1.0, 0.0, -1.1]]
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_LAW_PATHS))
def test_classify_matches_exact_outcome_law(name):
    # draws whose default and prepay baselines move together: the law
    # classify samples pairs them independently, so a draw index shared by
    # the two risks would show as far too many maturities
    base = samples_at(params_small(3), n_draws=8, n_chains=2)
    shift = np.tile([-0.8, 0.8], 4)
    samples = replace(base, mu_default=base.mu_default + shift, mu_prepay=base.mu_prepay + shift)
    path, maturity, n = _LAW_PATHS[name], 30.0, 200_000
    exact = np.array(_exact_outcome_law(path, samples, maturity))
    assert 0.003 < exact[2] < 0.05  # a rare outcome, as in the benchmark's pooled check
    res = classify(path, samples, maturity, n, np.random.default_rng(3))
    counts = np.array([res.n_default, res.n_prepay, res.n_mature])
    assert np.all(np.abs(counts - n * exact) <= 5.0 * np.sqrt(n * exact * (1.0 - exact)))
