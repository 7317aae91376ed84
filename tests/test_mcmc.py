"""Sampler correctness: kernel stationarity on the prior, determinism,
convergence diagnostics, and summary construction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from mortsurv import (
    Dataset,
    InitializationError,
    PortfolioLikelihood,
    PriorSpec,
    RiskKind,
    SamplerConfig,
    log_posterior,
    run_chain,
    run_sampler,
    split_rhat,
    effective_sample_size,
    summarize,
)
from mortsurv.mcmc import ChainState, update_mu, update_sigma2, update_theta

from conftest import params_small, samples_at


def _empty_like(p=2):
    ds = Dataset(loans=(), schema=tuple(f"c{j}" for j in range(p)))
    return PortfolioLikelihood(ds)


def _start_state(like, mu=0.0, sigma2=1.0):
    from mortsurv import LognormalBaseline, ModelParams

    p = like.dataset.p
    params = ModelParams(
        baseline_default=LognormalBaseline(mu, sigma2),
        baseline_prepay=LognormalBaseline(mu, sigma2),
        theta_default=np.zeros(p),
        theta_prepay=np.zeros(p),
    )
    return ChainState.from_params(like, params)


# --- kernel stationarity: with no data the chain must sample the prior -------


def test_mu_kernel_samples_its_prior():
    like = _empty_like()
    prior = PriorSpec(mu_sd=3.0)
    rng = np.random.default_rng(101)
    state = _start_state(like)
    draws = np.empty(4000)
    for i in range(draws.size):
        state, _ = update_mu(state, RiskKind.DEFAULT, like, prior, 3.0, rng)
        draws[i] = state.default.mu
    # thin to kill autocorrelation before the KS test
    ks = stats.kstest(draws[::8], stats.norm(0.0, 3.0).cdf)
    assert ks.pvalue > 0.01


def test_sigma2_kernel_samples_inverse_gamma_prior():
    like = _empty_like()
    prior = PriorSpec(sigma2_shape=5.0, sigma2_rate=8.0)
    rng = np.random.default_rng(7)
    state = _start_state(like, sigma2=2.0)
    draws = np.empty(6000)
    for i in range(draws.size):
        state, _ = update_sigma2(state, RiskKind.PREPAY, like, prior, 0.5, rng)
        draws[i] = state.prepay.sigma2
    ks = stats.kstest(draws[::10], stats.invgamma(a=5.0, scale=8.0).cdf)
    assert ks.pvalue > 0.01


def test_theta_kernel_samples_its_prior_marginal():
    like = _empty_like(p=2)
    prior = PriorSpec(theta_sd=2.0)
    rng = np.random.default_rng(17)
    state = _start_state(like)
    draws = np.empty((3000, 2))
    for i in range(draws.shape[0]):
        state, _ = update_theta(state, RiskKind.DEFAULT, like, prior, 1.5, rng)
        draws[i] = state.default.theta
    ks0 = stats.kstest(draws[::8, 0], stats.norm(0.0, 2.0).cdf)
    ks1 = stats.kstest(draws[::8, 1], stats.norm(0.0, 2.0).cdf)
    assert ks0.pvalue > 0.01
    assert ks1.pvalue > 0.01


def test_tiny_steps_accept_huge_steps_reject():
    like = _empty_like()
    prior = PriorSpec(mu_sd=1.0)
    rng = np.random.default_rng(3)
    state = _start_state(like)
    acc_tiny = sum(update_mu(state, RiskKind.DEFAULT, like, prior, 1e-8, rng)[1]
                   for _ in range(200))
    acc_huge = 0
    for _ in range(200):
        state, ok = update_mu(state, RiskKind.DEFAULT, like, prior, 1e6, rng)
        acc_huge += ok
    assert acc_tiny == 200
    assert acc_huge < 20


def test_sigma2_updates_stay_positive():
    like = _empty_like()
    prior = PriorSpec()
    rng = np.random.default_rng(9)
    state = _start_state(like, sigma2=0.01)
    for _ in range(500):
        state, _ = update_sigma2(state, RiskKind.DEFAULT, like, prior, 0.2, rng)
        assert state.default.sigma2 > 0


# --- full chains --------------------------------------------------------------


def test_run_chain_reproducible_and_chain_id_distinct(bench_small):
    dataset, _ = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=2, n_iters=200, burn_in=100, thin=2, seed=42)
    like = PortfolioLikelihood(dataset)
    a = run_chain(like, prior, config, chain_id=0)
    b = run_chain(like, prior, config, chain_id=0)
    c = run_chain(like, prior, config, chain_id=1)
    assert a.draws.shape == (config.n_kept, 4 + 2 * dataset.p)
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.iterations, b.iterations)
    assert not np.array_equal(a.draws[:, 0], c.draws[:, 0])


def test_run_sampler_stacks_chains_in_order(bench_small):
    dataset, _ = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=3, n_iters=120, burn_in=60, thin=2, seed=5)
    s = run_sampler(dataset, prior, config)
    chains = [run_chain(PortfolioLikelihood(dataset), prior, config, c) for c in range(3)]
    expected = np.vstack([r.draws for r in chains])
    assert s.matrix().tobytes() == expected.tobytes()
    p = dataset.p
    for j, name in enumerate(("mu_default", "sigma2_default", "mu_prepay", "sigma2_prepay")):
        assert getattr(s, name).tobytes() == expected[:, j].tobytes()
    assert s.theta_default.tobytes() == expected[:, 4 : 4 + p].tobytes()
    assert s.theta_prepay.tobytes() == expected[:, 4 + p :].tobytes()
    np.testing.assert_array_equal(s.chain, np.repeat([0, 1, 2], config.n_kept))
    np.testing.assert_array_equal(s.iteration, np.concatenate([r.iterations for r in chains]))
    for block, rates in s.acceptance.items():
        assert rates.tolist() == [r.acceptance[block] for r in chains]


def test_run_sampler_shapes_and_labels(bench_small):
    dataset, _ = bench_small
    config = SamplerConfig(n_chains=2, n_iters=100, burn_in=60, thin=4, seed=1)
    s = run_sampler(dataset, config=config)
    kept = (100 - 60) // 4
    assert s.n_draws == 2 * kept
    assert s.theta_default.shape == (2 * kept, dataset.p)
    assert set(np.unique(s.chain)) == {0, 1}
    assert s.schema == dataset.schema
    assert set(s.acceptance) == {
        "theta_default", "theta_prepay", "mu_default",
        "mu_prepay", "sigma2_default", "sigma2_prepay",
    }
    assert all(a.shape == (2,) for a in s.acceptance.values())


def test_chain_moves_toward_higher_posterior_than_start(bench_small):
    dataset, truth = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=1, n_iters=800, burn_in=400, thin=4, seed=2)
    s = run_sampler(dataset, config=config)
    lp_end = log_posterior(dataset, s.params_at(s.n_draws - 1), prior)
    from mortsurv import LognormalBaseline, ModelParams

    start = ModelParams(
        baseline_default=LognormalBaseline(0.0, 1.0),
        baseline_prepay=LognormalBaseline(0.0, 1.0),
        theta_default=np.zeros(dataset.p),
        theta_prepay=np.zeros(dataset.p),
    )
    assert lp_end > log_posterior(dataset, start, prior)


def test_adaptation_moves_acceptance_toward_targets(bench_small):
    # per-chain rates wobble (short chains, multiplicative sigma2 kernel), so
    # check the across-chain mean per block against its tuning target
    dataset, _ = bench_small
    config = SamplerConfig(n_chains=2, n_iters=3000, burn_in=1500, thin=5, seed=8)
    s = run_sampler(dataset, config=config)
    for block, rates in s.acceptance.items():
        target = 0.25 if block.startswith("theta") else 0.4
        assert abs(float(np.mean(rates)) - target) < 0.12, (block, rates)


def test_initialization_error_is_a_value_error():
    assert issubclass(InitializationError, ValueError)


# --- convergence diagnostics ---------------------------------------------------


def test_split_rhat_near_one_for_iid_chains():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 2000))
    r = split_rhat(chains)
    assert 0.99 < r < 1.02


def test_split_rhat_flags_disagreeing_chains():
    rng = np.random.default_rng(1)
    chains = rng.standard_normal((4, 500))
    chains[0] += 5.0
    assert split_rhat(chains) > 1.5


def test_split_rhat_flags_trending_single_chain():
    # the split detects a trend even when only one chain is supplied
    chains = np.linspace(0.0, 1.0, 1000)[None, :]
    assert split_rhat(chains) > 1.5


def test_ess_close_to_n_for_iid():
    rng = np.random.default_rng(2)
    chains = rng.standard_normal((4, 1500))
    ess = effective_sample_size(chains)
    assert 0.7 * 6000 < ess <= 6000 * 1.05


def test_ess_shrinks_for_autocorrelated_chains():
    rng = np.random.default_rng(3)
    rho = 0.9
    n = 4000
    chains = np.empty((2, n))
    for c in range(2):
        e = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + math.sqrt(1 - rho**2) * e[i]
        chains[c] = x
    ess = effective_sample_size(chains)
    expected = 2 * n * (1 - rho) / (1 + rho)  # AR(1) asymptotic ESS
    assert 0.5 * expected < ess < 2.0 * expected


def test_degenerate_chains_signal_nan_not_fake_numbers():
    # constant draws carry no mixing information; both diagnostics say so
    chains = np.ones((2, 100))
    assert math.isnan(effective_sample_size(chains))
    assert math.isnan(split_rhat(chains))


# --- summaries -----------------------------------------------------------------


def test_summarize_names_and_order():
    params = params_small(3)
    samples = samples_at(params, n_draws=40, n_chains=2, jitter=0.05,
                         schema=("intercept", "x1", "ind"))
    rows = summarize(samples)
    names = [r.name for r in rows]
    assert names == [
        "mu_default", "sigma2_default", "mu_prepay", "sigma2_prepay",
        "theta_default:intercept", "theta_default:x1", "theta_default:ind",
        "theta_prepay:intercept", "theta_prepay:x1", "theta_prepay:ind",
    ]
    mu = rows[0]
    assert mu.mean == pytest.approx(2.817, abs=0.1)
    assert mu.q2_5 <= mu.median <= mu.q97_5
    assert mu.mcse == pytest.approx(mu.sd / math.sqrt(mu.ess), rel=1e-12)


def test_summarize_single_chain_has_nan_rhat():
    params = params_small(2)
    samples = samples_at(params, n_draws=20, n_chains=1, jitter=0.05)
    rows = summarize(samples)
    assert all(math.isnan(r.rhat) for r in rows)
    assert all(r.ess > 0 for r in rows)


def test_params_at_roundtrip():
    params = params_small(3)
    samples = samples_at(params, n_draws=6, n_chains=2, jitter=0.0)
    got = samples.params_at(0)
    np.testing.assert_array_equal(got.theta_default, params.theta_default)
    assert got.baseline_prepay.mu == params.baseline_prepay.mu


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_iters=10, burn_in=20)
    with pytest.raises(ValueError):
        SamplerConfig(thin=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_chains=0)
