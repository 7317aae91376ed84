"""Sampler correctness: kernel stationarity on the prior, determinism,
convergence diagnostics, and summary construction."""

from __future__ import annotations

import math
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mortsurv import (
    BenchmarkConfig,
    CovariatePath,
    Dataset,
    InitializationError,
    PortfolioLikelihood,
    PosteriorSamples,
    PriorSpec,
    RiskKind,
    SamplerConfig,
    make_benchmark,
    run_chain,
    run_sampler,
    split_rhat,
    effective_sample_size,
    summarize,
    total_loglik,
)
from mortsurv import likelihood, mcmc
from mortsurv.mcmc import (
    PROPOSAL_DF,
    PROPOSAL_SCALE,
    Coordinates,
    coordinates,
    laplace_block,
)

from conftest import params_small, samples_at


def _empty_book(p=2):
    return Dataset(loans=(), schema=tuple(f"c{j}" for j in range(p)))


def _prior_chains(prior, p=2, n_chains=2, n_iters=3000, seed=0):
    """Kept draws of the kernel on an empty book, whose posterior is the prior."""
    config = SamplerConfig(n_chains=n_chains, n_iters=n_iters, burn_in=100, thin=1, seed=seed)
    return run_sampler(_empty_book(p), prior, config)


# --- kernel stationarity: with no data the chain must sample the prior -------


def test_mu_kernel_samples_its_prior():
    s = _prior_chains(PriorSpec(mu_sd=3.0), seed=101)
    # thin to kill autocorrelation before the KS test
    ks = stats.kstest(s.mu_default[::4], stats.norm(0.0, 3.0).cdf)
    assert ks.pvalue > 0.01


def test_sigma2_kernel_samples_inverse_gamma_prior():
    s = _prior_chains(PriorSpec(sigma2_shape=5.0, sigma2_rate=8.0), seed=7)
    ks = stats.kstest(s.sigma2_prepay[::4], stats.invgamma(a=5.0, scale=8.0).cdf)
    assert ks.pvalue > 0.01


def test_theta_kernel_samples_its_prior_marginal():
    s = _prior_chains(PriorSpec(theta_sd=2.0), seed=17)
    ks0 = stats.kstest(s.theta_default[::4, 0], stats.norm(0.0, 2.0).cdf)
    ks1 = stats.kstest(s.theta_default[::4, 1], stats.norm(0.0, 2.0).cdf)
    assert ks0.pvalue > 0.01
    assert ks1.pvalue > 0.01


def test_sigma2_updates_stay_positive():
    # the default InverseGamma(2, 2) has a heavy right tail and proposals
    # in log sigma2 reach far into both tails
    s = _prior_chains(PriorSpec(), n_iters=1000, seed=9)
    for col in (s.sigma2_default, s.sigma2_prepay):
        assert np.all(np.isfinite(col)) and np.all(col > 0.0)


def test_empty_book_kernel_reproduces_prior_moments():
    prior = PriorSpec(theta_sd=2.0, mu_sd=3.0, sigma2_shape=20.0, sigma2_rate=38.0)
    s = _prior_chains(prior, p=3, n_chains=4, n_iters=4000, seed=5)
    want = {"mu": (0.0, 9.0), "sigma2": (2.0, 38.0**2 / (19.0**2 * 18.0)), "theta": (0.0, 4.0)}
    x = s.matrix()
    for j, row in enumerate(summarize(s)):
        mean, var = want[row.name.split("_")[0]]
        assert abs(row.mean - mean) < 4.0 * row.mcse, row
        assert float(np.var(x[:, j])) == pytest.approx(var, rel=0.12), row
        assert row.rhat < 1.02, row
    # both risks use plain coordinates on an empty book
    like = PortfolioLikelihood(_empty_book(3))
    assert all(coordinates(like, risk).intercept is None for risk in RiskKind)


@pytest.mark.parametrize("prior", [
    PriorSpec(),
    PriorSpec(0.5, 3.0, 0.1, 1e-6),
    PriorSpec(1e4, 1e-2, 40.0, 1e3),
], ids=["default", "tight-theta", "wide-theta"])
def test_prior_log_density_is_normalized(prior):
    params = params_small(4)
    want = 0.0
    for risk in RiskKind:
        b = params.baseline(risk)
        want += np.sum(stats.norm.logpdf(params.theta(risk), scale=prior.theta_sd))
        want += stats.norm.logpdf(b.mu, scale=prior.mu_sd)
        want += stats.invgamma(a=prior.sigma2_shape, scale=prior.sigma2_rate).logpdf(b.sigma2)
    assert prior.log_density(params) == pytest.approx(want, rel=1e-12)


# --- coordinates ----------------------------------------------------------------


COORDS = {"plain": Coordinates(3), "reparameterised": Coordinates(3, intercept=1, m=1.7)}


def _to_constrained(coords, u):
    """(theta, mu, sigma2), the parameters the prior is stated on."""
    theta, mu, l = coords.to_model(u)
    return np.concatenate((theta, (mu, math.exp(l))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(COORDS)),
       st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_coordinate_map_round_trips(name, u):
    coords = COORDS[name]
    u = np.asarray(u)
    theta, mu, l = coords.to_model(u)
    np.testing.assert_allclose(coords.from_model(theta, mu, l), u, rtol=1e-12, atol=1e-12)


def _differences(f, u, h=1e-6):
    """Central differences of a vector function, one column per coordinate of u."""
    return np.column_stack([(f(u + e) - f(u - e)) / (2.0 * h) for e in h * np.eye(u.size)])


@pytest.mark.parametrize("name", sorted(COORDS))
@pytest.mark.parametrize("l", [-1.3, 0.0, 0.8])
def test_log_jacobian_matches_numerical_determinant(name, l):
    coords = COORDS[name]
    u = np.array([0.4, -0.9, 0.25, 0.6, l])
    _, logdet = np.linalg.slogdet(_differences(lambda w: _to_constrained(coords, w), u))
    want = 2.0 * l if name == "reparameterised" else l
    assert float(coords.log_jacobian(u)) == pytest.approx(want, abs=1e-15)
    assert logdet == pytest.approx(want, abs=1e-8)
    # the derivative of to_model, which carries the Hessian from the model
    # values to u
    jac = _differences(lambda w: np.hstack(coords.to_model(w)), u)
    np.testing.assert_allclose(coords.jacobian(u), jac, rtol=1e-8, atol=1e-9)


# --- the Laplace fit --------------------------------------------------------------


def test_laplace_fit_stops_at_a_stationary_point(bench_small):
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    prior = PriorSpec()
    for risk in RiskKind:
        block = laplace_block(like, prior, risk)
        assert block.coords.intercept == 0
        assert block.coords.m == pytest.approx(np.mean(np.log(like.event_times(risk))))
        f = _log_target_in_u(like, prior, risk, block.coords)
        # differences along the columns of the root R, h posterior sd long:
        # the gradient and Hessian of f(mode + R v) in v at 0, which are R'g
        # and R'HR, and should be 0 and -I when chol chol' = -H at the mode
        h = 1e-3
        steps = h * block.root.T
        grad = np.array([f(block.mode + e) - f(block.mode - e) for e in steps]) / (2.0 * h)
        hess = np.array([[f(block.mode + e + g) - f(block.mode + e - g)
                          - f(block.mode - e + g) + f(block.mode - e - g) for g in steps]
                         for e in steps]) / (4.0 * h * h)
        # the squared Newton decrement: the mode is within 0.01 standard deviations
        assert float(grad @ grad) < 1e-4
        # J'HJ leaves out the gradient times the curvature of to_model, a
        # term of the order of that distance
        np.testing.assert_allclose(-hess, np.eye(grad.size), atol=0.03)


def _log_target_in_u(like, prior, risk, coords):
    """One risk's log posterior density in the sampling coordinates u, up
    to a constant."""
    def f(u):
        theta, mu, l = coords.to_model(u)
        row = np.concatenate(((mu, math.exp(l)), theta))
        log_prior = float(prior.risk_log_density(theta, mu, l) + coords.log_jacobian(u))
        return like.risk_logliks(risk, row[None])[0] + log_prior

    return f


def test_target_where_exp_of_minus_l_overflows_is_minus_inf(bench_small):
    # at l = -720, exp(l) is a positive subnormal, so sigma2 passes as
    # positive, while the prior's exp(-l) overflows
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    x = np.concatenate((np.zeros(dataset.p), (2.0, -720.0)))
    for risk in RiskKind:
        value, grad, _ = mcmc._log_target(like, PriorSpec(), risk, 2.0, x)
        assert value == -math.inf
        assert np.all(np.isnan(grad))


def test_mode_search_start_not_finite_names_the_risk(bench_small, monkeypatch):
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)

    def broken(self, risk, row):
        return math.nan, np.zeros(row.size), -np.eye(row.size)

    monkeypatch.setattr(PortfolioLikelihood, "risk_loglik_derivs", broken)
    with pytest.raises(InitializationError, match="default risk: the log posterior is not finite"):
        laplace_block(like, PriorSpec(), RiskKind.DEFAULT)


def test_hessian_not_negative_definite_names_the_risk(bench_small, monkeypatch):
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    derivs = PortfolioLikelihood.risk_loglik_derivs

    def convex(self, risk, row):
        value, grad, _ = derivs(self, risk, row)
        return value, grad, np.eye(grad.size) * 1e6

    monkeypatch.setattr(PortfolioLikelihood, "risk_loglik_derivs", convex)
    with pytest.raises(InitializationError, match="prepay risk: the Hessian"):
        laplace_block(like, PriorSpec(), RiskKind.PREPAY)


def test_independence_proposal_density_is_the_multivariate_t(bench_small):
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    block = laplace_block(like, PriorSpec(), RiskKind.PREPAY)
    u = block.independent(np.random.default_rng(4), 6)
    _, _, log_q = block.evaluate(u, PriorSpec())
    root = PROPOSAL_SCALE * block.root
    want = stats.multivariate_t(loc=block.mode, shape=root @ root.T, df=PROPOSAL_DF).logpdf(u)
    np.testing.assert_allclose(log_q - log_q[0], want - want[0], rtol=1e-9, atol=1e-9)


def test_covariate_in_raw_units_gets_the_rescaled_laplace_fit(bench_small):
    # x1 in units 1e5 times smaller: the Newton search is unit-free, so the
    # fit is the standardized one rescaled
    dataset, _ = bench_small
    scale = np.array([1.0, 1e5, 1.0, 1.0])
    loans = tuple(
        replace(loan, covariates=CovariatePath(loan.covariates.obs_times,
                                               loan.covariates.values * scale))
        for loan in dataset.loans
    )
    raw = PortfolioLikelihood(replace(dataset, loans=loans))
    like = PortfolioLikelihood(dataset)
    prior = PriorSpec(theta_sd=1e6)  # nearly flat, so rescaling leaves the posterior alone
    unscale = np.concatenate((1.0 / scale, (1.0, 1.0)))
    for risk in RiskKind:
        want, got = laplace_block(like, prior, risk), laplace_block(raw, prior, risk)
        sd = np.sqrt(np.diag(want.root @ want.root.T)) * unscale
        # both searches stop within about 0.01 posterior sd of the mode
        assert np.all(np.abs(got.mode - want.mode * unscale) < 0.05 * sd)
        np.testing.assert_allclose(np.sqrt(np.diag(got.root @ got.root.T)), sd, rtol=0.02)


def test_reparameterised_and_plain_kernels_sample_one_posterior(monkeypatch):
    # the two coordinate systems must target the same posterior; with the
    # log-Jacobian l in place of 2l the reparameterised means of mu, sigma2
    # and the intercept move by 5 to 8 standard errors
    params = params_small(2)
    dataset, _ = make_benchmark(BenchmarkConfig(n_loans=400, true_params=params,
                                                n_covariates=1, seed=3))
    like = PortfolioLikelihood(dataset)
    prior = PriorSpec(theta_sd=2.0, mu_sd=2.0, sigma2_shape=4.0, sigma2_rate=3.0)
    config = SamplerConfig(n_chains=4, n_iters=3000, burn_in=200, thin=1, seed=11)
    risk = RiskKind.DEFAULT
    assert like.n_events(risk) == 32
    other = laplace_block(like, prior, RiskKind.PREPAY)
    rows = {}
    for plain in (True, False):
        if plain:
            monkeypatch.setattr(mcmc, "coordinates", lambda like, risk: Coordinates(like.dataset.p))
        else:
            monkeypatch.undo()
        block = laplace_block(like, prior, risk)
        samples = run_chain(like, prior, config, range(4), (block, other))
        rows[block.coords.intercept] = {r.name: r for r in summarize(samples)}
    assert set(rows) == {None, 0}  # plain, and reparameterised on the intercept
    for name in ("mu_default", "sigma2_default", "theta_default:intercept"):
        a, b = rows[None][name], rows[0][name]
        assert abs(a.mean - b.mean) < 4.0 * math.hypot(a.mcse, b.mcse), (a, b)


# --- full chains --------------------------------------------------------------


def test_run_chain_reproducible_and_chain_id_distinct(bench_small):
    dataset, _ = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=2, n_iters=200, burn_in=100, thin=2, seed=42)
    like = PortfolioLikelihood(dataset)
    a = run_chain(like, prior, config, [0])
    b = run_chain(like, prior, config, [0])
    c = run_chain(like, prior, config, [1])
    assert a.matrix().shape == (config.n_kept, 4 + 2 * dataset.p)
    np.testing.assert_array_equal(a.matrix(), b.matrix())
    np.testing.assert_array_equal(a.iteration, b.iteration)
    assert not np.array_equal(a.mu_default, c.mu_default)
    assert a.chain.tolist() == [0] * config.n_kept
    assert c.chain.tolist() == [1] * config.n_kept


def test_run_sampler_stacks_chains_in_order(bench_small):
    dataset, _ = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=3, n_iters=120, burn_in=60, thin=2, seed=5)
    s = run_sampler(dataset, prior, config)
    chains = [run_chain(PortfolioLikelihood(dataset), prior, config, [c]) for c in range(3)]
    expected = np.vstack([r.matrix() for r in chains])
    assert s.matrix().tobytes() == expected.tobytes()
    p = dataset.p
    for j, name in enumerate(("mu_default", "sigma2_default", "mu_prepay", "sigma2_prepay")):
        assert getattr(s, name).tobytes() == expected[:, j].tobytes()
    assert s.theta_default.tobytes() == expected[:, 4 : 4 + p].tobytes()
    assert s.theta_prepay.tobytes() == expected[:, 4 + p :].tobytes()
    np.testing.assert_array_equal(s.chain, np.repeat([0, 1, 2], config.n_kept))
    np.testing.assert_array_equal(s.iteration, np.concatenate([r.iteration for r in chains]))
    for block, rates in s.acceptance.items():
        assert rates.tolist() == [x for r in chains for x in r.acceptance[block].tolist()]


def _assert_same_bytes(a: PosteriorSamples, b: PosteriorSamples) -> None:
    """Two pooled runs hold the same draws, chains, sweeps and acceptance,
    bit for bit."""
    assert a.matrix().tobytes() == b.matrix().tobytes()
    assert a.chain.tobytes() == b.chain.tobytes()
    assert a.iteration.tobytes() == b.iteration.tobytes()
    assert list(a.acceptance) == list(b.acceptance)
    for risk in a.acceptance:
        assert a.acceptance[risk].tobytes() == b.acceptance[risk].tobytes()


def _chunk_and_a_bit(bench_small):
    """A likelihood, its fitted blocks and a run one chunk and 5 sweeps long."""
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    prior = PriorSpec()
    config = SamplerConfig(n_chains=1, n_iters=mcmc._CHUNK + 5, burn_in=5, thin=1, seed=11)
    return like, prior, config, mcmc.laplace_blocks(like, prior)


def test_batched_scoring_gives_the_per_row_chain_bytes(bench_small, monkeypatch):
    like, prior, config, blocks = _chunk_and_a_bit(bench_small)
    batched = run_chain(like, prior, config, [0], blocks)
    logliks = PortfolioLikelihood.risk_logliks

    def per_row(self, risk, rows):
        return np.concatenate([logliks(self, risk, r[None]) for r in rows])

    monkeypatch.setattr(PortfolioLikelihood, "risk_logliks", per_row)
    looped = run_chain(like, prior, config, [0], blocks)
    _assert_same_bytes(batched, looped)


def test_independence_proposals_are_scored_in_batched_passes(bench_small, monkeypatch):
    like, prior, config, blocks = _chunk_and_a_bit(bench_small)
    chain_ids = [0, 1, 2]
    calls = []
    coef_parts = PortfolioLikelihood.coef_parts

    def counted(self, risk, theta, *args, **kwargs):
        calls.append((risk, len(theta)))
        return coef_parts(self, risk, theta, *args, **kwargs)

    monkeypatch.setattr(PortfolioLikelihood, "coef_parts", counted)
    run_chain(like, prior, config, chain_ids, blocks)
    # per risk: one row per chain at the starts; per chunk, every chain's
    # independence proposals in passes of _BATCH_ROWS rows, then one row per
    # chain at each random-walk sweep
    c, rows = len(chain_ids), likelihood._BATCH_ROWS
    sweeps = np.arange(1, config.n_iters + 1)
    chunks = np.split(sweeps, np.arange(mcmc._CHUNK, config.n_iters, mcmc._CHUNK))
    n_ind = [int(np.sum(ch % mcmc._CYCLE != 0)) for ch in chunks]
    assert n_ind == [683, 3]
    want = [c]
    for chunk, n in zip(chunks, n_ind):
        full, rest = divmod(c * n, rows)
        want += [rows] * full + [rest] * (rest > 0) + [c] * (chunk.size - n)
    for risk in RiskKind:
        assert [n for r, n in calls if r is risk] == want


def test_a_chain_run_alone_gives_its_lockstep_bytes(bench_small):
    like, prior, config, blocks = _chunk_and_a_bit(bench_small)
    together = run_chain(like, prior, config, [0, 1, 2], blocks)
    alone = run_chain(like, prior, config, [2], blocks)
    rows = together.chain == 2
    assert alone.chain.tolist() == [2] * config.n_kept
    assert alone.matrix().tobytes() == together.matrix()[rows].tobytes()
    assert alone.iteration.tobytes() == together.iteration[rows].tobytes()
    assert list(alone.acceptance) == list(together.acceptance)
    for risk, rates in alone.acceptance.items():
        assert rates.tobytes() == together.acceptance[risk][2:].tobytes()


class _InlineExecutor:
    """An executor whose ``submit`` runs the task at once, on the calling thread."""

    def __init__(self, max_workers: int):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def test_thread_scheduling_does_not_change_the_bytes(bench_small, monkeypatch):
    like, prior, config, blocks = _chunk_and_a_bit(bench_small)
    # switch threads as often as the interpreter allows, so the calling
    # thread and the prepay worker interleave as finely as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_chain(like, prior, config, [0, 1, 2], blocks)
    finally:
        sys.setswitchinterval(interval)
    # both risks on the calling thread, the prepay risk's share of a chunk
    # when it is submitted and then the default risk's
    monkeypatch.setattr(mcmc, "ThreadPoolExecutor", _InlineExecutor)
    serial = run_chain(like, prior, config, [0, 1, 2], blocks)
    _assert_same_bytes(threaded, serial)


def _recorded(monkeypatch, fail: RiskKind | None = None) -> list[tuple[RiskKind, int]]:
    """Patch ``risk_logliks`` to record each call's risk and thread, and to
    raise ValueError for the risk ``fail``."""
    calls = []
    risk_logliks = PortfolioLikelihood.risk_logliks

    def recorded(self, risk, rows):
        calls.append((risk, threading.get_ident()))
        if risk is fail:
            raise ValueError(f"{risk.value} scoring failed")
        return risk_logliks(self, risk, rows)

    monkeypatch.setattr(PortfolioLikelihood, "risk_logliks", recorded)
    return calls


def test_each_risk_is_scored_on_a_worker_of_its_own(bench_small, monkeypatch):
    like, prior, config, blocks = _chunk_and_a_bit(bench_small)
    calls = _recorded(monkeypatch)
    before = threading.active_count()
    run_chain(like, prior, config, [0, 1, 2], blocks)
    assert threading.active_count() == before
    threads = {risk: {t for r, t in calls if r is risk} for risk in RiskKind}
    assert all(len(ids) == 1 for ids in threads.values()), threads
    default, prepay = (ids.pop() for ids in threads.values())
    # the default risk on the calling thread, the prepay risk on one worker
    assert default == threading.get_ident()
    assert prepay != default


def test_a_worker_error_reaches_the_caller_and_leaves_no_thread(bench_small, monkeypatch):
    dataset, _ = bench_small
    _recorded(monkeypatch, fail=RiskKind.PREPAY)
    before = threading.active_count()
    config = SamplerConfig(n_chains=2, n_iters=20, burn_in=10, thin=1, seed=1)
    with pytest.raises(ValueError, match="^prepay scoring failed$"):
        run_sampler(dataset, config=config)
    assert threading.active_count() == before


def test_a_default_risk_error_waits_for_the_prepay_worker(bench_small, monkeypatch):
    dataset, _ = bench_small
    calls = _recorded(monkeypatch, fail=RiskKind.DEFAULT)
    finished = []
    recorded = PortfolioLikelihood.risk_logliks

    def slow_prepay(self, risk, rows):
        if risk is RiskKind.DEFAULT:
            return recorded(self, risk, rows)
        time.sleep(0.01)
        out = recorded(self, risk, rows)
        finished.append(threading.get_ident())
        return out

    monkeypatch.setattr(PortfolioLikelihood, "risk_logliks", slow_prepay)
    before = threading.active_count()
    config = SamplerConfig(n_chains=2, n_iters=20, burn_in=10, thin=1, seed=1)
    with pytest.raises(ValueError, match="^default scoring failed$"):
        run_sampler(dataset, config=config)
    assert threading.active_count() == before
    # the default risk failed at its starts, on the calling thread; the
    # prepay worker had scored its starts, its independence proposals and
    # every random-walk sweep of the one chunk by the time the error arrived
    assert [t for r, t in calls if r is RiskKind.DEFAULT] == [threading.get_ident()]
    assert len(finished) == 2 + config.n_iters // mcmc._CYCLE
    assert len(set(finished)) == 1 and threading.get_ident() not in finished


def test_proposal_rows_do_not_depend_on_the_rows_beside_them(bench_small):
    like, prior, _, blocks = _chunk_and_a_bit(bench_small)
    for block in blocks:
        u = block.independent(np.random.default_rng(3), 40)
        want = block.evaluate(u, prior)
        for k in (1, 2, 3, 5):
            parts = [block.evaluate(u[i : i + k], prior) for i in range(0, len(u), k)]
            for j, arr in enumerate(want):
                assert np.concatenate([part[j] for part in parts]).tobytes() == arr.tobytes()


def test_run_sampler_shapes_and_labels(bench_small):
    dataset, _ = bench_small
    config = SamplerConfig(n_chains=2, n_iters=100, burn_in=60, thin=4, seed=1)
    s = run_sampler(dataset, config=config)
    kept = (100 - 60) // 4
    assert s.n_draws == 2 * kept
    assert s.theta_default.shape == (2 * kept, dataset.p)
    assert set(np.unique(s.chain)) == {0, 1}
    assert s.schema == dataset.schema
    # one independence block per risk
    assert list(s.acceptance) == ["default", "prepay"]
    assert all(a.shape == (2,) for a in s.acceptance.values())
    assert all(np.all((0.0 <= a) & (a <= 1.0)) for a in s.acceptance.values())


def test_chain_moves_toward_higher_posterior_than_start(bench_small):
    dataset, truth = bench_small
    prior = PriorSpec()
    config = SamplerConfig(n_chains=1, n_iters=800, burn_in=400, thin=4, seed=2)
    s = run_sampler(dataset, config=config)
    end = s.params_at(s.n_draws - 1)
    lp_end = total_loglik(dataset, end) + prior.log_density(end)
    from mortsurv import LognormalBaseline, ModelParams

    start = ModelParams(
        baseline_default=LognormalBaseline(0.0, 1.0),
        baseline_prepay=LognormalBaseline(0.0, 1.0),
        theta_default=np.zeros(dataset.p),
        theta_prepay=np.zeros(dataset.p),
    )
    assert lp_end > total_loglik(dataset, start) + prior.log_density(start)


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


def test_stuck_chains_read_infinite_rhat():
    # each chain constant at its own value: no within-chain variance at all,
    # yet the chains disagree, which is the worst failure to mix
    chains = np.repeat([[1.0], [2.0], [3.0], [4.0]], 100, axis=1)
    assert split_rhat(chains) == math.inf


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
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        SamplerConfig(seed=-3)
