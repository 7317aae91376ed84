"""Posterior sampling with one Laplace-fitted Metropolis-Hastings block per risk.

The posterior factors over the two risks, so each risk is one block of
its coefficients, log-time location and log-time variance.  Once per fit,
``laplace_block`` finds the block's posterior mode by a damped Newton
search on the analytic gradient and Hessian
(``PortfolioLikelihood.risk_loglik_derivs``), which also gives the Hessian
at the mode; a search that stops short of the mode logs a warning.
Every sweep then makes one proposal per risk.  Two sweeps in three draw
it from a fixed multivariate t around the mode, with
``PROPOSAL_DF`` degrees of freedom and scale ``PROPOSAL_SCALE`` times a
square root of the Laplace covariance (the inverse negative Hessian), and
accept it with the independence-sampler ratio (Tierney 1994).  Every ``_CYCLE``-th sweep
instead proposes a random-walk step with covariance (``RW_SCALE``**2 / d)
times the Laplace covariance (Roberts & Rosenthal 2001): where the
posterior has a heavier or more skewed tail than the t, an independence
chain that lands in it can reject for hundreds of sweeps, and the local
move lets it walk out.  The kernel is the same from the first sweep to the
last.

A fit's chains run together, one sweep at a time (in lockstep): each
risk's state is one row per chain, and proposals are drawn ``_CHUNK``
sweeps at a time.  An independence proposal does not depend on the
chain's state, so each risk scores all chains' independence proposals of
a chunk that have positive prior density before the accept loop, in one
``PortfolioLikelihood.risk_logliks`` call (passes of many rows through
``coef_parts`` and ``baseline_parts``); the loop then only reads their
log posteriors.  The chains' starts, and each random-walk sweep's
proposals, are scored in one such call per risk with one row per chain,
and each accept test runs over all chains at once.

No risk reads the other's state, so each risk's share of a chunk (the
scoring of its independence proposals, its random-walk sweeps and its
accept tests) runs on a worker thread of its own, one per risk, while the
calling thread draws every chain's numbers in the order of a serial run.
Most of a scoring pass is ``log_ndtr`` over the distinct times, which
releases the interpreter lock, so the two workers overlap there.  Each
risk's arrays are touched by its worker only and the likelihood is read
only, so the draws do not depend on how the threads are scheduled.

The block is sampled in coordinates chosen per risk (``Coordinates``).
When the design has an intercept column and the risk has events, the
intercept, mu and sigma2 become
a = intercept - (m - mu)**2 / (2 sigma2), b = (mu - m) / sigma2 and
l = log sigma2, with m the mean log event time: the log hazard level and
slope at log t = m, which the data pin down nearly independently.
Otherwise the block is (theta, mu, l).  The prior stays on the model
parameters, so the target carries the log-Jacobian 2l or l.

Chain ``c`` draws from ``default_rng(SeedSequence(seed, spawn_key=(c,)))``,
starts from one draw of the proposal and depends on no other chain.  A
row's log posterior and proposal density do not depend on how many rows
share the call, so any chain can be rerun on its own with ``run_chain``
and gives the same bytes.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .likelihood import PortfolioLikelihood
from .model import Dataset, LognormalBaseline, ModelParams, RiskKind

__all__ = [
    "PriorSpec",
    "SamplerConfig",
    "Coordinates",
    "LaplaceBlock",
    "ChainResult",
    "PosteriorSamples",
    "ParamSummary",
    "InitializationError",
    "param_names",
    "laplace_block",
    "run_chain",
    "run_sampler",
    "split_rhat",
    "effective_sample_size",
    "summarize",
]

_LOG = logging.getLogger(__name__)

# the independence proposal: a multivariate t with this many degrees of
# freedom, scaled by this factor times a square root of the Laplace covariance
PROPOSAL_DF = 5
PROPOSAL_SCALE = 1.2
# every _CYCLE-th sweep proposes a random-walk step instead, scaled by
# RW_SCALE / sqrt(d) times the same root (Roberts & Rosenthal 2001)
_CYCLE = 3
RW_SCALE = 2.38
# proposals are drawn this many sweeps at a time
_CHUNK = 1024
# mode search: Newton steps at most, and the squared Newton decrement
# (squared distance to the mode in posterior standard deviations) at which
# it stops
_MAX_STEPS = 200
_DECREMENT_TOL = 1e-4
# a Newton step solves with minus the Hessian H plus lam |diag H|, for the
# first lam of these that makes it positive definite
_SHIFTS = np.concatenate(([0.0], 10.0 ** np.arange(-3.0, 13.0)))


class InitializationError(ValueError):
    """A risk's mode search found no usable Laplace approximation."""


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors on all parameters.

    Coefficients and log-time locations get mean-zero normals with the
    given standard deviations; each log-time variance gets an inverse
    gamma in the rate parameterization, density proportional to
    x**-(shape+1) * exp(-rate/x).  The default InverseGamma(2, 2) has
    mean 2 but infinite variance; pick a larger shape when finite prior
    moments matter.
    """

    theta_sd: float = 10.0
    mu_sd: float = 10.0
    sigma2_shape: float = 2.0
    sigma2_rate: float = 2.0

    def __post_init__(self) -> None:
        for name in ("theta_sd", "mu_sd", "sigma2_shape", "sigma2_rate"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    def log_density(self, params: ModelParams) -> float:
        """Log prior density at ``params``: ``risk_log_density`` of both
        risks at l = log sigma2, plus the normalizing constants."""
        const = (
            self.sigma2_shape * math.log(self.sigma2_rate) - math.lgamma(self.sigma2_shape)
            - 0.5 * params.p * math.log(2.0 * math.pi * self.theta_sd**2)
            - 0.5 * math.log(2.0 * math.pi * self.mu_sd**2)
        )
        out = 0.0
        for risk in RiskKind:
            theta, b = params.theta(risk), params.baseline(risk)
            out += const + float(self.risk_log_density(theta, b.mu, math.log(b.sigma2)))
        return out

    def risk_log_density(self, theta, mu, l):
        """One risk's log prior density at (theta, mu, sigma2 = exp(l)), up to
        a constant; vectorized over leading axes."""
        return (
            -0.5 * np.sum(theta * theta, axis=-1) / self.theta_sd**2
            - 0.5 * mu * mu / self.mu_sd**2
            - (self.sigma2_shape + 1.0) * l
            - self.sigma2_rate * np.exp(-l)
        )

    def risk_log_density_derivs(
        self, theta: np.ndarray, mu: float, l: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian diagonal (the Hessian is diagonal) of
        ``risk_log_density`` in (theta, mu, l); infinite, not raising, where
        exp(-l) overflows."""
        tail = self.sigma2_rate * np.exp(-l)
        t, m = self.theta_sd**-2, self.mu_sd**-2
        grad = np.concatenate((-t * theta, (-m * mu, tail - self.sigma2_shape - 1.0)))
        return grad, np.concatenate((np.full(theta.size, -t), (-m, -tail)))


@dataclass(frozen=True)
class SamplerConfig:
    """Run shape shared by all chains.

    Kept draws are the post-burn-in sweeps at multiples of ``thin``.
    The proposal is fixed by the Laplace fit, not configured.
    """

    n_chains: int = 4
    n_iters: int = 20_000
    burn_in: int = 10_000
    thin: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if not (0 <= self.burn_in < self.n_iters):
            raise ValueError(
                f"need 0 <= burn_in < n_iters, got {self.burn_in} and {self.n_iters}"
            )
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.n_kept == 0:
            raise ValueError("run shape keeps no draws; lengthen n_iters or lower thin")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def n_kept(self) -> int:
        """Recorded draws per chain."""
        return (self.n_iters - self.burn_in) // self.thin


@dataclass(frozen=True)
class Coordinates:
    """The sampling coordinates u of one risk's block, length p + 2.

    With ``intercept`` None, u = (theta, mu, l) with l = log sigma2, and
    the log-Jacobian to (theta, mu, sigma2) is l.  With ``intercept`` = j,
    u[j] = a, u[p] = b and u[p + 1] = l, where sigma2 = exp(l),
    mu = m + b sigma2 and theta[j] = a + b**2 sigma2 / 2; the other
    coefficients are unchanged and the log-Jacobian is 2l.  ``m`` is the
    risk's mean log event time (0 without events) for both kinds, and the
    mode search starts mu there.
    """

    p: int
    intercept: int | None = None
    m: float = 0.0

    @property
    def jacobian_power(self) -> float:
        """k in the log-Jacobian k * l."""
        return 1.0 if self.intercept is None else 2.0

    def to_model(self, u):
        """(theta, mu, l) at u; vectorized over leading axes."""
        u = np.asarray(u, dtype=float)
        p = self.p
        theta = u[..., :p].copy()
        l = u[..., p + 1]
        if self.intercept is None:
            return theta, u[..., p], l
        b, s2 = u[..., p], np.exp(l)
        theta[..., self.intercept] += 0.5 * b * b * s2
        return theta, self.m + b * s2, l

    def from_model(self, theta, mu: float, l: float) -> np.ndarray:
        """The u of one (theta, mu, l); inverts ``to_model``."""
        u = np.concatenate((np.asarray(theta, dtype=float), (mu, l)))
        if self.intercept is not None:
            b = (mu - self.m) * math.exp(-l)
            u[self.intercept] -= 0.5 * b * b * math.exp(l)
            u[self.p] = b
        return u

    def log_jacobian(self, u):
        return self.jacobian_power * np.asarray(u, dtype=float)[..., self.p + 1]

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """The derivative of ``to_model`` at one u: row i holds the
        derivatives of (theta, mu, l)[i] in u."""
        jac = np.eye(self.p + 2)
        if self.intercept is not None:
            p, j = self.p, self.intercept
            b, s2 = u[p], math.exp(u[p + 1])
            jac[j, p:] = b * s2, 0.5 * b * b * s2
            jac[p, p:] = s2, b * s2
        return jac


def coordinates(like: PortfolioLikelihood, risk: RiskKind) -> Coordinates:
    """Reparameterised coordinates when the design has an intercept column
    and the risk has events, else plain; either way with m the mean log
    event time (0 without events)."""
    times = like.event_times(risk)
    m = float(np.mean(np.log(times))) if times.size else 0.0
    j = like.unit_column() if times.size else None
    return Coordinates(like.dataset.p, j, m)


@dataclass(frozen=True, eq=False)
class LaplaceBlock:
    """One risk's fixed proposals, from the Laplace fit in ``coords``.

    ``chol`` is the lower Cholesky factor C of minus the Hessian at
    ``mode``, so the Laplace covariance is R R' with R = inv(C)'.  The
    independence proposal is a t with ``PROPOSAL_DF`` degrees of freedom,
    centre ``mode`` and scale matrix (``PROPOSAL_SCALE`` R)(...)'; the
    random-walk step is ``RW_SCALE / sqrt(d)`` R times a standard normal.
    """

    risk: RiskKind
    coords: Coordinates
    mode: np.ndarray  # (d,)
    chol: np.ndarray  # (d, d)

    @functools.cached_property
    def root(self) -> np.ndarray:
        """R with R R' the Laplace covariance."""
        return np.linalg.inv(self.chol).T

    def independent(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws of the independence proposal, shape (n, d)."""
        d = self.mode.size
        z = rng.standard_normal((n, d))
        g = rng.chisquare(PROPOSAL_DF, size=n) / PROPOSAL_DF
        return self.mode + (PROPOSAL_SCALE * z / np.sqrt(g)[:, None]) @ self.root.T

    def steps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` random-walk increments, shape (n, d)."""
        d = self.mode.size
        return (RW_SCALE / math.sqrt(d)) * rng.standard_normal((n, d)) @ self.root.T

    def evaluate(
        self, u: np.ndarray, prior: PriorSpec
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """At each row of u: the model values (mu, sigma2, theta); the log
        prior plus log-Jacobian, -inf where the values are not finite; and
        the log density of the independence proposal, both up to a constant."""
        d = self.mode.size
        # rows of C'(u - mode), each a product on its own, so a row's value
        # does not depend on how many rows share the call
        delta = np.matmul((u - self.mode)[:, None, :], self.chol)[:, 0]
        log_q = -0.5 * (PROPOSAL_DF + d) * np.log1p(
            np.sum(delta * delta, axis=1) / (PROPOSAL_DF * PROPOSAL_SCALE**2)
        )
        values = np.empty_like(u)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            theta, values[:, 0], l = self.coords.to_model(u)
            values[:, 1] = np.exp(l)
            values[:, 2:] = theta
            log_prior = prior.risk_log_density(theta, values[:, 0], l) + self.coords.log_jacobian(u)
        ok = np.isfinite(values).all(axis=1) & (values[:, 1] > 0.0) & np.isfinite(log_prior)
        log_prior[~ok] = -np.inf
        return values, log_prior, log_q


def _log_target(
    like: PortfolioLikelihood, prior: PriorSpec, risk: RiskKind, power: float, x: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log posterior density of one risk's block at model values
    x = (theta, mu, l), plus ``power`` * l, up to a constant, with its
    gradient and Hessian in x; (-inf, NaN, NaN) where the value or the
    gradient is not finite.  The Hessian may be non-finite on its own."""
    d = x.size
    failed = -math.inf, np.full(d, math.nan), np.full((d, d), math.nan)
    theta, mu, l = x[:-2], float(x[-2]), float(x[-1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s2 = float(np.exp(l))
        if not (np.all(np.isfinite(x)) and 0.0 < s2 < math.inf):
            return failed
        ll, grad, hess = like.risk_loglik_derivs(risk, theta, LognormalBaseline(mu, s2))
        prior_grad, prior_diag = prior.risk_log_density_derivs(theta, mu, l)
        value = ll + float(prior.risk_log_density(theta, mu, l)) + power * l
        grad = grad + prior_grad
        grad[-1] += power
        hess[np.diag_indices(d)] += prior_diag
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        return failed
    return value, grad, hess


def _negative_cholesky(hess: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of -hess, or None when -hess is not finite
    and positive definite."""
    if not np.all(np.isfinite(hess)):
        return None
    try:
        return np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        return None


def _newton(target, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton ascent of ``target`` (value, gradient, Hessian) from x.

    Where minus the Hessian H is not positive definite, the step adds
    lam |diag H| to it for the first lam in ``_SHIFTS`` that makes it so:
    a shift in proportion to each coordinate's own curvature keeps the step
    free of units, where lam I stalls on a covariate in raw units (say,
    dollars).  The backtracking line search halves the step until the
    target rises enough, backing off from points where it is not finite
    too.  Stops when the squared Newton decrement under the unshifted
    Hessian falls below ``_DECREMENT_TOL``, when no shift works (a
    non-finite Hessian), when no step short enough to leave x unchanged
    improves, or after ``_MAX_STEPS`` steps; returns the last point, its
    gradient and its Hessian.
    """
    value, grad, hess = target(x)
    for _ in range(_MAX_STEPS):
        scale = np.diag(np.abs(np.diag(hess)))
        for lam in _SHIFTS:
            chol = _negative_cholesky(hess - lam * scale)
            if chol is not None:
                break
        else:
            break
        y = np.linalg.solve(chol, grad)
        slope = float(y @ y)  # the squared Newton decrement, when lam is 0
        if lam == 0.0 and slope < _DECREMENT_TOL:
            break
        step = np.linalg.solve(chol.T, y)
        t = 1.0
        while True:
            x_new = x + t * step
            if np.array_equal(x_new, x):
                return x, grad, hess
            new = target(x_new)
            if new[0] >= value + 1e-4 * t * slope:
                break
            t *= 0.5
        x, (value, grad, hess) = x_new, new
    return x, grad, hess


def laplace_block(like: PortfolioLikelihood, prior: PriorSpec, risk: RiskKind) -> LaplaceBlock:
    """Fit one risk's proposal: its posterior mode and Hessian in the
    coordinates ``coordinates(like, risk)`` chooses.

    The search (``_newton``) runs on the model values (theta, mu, l) with
    the log-Jacobian of those coordinates, from zero coefficients, unit
    variance and mu at the mean log event time (0 without events).  The
    coordinates are a smooth one-to-one map of the model values, so the
    mode maps to the mode and the Hessian there to J' H J, with J the
    derivative of ``Coordinates.to_model``.  Raises ``InitializationError``
    naming the risk when the log posterior is not finite at the start, or
    when the Hessian where the search stops is not negative definite.  A
    search that stops with its squared Newton decrement at or above
    ``_DECREMENT_TOL`` logs one warning naming the risk and the decrement.
    """
    coords = coordinates(like, risk)

    def target(x):
        return _log_target(like, prior, risk, coords.jacobian_power, x)

    x = np.concatenate((np.zeros(coords.p), (coords.m, 0.0)))
    if not math.isfinite(target(x)[0]):
        raise InitializationError(
            f"{risk.value} risk: the log posterior is not finite at the start of the mode search"
        )
    # a Hessian that overflows ends the search, and is not negative definite
    with np.errstate(over="ignore", invalid="ignore"):
        x, grad, hess = _newton(target, x)
        chol = _negative_cholesky(hess)
    if chol is None:
        raise InitializationError(
            f"{risk.value} risk: the Hessian of the log posterior is not negative definite "
            "where the mode search stopped"
        )
    y = np.linalg.solve(chol, grad)
    decrement = float(y @ y)
    if not decrement < _DECREMENT_TOL:
        _LOG.warning(
            "%s risk: the mode search stopped short of the mode, squared Newton "
            "decrement %.3g (tolerance %g)", risk.value, decrement, _DECREMENT_TOL,
        )
    mode = coords.from_model(x[:-2], x[-2], x[-1])
    # -J'HJ = (C'J)'(C'J), so the R of a QR of C'J is the Cholesky factor in
    # u up to signs; forming J'HJ instead loses definiteness when J is
    # ill-conditioned (sigma2 far below 1)
    r = np.linalg.qr(chol.T @ coords.jacobian(mode), mode="r")
    return LaplaceBlock(risk, coords, mode, r.T * np.sign(np.diag(r)))


def laplace_blocks(like: PortfolioLikelihood, prior: PriorSpec) -> tuple[LaplaceBlock, ...]:
    """Both risks' proposals, in ``RiskKind`` order."""
    return tuple(laplace_block(like, prior, risk) for risk in RiskKind)


@dataclass(frozen=True, eq=False)
class ChainResult:
    """Kept draws and sampler statistics from a single chain."""

    chain_id: int
    iterations: np.ndarray  # (n_kept,) 1-based sweep indices
    draws: np.ndarray  # (n_kept, 4 + 2p), columns in ``param_names`` order
    acceptance: dict[str, float]  # post-burn-in acceptance rate per risk


def _draw_columns(risk: RiskKind, p: int) -> np.ndarray:
    """Where one risk's (mu, sigma2, theta) go in a ``param_names`` row."""
    k = 0 if risk is RiskKind.DEFAULT else 1
    return np.concatenate(([2 * k, 2 * k + 1], 4 + k * p + np.arange(p)))


@dataclass(frozen=True, eq=False)
class _Slots:
    """One risk's states and proposals over one chunk, for every chain.

    Slot 0 holds the state each chain starts the chunk in and slot i + 1
    the proposal of the chunk's sweep i; a chain's state is a slot index.
    """

    u: np.ndarray  # (C, n + 1, d)
    values: np.ndarray  # (C, n + 1, 2 + p): (mu, sigma2, theta)
    log_post: np.ndarray  # (C, n + 1), up to a constant
    log_q: np.ndarray  # (C, n + 1), independence proposal density up to a constant
    gain: np.ndarray  # (C, n + 1), log_post - log_q

    @classmethod
    def empty(cls, n_chains: int, n: int, d: int, p: int) -> "_Slots":
        shape = (n_chains, n + 1)
        return cls(np.empty((*shape, d)), np.empty((*shape, 2 + p)),
                   np.empty(shape), np.empty(shape), np.empty(shape))

    def put(self, at, u, values, log_post, log_q) -> None:
        """Fill slot ``at`` (an index or a slice) of every chain."""
        self.u[:, at], self.values[:, at] = u, values
        self.log_post[:, at], self.log_q[:, at] = log_post, log_q
        with np.errstate(invalid="ignore"):  # NaN where both are -inf
            np.subtract(self.log_post[:, at], self.log_q[:, at], out=self.gain[:, at])

    def row(self, slot: np.ndarray) -> tuple[np.ndarray, ...]:
        """(u, values, log_post, log_q) at each chain's ``slot``."""
        chains = np.arange(len(slot))
        return tuple(a[chains, slot] for a in (self.u, self.values, self.log_post, self.log_q))


def _scored(like, block, prior, u, score=True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, log_post, log_q) at each u[..., :]: the log posterior from
    one batched likelihood call where ``score`` is true and the prior is
    positive, the log prior elsewhere."""
    lead = u.shape[:-1]
    values, log_post, log_q = block.evaluate(u.reshape(-1, u.shape[-1]), prior)
    rows = np.flatnonzero(np.broadcast_to(score, lead).ravel() & (log_post != -math.inf))
    log_post[rows] += like.risk_logliks(block.risk, values[rows])
    return values.reshape(*lead, -1), log_post.reshape(lead), log_q.reshape(lead)


def _sweep_risk(like, prior, walk, block, s, fresh, steps, log_u) -> np.ndarray:
    """One risk's share of a chunk of ``walk.size`` sweeps, for every chain.

    Scores the independence proposals ``fresh`` (C, n, d) at the sweeps
    that are not random-walk sweeps into slots 1..n of ``s``, then runs the
    sweeps: each random-walk sweep scores its C proposals from ``steps``,
    and each accept test compares ``log_u`` (C, n) over all chains at once.
    Returns ``state`` (C, n + 1), each chain's slot after the chunk's first
    i sweeps.  It touches no other risk's arrays, so the risks can run on
    separate threads.
    """
    n, chains = walk.size, np.arange(len(fresh))
    s.put(slice(1, n + 1), fresh, *_scored(like, block, prior, fresh, ~walk))
    state = np.zeros((len(fresh), n + 1), dtype=np.int64)
    with np.errstate(invalid="ignore"):
        for i in range(n):
            cur = state[:, i]
            if walk[i]:
                u = s.u[chains, cur] + steps[:, i]
                s.put(i + 1, u, *_scored(like, block, prior, u))
                log_ratio = s.log_post[:, i + 1] - s.log_post[chains, cur]
            else:
                log_ratio = s.gain[:, i + 1] - s.gain[chains, cur]
            # NaN (both -inf) rejects
            state[:, i + 1] = np.where(log_u[:, i] < log_ratio, i + 1, cur)
    return state


def run_chain(
    like: PortfolioLikelihood,
    prior: PriorSpec,
    config: SamplerConfig,
    chain_ids: Iterable[int],
    blocks: tuple[LaplaceBlock, ...] | None = None,
) -> list[ChainResult]:
    """Run the chains ``chain_ids`` to completion, in lockstep, one result each.

    ``blocks`` are the per-risk proposals (``laplace_block``); without
    them the chains fit their own, which gives the same ones.  Chain c's
    generator is ``default_rng(SeedSequence(config.seed, spawn_key=(c,)))``,
    so chains never share a stream and a given (seed, c) pair always
    reproduces the same draws, whichever chains run beside it.  Sweeps
    ``_CYCLE``, 2 ``_CYCLE``, ... make random-walk proposals, every other
    sweep an independence proposal.  Each chain draws its start per risk,
    then per ``_CHUNK`` sweeps the independence proposals and the
    random-walk steps of both risks and the uniforms of the accept tests.
    Each risk scores the chains' starts, a chunk's independence proposals
    and each random-walk sweep's proposals in one batched likelihood call
    (``PortfolioLikelihood.risk_logliks``), whose rows do not depend on
    how many share the call; the accept tests run over all chains at once.
    The calling thread draws every number; each risk's scoring and sweeps
    run on a worker thread of its own (``_sweep_risk``), and the first
    error, in risk order, is raised here once both workers have stopped.
    """
    blocks = blocks if blocks is not None else laplace_blocks(like, prior)
    chain_ids = list(chain_ids)
    rngs = [np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(c,)))
            for c in chain_ids]
    n_chains, n_risks, p = len(rngs), len(blocks), like.dataset.p
    chains = np.arange(n_chains)
    cols = [_draw_columns(b.risk, p) for b in blocks]
    slots = [_Slots.empty(n_chains, min(_CHUNK, config.n_iters), b.mode.size, p) for b in blocks]
    # each risk's starts, one row per chain, drawn chain by chain
    starts = [np.array(u)
              for u in zip(*([b.independent(rng, 1)[0] for b in blocks] for rng in rngs))]
    iterations = np.empty(config.n_kept, dtype=np.int64)
    draws = np.empty((n_chains, config.n_kept, 4 + 2 * p))
    accepted = np.zeros((n_risks, n_chains), dtype=np.int64)
    kept = 0
    sweep = 0
    with ExitStack() as stack:
        # one single-thread executor per risk, not one shared pool: a shared
        # pool hands each task to whichever worker is idle, so a risk's
        # arrays would pass from thread to thread between chunks
        workers = [stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in blocks]

        def per_risk(fn, *args) -> list:
            """fn(*(a[k] for a in args)) on risk k's worker for each k; the
            results in risk order, or the first error in risk order."""
            futures = [w.submit(fn, *a) for w, *a in zip(workers, *args)]
            return [f.result() for f in futures]

        per_risk(lambda block, s, u: s.put(0, u, *_scored(like, block, prior, u)),
                 blocks, slots, starts)
        while sweep < config.n_iters:
            n = min(_CHUNK, config.n_iters - sweep)
            # each chain's numbers in the order of a chain run alone, stacked
            # over chains: independence proposals and steps per risk, then
            # the uniforms
            *proposals, uniform = (np.array(x) for x in zip(*(
                [*(b.independent(rng, n) for b in blocks), *(b.steps(rng, n) for b in blocks),
                 rng.uniform(size=(n, n_risks))]
                for rng in rngs
            )))
            with np.errstate(divide="ignore"):
                log_u = np.log(uniform)  # (chain, sweep, risk)
            sweeps = sweep + 1 + np.arange(n)
            walk = sweeps % _CYCLE == 0
            # state[k, :, i] is each chain's slot after the chunk's first i sweeps
            state = np.array(per_risk(
                functools.partial(_sweep_risk, like, prior, walk), blocks, slots,
                proposals[:n_risks], proposals[n_risks:], np.moveaxis(log_u, 2, 0),
            ))
            post = sweeps > config.burn_in
            accepted += np.sum((state[:, :, 1:] == np.arange(1, n + 1)) & post, axis=2)
            keep = np.flatnonzero(post & ((sweeps - config.burn_in) % config.thin == 0))
            iterations[kept : kept + keep.size] = sweeps[keep]
            for k, s in enumerate(slots):
                at = state[k][:, keep + 1]
                draws[:, kept : kept + keep.size, cols[k]] = s.values[chains[:, None], at]
                s.put(0, *s.row(state[k, :, n]))
            kept += keep.size
            sweep += n

    n_post = config.n_iters - config.burn_in
    return [
        ChainResult(cid, iterations.copy(), draws[c],
                    {b.risk.value: int(a[c]) / n_post for b, a in zip(blocks, accepted)})
        for c, cid in enumerate(chain_ids)
    ]


def param_names(schema) -> list[str]:
    """Canonical scalar parameter order of draw matrices and files: the
    four baseline parameters, then one theta per covariate for each risk."""
    return [
        "mu_default",
        "sigma2_default",
        "mu_prepay",
        "sigma2_prepay",
        *(f"theta_default:{s}" for s in schema),
        *(f"theta_prepay:{s}" for s in schema),
    ]


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Pooled kept draws from all chains, in chain-major order.

    ``schema`` names the covariate columns, so ``theta_*`` columns line up
    with the dataset the sampler ran on.  ``acceptance`` maps each risk
    to its per-chain acceptance rate.  ``final_scales`` is not filled by
    the sampler; it is accepted so that callers that pass it keep working.
    """

    schema: tuple[str, ...]
    n_chains: int
    chain: np.ndarray  # (G,)
    iteration: np.ndarray  # (G,)
    mu_default: np.ndarray
    sigma2_default: np.ndarray
    mu_prepay: np.ndarray
    sigma2_prepay: np.ndarray
    theta_default: np.ndarray  # (G, p)
    theta_prepay: np.ndarray
    acceptance: dict[str, np.ndarray] = field(default_factory=dict)
    final_scales: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_matrix(
        cls,
        schema: tuple[str, ...],
        chain: np.ndarray,
        iteration: np.ndarray,
        draws: np.ndarray,
        acceptance: dict[str, np.ndarray] | None = None,
    ) -> "PosteriorSamples":
        """Split a (G, 4 + 2p) draw matrix in ``param_names`` order into
        fields; the fields are views of ``draws``."""
        p = len(schema)
        return cls(
            schema=tuple(schema),
            n_chains=int(np.unique(chain).size),
            chain=chain,
            iteration=iteration,
            mu_default=draws[:, 0],
            sigma2_default=draws[:, 1],
            mu_prepay=draws[:, 2],
            sigma2_prepay=draws[:, 3],
            theta_default=draws[:, 4 : 4 + p],
            theta_prepay=draws[:, 4 + p :],
            acceptance=acceptance if acceptance is not None else {},
        )

    @property
    def n_draws(self) -> int:
        return self.chain.size

    @property
    def p(self) -> int:
        return len(self.schema)

    def params_at(self, i: int) -> ModelParams:
        """The i-th pooled draw as a full parameter set."""
        return ModelParams(
            baseline_default=LognormalBaseline(
                float(self.mu_default[i]), float(self.sigma2_default[i])
            ),
            baseline_prepay=LognormalBaseline(
                float(self.mu_prepay[i]), float(self.sigma2_prepay[i])
            ),
            theta_default=self.theta_default[i],
            theta_prepay=self.theta_prepay[i],
        )

    def param_names(self) -> list[str]:
        """``param_names(schema)``: the column order of ``matrix`` and files."""
        return param_names(self.schema)

    def matrix(self) -> np.ndarray:
        """All draws as a (G, 4 + 2p) array in ``param_names`` order."""
        return np.column_stack(
            [
                self.mu_default,
                self.sigma2_default,
                self.mu_prepay,
                self.sigma2_prepay,
                self.theta_default,
                self.theta_prepay,
            ]
        )


def run_sampler(
    data: Dataset,
    prior: PriorSpec | None = None,
    config: SamplerConfig | None = None,
) -> PosteriorSamples:
    """Fit each risk's proposal once, run chains 0..C-1 in lockstep on one
    shared likelihood evaluator, and pool their kept draws in chain order."""
    prior = prior if prior is not None else PriorSpec()
    config = config if config is not None else SamplerConfig()
    like = PortfolioLikelihood(data)
    ids = list(range(config.n_chains))
    results = run_chain(like, prior, config, ids, laplace_blocks(like, prior))

    return PosteriorSamples.from_matrix(
        data.schema,
        np.repeat(np.array(ids, dtype=np.int64), config.n_kept),
        np.concatenate([r.iterations for r in results]),
        np.vstack([r.draws for r in results]),
        acceptance={b: np.array([r.acceptance[b] for r in results]) for b in results[0].acceptance},
    )


# --- convergence summaries ----------------------------------------------------


def split_rhat(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is halved, and the usual between/within variance ratio is
    taken over the 2C half-chains.  Returns NaN when fewer than 4 draws
    per chain are available or all draws are one constant, and +inf when
    each half-chain is constant but they differ (stuck chains).
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise ValueError("chains must be a (n_chains, n_draws) array")
    half = chains.shape[1] // 2
    if half < 2:
        return math.nan
    seq = np.vstack([chains[:, :half], chains[:, half : 2 * half]])
    w = float(np.mean(np.var(seq, axis=1, ddof=1)))
    b = half * float(np.var(np.mean(seq, axis=1), ddof=1))
    if not (w > 0.0):
        return math.inf if b > 0.0 else math.nan
    var_hat = (half - 1) / half * w + b / half
    return math.sqrt(var_hat / w)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of one sequence via FFT."""
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:n] / n


def effective_sample_size(chains: np.ndarray) -> float:
    """Effective sample size of pooled draws from parallel chains.

    Combines per-chain FFT autocovariances with the cross-chain variance,
    then truncates the autocorrelation sum by the initial monotone
    positive-pair rule (pairs rho[2k] + rho[2k+1] kept while positive and
    enforced nonincreasing).  Returns NaN for constant draws or fewer
    than 4 draws per chain.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise ValueError("chains must be a (n_chains, n_draws) array")
    c, n = chains.shape
    if n < 4:
        return math.nan
    acov = np.vstack([_autocovariance(chains[j]) for j in range(c)])
    mean_acov = acov.mean(axis=0)
    w = float(np.mean(np.var(chains, axis=1, ddof=1)))
    between = float(np.var(np.mean(chains, axis=1), ddof=1)) if c > 1 else 0.0
    var_hat = w * (n - 1) / n + between
    if not (var_hat > 0.0):
        return math.nan
    rho = 1.0 - (w - mean_acov) / var_hat
    n_pairs = n // 2
    pairs = rho[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    positive = np.nonzero(pairs <= 0.0)[0]
    cut = int(positive[0]) if positive.size else n_pairs
    if cut == 0:
        return float(c * n)
    kept = np.minimum.accumulate(pairs[:cut])
    tau = max(2.0 * float(np.sum(kept)) - 1.0, 1e-3)
    return min(float(c * n), c * n / tau)


@dataclass(frozen=True)
class ParamSummary:
    """Marginal posterior summary for one scalar parameter."""

    name: str
    mean: float
    sd: float
    median: float
    q2_5: float
    q97_5: float
    rhat: float
    ess: float
    mcse: float


def summarize(samples: PosteriorSamples) -> list[ParamSummary]:
    """Per-parameter posterior summaries in ``param_names`` order.

    Quantiles use numpy's default linear interpolation.  ``rhat`` needs at
    least 2 chains of equal length >= 4; ``ess`` works from a single chain
    but also needs >= 4 equal-length draws per chain.  Either is NaN when
    its requirement fails or the draws are constant (quantiles are still
    returned).  ``mcse`` is sd/sqrt(ess), NaN whenever ess is.
    """
    x = samples.matrix()
    g, _ = x.shape
    ids = np.unique(samples.chain)
    groups = [np.flatnonzero(samples.chain == cid) for cid in ids]
    sizes = {idx.size for idx in groups}
    rectangular = len(sizes) == 1 and min(sizes) >= 4
    rhat_able = rectangular and len(groups) >= 2
    rows = []
    for j, name in enumerate(samples.param_names()):
        col = x[:, j]
        q2, med, q97 = np.quantile(col, [0.025, 0.5, 0.975])
        sd = float(np.std(col, ddof=1)) if g > 1 else 0.0
        if rectangular:
            grouped = np.vstack([col[idx] for idx in groups])
            rhat = split_rhat(grouped) if rhat_able else math.nan
            ess = effective_sample_size(grouped)
        else:
            rhat = math.nan
            ess = math.nan
        mcse = sd / math.sqrt(ess) if math.isfinite(ess) and ess > 0 else math.nan
        rows.append(
            ParamSummary(
                name=name,
                mean=float(np.mean(col)),
                sd=sd,
                median=float(med),
                q2_5=float(q2),
                q97_5=float(q97),
                rhat=rhat,
                ess=ess,
                mcse=mcse,
            )
        )
    return rows
