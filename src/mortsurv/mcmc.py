"""Posterior sampling with one Laplace-fitted Metropolis-Hastings block per risk.

The posterior factors over the two risks, so each risk is one block of
its coefficients, log-time location and log-time variance.  Once per fit,
``laplace_block`` finds the block's posterior mode by a damped Newton
search on the analytic gradient and Hessian
(``PortfolioLikelihood.risk_loglik_derivs``), which also gives the Hessian
at the mode.  Every sweep then makes one proposal per risk.  Two sweeps
in three draw it from a fixed multivariate t around the mode, with
``PROPOSAL_DF`` degrees of freedom and scale ``PROPOSAL_SCALE`` times a
square root of the Laplace covariance (the inverse negative Hessian), and
accept it with the independence-sampler ratio (Tierney 1994).  Every ``_CYCLE``-th sweep
instead proposes a random-walk step with covariance (``RW_SCALE``**2 / d)
times the Laplace covariance (Roberts & Rosenthal 2001): where the
posterior has a heavier or more skewed tail than the t, an independence
chain that lands in it can reject for hundreds of sweeps, and the local
move lets it walk out.  A sweep costs one ``coef_parts`` and one
``baseline_parts`` per risk, and the kernel is the same from the first
sweep to the last.

The block is sampled in coordinates chosen per risk (``Coordinates``).
When the design has an intercept column and the risk has events, the
intercept, mu and sigma2 become
a = intercept - (m - mu)**2 / (2 sigma2), b = (mu - m) / sigma2 and
l = log sigma2, with m the mean log event time: the log hazard level and
slope at log t = m, which the data pin down nearly independently.
Otherwise the block is (theta, mu, l).  The prior stays on the model
parameters, so the target carries the log-Jacobian 2l or l.

Chains run one after another in chain order.  Chain ``c`` draws from
``default_rng(SeedSequence(seed, spawn_key=(c,)))``, starts from one draw
of the proposal and depends on no other chain, so any chain can be rerun
on its own with ``run_chain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import PortfolioLikelihood, total_loglik
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
    "log_posterior",
    "param_names",
    "laplace_block",
    "run_chain",
    "run_sampler",
    "split_rhat",
    "effective_sample_size",
    "summarize",
]

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


def log_posterior(data: Dataset, params: ModelParams, prior: PriorSpec) -> float:
    """Unnormalized log-posterior: exact log-likelihood plus log-prior."""
    return total_loglik(data, params) + prior.log_density(params)


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

    @property
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
        delta = (u - self.mode) @ self.chol  # rows of C'(u - mode)
        log_q = -0.5 * (PROPOSAL_DF + d) * np.log1p(
            np.einsum("ij,ij->i", delta, delta) / (PROPOSAL_DF * PROPOSAL_SCALE**2)
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


def _newton(target, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    improves, or after ``_MAX_STEPS`` steps; returns the last point and its
    Hessian.
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
                return x, hess
            new = target(x_new)
            if new[0] >= value + 1e-4 * t * slope:
                break
            t *= 0.5
        x, (value, grad, hess) = x_new, new
    return x, hess


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
    when the Hessian where the search stops is not negative definite.
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
        x, hess = _newton(target, x)
        chol = _negative_cholesky(hess)
    if chol is None:
        raise InitializationError(
            f"{risk.value} risk: the Hessian of the log posterior is not negative definite "
            "where the mode search stopped"
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


@dataclass
class _Point:
    """A chain's current state for one risk."""

    u: np.ndarray
    values: np.ndarray  # (mu, sigma2, theta)
    log_post: float  # up to a constant
    log_q: float  # independence proposal density, up to a constant


def _point(like, block, u, values, log_prior, log_q) -> _Point:
    """The state at one proposal, evaluating the likelihood only where the
    prior is positive."""
    log_post = log_prior
    if log_prior != -math.inf:
        baseline = LognormalBaseline(float(values[0]), float(values[1]))
        log_post = like.risk_loglik(block.risk, values[2:], baseline) + float(log_prior)
    return _Point(u, values, log_post, float(log_q))


def run_chain(
    like: PortfolioLikelihood,
    prior: PriorSpec,
    config: SamplerConfig,
    chain_id: int,
    blocks: tuple[LaplaceBlock, ...] | None = None,
) -> ChainResult:
    """Run one chain to completion.

    ``blocks`` are the per-risk proposals (``laplace_block``); without
    them the chain fits its own, which gives the same ones.  The chain's
    generator is ``default_rng(SeedSequence(config.seed,
    spawn_key=(chain_id,)))``, so chains never share a stream and a given
    (seed, chain_id) pair always reproduces the same draws.  Sweeps
    ``_CYCLE``, 2 ``_CYCLE``, ... make random-walk proposals, every other
    sweep an independence proposal; the random numbers of both are drawn
    for every sweep, ``_CHUNK`` sweeps at a time.
    """
    blocks = blocks if blocks is not None else laplace_blocks(like, prior)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(chain_id,)))
    p = like.dataset.p
    cols = [_draw_columns(b.risk, p) for b in blocks]
    current = []
    for block in blocks:
        u = block.independent(rng, 1)
        current.append(_point(like, block, u[0], *(x[0] for x in block.evaluate(u, prior))))

    iterations = np.empty(config.n_kept, dtype=np.int64)
    draws = np.empty((config.n_kept, 4 + 2 * p))
    accepted = [0] * len(blocks)
    kept = 0
    sweep = 0
    while sweep < config.n_iters:
        n = min(_CHUNK, config.n_iters - sweep)
        fresh = [block.independent(rng, n) for block in blocks]
        steps = [block.steps(rng, n) for block in blocks]
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.uniform(size=(n, len(blocks))))
        evaluated = [block.evaluate(u, prior) for block, u in zip(blocks, fresh)]
        for i in range(n):
            sweep += 1
            walk = sweep % _CYCLE == 0
            for k, block in enumerate(blocks):
                cur = current[k]
                if walk:
                    u = (cur.u + steps[k][i])[None]
                    new = _point(like, block, u[0], *(x[0] for x in block.evaluate(u, prior)))
                    log_ratio = new.log_post - cur.log_post
                else:
                    new = _point(like, block, fresh[k][i], *(x[i] for x in evaluated[k]))
                    log_ratio = (new.log_post - new.log_q) - (cur.log_post - cur.log_q)
                # NaN (both -inf) rejects
                if log_u[i, k] < log_ratio:
                    current[k] = new
                    accepted[k] += sweep > config.burn_in
            if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
                iterations[kept] = sweep
                for k, cur in enumerate(current):
                    draws[kept, cols[k]] = cur.values
                kept += 1

    n_post = config.n_iters - config.burn_in
    acceptance = {b.risk.value: a / n_post for b, a in zip(blocks, accepted)}
    return ChainResult(chain_id, iterations, draws, acceptance)


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
    """Fit each risk's proposal once, run chains 0..C-1 in order on one
    shared likelihood evaluator, and pool their kept draws in chain order."""
    prior = prior if prior is not None else PriorSpec()
    config = config if config is not None else SamplerConfig()
    like = PortfolioLikelihood(data)
    blocks = laplace_blocks(like, prior)
    ids = list(range(config.n_chains))
    results = [run_chain(like, prior, config, cid, blocks) for cid in ids]

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
    per chain are available or the draws are constant.
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
        return math.nan
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
