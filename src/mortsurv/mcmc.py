"""Posterior sampling by adaptive Metropolis-within-Gibbs.

Each sweep updates six blocks in a fixed order: the two coefficient
vectors (Gaussian random walk on the whole block), the two log-time
locations (scalar Gaussian random walk), and the two log-time variances
(multiplicative uniform proposal on (a*s2, s2/a), whose Hastings
correction is the ratio of interval lengths, s2/s2*).  Because the
likelihood factors per risk and per block, each update recomputes only
the parts its block touches.

Proposal scales adapt by Robbins-Monro during burn-in only (step size
k**-0.6 toward a target acceptance rate, 0.25 for vector blocks and 0.4
for scalars) and are frozen from the first post-burn-in sweep, so
recorded draws come from a fixed-kernel chain.  The starting scales,
targets and clamps are the module constants in ``TUNING``.

Chains run one after another in chain order; they hold the interpreter
lock throughout, so a thread pool gains nothing.  Chain ``c`` draws from
``default_rng(SeedSequence(seed, spawn_key=(c,)))`` and depends on no
other chain, so any chain can be rerun on its own with ``run_chain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .likelihood import PortfolioLikelihood
from .model import Dataset, LognormalBaseline, ModelParams, RiskKind

__all__ = [
    "PriorSpec",
    "SamplerConfig",
    "ChainState",
    "ChainResult",
    "PosteriorSamples",
    "ParamSummary",
    "InitializationError",
    "log_posterior",
    "update_theta",
    "update_mu",
    "update_sigma2",
    "run_chain",
    "run_sampler",
    "split_rhat",
    "effective_sample_size",
    "summarize",
]

# update order within one sweep: (block, kind, risk)
BLOCKS = (
    ("theta_default", "theta", RiskKind.DEFAULT),
    ("theta_prepay", "theta", RiskKind.PREPAY),
    ("mu_default", "mu", RiskKind.DEFAULT),
    ("mu_prepay", "mu", RiskKind.PREPAY),
    ("sigma2_default", "sigma2", RiskKind.DEFAULT),
    ("sigma2_prepay", "sigma2", RiskKind.PREPAY),
)

# kind: (starting value, target acceptance rate, lower clamp, upper clamp)
# of the tuned proposal scale.  theta and mu tune their random-walk sd;
# sigma2 tunes the log half-width b = -log a of its interval (a*s2, s2/a),
# starting from a = 0.5.
TUNING = {
    "theta": (0.1, 0.25, 1e-8, 1e8),
    "mu": (0.1, 0.4, 1e-8, 1e8),
    "sigma2": (-math.log(0.5), 0.4, 1e-6, 30.0),
}


class InitializationError(ValueError):
    """The chain's starting point has a non-finite log-posterior."""


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
        """Log prior density at ``params`` (normalizing constants included)."""
        out = 0.0
        for theta in (params.theta_default, params.theta_prepay):
            out += _log_normal_sum(theta, self.theta_sd)
        for b in (params.baseline_default, params.baseline_prepay):
            out += _log_normal_sum(np.array([b.mu]), self.mu_sd)
            out += _log_invgamma(b.sigma2, self.sigma2_shape, self.sigma2_rate)
        return out


def _log_normal_sum(x: np.ndarray, sd: float) -> float:
    return float(
        -0.5 * x.size * math.log(2.0 * math.pi * sd * sd) - np.sum(x * x) / (2.0 * sd * sd)
    )


def _log_invgamma(x: float, shape: float, rate: float) -> float:
    return (
        shape * math.log(rate)
        - math.lgamma(shape)
        - (shape + 1.0) * math.log(x)
        - rate / x
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Run shape shared by all chains.

    Kept draws are the post-burn-in sweeps at multiples of ``thin``.
    Proposal tuning is fixed (``TUNING``), not configured.
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

    @property
    def n_kept(self) -> int:
        """Recorded draws per chain."""
        return (self.n_iters - self.burn_in) // self.thin


@dataclass(frozen=True)
class _RiskState:
    """One risk's current parameters with cached likelihood parts."""

    theta: np.ndarray
    mu: float
    sigma2: float
    coef: object  # CoefParts
    base: object  # BaselineParts
    ll: float


@dataclass(frozen=True)
class ChainState:
    """Current point of one chain, with per-risk cached log-likelihoods."""

    default: _RiskState
    prepay: _RiskState

    @classmethod
    def from_params(cls, like: PortfolioLikelihood, params: ModelParams) -> "ChainState":
        states = {}
        for risk in RiskKind:
            theta = params.theta(risk)
            b = params.baseline(risk)
            coef = like.coef_parts(risk, theta)
            base = like.baseline_parts(risk, b)
            states[risk] = _RiskState(
                theta=theta,
                mu=b.mu,
                sigma2=b.sigma2,
                coef=coef,
                base=base,
                ll=PortfolioLikelihood.combine(coef, base),
            )
        return cls(default=states[RiskKind.DEFAULT], prepay=states[RiskKind.PREPAY])

    def risk(self, risk: RiskKind) -> _RiskState:
        return self.default if risk is RiskKind.DEFAULT else self.prepay

    def with_risk(self, risk: RiskKind, rs: _RiskState) -> "ChainState":
        if risk is RiskKind.DEFAULT:
            return replace(self, default=rs)
        return replace(self, prepay=rs)

    def params(self) -> ModelParams:
        return ModelParams(
            baseline_default=LognormalBaseline(self.default.mu, self.default.sigma2),
            baseline_prepay=LognormalBaseline(self.prepay.mu, self.prepay.sigma2),
            theta_default=self.default.theta,
            theta_prepay=self.prepay.theta,
        )

    def loglik(self) -> float:
        return self.default.ll + self.prepay.ll


def log_posterior(data: Dataset, params: ModelParams, prior: PriorSpec) -> float:
    """Unnormalized log-posterior: exact log-likelihood plus log-prior."""
    from .likelihood import total_loglik

    return total_loglik(data, params) + prior.log_density(params)


def _accept(rng: np.random.Generator, log_ratio: float) -> bool:
    # one uniform per proposal, drawn unconditionally to keep the stream
    # layout independent of the accept/reject outcome
    u = rng.uniform()
    if log_ratio >= 0.0:
        return True
    log_u = math.log(u) if u > 0.0 else -math.inf
    return log_u < log_ratio


def update_theta(
    state: ChainState,
    risk: RiskKind,
    like: PortfolioLikelihood,
    prior: PriorSpec,
    scale: float,
    rng: np.random.Generator,
) -> tuple[ChainState, bool]:
    """Gaussian random-walk update of one risk's whole coefficient block."""
    rs = state.risk(risk)
    prop = rs.theta + scale * rng.standard_normal(rs.theta.size)
    coef = like.coef_parts(risk, prop)
    ll = PortfolioLikelihood.combine(coef, rs.base)
    log_ratio = (ll - rs.ll) + float(
        np.sum(rs.theta * rs.theta) - np.sum(prop * prop)
    ) / (2.0 * prior.theta_sd**2)
    if _accept(rng, log_ratio):
        prop.setflags(write=False)
        return state.with_risk(risk, replace(rs, theta=prop, coef=coef, ll=ll)), True
    return state, False


def update_mu(
    state: ChainState,
    risk: RiskKind,
    like: PortfolioLikelihood,
    prior: PriorSpec,
    scale: float,
    rng: np.random.Generator,
) -> tuple[ChainState, bool]:
    """Scalar Gaussian random-walk update of one risk's log-time location."""
    rs = state.risk(risk)
    prop = rs.mu + scale * float(rng.standard_normal())
    base = like.baseline_parts(risk, LognormalBaseline(prop, rs.sigma2))
    ll = PortfolioLikelihood.combine(rs.coef, base)
    log_ratio = (ll - rs.ll) + (rs.mu * rs.mu - prop * prop) / (2.0 * prior.mu_sd**2)
    if _accept(rng, log_ratio):
        return state.with_risk(risk, replace(rs, mu=prop, base=base, ll=ll)), True
    return state, False


def update_sigma2(
    state: ChainState,
    risk: RiskKind,
    like: PortfolioLikelihood,
    prior: PriorSpec,
    shrink: float,
    rng: np.random.Generator,
) -> tuple[ChainState, bool]:
    """Multiplicative uniform update of one risk's log-time variance.

    Proposes s2* ~ Uniform(a*s2, s2/a) with a = ``shrink``; the reverse
    interval (a*s2*, s2*/a) always contains s2, so the Hastings factor is
    exactly the length ratio s2/s2*.
    """
    rs = state.risk(risk)
    prop = float(rng.uniform(shrink * rs.sigma2, rs.sigma2 / shrink))
    base = like.baseline_parts(risk, LognormalBaseline(rs.mu, prop))
    ll = PortfolioLikelihood.combine(rs.coef, base)
    log_ratio = (
        (ll - rs.ll)
        + _log_invgamma(prop, prior.sigma2_shape, prior.sigma2_rate)
        - _log_invgamma(rs.sigma2, prior.sigma2_shape, prior.sigma2_rate)
        + math.log(rs.sigma2)
        - math.log(prop)
    )
    if _accept(rng, log_ratio):
        return state.with_risk(risk, replace(rs, sigma2=prop, base=base, ll=ll)), True
    return state, False


@dataclass(frozen=True, eq=False)
class ChainResult:
    """Kept draws and sampler statistics from a single chain."""

    chain_id: int
    iterations: np.ndarray  # (n_kept,) 1-based sweep indices
    mu_default: np.ndarray
    sigma2_default: np.ndarray
    mu_prepay: np.ndarray
    sigma2_prepay: np.ndarray
    theta_default: np.ndarray  # (n_kept, p)
    theta_prepay: np.ndarray
    acceptance: dict[str, float]  # post-burn-in rate per block
    final_scales: dict[str, float]


def _initial_state(like: PortfolioLikelihood, prior: PriorSpec) -> ChainState:
    """Start at zero coefficients, unit variances, and the per-risk log
    median event time (zero when a risk saw no events)."""
    p = like.dataset.p
    baselines = {}
    for risk in RiskKind:
        t = like.event_times(risk)
        mu0 = float(np.log(np.median(t))) if t.size else 0.0
        baselines[risk] = LognormalBaseline(mu0, 1.0)
    params = ModelParams(
        baseline_default=baselines[RiskKind.DEFAULT],
        baseline_prepay=baselines[RiskKind.PREPAY],
        theta_default=np.zeros(p),
        theta_prepay=np.zeros(p),
    )
    state = ChainState.from_params(like, params)
    log_post = state.loglik() + prior.log_density(params)
    if not math.isfinite(log_post):
        raise InitializationError(
            f"initial state has non-finite log-posterior ({log_post})"
        )
    return state


def run_chain(
    like: PortfolioLikelihood,
    prior: PriorSpec,
    config: SamplerConfig,
    chain_id: int,
) -> ChainResult:
    """Run one chain to completion.

    The chain's generator is ``default_rng(SeedSequence(config.seed,
    spawn_key=(chain_id,)))``, so chains never share a stream and a given
    (seed, chain_id) pair always reproduces the same draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(chain_id,)))
    state = _initial_state(like, prior)
    tune = {block: TUNING[kind][0] for block, kind, _ in BLOCKS}

    n_kept = config.n_kept
    p = like.dataset.p
    out = {
        "iterations": np.empty(n_kept, dtype=np.int64),
        "mu_default": np.empty(n_kept),
        "sigma2_default": np.empty(n_kept),
        "mu_prepay": np.empty(n_kept),
        "sigma2_prepay": np.empty(n_kept),
        "theta_default": np.empty((n_kept, p)),
        "theta_prepay": np.empty((n_kept, p)),
    }
    accept_counts = dict.fromkeys(tune, 0)
    kept = 0

    for sweep in range(1, config.n_iters + 1):
        accepted = {}
        # the update functions are looked up by name on every call, so
        # patching the module attributes (as a tracer does) takes effect
        for block, kind, risk in BLOCKS:
            if kind == "theta":
                state, acc = update_theta(state, risk, like, prior, tune[block], rng)
            elif kind == "mu":
                state, acc = update_mu(state, risk, like, prior, tune[block], rng)
            else:
                a = math.exp(-tune[block])
                state, acc = update_sigma2(state, risk, like, prior, a, rng)
            accepted[block] = acc

        if sweep <= config.burn_in:
            gamma = sweep**-0.6
            for block, kind, _ in BLOCKS:
                _, target, lo, hi = TUNING[kind]
                step = gamma * ((1.0 if accepted[block] else 0.0) - target)
                tune[block] = min(max(tune[block] * math.exp(step), lo), hi)
        else:
            for block in accept_counts:
                accept_counts[block] += accepted[block]
            if (sweep - config.burn_in) % config.thin == 0:
                out["iterations"][kept] = sweep
                out["mu_default"][kept] = state.default.mu
                out["sigma2_default"][kept] = state.default.sigma2
                out["mu_prepay"][kept] = state.prepay.mu
                out["sigma2_prepay"][kept] = state.prepay.sigma2
                out["theta_default"][kept] = state.default.theta
                out["theta_prepay"][kept] = state.prepay.theta
                kept += 1

    n_post = config.n_iters - config.burn_in
    acceptance = {b: n / n_post for b, n in accept_counts.items()}
    final_scales = {
        b: math.exp(-tune[b]) if kind == "sigma2" else tune[b] for b, kind, _ in BLOCKS
    }
    return ChainResult(chain_id=chain_id, acceptance=acceptance, final_scales=final_scales, **out)


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Pooled kept draws from all chains, in chain-major order.

    ``schema`` names the covariate columns, so ``theta_*`` columns line up
    with the dataset the sampler ran on.  ``acceptance`` and
    ``final_scales`` map block name to a per-chain array.
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
    acceptance: dict[str, np.ndarray]
    final_scales: dict[str, np.ndarray]

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
        """Canonical scalar parameter order used by ``matrix`` and files."""
        names = ["mu_default", "sigma2_default", "mu_prepay", "sigma2_prepay"]
        names += [f"theta_default:{s}" for s in self.schema]
        names += [f"theta_prepay:{s}" for s in self.schema]
        return names

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
    """Run chains 0..C-1 in order on one shared likelihood evaluator and
    pool their kept draws in chain order."""
    prior = prior if prior is not None else PriorSpec()
    config = config if config is not None else SamplerConfig()
    like = PortfolioLikelihood(data)
    ids = list(range(config.n_chains))
    results = [run_chain(like, prior, config, cid) for cid in ids]

    n_kept = config.n_kept
    chain_col = np.repeat(np.array(ids, dtype=np.int64), n_kept)
    return PosteriorSamples(
        schema=data.schema,
        n_chains=config.n_chains,
        chain=chain_col,
        iteration=np.concatenate([r.iterations for r in results]),
        mu_default=np.concatenate([r.mu_default for r in results]),
        sigma2_default=np.concatenate([r.sigma2_default for r in results]),
        mu_prepay=np.concatenate([r.mu_prepay for r in results]),
        sigma2_prepay=np.concatenate([r.sigma2_prepay for r in results]),
        theta_default=np.vstack([r.theta_default for r in results]),
        theta_prepay=np.vstack([r.theta_prepay for r in results]),
        acceptance={b: np.array([r.acceptance[b] for r in results]) for b, _, _ in BLOCKS},
        final_scales={b: np.array([r.final_scales[b] for r in results]) for b, _, _ in BLOCKS},
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
