"""Synthetic portfolios with known ground truth.

Event times are drawn by exact inversion of each risk's survival
function: with total hazard target -log(u), walk the covariate-constant
intervals until the target falls inside one, then solve the lognormal
integrated baseline in closed form via the inverse log-CDF.  The walk is
``model.invert_cumulative_hazard``, the kernel prediction samples with
too.  No discretization or rejection is involved, so simulated data
follow the model law to floating-point accuracy.

Each loan gets its own RNG substream, ``SeedSequence(seed,
spawn_key=(i,))``, making generation order-free and reproducible loan by
loan.  Within a loan the draw order is fixed: covariates, then the
default-time uniform, then the prepay-time uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CovariatePath,
    Dataset,
    LognormalBaseline,
    LoanObservation,
    LoanStatus,
    ModelParams,
    RiskKind,
    invert_cumulative_hazard,
)

__all__ = [
    "SimulatedLoan",
    "BenchmarkConfig",
    "TruthRecord",
    "invert_survival",
    "simulate_loan",
    "make_benchmark",
]


def invert_survival(
    path: CovariatePath, theta: np.ndarray, baseline: LognormalBaseline, u: float
) -> float:
    """The time t at which one risk's survival exp(-Lambda(t)) equals u.

    Exact up to float rounding.  u must lie in [0, 1); u = 0 returns +inf
    (the event never happens within any finite horizon).
    """
    if not (0.0 <= u < 1.0):
        raise ValueError(f"u must be in [0, 1), got {u}")
    # math.exp and math.log, not their numpy forms, which round differently
    # in the last bit: simulated datasets stay byte-stable
    weights = [math.exp(min(eta, 700.0)) for eta in path.values @ np.asarray(theta, dtype=float)]
    t = invert_cumulative_hazard(
        path.boundaries,
        np.array([weights]),
        np.array([baseline.mu]),
        np.array([baseline.sigma]),
        np.array([-math.log(u) if u > 0.0 else math.inf]),
    )
    return float(t[0])


@dataclass(frozen=True)
class SimulatedLoan:
    """Outcome of one simulated loan, latent times included for testing."""

    status: LoanStatus
    time: float
    latent_default: float
    latent_prepay: float


def simulate_loan(
    params: ModelParams,
    path: CovariatePath,
    maturity: float,
    rng: np.random.Generator,
    censor_time: float | None = None,
) -> SimulatedLoan:
    """Draw one loan's outcome under ``params``.

    Both latent event times race; whichever comes first before the
    censoring point min(maturity, censor_time) labels the loan, with ties
    going to default.  Otherwise the loan is Active at the censoring
    point.  Consumes exactly two uniforms (default first, then prepay).
    """
    if not (maturity > 0.0):
        raise ValueError(f"maturity must be positive, got {maturity}")
    if censor_time is not None and not (censor_time > 0.0):
        raise ValueError(f"censor_time must be positive, got {censor_time}")
    u_d = float(rng.uniform())
    u_p = float(rng.uniform())
    t_d = invert_survival(path, params.theta_default, params.baseline_default, u_d)
    t_p = invert_survival(path, params.theta_prepay, params.baseline_prepay, u_p)
    cutoff = maturity if censor_time is None else min(maturity, censor_time)
    if t_d <= t_p and t_d < cutoff:
        status, time = LoanStatus.DEFAULTED, t_d
    elif t_p < t_d and t_p < cutoff:
        status, time = LoanStatus.PREPAID, t_p
    else:
        status, time = LoanStatus.ACTIVE, cutoff
    return SimulatedLoan(status=status, time=time, latent_default=t_d, latent_prepay=t_p)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Shape of a synthetic benchmark portfolio.

    ``n_covariates`` counts the non-intercept columns: the last is a
    Bernoulli(0.5) indicator, the rest standard normal draws.  The design
    vector is [intercept, x1, ..., ind], so ``true_params`` must have
    dimension ``n_covariates + 1``.
    """

    n_loans: int
    true_params: ModelParams
    n_covariates: int = 3
    maturity: float = 30.0
    censor_time: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_loans < 0:
            raise ValueError("n_loans must be nonnegative")
        if self.n_covariates < 1:
            raise ValueError("need at least one covariate besides the intercept")
        if not (self.maturity > 0.0):
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.censor_time is not None and not (self.censor_time > 0.0):
            raise ValueError(f"censor_time must be positive, got {self.censor_time}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.true_params.p != self.n_covariates + 1:
            raise ValueError(
                f"true_params has dimension {self.true_params.p}, "
                f"expected {self.n_covariates + 1} (intercept + covariates)"
            )

    @property
    def schema(self) -> tuple[str, ...]:
        quant = tuple(f"x{i}" for i in range(1, self.n_covariates))
        return ("intercept",) + quant + ("ind",)


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth accompanying a benchmark dataset."""

    params: ModelParams
    schema: tuple[str, ...]
    seed: int
    maturity: float
    censor_time: float | None


def make_benchmark(config: BenchmarkConfig) -> tuple[Dataset, TruthRecord]:
    """Generate a benchmark portfolio and the truth that produced it.

    Loan i uses generator ``default_rng(SeedSequence(seed,
    spawn_key=(i,)))`` for its covariates and both event uniforms, so any
    subset of loans can be regenerated independently.
    """
    k, n = config.n_covariates, config.n_loans
    width = max(6, len(str(n - 1)))
    ids = [f"S{i:0{width}d}" for i in range(n)]
    rngs = [np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            for i in range(n)]
    x = np.empty((n, k + 1))
    x[:, 0] = 1.0
    for row, rng in zip(x, rngs):
        if k > 1:
            row[1:k] = rng.standard_normal(k - 1)
        row[k] = float(rng.integers(0, 2))
    # one observation per loan at obs_time 1.0, as CovariatePath.constant
    paths = CovariatePath._from_columns(
        np.ones(n), x, np.arange(n), config.schema, lambda row: f"loan {ids[row]}"
    )
    loans = []
    for loan_id, path, rng in zip(ids, paths, rngs):
        draw = simulate_loan(config.true_params, path, config.maturity, rng, config.censor_time)
        loans.append(LoanObservation(loan_id, draw.status, draw.time, path, config.maturity))
    dataset = Dataset(loans=tuple(loans), schema=config.schema)
    truth = TruthRecord(
        params=config.true_params,
        schema=config.schema,
        seed=config.seed,
        maturity=config.maturity,
        censor_time=config.censor_time,
    )
    return dataset, truth
