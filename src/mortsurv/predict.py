"""Posterior-predictive curves, event-time sampling, and outcome probabilities.

All predictive quantities average over the kept posterior draws: the
predictive reliability at t is the draw-average of exp(-Lambda(t)) and
the predictive density is the draw-average of hazard times survival.
The predictive law of one risk is thus a uniform mixture over the draws,
sampled exactly: pick a draw, then invert its survival in closed form
(``model.invert_cumulative_hazard``).  Draws falling beyond the
configured horizon come back at the horizon, flagged as censored.

``RiskCurves.curves`` returns reliability and density from one pass over
the (draws x times) grid.  Its baseline part does not depend on the loan,
so it can be computed once and shared by every loan on the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .mcmc import PosteriorSamples
from .model import CovariatePath, RiskKind, invert_cumulative_hazard

__all__ = [
    "RiskCurves",
    "EventTimeDraw",
    "ClassificationResult",
    "predictive_reliability",
    "predictive_density",
    "sample_event_time",
    "classify",
]

DEFAULT_HORIZON_FACTOR = 10.0


class RiskCurves:
    """Posterior-predictive evaluator for one loan profile and one risk.

    Precomputes per-draw weights exp(theta' x_j) and hazard capacities of
    the covariate intervals, then evaluates survival and density on time
    grids as (draws x times) arrays and samples event times.  Immutable.

    ``curves`` gives reliability and density together.  Their baseline
    part (``baseline``: the integrated baseline rate and the log baseline
    hazard per draw and time) depends only on the draws, the risk and the
    times, not on the loan, so one ``baseline`` serves every loan's
    ``curves`` for the same risk on the same grid.
    """

    def __init__(self, path: CovariatePath, samples: PosteriorSamples, risk: RiskKind):
        if samples.n_draws == 0:
            raise ValueError("need at least one posterior draw")
        if path.p != samples.p:
            raise ValueError(f"path has {path.p} covariates but draws carry {samples.p}")
        if risk is RiskKind.DEFAULT:
            mu, sigma2, theta = samples.mu_default, samples.sigma2_default, samples.theta_default
        else:
            mu, sigma2, theta = samples.mu_prepay, samples.sigma2_prepay, samples.theta_prepay
        self.path, self.risk = path, risk
        self._mu = mu[:, None]  # (G, 1)
        self._sigma = np.sqrt(sigma2)[:, None]
        self._etas = theta @ path.values.T  # (G, m)
        self._bounds = path.boundaries
        with np.errstate(over="ignore"):
            self._weights = np.exp(self._etas)
        # per draw and interval: integrated baseline at its start, hazard spent before it
        zero = np.zeros((self.n_draws, 1))
        self._h0_start = np.concatenate((zero, self._h0(self._bounds[1:-1])), axis=1)
        spent = self._spend(np.diff(self._h0_start, axis=1), slice(0, -1))
        self._spent = np.concatenate((zero, np.cumsum(spent, axis=1)), axis=1)

    @property
    def n_draws(self) -> int:
        return self._mu.shape[0]

    def _h0(self, t: np.ndarray) -> np.ndarray:
        """Integrated baseline rate at positive times, per draw: (G, k)."""
        z = (np.log(t)[None, :] - self._mu) / self._sigma
        return -sps.log_ndtr(-z)

    def _spend(self, piece: np.ndarray, j) -> np.ndarray:
        """Hazard of baseline increments ``piece`` under the weights of intervals j."""
        np.maximum(piece, 0.0, out=piece)
        with np.errstate(invalid="ignore", over="ignore"):
            contrib = self._weights[:, j] * piece
        return np.where(np.isnan(contrib), 0.0, contrib)  # inf weight, empty piece

    def _log_survival(self, times: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        """-Lambda(t) per draw on a positive time grid, (G, k), from the
        integrated baseline at the times (``h0``, reused when given)."""
        if h0 is None:
            h0 = self._h0(times)
        j = self.path.interval(times)
        return -(self._spent[:, j] + self._spend(h0 - self._h0_start[:, j], j))

    def reliability(self, times) -> np.ndarray:
        """Draw-averaged survival on a grid of positive times."""
        times = _check_times(times)
        return np.exp(self._log_survival(times)).mean(axis=0)

    def baseline(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Per draw on a grid of positive times, (G, k) each: the integrated
        baseline rate h0 and the log baseline hazard log f0 + h0."""
        times = _check_times(times)
        logt = np.log(times)[None, :]
        z = (logt - self._mu) / self._sigma
        h0 = -sps.log_ndtr(-z)
        log_pdf = -0.5 * np.log(2.0 * math.pi * self._sigma**2) - logt - 0.5 * z * z
        return h0, log_pdf + h0

    def curves(self, times, baseline=None) -> tuple[np.ndarray, np.ndarray]:
        """Draw-averaged (reliability, density) on a grid of positive times.

        ``baseline`` is ``baseline(times)`` of any ``RiskCurves`` over the
        same draws and risk; it is computed here when not given.
        """
        times = _check_times(times)
        h0, log_rate = self.baseline(times) if baseline is None else baseline
        if h0.shape != (self.n_draws, times.size):
            raise ValueError(
                f"baseline has shape {h0.shape}, grid needs {(self.n_draws, times.size)}"
            )
        log_s = self._log_survival(times, h0)
        eta_at_t = self._etas[:, self.path.interval(times)]
        with np.errstate(over="ignore"):
            density = np.exp(log_rate + eta_at_t + log_s).mean(axis=0)
        return np.exp(log_s).mean(axis=0), density

    def invert(self, g: np.ndarray, cumhaz: np.ndarray) -> np.ndarray:
        """Times at which draw g[i]'s cumulative hazard reaches cumhaz[i]."""
        mu, sigma = self._mu[g, 0], self._sigma[g, 0]
        return invert_cumulative_hazard(self._bounds, self._weights[g], mu, sigma, cumhaz)

    def event_times(self, g: np.ndarray, u: np.ndarray, horizon: float):
        """Where draw g[i]'s survival falls to u[i], as (times, censored): capped at the horizon."""
        with np.errstate(divide="ignore"):
            t = self.invert(g, -np.log(u))
        censored = t > horizon
        return np.where(censored, horizon, t), censored

    def sample(self, rng: np.random.Generator, n: int, horizon: float):
        """n capped event times as ``event_times``: n draw indices, then n uniforms."""
        g = rng.integers(0, self.n_draws, size=n)
        return self.event_times(g, rng.uniform(size=n), horizon)


def _check_times(times) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(times, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("times must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("times must be positive and finite")
    return arr


def predictive_reliability(
    path: CovariatePath, samples: PosteriorSamples, risk: RiskKind, times
) -> np.ndarray:
    """Posterior-mean survival curve of one risk on a time grid."""
    return RiskCurves(path, samples, risk).reliability(times)


def predictive_density(
    path: CovariatePath, samples: PosteriorSamples, risk: RiskKind, times
) -> np.ndarray:
    """Posterior-mean event-time density of one risk on a time grid."""
    return RiskCurves(path, samples, risk).curves(times)[1]


@dataclass(frozen=True)
class EventTimeDraw:
    """One sampled event time; censored means it hit the horizon cap."""

    time: float
    censored: bool


def sample_event_time(
    path: CovariatePath,
    samples: PosteriorSamples,
    risk: RiskKind,
    rng: np.random.Generator,
    horizon: float = 300.0,
) -> EventTimeDraw:
    """Draw one event time from the posterior-predictive law of a risk.

    Exact mixture sampling; events beyond ``horizon`` return it with ``censored=True``.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    times, censored = RiskCurves(path, samples, risk).sample(rng, 1, horizon)
    return EventTimeDraw(time=float(times[0]), censored=bool(censored[0]))


@dataclass(frozen=True)
class ClassificationResult:
    """Monte Carlo outcome probabilities for one loan profile.

    The three probabilities sum to exactly 1.0 when added in the order
    p_default + p_prepay + p_mature.  Counts are the raw simulation
    tallies; ``n_horizon_capped`` says how many latent draws (across both
    risks) hit the simulation horizon, all of which imply maturation.
    """

    p_default: float
    p_prepay: float
    p_mature: float
    n_sims: int
    n_default: int
    n_prepay: int
    n_mature: int
    horizon: float
    n_horizon_capped: int


def _exact_partition(n_default: int, n_prepay: int, n_sims: int) -> tuple[float, float, float]:
    """Probabilities from counts such that p_d + p_p + p_m == 1.0 exactly."""
    n_mature = n_sims - n_default - n_prepay
    if n_mature == n_sims:
        return 0.0, 0.0, 1.0
    p_default = n_default / n_sims
    if n_mature == 0:
        return p_default, 1.0 - p_default, 0.0
    p_prepay = n_prepay / n_sims
    return p_default, p_prepay, 1.0 - (p_default + p_prepay)


def classify(
    path: CovariatePath,
    samples: PosteriorSamples,
    maturity: float,
    n_sims: int,
    rng: np.random.Generator,
) -> ClassificationResult:
    """Simulate the competing risks to outcome probabilities for one loan.

    Draws ``n_sims`` latent pairs (default time, prepay time) from the
    two predictive laws, each risk with its own draw indices and uniforms
    (in ``rng`` order: default indices, default uniforms, then prepay),
    then partitions: mature if both times reach ``maturity``, else default
    if the default time is soonest (ties to default), else prepay.  The
    horizon is ``DEFAULT_HORIZON_FACTOR * maturity``; capped draws land
    beyond maturity and therefore count toward maturation.
    """
    if not (maturity > 0.0 and math.isfinite(maturity)):
        raise ValueError(f"maturity must be positive and finite, got {maturity}")
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    horizon = DEFAULT_HORIZON_FACTOR * maturity
    t_default, cap_d = RiskCurves(path, samples, RiskKind.DEFAULT).sample(rng, n_sims, horizon)
    t_prepay, cap_p = RiskCurves(path, samples, RiskKind.PREPAY).sample(rng, n_sims, horizon)

    mature = (t_default >= maturity) & (t_prepay >= maturity)
    default = ~mature & (t_default <= t_prepay)
    n_mature = int(np.count_nonzero(mature))
    n_default = int(np.count_nonzero(default))
    n_prepay = n_sims - n_mature - n_default
    p_default, p_prepay, p_mature = _exact_partition(n_default, n_prepay, n_sims)
    return ClassificationResult(
        p_default=p_default,
        p_prepay=p_prepay,
        p_mature=p_mature,
        n_sims=n_sims,
        n_default=n_default,
        n_prepay=n_prepay,
        n_mature=n_mature,
        horizon=horizon,
        n_horizon_capped=int(np.count_nonzero(cap_d) + np.count_nonzero(cap_p)),
    )
