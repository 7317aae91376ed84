"""Residual and calibration diagnostics against the posterior predictive.

Each terminated loan is compared with the predictive law of its own risk:
a standardized residual locates the observed time against the predictive
mean and spread, the observed quantile is the predictive reliability
evaluated at the observed time, and coverage counts how often central
predictive intervals catch the observation, reported separately for
defaulted and prepaid loans.

Moments and intervals come from the draw-averaged reliability R on one
log-time grid per loan, from where every draw's cumulative hazard is
1e-12 up to the horizon H: 8 Gauss-Legendre nodes per panel of at most
one unit of log-time, with panel edges at the covariate switch points,
where R has kinks.  By parts, E[T 1{T<=H}] = int_0^H (R(t) - R(H)) dt and
E[T^2 1{T<=H}] = 2 int_0^H t (R(t) - R(H)) dt; moments are given
conditional on (0, H], with the tail mass R(H) alongside.  Interval
endpoints are bracketed on the grid, then refined by regula falsi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mcmc import PosteriorSamples
from .model import LoanObservation, LoanStatus, RiskKind
from .predict import DEFAULT_HORIZON_FACTOR, RiskCurves

__all__ = [
    "PredictiveMoments",
    "LoanDiagnostics",
    "CoverageCell",
    "CoverageReport",
    "predictive_moments",
    "standardized_residual",
    "observed_quantile",
    "loan_diagnostics",
    "coverage_report",
]

_TAIL_CUMHAZ = 1e-12  # every draw's cumulative hazard at the lowest node is below this
_SPAN = (1e-12, 1e-3)  # the lowest node lies within these multiples of the horizon
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)  # per panel of log-time
_BLOCK = 256  # nodes per reliability evaluation, bounding the (draws x nodes) array
_REFINE_STEPS = 12


@dataclass(frozen=True)
class PredictiveMoments:
    """Mean and sd of the predictive event time given it lands by the horizon."""

    mean: float
    sd: float
    tail_mass: float  # predictive reliability at the horizon
    horizon: float


class _MixtureGrid:
    """Draw-averaged reliability of one risk on one log-time grid up to the horizon."""

    def __init__(self, curves: RiskCurves, horizon: float):
        g = np.arange(curves.n_draws)
        lowest = curves.hazard.invert(g, np.full(g.size, _TAIL_CUMHAZ))
        edges = [float(np.clip(lowest.min(), _SPAN[0] * horizon, _SPAN[1] * horizon))]
        edges += [b for b in curves.path.boundaries[1:-1] if edges[0] < b < horizon] + [horizon]
        t, w = [edges[0]], [0.0]
        for a, b in zip(edges[:-1], edges[1:]):  # Gauss-Legendre panels in s = log t
            n = max(math.ceil(math.log(b / a)), 1)
            half = 0.5 * math.log(b / a) / n
            mid = math.log(a) + half * np.arange(1, 2 * n, 2)
            nodes = np.exp((mid[:, None] + half * _GL_NODES).ravel())
            t += [*nodes, b]
            w += [*(half * np.tile(_GL_WEIGHTS, n) * nodes), 0.0]
        self.curves, self.horizon, self.t, self.w = curves, horizon, np.array(t), np.array(w)
        blocks = np.split(self.t, range(_BLOCK, self.t.size, _BLOCK))
        self.rel = np.concatenate([curves.reliability(part) for part in blocks])

    def moments(self) -> PredictiveMoments:
        tail = float(self.rel[-1])
        mass = 1.0 - tail
        mean = sd = math.nan
        if mass > 0.0:
            inside = self.rel - tail  # P(t < T <= H); flat below the lowest node
            m1 = self.t[0] * inside[0] + self.w @ inside
            m2 = self.t[0] ** 2 * inside[0] + 2.0 * (self.w @ (self.t * inside))
            mean = m1 / mass
            sd = math.sqrt(max(m2 / mass - mean * mean, 0.0))
        return PredictiveMoments(mean=mean, sd=sd, tail_mass=tail, horizon=self.horizon)

    def quantiles(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(times, censored) where the reliability falls to each level u, as ``event_times``;
        levels at or above the reliability at the lowest node return that node."""
        u = np.asarray(u, dtype=float)
        censored = u < self.rel[-1]
        times = np.where(censored, self.horizon, self.t[0])
        sel = ~censored & (u < self.rel[0])
        if not sel.any():
            return times, censored
        u = u[sel]
        k = np.searchsorted(-self.rel, -u, side="left")  # first node with rel <= u
        a, b = np.log(self.t[k - 1]), np.log(self.t[k])
        fa, fb = self.rel[k - 1] - u, self.rel[k] - u  # fa > 0 >= fb
        side = np.zeros(u.size)
        for _ in range(_REFINE_STEPS):
            s = a + (b - a) * fa / (fa - fb)
            f = self.curves.reliability(np.exp(s)) - u
            right = f <= 0.0  # the crossing lies in [a, s]
            # Illinois: halve the value at an end kept twice in a row
            fa = np.where(right, np.where(side > 0, 0.5 * fa, fa), f)
            fb = np.where(right, f, np.where(side < 0, 0.5 * fb, fb))
            a, b = np.where(right, a, s), np.where(right, s, b)
            side = np.where(right, 1.0, -1.0)
        times[sel] = np.exp(s)
        return times, censored


def predictive_moments(
    path, samples: PosteriorSamples, risk: RiskKind, horizon: float = 300.0
) -> PredictiveMoments:
    """Predictive moments for one profile and risk, integrated on a log-time grid.

    Moments are conditional on the event occurring in (0, horizon];
    ``tail_mass`` is the predictive probability of surviving past the
    horizon.  Returns NaN moments when no mass lies inside.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    return _MixtureGrid(RiskCurves(path, samples, risk), horizon).moments()


def _own_risk(loan: LoanObservation) -> RiskKind:
    if loan.status.risk is None:
        raise ValueError(f"loan {loan.loan_id} is active; residual diagnostics need a terminal event")
    return loan.status.risk


def standardized_residual(loan: LoanObservation, samples: PosteriorSamples) -> float:
    """(observed time - predictive mean) / predictive sd for the loan's own risk."""
    curves = RiskCurves(loan.covariates, samples, _own_risk(loan))
    m = _MixtureGrid(curves, DEFAULT_HORIZON_FACTOR * loan.maturity).moments()
    return (loan.time - m.mean) / m.sd


def observed_quantile(loan: LoanObservation, samples: PosteriorSamples) -> float:
    """Predictive reliability of the loan's own risk at its observed time.

    Values near 1 mean the event came surprisingly early, near 0
    surprisingly late; a calibrated model spreads them uniformly.
    """
    curves = RiskCurves(loan.covariates, samples, _own_risk(loan))
    return float(curves.reliability(np.array([loan.time]))[0])


@dataclass(frozen=True)
class LoanDiagnostics:
    """Per-loan diagnostic row for a terminated loan."""

    loan_id: str
    status: LoanStatus
    residual: float
    quantile: float
    interval_low: float
    interval_high: float
    in_interval: bool


def _check_level(level: float) -> None:
    if not (0.0 <= level <= 1.0):
        raise ValueError(f"level must be in [0, 1], got {level}")


def loan_diagnostics(
    loan: LoanObservation, samples: PosteriorSamples, level: float = 0.95
) -> LoanDiagnostics:
    """Residual, observed quantile, and central-interval hit for one loan.

    The central interval at ``level`` runs between the predictive times
    with reliability (1+level)/2 and (1-level)/2; interval endpoints are
    capped at the horizon (10x maturity) like every predictive draw.
    """
    _check_level(level)
    curves = RiskCurves(loan.covariates, samples, _own_risk(loan))
    grid = _MixtureGrid(curves, DEFAULT_HORIZON_FACTOR * loan.maturity)
    m = grid.moments()
    (t_low, t_high), _ = grid.quantiles(np.array([(1.0 + level) / 2.0, (1.0 - level) / 2.0]))
    return LoanDiagnostics(
        loan_id=loan.loan_id,
        status=loan.status,
        residual=(loan.time - m.mean) / m.sd,
        quantile=float(curves.reliability(np.array([loan.time]))[0]),
        interval_low=float(t_low),
        interval_high=float(t_high),
        in_interval=bool(t_low <= loan.time <= t_high),
    )


@dataclass(frozen=True)
class CoverageCell:
    """Interval-coverage tally for one loan category."""

    n_loans: int
    n_hits: int

    @property
    def rate(self) -> float:
        return self.n_hits / self.n_loans if self.n_loans else math.nan


@dataclass(frozen=True)
class CoverageReport:
    """Central-interval coverage of observed event times, by category."""

    level: float
    defaulted: CoverageCell
    prepaid: CoverageCell
    rows: tuple[LoanDiagnostics, ...]


def coverage_report(
    loans, samples: PosteriorSamples, level: float = 0.95
) -> CoverageReport:
    """Evaluate central predictive intervals against every terminated loan.

    Active loans are skipped (they carry no event time to cover).  At
    level 1 every finite observation below the horizon is covered; at
    level 0 the interval degenerates to a point and essentially nothing
    is.
    """
    _check_level(level)
    rows = []
    tallies = {LoanStatus.DEFAULTED: [0, 0], LoanStatus.PREPAID: [0, 0]}
    for loan in loans:
        if loan.status is LoanStatus.ACTIVE:
            continue
        row = loan_diagnostics(loan, samples, level)
        rows.append(row)
        tallies[loan.status][0] += 1
        tallies[loan.status][1] += int(row.in_interval)
    return CoverageReport(
        level=level,
        defaulted=CoverageCell(*tallies[LoanStatus.DEFAULTED]),
        prepaid=CoverageCell(*tallies[LoanStatus.PREPAID]),
        rows=tuple(rows),
    )
