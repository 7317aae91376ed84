"""Exact portfolio log-likelihood, factored for fast repeated evaluation.

The likelihood separates by risk: each risk contributes its event terms
(log hazard at the event time) minus its integrated hazard over every
loan's observation window, and censored loans contribute only the
integrals.  Within one risk it factors further into a coefficient part
(terms depending on theta) and a baseline part (terms depending on mu,
sigma2), joined by a single weighted sum over covariate-constant segments.
A Metropolis sweep that moves one block at a time therefore only recomputes
the part that block touches.

The baseline part costs one normal log-survival evaluation per distinct
positive segment boundary time, not per segment: each segment's
integrated baseline is gathered from that one array at its two ends (a
segment starting at time 0 needs only its upper end), and the event log
hazards reuse the same pass, since event times are segment ends.
Ingested exit times are whole months, so a large book has a few hundred
distinct times whatever its size.  Per-segment and per-event values are
the same elementwise arithmetic as evaluating each segment on its own.

All reductions go through ``np.sum`` (pairwise, single-threaded) over
segments and events in dataset order, so a given dataset and parameter
point always produces the bit-identical float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    LognormalBaseline,
    LoanObservation,
    ModelParams,
    RiskKind,
    _log_baseline_hazard,
    _lognormal_log_pdf,
    covariate_at,
    cumulative_hazard,
    log_normal_survival,
)

__all__ = ["PortfolioLikelihood", "loan_loglik", "total_loglik"]


@dataclass(frozen=True)
class CoefParts:
    """Theta-dependent pieces of one risk's log-likelihood."""

    event_eta_sum: float
    seg_weights: np.ndarray  # exp(theta' x) per segment, shape (S,)


@dataclass(frozen=True)
class BaselineParts:
    """(mu, sigma2)-dependent pieces of one risk's log-likelihood."""

    event_logr_sum: float
    seg_cumhaz: np.ndarray  # integrated baseline rate per segment, shape (S,)


class PortfolioLikelihood:
    """Precomputed-array evaluator for a fixed dataset.

    Construction walks the dataset once, flattening every loan's active
    covariate segments (shared by both risks) and collecting per-risk event
    times and event covariates.  It then indexes every segment end and
    every event time into the sorted distinct positive boundary times, so
    ``baseline_parts`` costs one log-survival pass over the U distinct
    times plus gathers, however many segments share them.  Instances are
    immutable after construction, so all chains share one.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        p = dataset.p

        seg_lo: list[np.ndarray] = []
        seg_hi: list[np.ndarray] = []
        seg_x: list[np.ndarray] = []
        event_t = {RiskKind.DEFAULT: [], RiskKind.PREPAY: []}
        event_x = {RiskKind.DEFAULT: [], RiskKind.PREPAY: []}

        for loan in dataset.loans:
            path = loan.covariates
            t = loan.time
            bounds = path.boundaries
            active = bounds[:-1] < t
            seg_lo.append(bounds[:-1][active])
            seg_hi.append(np.minimum(bounds[1:][active], t))
            seg_x.append(path.values[active])
            risk = loan.status.risk
            if risk is not None:
                event_t[risk].append(t)
                event_x[risk].append(covariate_at(path, t))

        lo = _concat(seg_lo, (0,))
        hi = _concat(seg_hi, (0,))
        self._seg_x = _concat(seg_x, (0, p))
        self._event_t = {r: np.asarray(event_t[r], dtype=float) for r in event_t}
        self._event_x = {
            r: _concat([np.atleast_2d(x) for x in event_x[r]], (0, p)) for r in event_x
        }

        # every segment end is positive; a start is 0 (first segment, where
        # H0(0) = 0 needs no lookup) or an inner covariate boundary
        times = np.unique(np.concatenate((lo[lo > 0.0], hi)))
        self._log_times = np.log(times)
        self._hi_idx = np.searchsorted(times, hi)
        self._inner = np.flatnonzero(lo > 0.0)
        self._inner_lo_idx = np.searchsorted(times, lo[self._inner])
        # an event time is its loan's last segment end, so it is one of the times
        self._event_idx = {r: np.searchsorted(times, self._event_t[r]) for r in self._event_t}
        for arr in (self._seg_x, self._log_times, self._hi_idx, self._inner, self._inner_lo_idx):
            arr.setflags(write=False)
        for d in (self._event_t, self._event_x, self._event_idx):
            for arr in d.values():
                arr.setflags(write=False)

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def n_segments(self) -> int:
        return self._hi_idx.size

    def n_events(self, risk: RiskKind) -> int:
        return self._event_t[risk].size

    def event_times(self, risk: RiskKind) -> np.ndarray:
        """Observed event times for one risk (read-only view)."""
        return self._event_t[risk]

    def coef_parts(self, risk: RiskKind, theta: np.ndarray) -> CoefParts:
        """Everything in risk's log-likelihood that depends on theta."""
        theta = np.asarray(theta, dtype=float)
        eta_sum = float(np.sum(self._event_x[risk] @ theta))
        with np.errstate(over="ignore"):
            weights = np.exp(self._seg_x @ theta)
        return CoefParts(event_eta_sum=eta_sum, seg_weights=weights)

    def baseline_parts(self, risk: RiskKind, baseline: LognormalBaseline) -> BaselineParts:
        """Everything in risk's log-likelihood that depends on (mu, sigma2).

        One log-survival pass over the distinct times gives the integrated
        baseline H0 = -log S0 at every segment end and, with the log-pdf at
        the same z, the log hazard at every event time.  Each per-segment
        and per-event value is the arithmetic of evaluating that segment or
        event on its own, so the sums match it bit for bit.
        """
        z = (self._log_times - baseline.mu) / baseline.sigma
        log_surv = log_normal_survival(z)
        h0 = -log_surv
        cumhaz = h0[self._hi_idx]
        cumhaz[self._inner] -= h0[self._inner_lo_idx]
        np.maximum(cumhaz, 0.0, out=cumhaz)
        idx = self._event_idx[risk]
        logr_sum = 0.0
        if idx.size:
            log_r = _lognormal_log_pdf(self._log_times, z, baseline) - log_surv
            logr_sum = float(np.sum(log_r[idx]))
        return BaselineParts(event_logr_sum=logr_sum, seg_cumhaz=cumhaz)

    @staticmethod
    def combine(coef: CoefParts, base: BaselineParts) -> float:
        """Assemble one risk's log-likelihood from its two parts."""
        with np.errstate(invalid="ignore"):
            lam = float(np.sum(coef.seg_weights * base.seg_cumhaz))
        # inf * 0 only occurs when exp(theta'x) overflowed; such a point is
        # beyond float range for the true likelihood too, so treat as -inf
        if math.isnan(lam):
            lam = math.inf
        return coef.event_eta_sum + base.event_logr_sum - lam

    def risk_loglik(
        self, risk: RiskKind, theta: np.ndarray, baseline: LognormalBaseline
    ) -> float:
        """One risk's contribution to the portfolio log-likelihood."""
        return self.combine(self.coef_parts(risk, theta), self.baseline_parts(risk, baseline))

    def total(self, params: ModelParams) -> float:
        """Full log-likelihood at ``params`` (0.0 for an empty portfolio)."""
        return self.risk_loglik(
            RiskKind.DEFAULT, params.theta_default, params.baseline_default
        ) + self.risk_loglik(RiskKind.PREPAY, params.theta_prepay, params.baseline_prepay)


def _concat(parts: list[np.ndarray], empty_shape: tuple[int, ...]) -> np.ndarray:
    if not parts:
        return np.empty(empty_shape)
    return np.concatenate(parts, axis=0).astype(float)


def loan_loglik(loan: LoanObservation, params: ModelParams) -> float:
    """Log-likelihood of a single loan, evaluated term by term.

    A terminated loan contributes the log hazard of its own risk at the
    event time; every loan contributes minus both risks' integrated hazards
    over its observation window.  This is the scalar reference against
    which the array evaluator is checked.
    """
    ll = 0.0
    for risk in RiskKind:
        ll -= cumulative_hazard(loan.covariates, params.theta(risk), params.baseline(risk), loan.time)
    risk = loan.status.risk
    if risk is not None:
        x = covariate_at(loan.covariates, loan.time)
        baseline = params.baseline(risk)
        log_r = float(_log_baseline_hazard(np.asarray(loan.time), baseline))
        ll += log_r + float(params.theta(risk) @ x)
    return ll


def total_loglik(dataset: Dataset, params: ModelParams) -> float:
    """Portfolio log-likelihood; equals the sum of ``loan_loglik`` terms."""
    return PortfolioLikelihood(dataset).total(params)
