"""Exact portfolio log-likelihood, factored for fast repeated evaluation.

The likelihood separates by risk: each risk contributes its event terms
(log hazard at the event time) minus its integrated hazard over every
loan's observation window, and censored loans contribute only the
integrals.  Within one risk it factors further into a coefficient part
(terms depending on theta) and a baseline part (terms depending on mu,
sigma2), joined by a single weighted sum over covariate-constant segments.
``risk_loglik`` evaluates one point as one ``coef_parts`` plus one
``baseline_parts``.  Both parts also take a leading row axis, and
``risk_logliks`` scores many points (the sampler's proposals of every chain)
in passes of ``_BATCH_ROWS`` rows through them, one matrix of z and one
log-survival call per pass.  ``risk_loglik_derivs`` adds the gradient and
Hessian in (theta, mu, log sigma2) for the sampler's mode search, from the
same log-survival pass.

The baseline part costs one normal log-survival evaluation per distinct
positive segment boundary time, not per segment: each segment's
integrated baseline is gathered from that one array at its two ends (a
segment starting at time 0 needs only its upper end), and the event log
hazards reuse the same pass, since event times are segment ends.
Ingested exit times are whole months, so a large book has a few hundred
distinct times whatever its size.  Per-segment and per-event values are
the same elementwise arithmetic as evaluating each segment on its own.

At one point, all reductions go through ``np.sum`` (pairwise,
single-threaded) over segments and events in dataset order, so a given
dataset and parameter point always produces the bit-identical float.  A
row of a batched pass has the same segment weights and per-time values,
summed in another fixed order (see ``risk_logliks``), so it agrees with
the one-point value to rounding.  Each row is reduced on its own, never
through a matrix product over rows, so its value is the same bits however
many rows share the call and wherever it sits among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

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

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# rows per pass of ``risk_logliks``, which works in a few (rows, S) and
# (rows, U) arrays: 16 to 64 rows cost the same per row on the benchmark books,
# and the sampler runs one pass per risk at a time on two threads, so two
# 16-row passes hold the memory of one 32-row pass
_BATCH_ROWS = 16


@dataclass(frozen=True)
class CoefParts:
    """Theta-dependent pieces of one risk's log-likelihood, at one point
    or (with a leading row axis) at each of n rows."""

    event_eta_sum: float | np.ndarray  # float, or shape (n,)
    seg_weights: np.ndarray  # exp(theta' x) per segment, shape (S,) or (n, S)


@dataclass(frozen=True)
class BaselineParts:
    """(mu, sigma2)-dependent pieces of one risk's log-likelihood, at one
    point or (with a leading row axis) at each of n rows."""

    event_logr_sum: float | np.ndarray  # float, or shape (n,)
    seg_cumhaz: np.ndarray  # integrated baseline rate per segment, shape (S,) or (n, S)


class PortfolioLikelihood:
    """Precomputed-array evaluator for a fixed dataset.

    Construction concatenates every loan's covariate intervals and keeps,
    in one array pass, those that start before the loan's time, cut to end
    at it: the segments, shared by both risks.  Each event is a gather at
    its loan's last segment.  Every segment end, event times included, is
    indexed into the sorted distinct positive boundary times, so
    ``baseline_parts`` costs one log-survival pass over the U distinct
    times plus gathers, however many segments share them.  Instances are
    immutable after construction, so all chains share one.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        loans = dataset.loans
        paths = [loan.covariates for loan in loans]
        time = np.array([loan.time for loan in loans], dtype=float)
        risks = [loan.status.risk for loan in loans]

        # every interval of every path in dataset order (an empty first part
        # gives the empty book its shapes), each beside its loan's time; the
        # active ones start before that time and are cut to end at it
        lo = np.concatenate([np.empty(0)] + [path.boundaries[:-1] for path in paths])
        hi = np.concatenate([np.empty(0)] + [path.boundaries[1:] for path in paths])
        x = np.concatenate([np.empty((0, dataset.p))] + [path.values for path in paths])
        t = np.repeat(time, [path.m for path in paths])
        active = lo < t
        lo, t = lo[active], t[active]
        hi = np.minimum(hi[active], t)
        self._seg_x = x[active]

        # every segment end is positive; a start is 0 (first segment, where
        # H0(0) = 0 needs no lookup) or an inner covariate boundary
        times = np.unique(np.concatenate((lo[lo > 0.0], hi)))
        self._log_times = np.log(times)
        self._hi_idx = np.searchsorted(times, hi)
        self._inner = np.flatnonzero(lo > 0.0)
        self._inner_lo_idx = np.searchsorted(times, lo[self._inner])
        # a loan's last segment ends at its time (the others end at an inner
        # boundary below it) and holds the covariates in force there, the
        # earlier interval's for a time on an interior boundary
        last = np.flatnonzero(hi == t)
        event = {r: last[np.array([s is r for s in risks], dtype=bool)] for r in RiskKind}
        self._event_t = {r: hi[i] for r, i in event.items()}
        self._event_x = {r: self._seg_x[i] for r, i in event.items()}
        self._event_idx = {r: self._hi_idx[i] for r, i in event.items()}
        # the batched pass sums over each risk's distinct event times, each
        # weighted by its number of events, and over the summed event covariates
        self._event_at = {}
        for r, i in self._event_idx.items():
            at, count = np.unique(i, return_counts=True)
            self._event_at[r] = at, count.astype(float)
        self._event_x_sum = {r: x.sum(axis=0) for r, x in self._event_x.items()}
        for arr in (self._seg_x, self._log_times, self._hi_idx, self._inner, self._inner_lo_idx):
            arr.setflags(write=False)
        for d in (self._event_t, self._event_x, self._event_idx, self._event_x_sum):
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

    def coef_parts(self, risk: RiskKind, theta: np.ndarray, out=None) -> CoefParts:
        """Everything in risk's log-likelihood that depends on theta, at one
        theta of shape (p,) or at each row of an (n, p) array; for rows,
        ``out`` may give the (n, S) array to hold the weights."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            eta_sum = float(np.sum(self._event_x[risk] @ theta))
            eta = self._seg_x @ theta
        else:
            eta_sum = np.sum(theta * self._event_x_sum[risk], axis=1)
            eta = np.empty((len(theta), self.n_segments)) if out is None else out
            # a matrix-vector product per row, the same as at one point,
            # not one matrix product: exp would turn its rounding difference
            # in theta'x into a relative one of eps |theta'x| in the weight
            np.matmul(self._seg_x, theta[:, :, None], out=eta[:, :, None])
        with np.errstate(over="ignore"):
            return CoefParts(eta_sum, np.exp(eta, out=eta))

    def baseline_parts(
        self, risk: RiskKind, baseline: LognormalBaseline | np.ndarray, out=None
    ) -> BaselineParts:
        """Everything in risk's log-likelihood that depends on (mu, sigma2),
        at one ``LognormalBaseline`` or at each (mu, sigma2) row of an
        (n, 2) array; ``out`` may give the arrays to work in, for z and H0
        at the distinct times and for the segments' integrated baselines.

        One log-survival pass over the distinct times gives the integrated
        baseline H0 = -log S0 at every segment end and, with the log-pdf at
        the same z, the log hazard at every event time.  Each per-segment
        and per-event value is the arithmetic of evaluating that segment or
        event on its own, so at one point the sums match it bit for bit.
        """
        return self._baseline_pass(risk, baseline, out)[0]

    def _baseline_pass(
        self, risk: RiskKind, baseline: LognormalBaseline | np.ndarray, out=None
    ) -> tuple[BaselineParts, np.ndarray]:
        """``baseline_parts`` with the z of every distinct time (one row of
        them per baseline row)."""
        z_out, h0_out, seg_out = out if out is not None else (None, None, None)
        if isinstance(baseline, LognormalBaseline):
            mu, sigma, sigma2 = baseline.mu, baseline.sigma, baseline.sigma2
        else:
            mu, sigma2 = baseline[:, :1], baseline[:, 1:]
            sigma = np.sqrt(sigma2)
        z = np.subtract(self._log_times, mu, out=z_out)
        z /= sigma
        h0 = log_normal_survival(z, out=h0_out)
        np.negative(h0, out=h0)
        cumhaz = self._per_segment(h0, out=seg_out)
        np.maximum(cumhaz, 0.0, out=cumhaz)
        if z.ndim == 1:
            logr_sum = float(np.sum(self._log_hazard(self._event_idx[risk], z, h0, sigma2)))
        else:
            # each distinct event time once, weighted by its number of events
            at, count = self._event_at[risk]
            logr_sum = np.sum(self._log_hazard(at, z, h0, sigma2) * count, axis=1)
        return BaselineParts(event_logr_sum=logr_sum, seg_cumhaz=cumhaz), z

    def _log_hazard(self, at, z, h0, sigma2):
        """The log baseline hazard at the distinct times indexed by ``at``,
        from z and H0 at every distinct time (last axis)."""
        return _lognormal_log_pdf(self._log_times[at], z[..., at], sigma2) + h0[..., at]

    def _per_segment(self, at_times: np.ndarray, out=None) -> np.ndarray:
        """Each segment's increment of a function of time given at the
        distinct times (last axis): its value at the segment end, minus its
        value at the start for a segment that starts after time 0."""
        if out is None:
            # for a 2-D input this is Fortran-ordered, and that order fixes
            # the sums of ``risk_loglik_derivs``
            out = at_times[..., self._hi_idx]
        else:
            # the indices are in range by construction; "clip" writes to
            # ``out`` directly where the default mode would buffer
            np.take(at_times, self._hi_idx, axis=-1, out=out, mode="clip")
        out[..., self._inner] -= at_times[..., self._inner_lo_idx]
        return out

    @staticmethod
    def combine(coef: CoefParts, base: BaselineParts):
        """Assemble one risk's log-likelihood from its two parts: a float,
        or one value per row for parts with a leading row axis."""
        w, cumhaz = coef.seg_weights, base.seg_cumhaz
        # inf * 0 only occurs when exp(theta'x) overflowed; such a point is
        # beyond float range for the true likelihood too, so treat as -inf
        with np.errstate(over="ignore", invalid="ignore"):
            if w.ndim == 1:
                lam = float(np.sum(w * cumhaz))
                lam = math.inf if math.isnan(lam) else lam
            else:
                lam = np.sum(w * cumhaz, axis=1)
                lam[np.isnan(lam)] = math.inf
        return coef.event_eta_sum + base.event_logr_sum - lam

    def risk_loglik_derivs(
        self, risk: RiskKind, theta: np.ndarray, baseline: LognormalBaseline
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """One risk's log-likelihood with its gradient and Hessian in
        (theta, mu, log sigma2).

        The derivatives reuse the z of the log-survival pass of
        ``baseline_parts``.  With M(z) = phi(z) / S0(z), the inverse Mills
        ratio, H0 = -log S0 has dH0/dz = M and d2H0/dz2 = M' = M (M - z),
        while dz/dmu = -1/sigma and dz/dlog sigma2 = -z/2.  That gives the
        first and second derivatives of H0 in (mu, log sigma2) at every
        distinct time; each segment takes its increment of them, weighted by
        exp(theta' x), and each event its value, plus those of
        -z**2/2 - log(sigma2)/2 in the log hazard.  In theta, the gradient is
        the summed event covariates minus ``seg_x' (weights * cumhaz)`` and
        the Hessian block is ``-seg_x' diag(weights * cumhaz) seg_x``.

        The value equals ``risk_loglik``.  The gradient and Hessian hold
        non-finite entries where the value is -inf through overflow, and the
        Hessian alone can overflow where the covariates are huge.
        """
        coef = self.coef_parts(risk, theta)
        base, z = self._baseline_pass(risk, baseline)
        ll = self.combine(coef, base)
        sigma, w, idx = baseline.sigma, coef.seg_weights, self._event_idx[risk]
        p = self._seg_x.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            # phi(z) / S0(z) = sqrt(2/pi) / erfcx(z/sqrt(2)), which keeps M - z
            # accurate far into the upper tail, where phi and S0 both underflow
            mills = _SQRT_2_OVER_PI / sps.erfcx(z / math.sqrt(2.0))
            slope = mills * (mills - z)  # M'
            curve = z * slope + mills
            # per distinct time: dH0/dmu, dH0/dl, d2H0/dmu2, d2H0/dmu dl, d2H0/dl2
            h0 = np.stack((-mills / sigma, -0.5 * z * mills,
                           slope / sigma**2, 0.5 * curve / sigma, 0.25 * z * curve))
            z_e = z[idx]
            # per event, the same of the log hazard -z**2/2 - l/2 + H0 + const
            log_r = h0[:, idx] + np.array((
                z_e / sigma, 0.5 * (z_e * z_e - 1.0), np.full(idx.size, -1.0 / sigma**2),
                -z_e / sigma, -0.5 * z_e * z_e,
            ))
            seg = self._per_segment(h0) * w
            g_mu, g_l, h_mumu, h_mul, h_ll = log_r.sum(axis=1) - seg.sum(axis=1)
            wh = w * base.seg_cumhaz
            g_theta = self._event_x_sum[risk] - self._seg_x.T @ wh
            hess = np.empty((p + 2, p + 2))
            hess[:p, :p] = -(self._seg_x.T * wh) @ self._seg_x
            hess[:p, p:] = -self._seg_x.T @ seg[:2].T
            hess[p:, :p] = hess[:p, p:].T
            hess[p:, p:] = ((h_mumu, h_mul), (h_mul, h_ll))
        return ll, np.concatenate((g_theta, (g_mu, g_l))), hess

    def unit_column(self) -> int | None:
        """The first design column that is 1 on every segment (an intercept),
        or None when there is none or there are no segments."""
        if not self.n_segments:
            return None
        ones = np.flatnonzero(np.all(self._seg_x == 1.0, axis=0))
        return int(ones[0]) if ones.size else None

    def risk_loglik(
        self, risk: RiskKind, theta: np.ndarray, baseline: LognormalBaseline
    ) -> float:
        """One risk's contribution to the portfolio log-likelihood."""
        return self.combine(self.coef_parts(risk, theta), self.baseline_parts(risk, baseline))

    def risk_logliks(self, risk: RiskKind, rows: np.ndarray) -> np.ndarray:
        """``risk_loglik`` at each row (mu, sigma2, theta) of an
        (n, 2 + p) array, ``_BATCH_ROWS`` rows per pass of the parts.

        Each row's segment weights are the one-point weights bit for bit;
        the sums differ from ``risk_loglik`` by rounding only, since the
        event covariates are summed before the product with theta and the
        event log hazards once per distinct time with its number of events
        as weight.  A row's value does not depend on the other rows.
        """
        out = np.empty(len(rows))
        n = min(len(rows), _BATCH_ROWS)
        # every pass works in these arrays; fresh ones for each pass would
        # be paged in anew each time
        seg = np.empty((2, n, self.n_segments))
        times = np.empty((2, n, self._log_times.size))
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = rows[start : start + _BATCH_ROWS]
            k = len(batch)
            coef = self.coef_parts(risk, batch[:, 2:], out=seg[0, :k])
            base = self.baseline_parts(risk, batch[:, :2], out=(*times[:, :k], seg[1, :k]))
            out[start : start + k] = self.combine(coef, base)
        return out

    def total(self, params: ModelParams) -> float:
        """Full log-likelihood at ``params`` (0.0 for an empty portfolio)."""
        return self.risk_loglik(
            RiskKind.DEFAULT, params.theta_default, params.baseline_default
        ) + self.risk_loglik(RiskKind.PREPAY, params.theta_prepay, params.baseline_prepay)


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
