"""Core competing-risks model: types, lognormal baselines, closed-form hazards.

Every loan carries two latent lifetimes racing each other, one for default
and one for prepayment.  Each risk has a proportional-hazards rate

    lambda_r(t | x) = r_r(t) * exp(theta_r' x(t)),

where the baseline rate r_r is the failure rate of a lognormal lifetime
(unimodal in loan age) and the covariate vector x(t) is a step function of
time.  Lognormal baselines keep every integrated hazard in closed form via
the Gaussian log-survival function, which is what makes exact likelihood
evaluation cheap enough for MCMC.

Times are in years.  Covariate vectors may use any ordering; the schema
attached to a dataset names the columns, and nothing in the math privileges
a particular position for the intercept.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sps

__all__ = [
    "RiskKind",
    "LoanStatus",
    "LognormalBaseline",
    "ModelParams",
    "CovariatePath",
    "LoanObservation",
    "Dataset",
    "log_normal_survival",
    "lognormal_hazard",
    "baseline_cumhaz",
    "covariate_at",
    "cumulative_hazard",
    "invert_cumulative_hazard",
]


class RiskKind(enum.Enum):
    """One of the two competing terminal events."""

    DEFAULT = "default"
    PREPAY = "prepay"


class LoanStatus(enum.Enum):
    """Observed disposition of a loan at the end of its record."""

    DEFAULTED = "default"
    PREPAID = "prepaid"
    ACTIVE = "active"

    @property
    def risk(self) -> RiskKind | None:
        """The risk that fired, or None for a censored (active) loan."""
        if self is LoanStatus.DEFAULTED:
            return RiskKind.DEFAULT
        if self is LoanStatus.PREPAID:
            return RiskKind.PREPAY
        return None


def _as_readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LognormalBaseline:
    """Baseline lifetime distribution for one risk: log T ~ N(mu, sigma2)."""

    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise ValueError("baseline parameters must be finite")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: a baseline and coefficient vector per risk.

    The two coefficient vectors must have equal length p, matching the
    covariate dimension of whatever dataset they are evaluated against.
    """

    baseline_default: LognormalBaseline
    baseline_prepay: LognormalBaseline
    theta_default: np.ndarray
    theta_prepay: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta_default", _as_readonly_vector(self.theta_default, "theta_default")
        )
        object.__setattr__(
            self, "theta_prepay", _as_readonly_vector(self.theta_prepay, "theta_prepay")
        )
        if self.theta_default.shape != self.theta_prepay.shape:
            raise ValueError(
                "theta_default and theta_prepay must have the same length, got "
                f"{self.theta_default.shape[0]} and {self.theta_prepay.shape[0]}"
            )

    @property
    def p(self) -> int:
        """Covariate dimension."""
        return self.theta_default.shape[0]

    def baseline(self, risk: RiskKind) -> LognormalBaseline:
        return self.baseline_default if risk is RiskKind.DEFAULT else self.baseline_prepay

    def theta(self, risk: RiskKind) -> np.ndarray:
        return self.theta_default if risk is RiskKind.DEFAULT else self.theta_prepay


@dataclass(frozen=True)
class CovariatePath:
    """Piecewise-constant covariate history for one loan.

    Parameters
    ----------
    obs_times : array_like, shape (m,)
        Strictly increasing positive times at which the covariates were
        observed.
    values : array_like, shape (m, p)
        Covariate vector observed at each time.

    Notes
    -----
    The observation at tau_j is taken to hold on the interval
    (s_{j-1}, s_j], where s_0 = 0, s_j is the midpoint between tau_j and
    tau_{j+1}, and s_m = +inf.  A time landing exactly on an interior
    boundary belongs to the earlier interval.  A single observation
    therefore means covariates constant for the loan's whole life.
    """

    obs_times: np.ndarray
    values: np.ndarray
    # (m+1,) interval boundaries s_0=0 < s_1 < ... < s_m=inf, derived
    boundaries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.obs_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("obs_times must be a nonempty one-dimensional array")
        if vals.ndim == 1 and times.size == 1:
            vals = vals.reshape(1, -1)
        if vals.ndim != 2 or vals.shape[0] != times.size:
            raise ValueError(
                f"values must have shape (m, p) with m = {times.size}, got {vals.shape}"
            )
        names = tuple(f"values column {j}" for j in range(vals.shape[1]))
        (path,) = self._from_columns(times, vals, [0], names, lambda row: f"row {row}")
        for name in ("obs_times", "values", "boundaries"):
            object.__setattr__(self, name, getattr(path, name))

    def interval(self, t):
        """For each positive t (scalar or array), the j with boundaries[j] <
        t <= boundaries[j + 1]: ``values[j]`` is in force at t, and a t
        exactly on an interior boundary belongs to the earlier interval."""
        return np.searchsorted(self.boundaries, t, side="left") - 1

    @property
    def m(self) -> int:
        return self.obs_times.size

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, x, obs_time: float = 1.0) -> "CovariatePath":
        """Path with a single observation, i.e. covariates fixed for life."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(obs_times=np.array([obs_time]), values=x.reshape(1, -1))

    @classmethod
    def _from_columns(
        cls, obs_times, values, starts, names: tuple[str, ...], where
    ) -> list["CovariatePath"]:
        """Paths of many loans from flat columns, each column checked once;
        every path is built here, the constructor's included.

        Loan k owns rows ``starts[k]`` up to ``starts[k + 1]`` (or the end)
        of ``obs_times`` (N,) and ``values`` (N, p); ``starts`` begins at 0
        and is strictly increasing.  A non-finite value, a time not finite
        and positive, or a time not above the one before it in its loan
        raises ValueError for the first such row, prefixed by ``where(row)``
        and naming the column (``obs_time`` or ``names[j]``) and the value.
        Each path's boundaries are 0, the midpoints between its consecutive
        times, then inf; its arrays are read-only views of one copy of the
        columns.
        """
        times = np.array(obs_times, dtype=float)
        vals = np.array(values, dtype=float).reshape(times.size, len(names))
        first = np.array(starts, dtype=np.intp)
        later = np.ones(times.size, dtype=bool)  # rows after their loan's first
        later[first] = False
        bad_range = ~(np.isfinite(times) & (times > 0.0))
        bad_order = np.zeros(times.size, dtype=bool)
        bad_order[1:] = later[1:] & (times[1:] <= times[:-1])
        bad_value = ~np.isfinite(vals)
        rows = np.flatnonzero(bad_range | bad_order | bad_value.any(axis=1))
        if rows.size:
            i = int(rows[0])
            t = float(times[i])
            if bad_range[i]:
                what = f"obs_time must be finite and positive, got {t!r}"
            elif bad_order[i]:
                before = float(times[i - 1])
                what = (
                    f"obs_time must be strictly increasing within a loan, "
                    f"got {t!r} after {before!r}"
                )
            else:
                j = int(np.flatnonzero(bad_value[i])[0])
                what = f"{names[j]} must be finite, got {float(vals[i, j])!r}"
            raise ValueError(f"{where(i)}: {what}")
        # loan k's boundaries are flat[first[k] + k : ends[k] + k + 1]: 0, the
        # midpoints between its times, then inf; the boundary between its
        # rows r - 1 and r sits at flat[r + k]
        ends = np.empty_like(first)
        ends[:-1], ends[-1:] = first[1:], times.size
        loan = np.arange(first.size)
        flat = np.empty(times.size + first.size)
        flat[first + loan] = 0.0
        flat[ends + loan] = np.inf
        r = np.flatnonzero(later)
        flat[r + np.searchsorted(first, r, "right") - 1] = 0.5 * (times[r - 1] + times[r])
        for arr in (times, vals, flat):
            arr.setflags(write=False)
        paths = []
        for k, (a, b) in enumerate(zip(first.tolist(), ends.tolist())):
            path = object.__new__(cls)
            object.__setattr__(path, "obs_times", times[a:b])
            object.__setattr__(path, "values", vals[a:b])
            object.__setattr__(path, "boundaries", flat[a + k : b + k + 1])
            paths.append(path)
        return paths


@dataclass(frozen=True)
class LoanObservation:
    """One loan's outcome: status, event or censoring time, covariate history."""

    loan_id: str
    status: LoanStatus
    time: float
    covariates: CovariatePath
    maturity: float = 30.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time > 0.0):
            raise ValueError(f"loan {self.loan_id}: time must be positive, got {self.time}")
        if not (math.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError(f"loan {self.loan_id}: maturity must be positive")
        if self.status is LoanStatus.ACTIVE and self.time > self.maturity:
            raise ValueError(
                f"loan {self.loan_id}: active beyond maturity "
                f"({self.time} > {self.maturity})"
            )


@dataclass(frozen=True)
class Dataset:
    """A portfolio of loans sharing one covariate schema."""

    loans: tuple[LoanObservation, ...]
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "loans", tuple(self.loans))
        object.__setattr__(self, "schema", tuple(str(s) for s in self.schema))
        p = len(self.schema)
        if p == 0:
            raise ValueError("schema must name at least one covariate column")
        for loan in self.loans:
            if loan.covariates.p != p:
                raise ValueError(
                    f"loan {loan.loan_id} has {loan.covariates.p} covariates, "
                    f"schema has {p}"
                )

    @property
    def n_loans(self) -> int:
        return len(self.loans)

    @property
    def p(self) -> int:
        return len(self.schema)

    def count(self, status: LoanStatus) -> int:
        return sum(1 for loan in self.loans if loan.status is status)


# --- scalar/array math -------------------------------------------------------


def log_normal_survival(z):
    """log(1 - Phi(z)) for the standard normal CDF Phi, stable in both tails.

    Evaluates via the complementary relation 1 - Phi(z) = Phi(-z) using the
    dedicated log-CDF routine, so the result stays accurate far into the
    upper tail (z = 40 gives about -804.6) where forming 1 - Phi(z) by
    subtraction would underflow to -inf around z = 8.4.

    Parameters
    ----------
    z : float or array_like

    Returns
    -------
    float or ndarray
        Same shape as ``z``; always nonpositive.
    """
    return sps.log_ndtr(-np.asarray(z, dtype=float))


def _lognormal_log_pdf(logt, z, baseline: LognormalBaseline):
    """log pdf of the lognormal lifetime at t, from log t and z = (log t - mu)/sigma."""
    return -0.5 * math.log(2.0 * math.pi * baseline.sigma2) - logt - 0.5 * z * z


def _log_baseline_hazard(t: np.ndarray, baseline: LognormalBaseline) -> np.ndarray:
    """log r(t) for positive t, via log-pdf minus log-survival of log-time."""
    logt = np.log(t)
    z = (logt - baseline.mu) / baseline.sigma
    return _lognormal_log_pdf(logt, z, baseline) - log_normal_survival(z)


def lognormal_hazard(t, baseline: LognormalBaseline):
    """Baseline failure rate r(t) of the lognormal lifetime, elementwise.

    r(t) = pdf(t) / survival(t), computed on the log scale so the ratio
    survives far into the right tail where pdf and survival both underflow.

    Parameters
    ----------
    t : float or array_like
        Strictly positive times.
    baseline : LognormalBaseline

    Returns
    -------
    float or ndarray
        Nonnegative rates; r(t) -> 0 as t -> 0+.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be strictly positive and finite")
    return np.exp(_log_baseline_hazard(arr, baseline))


def _integrated_baseline(t: np.ndarray, baseline: LognormalBaseline) -> np.ndarray:
    """H0(t) = integral of r over (0, t], with H0(0) = 0, elementwise.

    H0(t) = -log(1 - Phi((log t - mu)/sigma)).  Accepts t = 0 and t = +inf.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    inf = np.isinf(t)
    interior = pos & ~inf
    z = (np.log(t[interior]) - baseline.mu) / baseline.sigma
    out[interior] = -log_normal_survival(z)
    out[inf] = np.inf
    return out


def baseline_cumhaz(t_a: float, t_b: float, baseline: LognormalBaseline) -> float:
    """Integral of the baseline rate over (t_a, t_b], in closed form.

    Equals log survival(t_a) - log survival(t_b) of the lognormal lifetime.
    Additive over adjacent intervals and exactly zero when t_a == t_b.

    Parameters
    ----------
    t_a, t_b : float
        0 <= t_a <= t_b; t_b may be +inf (the integral then diverges).
    baseline : LognormalBaseline

    Returns
    -------
    float
        Nonnegative.
    """
    if not (0.0 <= t_a <= t_b):
        raise ValueError(f"need 0 <= t_a <= t_b, got ({t_a}, {t_b})")
    pair = _integrated_baseline(np.array([t_a, t_b]), baseline)
    # analytic difference is >= 0; clamp rounding dust only
    return max(0.0, float(pair[1] - pair[0]))


def covariate_at(path: CovariatePath, t: float) -> np.ndarray:
    """Covariate vector in force at time t > 0, from ``path.interval(t)``
    (a t exactly on an interior boundary resolves to the earlier
    observation)."""
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    return path.values[path.interval(t)]


def cumulative_hazard(
    path: CovariatePath, theta: np.ndarray, baseline: LognormalBaseline, t: float
) -> float:
    """Integrated hazard Lambda(t) for one risk under a step covariate path.

    Sums exp(theta' x_j) times the baseline integral over each piece of
    (0, t] on which the covariates are constant:

        Lambda(t) = sum_j exp(theta' x_j) * [H0(min(s_j, t)) - H0(s_{j-1})]

    over intervals with s_{j-1} < t, where H0 is the integrated baseline
    rate.  Strictly increasing and continuous in t, and reduces to
    exp(theta' x) * H0(t) for a constant path.

    Parameters
    ----------
    path : CovariatePath
    theta : ndarray, shape (p,)
    baseline : LognormalBaseline
    t : float
        Strictly positive.

    Returns
    -------
    float
    """
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    theta = np.asarray(theta, dtype=float)
    bounds = path.boundaries
    lo = bounds[:-1]
    active = lo < t
    lo = lo[active]
    hi = np.minimum(bounds[1:][active], t)
    eta = path.values[active] @ theta
    pieces = _integrated_baseline(hi, baseline) - _integrated_baseline(lo, baseline)
    return float(np.sum(np.exp(eta) * pieces))


# exp(700): caps a proportional-hazards weight so that an overflowed weight
# times an underflowed interval mass stays 0 instead of becoming inf * 0
_WEIGHT_CAP = math.exp(700.0)


def invert_cumulative_hazard(
    bounds: np.ndarray,
    weights: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Times t with Lambda(t) = target, one per row, in closed form.

    Row i is one risk under one parameter draw: baseline log T ~ N(mu[i],
    sigma[i]**2) and weight weights[i, j] = exp(theta' x_j) on the
    covariate interval (bounds[j], bounds[j+1]].  Each row walks the
    intervals, spending each interval's hazard capacity, until its target
    falls inside one; there it solves the lognormal integrated baseline
    through the inverse log-CDF.  Exact up to float rounding.  A target of
    +inf, a time past the float range, or a row whose hazard underflows
    to zero returns +inf.  Weights are capped at exp(700).

    Parameters
    ----------
    bounds : ndarray, shape (m+1,)
        Interval boundaries 0 = s_0 < ... < s_m = inf (``CovariatePath.boundaries``).
    weights : ndarray, shape (n, m)
    mu, sigma, target : ndarray, shape (n,)

    Returns
    -------
    ndarray, shape (n,)
    """
    n, m = weights.shape
    h0 = np.zeros((n, m + 1))
    h0[:, -1] = np.inf
    if m > 1:
        z = (np.log(bounds[1:-1])[None, :] - mu[:, None]) / sigma[:, None]
        h0[:, 1:-1] = -log_normal_survival(z)
    weights = np.minimum(weights, _WEIGHT_CAP)
    remaining = np.array(target, dtype=float)
    out = np.full(n, np.inf)
    todo = np.ones(n, dtype=bool)
    # inf - inf once a row is done; exp overflow means an event beyond any horizon
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(m):
            cap = weights[:, j] * (h0[:, j + 1] - h0[:, j])
            hit = todo & (remaining <= cap)
            if hit.any():
                # H0(t) = h0[j] + remaining / weight, through the inverse log-CDF
                z = -sps.ndtri_exp(-(h0[hit, j] + remaining[hit] / weights[hit, j]))
                out[hit] = np.exp(mu[hit] + sigma[hit] * z)
            todo &= ~hit
            remaining -= cap
    return out
