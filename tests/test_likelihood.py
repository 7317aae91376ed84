"""Portfolio log-likelihood: frozen oracles, vectorized-vs-scalar agreement,
and the part-caching decomposition used by the sampler."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortsurv import (
    CovariatePath,
    Dataset,
    LoanObservation,
    LoanStatus,
    LognormalBaseline,
    ModelParams,
    PortfolioLikelihood,
    RiskKind,
    covariate_at,
    loan_loglik,
    total_loglik,
)
from mortsurv import likelihood
from mortsurv.model import _integrated_baseline, log_normal_survival

from conftest import params_small


def _row(theta, baseline):
    """The row (mu, sigma2, theta) of one risk's parameters."""
    return np.concatenate(((baseline.mu, baseline.sigma2), theta))


def _loglik(like, risk, theta, baseline):
    """One risk's log-likelihood at one point, as a 1-row ``risk_logliks`` call."""
    return float(like.risk_logliks(risk, _row(theta, baseline)[None])[0])


def _single_loan_dataset(status, time, x, p=4):
    path = CovariatePath.constant(np.asarray(x, dtype=float))
    loan = LoanObservation("a", status, time, path)
    return Dataset(loans=(loan,), schema=tuple(f"c{j}" for j in range(p)))


def test_defaulted_loan_frozen_oracle():
    # zero coefficients, standard lognormal baselines, t = 1:
    # loglik = log r(1) - 2 H0(1) = log(2/sqrt(2pi)) - 2 log 2 (mpmath oracle)
    params = ModelParams(
        baseline_default=LognormalBaseline(0.0, 1.0),
        baseline_prepay=LognormalBaseline(0.0, 1.0),
        theta_default=np.zeros(4),
        theta_prepay=np.zeros(4),
    )
    ds = _single_loan_dataset(LoanStatus.DEFAULTED, 1.0, [1.0, 0.5, -1.2, 0.3])
    assert loan_loglik(ds.loans[0], params) == pytest.approx(
        -1.6120857137646181, rel=1e-13)


def test_prepaid_loan_frozen_oracle():
    # mpmath 40-digit oracle with nonzero coefficients on both risks
    params = ModelParams(
        baseline_default=LognormalBaseline(2.817, 0.963**2),
        baseline_prepay=LognormalBaseline(1.578, 0.717**2),
        theta_default=np.array([-0.601, 0.395, 0.014, 0.124]),
        theta_prepay=np.array([0.128, 0.068, -0.051, 0.020]),
    )
    ds = _single_loan_dataset(LoanStatus.PREPAID, 3.5, [0.5, -1.2, 0.3, 2.0])
    assert loan_loglik(ds.loans[0], params) == pytest.approx(
        -1.9693733213819440, rel=1e-13)


def test_active_loan_is_joint_survival():
    from mortsurv import cumulative_hazard

    params = params_small(4)
    x = np.array([1.0, -0.4, 0.2, 0.9])
    path = CovariatePath.constant(x)
    loan = LoanObservation("a", LoanStatus.ACTIVE, 8.0, path)
    expected = -(cumulative_hazard(path, params.theta_default, params.baseline_default, 8.0)
                 + cumulative_hazard(path, params.theta_prepay, params.baseline_prepay, 8.0))
    assert loan_loglik(loan, params) == pytest.approx(expected, rel=1e-13)


def test_vectorized_total_equals_scalar_sum(bench_small):
    dataset, truth = bench_small
    like = PortfolioLikelihood(dataset)
    params = truth.params
    total = (_loglik(like, RiskKind.DEFAULT, params.theta_default, params.baseline_default)
             + _loglik(like, RiskKind.PREPAY, params.theta_prepay, params.baseline_prepay))
    scalar = sum(loan_loglik(loan, params) for loan in dataset.loans)
    assert total == pytest.approx(scalar, rel=1e-12)
    assert total_loglik(dataset, params) == pytest.approx(scalar, rel=1e-12)


def test_vectorized_matches_scalar_on_multi_interval_paths():
    rng = np.random.default_rng(5)
    params = params_small(3)
    loans = []
    for i in range(50):
        m = int(rng.integers(1, 5))
        times = np.sort(rng.uniform(0.2, 10.0, size=m))
        while np.any(np.diff(times) <= 0):
            times = np.sort(rng.uniform(0.2, 10.0, size=m))
        vals = rng.normal(size=(m, 3))
        path = CovariatePath(times, vals)
        status = [LoanStatus.DEFAULTED, LoanStatus.PREPAID, LoanStatus.ACTIVE][i % 3]
        t = float(rng.uniform(0.5, 12.0))
        loans.append(LoanObservation(f"L{i}", status, t, path))
    ds = Dataset(loans=tuple(loans), schema=("c0", "c1", "c2"))
    like = PortfolioLikelihood(ds)
    total = (_loglik(like, RiskKind.DEFAULT, params.theta_default, params.baseline_default)
             + _loglik(like, RiskKind.PREPAY, params.theta_prepay, params.baseline_prepay))
    scalar = sum(loan_loglik(loan, params) for loan in ds.loans)
    assert total == pytest.approx(scalar, rel=1e-11)


def test_parts_recombine_to_risk_logliks(bench_small):
    dataset, truth = bench_small
    like = PortfolioLikelihood(dataset)
    params = truth.params
    for risk, theta, base in [
        (RiskKind.DEFAULT, params.theta_default, params.baseline_default),
        (RiskKind.PREPAY, params.theta_prepay, params.baseline_prepay),
    ]:
        row = _row(theta, base)[None]
        coef = like.coef_parts(risk, row[:, 2:])
        basep = like.baseline_parts(risk, row[:, :2])
        combined = PortfolioLikelihood.combine(coef, basep)
        assert combined.tobytes() == like.risk_logliks(risk, row).tobytes()


def test_part_swap_updates_only_its_factor(bench_small):
    # changing theta must not ripple through cached baseline parts, and vice versa
    dataset, truth = bench_small
    like = PortfolioLikelihood(dataset)
    params = truth.params
    theta, base = params.theta_default, params.baseline_default
    theta2 = theta + 0.25
    base2 = LognormalBaseline(base.mu + 0.3, base.sigma2)
    basep = like.baseline_parts(RiskKind.DEFAULT, np.array([[base.mu, base.sigma2]]))
    coef2 = like.coef_parts(RiskKind.DEFAULT, theta2[None])
    assert PortfolioLikelihood.combine(coef2, basep)[0] == _loglik(
        like, RiskKind.DEFAULT, theta2, base)
    coef = like.coef_parts(RiskKind.DEFAULT, theta[None])
    basep2 = like.baseline_parts(RiskKind.DEFAULT, np.array([[base2.mu, base2.sigma2]]))
    assert PortfolioLikelihood.combine(coef, basep2)[0] == _loglik(
        like, RiskKind.DEFAULT, theta, base2)


def test_empty_dataset_loglik_is_zero():
    ds = Dataset(loans=(), schema=("c0",))
    params = ModelParams(
        baseline_default=LognormalBaseline(1.0, 1.0),
        baseline_prepay=LognormalBaseline(1.0, 1.0),
        theta_default=np.zeros(1),
        theta_prepay=np.zeros(1),
    )
    assert total_loglik(ds, params) == 0.0


def test_overflowing_coefficients_give_minus_inf_not_nan():
    params = params_small(4)
    huge = ModelParams(
        baseline_default=params.baseline_default,
        baseline_prepay=params.baseline_prepay,
        theta_default=np.array([800.0, 0.0, 0.0, 0.0]),
        theta_prepay=params.theta_prepay,
    )
    ds = _single_loan_dataset(LoanStatus.DEFAULTED, 3.5, [1.0, 0.5, -1.2, 0.3])
    like = PortfolioLikelihood(ds)
    val = _loglik(like, RiskKind.DEFAULT, huge.theta_default, huge.baseline_default)
    assert val == -math.inf
    assert not math.isnan(val)


def test_loglik_decreases_when_hazard_inflated(bench_small):
    # raising every coefficient inflates cumulative hazard; survival terms must drop
    dataset, truth = bench_small
    params = truth.params
    bigger = ModelParams(
        baseline_default=params.baseline_default,
        baseline_prepay=params.baseline_prepay,
        theta_default=params.theta_default + 3.0,
        theta_prepay=params.theta_prepay + 3.0,
    )
    assert total_loglik(dataset, bigger) < total_loglik(dataset, params)


def test_event_times_accessor_matches_dataset(bench_small):
    dataset, _ = bench_small
    like = PortfolioLikelihood(dataset)
    want = sorted(l.time for l in dataset.loans if l.status is LoanStatus.DEFAULTED)
    got = sorted(like.event_times(RiskKind.DEFAULT).tolist())
    assert got == pytest.approx(want)


def test_schema_mismatch_rejected(bench_small):
    dataset, truth = bench_small
    like = PortfolioLikelihood(dataset)
    for p in (1, dataset.p - 1, dataset.p + 1):
        row = _row(np.zeros(p), truth.params.baseline_default)
        with pytest.raises(ValueError):
            like.risk_logliks(RiskKind.DEFAULT, row[None])
        with pytest.raises(ValueError):
            like.risk_loglik_derivs(RiskKind.DEFAULT, row)


# --- distinct-time baseline evaluation ------------------------------------------


def _reference_log_hazard(t, baseline):
    logt = np.log(t)
    z = (logt - baseline.mu) / baseline.sigma
    # np.log on an array, as a row's pass takes it: math.log differs from
    # it in the last bit for a few sigma2 in ten thousand
    log_var = float(np.log(2.0 * math.pi * np.asarray(baseline.sigma2)))
    log_pdf = -0.5 * log_var - logt - 0.5 * z * z
    return log_pdf - log_normal_survival(z)


def _segments(dataset, risk):
    """Reference: every segment and every event of ``risk``, in dataset
    order: each segment's start, end and covariates, then each event's time
    and the covariates in force at it."""
    lo, hi, seg_x, events, event_x = [], [], [], [], []
    for loan in dataset.loans:
        bounds = loan.covariates.boundaries
        active = bounds[:-1] < loan.time
        lo.append(bounds[:-1][active])
        hi.append(np.minimum(bounds[1:][active], loan.time))
        seg_x.extend(loan.covariates.values[active])
        if loan.status.risk is risk:
            events.append(loan.time)
            event_x.append(covariate_at(loan.covariates, loan.time))
    lo = np.concatenate(lo) if lo else np.empty(0)
    hi = np.concatenate(hi) if hi else np.empty(0)
    p = dataset.p
    t = np.asarray(events, dtype=float)
    return lo, hi, np.reshape(seg_x, (-1, p)), t, np.reshape(event_x, (-1, p))


def _per_segment_baseline_parts(segments, baseline):
    """Reference: each segment's integrated baseline and each event's log
    hazard, every one evaluated on its own."""
    lo, hi, _, t, _ = segments
    cumhaz = _integrated_baseline(hi, baseline) - _integrated_baseline(lo, baseline)
    np.maximum(cumhaz, 0.0, out=cumhaz)
    return cumhaz, _reference_log_hazard(t, baseline)


def _per_segment_loglik(segments, row):
    """Reference: one risk's log-likelihood at a row (mu, sigma2, theta),
    summed over the segments and the events in dataset order."""
    _, _, seg_x, _, event_x = segments
    theta = row[2:]
    cumhaz, log_r = _per_segment_baseline_parts(segments, LognormalBaseline(row[0], row[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        lam = float(np.sum(np.exp(seg_x @ theta) * cumhaz))
    # inf * 0 where exp overflowed: the point is beyond float range
    lam = math.inf if math.isnan(lam) else lam
    return float(np.sum(event_x @ theta)) + float(np.sum(log_r)) - lam


def _monthly_book(with_defaults: bool) -> Dataset:
    """Step paths on a month grid, tied exit months, censored loans, and exits
    landing exactly on a covariate boundary (the midpoint 1.5 of obs 1 and 2)."""
    rng = np.random.default_rng(17)
    statuses = [LoanStatus.PREPAID, LoanStatus.ACTIVE]
    if with_defaults:
        statuses.append(LoanStatus.DEFAULTED)
    loans = []
    for i in range(60):
        m = int(rng.integers(1, 4))
        obs = np.sort(rng.choice(np.arange(1, 25), size=m, replace=False)) / 12.0
        path = CovariatePath(obs, rng.normal(size=(m, 2)))
        time = int(rng.integers(1, 40)) / 12.0
        loans.append(LoanObservation(f"L{i}", statuses[i % len(statuses)], time, path))
    on_boundary = CovariatePath(np.array([1.0, 2.0]), np.array([[0.5, -1.0], [1.5, 0.2]]))
    for i, status in enumerate(statuses):
        loans.append(LoanObservation(f"B{i}", status, 1.5, on_boundary))
        loans.append(LoanObservation(f"C{i}", status, 3.0, on_boundary))
    return Dataset(loans=tuple(loans), schema=("c0", "c1"))


BOOKS = {
    "monthly": _monthly_book(with_defaults=True),
    "no_defaults": _monthly_book(with_defaults=False),
    "empty": Dataset(loans=(), schema=("c0", "c1")),
}


@pytest.mark.parametrize("book", sorted(BOOKS))
def test_baseline_parts_bitwise_equal_per_segment_formula(book):
    dataset = BOOKS[book]
    like = PortfolioLikelihood(dataset)
    segments = {risk: _segments(dataset, risk) for risk in RiskKind}
    for mu, sigma2 in [(2.817, 0.927), (1.578, 0.514), (-3.0, 0.01), (6.0, 9.0)]:
        baseline = LognormalBaseline(mu, sigma2)
        for risk in RiskKind:
            want_cumhaz, log_r = _per_segment_baseline_parts(segments[risk], baseline)
            got = like.baseline_parts(risk, np.array([[mu, sigma2]]))
            assert got.seg_cumhaz[0].tobytes() == want_cumhaz.tobytes()
            # each distinct event time once, in time order, times its count
            event_t = segments[risk][3]
            _, first, count = np.unique(event_t, return_index=True, return_counts=True)
            assert got.event_logr_sum[0] == np.sum(log_r[first] * count)
    # the coefficient part and the event times, from each segment's and each
    # event's covariates (``covariate_at``: an exit on a boundary takes the
    # earlier row), bit for bit
    for risk in RiskKind:
        _, _, seg_x, event_t, event_x = segments[risk]
        assert like.event_times(risk).tobytes() == event_t.tobytes()
        for theta in np.array([[0.3, -0.2], [-1.7, 2.4], [40.0, -25.0]]):
            got = like.coef_parts(risk, theta[None])
            assert got.seg_weights[0].tobytes() == np.exp(seg_x @ theta).tobytes()
            assert got.event_eta_sum[0] == np.sum(theta * event_x.sum(axis=0))
    if book == "no_defaults":
        assert like.n_events(RiskKind.DEFAULT) == 0


def _portfolios():
    """Small portfolios on a month grid, so exit and boundary times repeat."""
    loan = st.tuples(
        st.sampled_from(list(LoanStatus)),
        st.integers(1, 24),
        st.lists(st.integers(1, 18), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )

    def build(rows):
        loans = []
        for i, (status, month, obs, vals) in enumerate(rows):
            obs = np.sort(np.asarray(obs, dtype=float)) / 12.0
            values = np.asarray(vals).reshape(3, 2)[: obs.size]
            loans.append(LoanObservation(f"L{i}", status, month / 12.0, CovariatePath(obs, values)))
        return Dataset(loans=tuple(loans), schema=("c0", "c1"))

    return st.lists(loan, min_size=1, max_size=8).map(build)


def _close(a, b, scale):
    # the two evaluators sum in different orders, so compare relative to the
    # magnitude of the summed terms rather than to the (possibly small) total
    return abs(a - b) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_portfolios())
def test_total_equals_sum_of_loan_logliks(dataset):
    params = params_small(2)
    terms = [loan_loglik(loan, params) for loan in dataset.loans]
    total = total_loglik(dataset, params)
    assert _close(total, math.fsum(terms), sum(abs(x) for x in terms))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_portfolios(), st.data())
def test_splitting_a_segment_leaves_loglik_unchanged(dataset, data):
    # repeating a covariate row before the first or after the last observation
    # adds a boundary without changing the covariate value on either side
    params = params_small(2)
    i = data.draw(st.integers(0, dataset.n_loans - 1))
    loan = dataset.loans[i]
    obs, values = loan.covariates.obs_times, loan.covariates.values
    if data.draw(st.booleans()):
        new_t = data.draw(st.floats(0.01, 0.99)) * obs[0]
        path = CovariatePath(np.r_[new_t, obs], np.vstack([values[:1], values]))
    else:
        new_t = obs[-1] + data.draw(st.floats(0.01, 3.0))
        path = CovariatePath(np.r_[obs, new_t], np.vstack([values, values[-1:]]))
    loans = list(dataset.loans)
    loans[i] = LoanObservation(loan.loan_id, loan.status, loan.time, path)
    split = Dataset(loans=tuple(loans), schema=dataset.schema)
    before = total_loglik(dataset, params)
    after = total_loglik(split, params)
    assert after == pytest.approx(before, rel=1e-12)


# --- many points in one batched pass ----------------------------------------------


def _rows():
    """Rows (mu, sigma2, theta) for p = 2: sigma2 from 1e-3 to 1e3, and a
    theta large enough now and then that theta'x passes 709, where exp
    overflows; more rows than one pass takes."""
    theta = st.one_of(st.floats(-2.0, 2.0), st.floats(300.0, 800.0), st.floats(-800.0, -300.0))
    row = st.tuples(st.floats(-3.0, 6.0), st.floats(-3.0, 3.0), theta, st.floats(-2.0, 2.0))
    return st.lists(row, min_size=1, max_size=80).map(
        lambda rs: np.array([(mu, 10.0**e, a, b) for mu, e, a, b in rs])
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(_portfolios(), st.sampled_from(sorted(BOOKS)).map(BOOKS.get)), _rows())
def test_batched_logliks_equal_one_point_logliks(dataset, rows):
    # step paths with interior boundaries, a risk with no events (the
    # no_defaults book) and the empty book (what ``fit --prior-only`` samples)
    like = PortfolioLikelihood(dataset)
    for risk in RiskKind:
        segments = _segments(dataset, risk)
        got = like.risk_logliks(risk, rows)
        want = np.array([_per_segment_loglik(segments, r) for r in rows])
        assert got.shape == want.shape
        finite = np.isfinite(want)
        # -inf and +inf in the same places, and never NaN
        assert np.array_equal(got[~finite], want[~finite]), (got, want)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.abs(want[finite])), (
            got, want)
        # each row's weights are the per-segment weights bit for bit, so exp
        # does not magnify a rounding difference in theta'x
        weights = like.coef_parts(risk, rows[:, 2:]).seg_weights
        seg_x = segments[2]
        with np.errstate(over="ignore"):
            for w, r in zip(weights, rows):
                assert w.tobytes() == np.exp(seg_x @ r[2:]).tobytes()


@pytest.mark.parametrize("book", ["continuous", "monthly"])
def test_batched_rows_do_not_depend_on_the_rows_beside_them(book, bench_small):
    # the sampler scores one row per chain, so a chain run alone must get
    # the value it gets beside others, bit for bit
    dataset = bench_small[0] if book == "continuous" else BOOKS["monthly"]
    like = PortfolioLikelihood(dataset)
    rng = np.random.default_rng(5)
    n = 2 * likelihood._BATCH_ROWS + 7
    rows = np.column_stack((rng.normal(1.5, 1.0, n), np.exp(rng.normal(0.0, 0.5, n)),
                            rng.normal(0.0, 0.5, (n, dataset.p))))
    for risk in RiskKind:
        want = like.risk_logliks(risk, rows)
        for k in (1, 2, 3, 5):
            got = np.concatenate([like.risk_logliks(risk, rows[i : i + k]) for i in range(0, n, k)])
            assert got.tobytes() == want.tobytes(), (risk, k)


# --- gradient and Hessian in (theta, mu, log sigma2) ----------------------------


def _point(theta, mu, l):
    return np.concatenate((np.asarray(theta, dtype=float), (mu, l)))


def _as_row(v):
    """The row (mu, sigma2, theta) at v = (theta, mu, log sigma2)."""
    return np.concatenate(((v[-2], math.exp(v[-1])), v[:-2]))


def _numeric_gradient(like, risk, v, h=1e-5):
    """Central differences of 1-row ``risk_logliks`` in (theta, mu, log sigma2)."""
    def f(w):
        return like.risk_logliks(risk, _as_row(w)[None])[0]

    return np.array([(f(v + e) - f(v - e)) / (2.0 * h) for e in h * np.eye(v.size)])


def _derivs(like, risk, v):
    return like.risk_loglik_derivs(risk, _as_row(v))


def _assert_gradient(like, risk, v, rel=1e-6, h=1e-5):
    """The value, the gradient against central differences of the value,
    and the Hessian against central differences of the gradient."""
    value, grad, hess = _derivs(like, risk, v)
    assert value == like.risk_logliks(risk, _as_row(v)[None])[0]
    num = _numeric_gradient(like, risk, v, h)
    assert np.all(np.abs(grad - num) <= rel * (1.0 + np.abs(num))), (grad, num)
    num = np.column_stack([
        (_derivs(like, risk, v + e)[1] - _derivs(like, risk, v - e)[1]) / (2.0 * h)
        for e in h * np.eye(v.size)
    ])
    assert np.all(np.abs(hess - num) <= rel * (1.0 + np.abs(num))), (hess, num)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    _portfolios(),
    st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
    st.floats(-1.0, 3.0),
    st.floats(-1.5, 1.0),
)
def test_gradient_matches_central_differences(dataset, theta, mu, l):
    like = PortfolioLikelihood(dataset)
    for risk in RiskKind:
        _assert_gradient(like, risk, _point(theta, mu, l))


@pytest.mark.parametrize("mu", [-14.0, 16.0])
def test_gradient_in_the_tails(mu):
    # every time is at z > 8 (mu = -14) or z < -8 (mu = 16), where M(z) is
    # about z, or about 0
    dataset = BOOKS["monthly"]
    like = PortfolioLikelihood(dataset)
    v = _point([0.3, -0.2], mu, 0.0)
    z = (np.log(like.event_times(RiskKind.DEFAULT)) - mu) / 1.0
    assert np.all(z > 8.0) if mu < 0 else np.all(z < -8.0)
    for risk in RiskKind:
        _assert_gradient(like, risk, v)


def test_gradient_for_a_risk_with_no_events():
    like = PortfolioLikelihood(BOOKS["no_defaults"])
    assert like.n_events(RiskKind.DEFAULT) == 0
    v = _point([0.4, -0.3], 1.0, math.log(0.7))
    _assert_gradient(like, RiskKind.DEFAULT, v)
    # without events only the integrated hazard remains, and raising mu
    # lowers it on every segment (M(z) increases in z)
    _, grad, _ = _derivs(like, RiskKind.DEFAULT, v)
    assert grad[2] > 0.0


def test_gradient_matches_mpmath_at_one_point():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    # covariate boundary at 2.0, the midpoint of the two observations
    path = CovariatePath(np.array([0.5, 3.5]), np.array([[1.0, -0.7], [1.0, 0.4]]))
    loans = (
        LoanObservation("d", LoanStatus.DEFAULTED, 3.25, path),
        LoanObservation("a", LoanStatus.ACTIVE, 1.5, path),
    )
    like = PortfolioLikelihood(Dataset(loans=loans, schema=("c0", "c1")))
    v = [mpmath.mpf("-0.6"), mpmath.mpf("0.35"), mpmath.mpf("1.2"), mpmath.mpf("-0.4")]

    def loglik(t0, t1, mu, l):
        sigma = mpmath.exp(l / 2)

        def h0(t):  # -log S0(t) of the lognormal baseline
            return -mpmath.log(mpmath.ncdf(-(mpmath.log(t) - mu) / sigma))

        def seg(x, lo, hi):
            return mpmath.exp(t0 * x[0] + t1 * x[1]) * (h0(hi) - (h0(lo) if lo > 0 else 0))

        x0, x1 = (1.0, -0.7), (1.0, 0.4)
        z = (mpmath.log(3.25) - mu) / sigma
        log_r = -mpmath.log(sigma * mpmath.sqrt(2 * mpmath.pi) * 3.25) - z * z / 2 + h0(3.25)
        return (t0 * x1[0] + t1 * x1[1] + log_r
                - seg(x0, 0, 2.0) - seg(x1, 2.0, 3.25) - seg(x0, 0, 1.5))

    def partial(*orders):
        return float(mpmath.diff(loglik, v, orders))

    eye = np.eye(4, dtype=int)
    want_grad = [partial(*eye[k]) for k in range(4)]
    want_hess = [[partial(*(eye[j] + eye[k])) for k in range(4)] for j in range(4)]
    value, grad, hess = _derivs(like, RiskKind.DEFAULT, np.array([-0.6, 0.35, 1.2, -0.4]))
    assert value == pytest.approx(float(loglik(*v)), rel=1e-13)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-11)
    np.testing.assert_allclose(hess, want_hess, rtol=1e-11)
