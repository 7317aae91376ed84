"""On-disk formats: roundtrips, float fidelity, and config validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortsurv import (
    BenchmarkConfig,
    CovariatePath,
    Dataset,
    LoanObservation,
    LoanStatus,
    LognormalBaseline,
    ModelParams,
    PosteriorSamples,
    PriorSpec,
    SamplerConfig,
    make_benchmark,
    run_sampler,
    summarize,
)
from mortsurv.fileio import (
    fmt_value,
    params_from_json_dict,
    params_to_json_dict,
    read_dataset_csv,
    read_draws_csv,
    read_fit_config,
    read_simulate_config,
    read_truth_json,
    write_acceptance_csv,
    write_dataset_csv,
    write_draws_csv,
    write_summary_csv,
    write_truth_json,
)

from conftest import params_small


def test_float_formatting_roundtrips_exactly():
    for x in [1 / 3, 0.1, 1e-300, 17.0, 2.225e-308, math.pi]:
        assert float(fmt_value(x)) == x
    assert fmt_value(17.0) == "17.0"
    assert fmt_value("abc") == "abc"
    assert fmt_value(3) == "3"


def test_dataset_roundtrip_bitwise(tmp_path, bench_small):
    dataset, _ = bench_small
    path = tmp_path / "ds.csv"
    write_dataset_csv(dataset, path)
    back = read_dataset_csv(path)
    assert back.schema == dataset.schema
    assert len(back.loans) == len(dataset.loans)
    for a, b in zip(dataset.loans, back.loans):
        assert a.loan_id == b.loan_id
        assert a.status == b.status
        assert a.time == b.time  # exact, not approximate
        assert a.maturity == b.maturity
        np.testing.assert_array_equal(a.covariates.obs_times, b.covariates.obs_times)
        np.testing.assert_array_equal(a.covariates.values, b.covariates.values)


def test_dataset_multi_interval_roundtrip(tmp_path):
    path_cov = CovariatePath(np.array([1.0, 2.5, 4.0]),
                             np.array([[0.1, 1.0], [0.2, -1.0], [0.3, 0.5]]))
    loans = (
        LoanObservation("multi", LoanStatus.DEFAULTED, 3.7, path_cov),
        LoanObservation("single", LoanStatus.ACTIVE, 5.0,
                        CovariatePath.constant(np.array([0.4, 0.0]))),
    )
    ds = Dataset(loans=loans, schema=("a", "b"))
    f = tmp_path / "ds.csv"
    write_dataset_csv(ds, f)
    back = read_dataset_csv(f)
    assert back.loans[0].covariates.obs_times.tolist() == [1.0, 2.5, 4.0]
    assert back.loans[0].covariates.values.shape == (3, 2)
    assert back.loans[1].covariates.values.tolist() == [[0.4, 0.0]]


def test_dataset_rejects_inconsistent_loan_rows(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text(
        "loan_id,status,time,maturity,obs_time,x\n"
        "a,default,2.0,30.0,1.0,0.5\n"
        "a,default,3.0,30.0,2.0,0.5\n"  # time changed mid-loan
    )
    with pytest.raises(ValueError):
        read_dataset_csv(f)


def test_dataset_rejects_resurrected_loan_id(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text(
        "loan_id,status,time,maturity,obs_time,x\n"
        "a,default,2.0,30.0,1.0,0.5\n"
        "b,prepaid,1.0,30.0,1.0,0.1\n"
        "a,default,2.0,30.0,2.0,0.6\n"  # id comes back after another loan
    )
    with pytest.raises(ValueError):
        read_dataset_csv(f)


def test_draws_roundtrip_bitwise(tmp_path, bench_small):
    dataset, _ = bench_small
    samples = run_sampler(dataset, config=SamplerConfig(
        n_chains=2, n_iters=60, burn_in=20, thin=4, seed=3))
    f = tmp_path / "draws.csv"
    write_draws_csv(samples, f)
    back = read_draws_csv(f)
    assert back.schema == samples.schema
    assert back.n_chains == samples.n_chains
    np.testing.assert_array_equal(back.chain, samples.chain)
    np.testing.assert_array_equal(back.iteration, samples.iteration)
    assert back.matrix().tobytes() == samples.matrix().tobytes()
    # acceptance metadata lives in its own file, not the draws
    assert back.acceptance == {}


def test_draws_reader_rejects_mismatched_theta_blocks(tmp_path):
    f = tmp_path / "draws.csv"
    f.write_text(
        "chain,iteration,mu_default,sigma2_default,mu_prepay,sigma2_prepay,"
        "theta_default:a,theta_prepay:b\n"
        "0,1,1.0,1.0,1.0,1.0,0.1,0.2\n"
    )
    with pytest.raises(ValueError):
        read_draws_csv(f)


def test_truth_roundtrip(tmp_path):
    params = params_small(4)
    config = BenchmarkConfig(n_loans=10, true_params=params, n_covariates=3, seed=2)
    _, truth = make_benchmark(config)
    f = tmp_path / "truth.json"
    write_truth_json(truth, f)
    back = read_truth_json(f)
    assert back.seed == truth.seed
    assert back.maturity == truth.maturity
    assert back.schema == truth.schema
    np.testing.assert_array_equal(back.params.theta_default, params.theta_default)
    assert back.params.baseline_default.mu == params.baseline_default.mu


def test_params_json_dict_roundtrip():
    params = params_small(3)
    d = params_to_json_dict(params)
    back = params_from_json_dict(d)
    assert back.baseline_prepay.sigma2 == params.baseline_prepay.sigma2
    np.testing.assert_array_equal(back.theta_prepay, params.theta_prepay)


def test_summary_and_acceptance_files_write(tmp_path, bench_small):
    dataset, _ = bench_small
    samples = run_sampler(dataset, config=SamplerConfig(
        n_chains=2, n_iters=60, burn_in=20, thin=4, seed=3))
    s = tmp_path / "summary.csv"
    write_summary_csv(summarize(samples), s)
    lines = s.read_text().strip().split("\n")
    assert lines[0] == "parameter,mean,sd,median,q2.5,q97.5,rhat,ess,mcse"
    assert len(lines) == 1 + 4 + 2 * dataset.p
    a = tmp_path / "acceptance.csv"
    write_acceptance_csv(samples, a)
    head = a.read_text().splitlines()[0]
    assert head == ("chain,theta_default,theta_prepay,mu_default,mu_prepay,"
                    "sigma2_default,sigma2_prepay")


def test_fit_config_defaults_and_unknown_keys(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text('{"sampler": {"n_chains": 2}}')
    prior, sampler = read_fit_config(f)
    assert prior == PriorSpec()
    assert sampler.n_chains == 2
    assert sampler.n_iters == SamplerConfig().n_iters

    f.write_text('{"sampler": {"n_chainz": 2}}')
    with pytest.raises(ValueError):
        read_fit_config(f)
    f.write_text('{"primo": {}}')
    with pytest.raises(ValueError):
        read_fit_config(f)


def test_simulate_config_requires_truth(tmp_path):
    f = tmp_path / "sim.json"
    f.write_text('{"n_loans": 5}')
    with pytest.raises(ValueError):
        read_simulate_config(f)
    f.write_text(
        '{"n_loans": 5, "n_covariates": 2, "true": {'
        '"mu_default": 2.8, "sigma2_default": 0.9, "mu_prepay": 1.6,'
        '"sigma2_prepay": 0.5, "theta_default": [0.1, 0.2, 0.3],'
        '"theta_prepay": [-0.1, 0.0, 0.1]}}'
    )
    cfg = read_simulate_config(f)
    assert cfg.n_loans == 5
    assert cfg.true_params.baseline_default.mu == 2.8


# --- round trips of random files ---------------------------------------------

# text that the CSV writer must quote or that the draws reader splits on
_NAMES = st.text(alphabet='ab,":; \'', min_size=1, max_size=6)
# every finite float, including -0.0, subnormals and values near 1e308
_VALUES = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
# capped so the midpoint of two adjacent observation times cannot overflow
_OBS_TIMES = st.lists(st.floats(min_value=5e-324, max_value=8e307),
                      min_size=1, max_size=4, unique=True).map(sorted)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def _loans(draw, loan_id: str, p: int) -> LoanObservation:
    status = draw(st.sampled_from(list(LoanStatus)))
    time, maturity = draw(_POSITIVE), draw(_POSITIVE)
    if status is LoanStatus.ACTIVE:
        time, maturity = min(time, maturity), max(time, maturity)
    obs = draw(_OBS_TIMES)
    values = draw(st.lists(st.lists(_VALUES, min_size=p, max_size=p),
                           min_size=len(obs), max_size=len(obs)))
    return LoanObservation(loan_id, status, time, CovariatePath(obs, values), maturity)


@st.composite
def _datasets(draw) -> Dataset:
    schema = draw(st.lists(_NAMES, min_size=1, max_size=3))
    ids = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    return Dataset(loans=tuple(draw(_loans(i, len(schema))) for i in ids), schema=schema)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_datasets())
def test_dataset_csv_roundtrip_is_bitwise_for_random_files(tmp_path_factory, dataset):
    f = tmp_path_factory.getbasetemp() / "random_dataset.csv"
    write_dataset_csv(dataset, f)
    back = read_dataset_csv(f)
    assert back.schema == dataset.schema
    assert [x.loan_id for x in back.loans] == [x.loan_id for x in dataset.loans]
    for a, b in zip(dataset.loans, back.loans):
        assert b.status is a.status
        assert _bits([b.time, b.maturity]) == _bits([a.time, a.maturity])
        assert _bits(b.covariates.obs_times) == _bits(a.covariates.obs_times)
        assert _bits(b.covariates.values) == _bits(a.covariates.values)


@st.composite
def _posteriors(draw) -> PosteriorSamples:
    schema = tuple(draw(st.lists(_NAMES, min_size=1, max_size=3)))
    p = len(schema)
    g = draw(st.integers(1, 6))
    chain = np.array(draw(st.lists(st.integers(0, 7), min_size=g, max_size=g)), dtype=np.int64)
    iteration = np.array(draw(st.lists(st.integers(1, 10**9), min_size=g, max_size=g)),
                         dtype=np.int64)
    # the two variances are positive: the reader rejects sigma2 <= 0
    row = st.tuples(_VALUES, _POSITIVE, _VALUES, _POSITIVE, *[_VALUES] * (2 * p)).map(list)
    mat = np.array(draw(st.lists(row, min_size=g, max_size=g)))
    return PosteriorSamples(
        schema=schema, n_chains=int(np.unique(chain).size), chain=chain, iteration=iteration,
        mu_default=mat[:, 0], sigma2_default=mat[:, 1], mu_prepay=mat[:, 2],
        sigma2_prepay=mat[:, 3], theta_default=mat[:, 4 : 4 + p], theta_prepay=mat[:, 4 + p :],
        acceptance={}, final_scales={},
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_posteriors())
def test_draws_csv_roundtrip_is_bitwise_for_random_files(tmp_path_factory, samples):
    f = tmp_path_factory.getbasetemp() / "random_draws.csv"
    write_draws_csv(samples, f)
    back = read_draws_csv(f)
    assert back.schema == samples.schema
    np.testing.assert_array_equal(back.chain, samples.chain)
    np.testing.assert_array_equal(back.iteration, samples.iteration)
    assert back.matrix().tobytes() == samples.matrix().tobytes()
