"""Command-line pipeline: subcommands, exit codes, and file outputs.

Everything runs in-process through main(argv) so coverage and debugging
stay simple; the console entry point is the same function.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import mortsurv
from mortsurv import CovariatePath, Dataset, LoanObservation, LoanStatus, RiskKind
from mortsurv.cli import main
from mortsurv.fileio import (
    read_dataset_csv,
    read_draws_csv,
    write_dataset_csv,
    write_draws_csv,
)
from mortsurv.mcmc import summarize
from mortsurv.predict import predictive_density, predictive_reliability

from conftest import params_small, samples_at
from test_ingest import orow, prow
from test_mcmc import _recorded


@pytest.fixture()
def sim_config(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "n_loans": 80,
        "n_covariates": 2,
        "seed": 9,
        "true": {
            "mu_default": 2.817, "sigma2_default": 0.927369,
            "mu_prepay": 1.578, "sigma2_prepay": 0.514089,
            "theta_default": [-0.8, 0.5, 0.2],
            "theta_prepay": [0.3, -0.2, 0.1],
        },
    }))
    return cfg


@pytest.fixture()
def fit_config(tmp_path):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "sampler": {"n_chains": 2, "n_iters": 80, "burn_in": 40, "thin": 4,
                    "seed": 1},
    }))
    return cfg


@pytest.fixture()
def sim_outputs(tmp_path, sim_config, fit_config, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(sim_config),
                 "--out-dir", str(out)]) == 0
    assert main(["fit", "--dataset", str(out / "dataset.csv"),
                 "--config", str(fit_config), "--allow-nonconverged",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    return out


def test_simulate_writes_dataset_and_truth(tmp_path, sim_config, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(sim_config), "--out-dir", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "80 loans" in text
    ds = read_dataset_csv(out / "dataset.csv")
    assert len(ds.loans) == 80
    assert ds.schema == ("intercept", "x1", "ind")
    truth = json.loads((out / "truth.json").read_text())
    assert truth["seed"] == 9


def test_fit_outputs_complete(sim_outputs):
    for name in ["draws.csv", "summary.csv", "acceptance.csv"]:
        assert (sim_outputs / name).exists(), name
    draws = read_draws_csv(sim_outputs / "draws.csv")
    assert draws.n_draws == 2 * 10
    assert draws.schema == ("intercept", "x1", "ind")


def test_predict_classification_file(sim_outputs, capsys):
    out = sim_outputs / "pred"
    rc = main(["predict", "--dataset", str(sim_outputs / "dataset.csv"),
               "--draws", str(sim_outputs / "draws.csv"),
               "--n-sims", "40", "--seed", "2", "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "classification.csv").read_text().strip().split("\n")
    assert lines[0] == "loan_id,p_default,p_prepay,p_mature,n_sims,n_horizon_capped"
    assert len(lines) == 81
    for line in lines[1:]:
        parts = line.split(",")
        total = float(parts[1]) + float(parts[2]) + float(parts[3])
        assert total == 1.0  # exact partition survives the text roundtrip
        assert parts[4] == "40"


def test_predict_curve_files(sim_outputs, capsys):
    out = sim_outputs / "pred2"
    rc = main(["predict", "--dataset", str(sim_outputs / "dataset.csv"),
               "--draws", str(sim_outputs / "draws.csv"),
               "--n-sims", "10", "--seed", "2", "--curves",
               "--grid-points", "12", "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    curve_files = sorted((out / "curves").iterdir())
    assert len(curve_files) == 80
    lines = curve_files[0].read_text().strip().split("\n")
    assert lines[0] == ("time,reliability_default,density_default,"
                        "reliability_prepay,density_prepay")
    assert len(lines) == 13
    rel = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a for a, b in zip(rel, rel[1:]))  # survival decreasing


def _write_book(tmp_path, loan_ids, maturities):
    """A dataset alternating constant and step paths, and a 12-draw file."""
    paths = [
        CovariatePath.constant(np.array([1.0, 0.4, -0.3])),
        CovariatePath(obs_times=np.array([0.8, 2.0, 5.0]),
                      values=np.array([[1.0, 0.5, -1.2], [1.0, 0.8, 0.3], [1.0, -1.5, 2.0]])),
    ]
    loans = [
        LoanObservation(loan_id, LoanStatus.ACTIVE, maturity / 2, paths[i % 2], maturity)
        for i, (loan_id, maturity) in enumerate(zip(loan_ids, maturities))
    ]
    samples = samples_at(params_small(3), n_draws=12, jitter=0.2, seed=3)
    write_dataset_csv(Dataset(loans=tuple(loans), schema=samples.schema), tmp_path / "book.csv")
    write_draws_csv(samples, tmp_path / "draws.csv")
    return ["predict", "--dataset", str(tmp_path / "book.csv"),
            "--draws", str(tmp_path / "draws.csv"), "--n-sims", "20", "--curves",
            "--grid-points", "9", "--out-dir", str(tmp_path / "out")]


def test_predict_curves_equal_per_loan_reference_across_maturities(tmp_path, capsys):
    maturities = [30.0, 15.0, 30.0, 7.5, 15.0, 30.0, 7.5, 15.0]  # interleaved
    ids = [f"L{k}" for k in range(len(maturities))]
    assert main(_write_book(tmp_path, ids, maturities)) == 0
    capsys.readouterr()
    dataset = read_dataset_csv(tmp_path / "book.csv")
    samples = read_draws_csv(tmp_path / "draws.csv")
    for loan in dataset.loans:
        grid = np.linspace(loan.maturity / 9, loan.maturity, 9)
        cols = []
        for risk in RiskKind:
            cols.append(predictive_reliability(loan.covariates, samples, risk, grid))
            cols.append(predictive_density(loan.covariates, samples, risk, grid))
        rows = ["time,reliability_default,density_default,reliability_prepay,density_prepay"]
        rows += [",".join(repr(float(v)) for v in (t, *(c[k] for c in cols)))
                 for k, t in enumerate(grid)]
        text = (tmp_path / "out" / "curves" / f"{loan.loan_id}.csv").read_text()
        assert text == "\n".join(rows) + "\n", loan.loan_id


def test_predict_curve_file_name_collision_exits_4(tmp_path, capsys):
    argv = _write_book(tmp_path, ["a b", "c", "a_b"], [30.0, 30.0, 30.0])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "'a b'" in err and "'a_b'" in err and "curves/a_b.csv" in err
    assert not (tmp_path / "out" / "classification.csv").exists()
    assert not (tmp_path / "out" / "curves").exists()
    # without --curves no file is named after a loan, so the ids are fine
    assert main([a for a in argv if a != "--curves"]) == 0


def test_predict_deterministic_across_runs(sim_outputs, capsys):
    a = sim_outputs / "pa"
    b = sim_outputs / "pb"
    for out in (a, b):
        assert main(["predict", "--dataset", str(sim_outputs / "dataset.csv"),
                     "--draws", str(sim_outputs / "draws.csv"),
                     "--n-sims", "30", "--seed", "7",
                     "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert (a / "classification.csv").read_bytes() == \
        (b / "classification.csv").read_bytes()


def test_diagnose_outputs(sim_outputs, capsys):
    out = sim_outputs / "diag"
    rc = main(["diagnose", "--dataset", str(sim_outputs / "dataset.csv"),
               "--draws", str(sim_outputs / "draws.csv"),
               "--level", "0.9", "--out-dir", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "default:" in text and "prepaid:" in text
    res = (out / "residuals.csv").read_text().strip().split("\n")
    assert res[0] == ("loan_id,status,residual,quantile,interval_low,"
                      "interval_high,in_interval")
    cov = (out / "coverage.csv").read_text().strip().split("\n")
    assert cov[0] == "category,level,n_loans,n_hits,rate"
    assert len(cov) == 3
    for line in cov[1:]:
        assert line.split(",")[1] == "0.9"


def test_fit_prior_only_ignores_loans(sim_outputs, tmp_path, fit_config, capsys):
    out = tmp_path / "prior"
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(fit_config), "--prior-only",
               "--allow-nonconverged", "--out-dir", str(out)])
    assert rc == 0
    assert "0 loans" in capsys.readouterr().out
    draws = read_draws_csv(out / "draws.csv")
    # prior draws follow the wide default prior, not the data
    assert float(np.std(draws.mu_default)) > 1.0


def test_ingest_pipeline(tmp_path, capsys):
    orig = tmp_path / "orig.txt"
    orig.write_text("\n".join([
        orow(lid="L001", cs="720", fpd="200501", state="FL"),
        orow(lid="L002", cs="680", fpd="200503", dti="38", units="2"),
        orow(lid="L003", cs="750", fpd="200506", rate="6.2", mi="25"),
        orow(lid="L004", cs="640", fpd="200502", upb="90000", nb="1"),
    ]) + "\n")
    perf = tmp_path / "perf.txt"
    perf.write_text("\n".join([
        prow("L001", "200501"), prow("L001", "200606", rep="N", zb="01"),
        prow("L002", "200503"), prow("L002", "200703", zb="03"),
        prow("L003", "200506"), prow("L003", "201402"),
        prow("L004", "200502"), prow("L004", "200801", dlq="R"),
    ]) + "\n")
    out = tmp_path / "ing"
    rc = main(["ingest", "--origination", str(orig), "--performance", str(perf),
               "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    ds = read_dataset_csv(out / "dataset.csv")
    assert len(ds.loans) == 4
    assert (out / "preprocess.json").exists()
    classified = (out / "classified.csv").read_text().strip().split("\n")
    assert classified[0] == "loan_id,status,time,reason"
    assert len(classified) == 5
    rejects = (out / "rejects.csv").read_text().strip().split("\n")
    assert rejects[0] == "file,line,reason"
    assert len(rejects) == 1


def test_ingest_yyyy_mm_dates_match_their_yyyymm_twin(tmp_path, capsys):
    loans = [dict(lid="L001", cs="720", fpd="200501", state="FL"),
             dict(lid="L002", cs="680", fpd="200503", dti="38", units="2"),
             dict(lid="L003", cs="750", fpd="200506", rate="6.2", mi="25"),
             dict(lid="L004", cs="640", fpd="200502", upb="90000", nb="1")]
    perf_rows = [dict(lid="L001", ym="200501"), dict(lid="L001", ym="200606", rep="N", zb="01"),
                 dict(lid="L002", ym="200503"), dict(lid="L002", ym="200703", zb="03"),
                 dict(lid="L003", ym="200506"), dict(lid="L003", ym="201402"),
                 dict(lid="L004", ym="200502"), dict(lid="L004", ym="200801", dlq="R")]
    schema = json.loads((files("mortsurv.data") / "freddie_sample_schema.json").read_text())
    schema["date_format"] = "yyyy-mm"
    (tmp_path / "dashed.json").write_text(json.dumps(schema))

    def dashed(ym):
        return f"{ym[:4]}-{ym[4:]}"

    def ingest(name, date, extra=()):
        d = tmp_path / name
        d.mkdir()
        (d / "orig.txt").write_text(
            "".join(orow(**{**kw, "fpd": date(kw["fpd"])}) + "\n" for kw in loans))
        (d / "perf.txt").write_text(
            "".join(prow(**{**kw, "ym": date(kw["ym"])}) + "\n" for kw in [*perf_rows, *extra]))
        argv = ["ingest", "--origination", str(d / "orig.txt"),
                "--performance", str(d / "perf.txt"), "--max-reject-fraction", "0.2",
                "--out-dir", str(d / "out")]
        if date is dashed:
            argv += ["--schema", str(tmp_path / "dashed.json")]
        assert main(argv) == 0
        capsys.readouterr()
        return d / "out"

    plain = ingest("plain", lambda ym: ym)
    twin = ingest("twin", dashed)
    for name in ("dataset.csv", "classified.csv", "rejects.csv"):
        assert (twin / name).read_bytes() == (plain / name).read_bytes(), name
    assert len((plain / "dataset.csv").read_text().splitlines()) == 5

    bad = ingest("bad", dashed, extra=[dict(lid="L003", ym="200513")])
    assert (bad / "rejects.csv").read_text().splitlines()[1:] == [
        "performance,9,bad reporting_date: '2005-13'"]


def test_missing_input_file_exits_3(tmp_path, capsys):
    rc = main(["fit", "--dataset", str(tmp_path / "nope.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_loans": 5}')  # missing truth block
    rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_schema_mismatch_between_draws_and_dataset_exits_4(
        sim_outputs, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text(
        "loan_id,status,time,maturity,obs_time,z\n"
        "a,prepaid,2.0,30.0,1.0,0.5\n"
    )
    rc = main(["predict", "--dataset", str(other),
               "--draws", str(sim_outputs / "draws.csv"),
               "--n-sims", "5", "--out-dir", str(tmp_path / "x")])
    assert rc == 4
    assert "schema" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fit_without_a_laplace_fit_exits_4_naming_the_risk(sim_outputs, tmp_path, fit_config,
                                                          capsys):
    # one covariate cell of 1e200 leaves the default risk's log posterior
    # with no negative definite Hessian anywhere the search can reach
    lines = (sim_outputs / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[-2] = "1e200"
    lines[1] = ",".join(cells)
    dataset = tmp_path / "huge.csv"
    dataset.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--dataset", str(dataset), "--config", str(fit_config),
                   "--out-dir", str(tmp_path / "fit")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err == ("error: default risk: the Hessian of the log posterior is not "
                            "negative definite where the mode search stopped\n")
    assert not (tmp_path / "fit" / "draws.csv").exists()


@pytest.mark.parametrize("cell", ["1e8", "1e12"])
def test_fit_with_a_huge_covariate_cell_fits(sim_outputs, tmp_path, fit_config, capsys, cell):
    # the Newton search scales each step by the curvature along each
    # coordinate, so one cell this far out of scale still has a mode
    lines = (sim_outputs / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[-2] = cell
    lines[1] = ",".join(cells)
    dataset = tmp_path / "huge.csv"
    dataset.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--dataset", str(dataset), "--config", str(fit_config),
                   "--allow-nonconverged", "--out-dir", str(tmp_path / "fit")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "fit" / "draws.csv").exists()


def test_fit_prior_only_with_a_tiny_variance_rate_exits_0(sim_outputs, tmp_path, capsys):
    # the prior mode of l = log sigma2 is near -11.5; a search step toward
    # l in (-745, -709.8), where exp(l) is still positive but exp(-l)
    # overflows, must come back as -inf, not as an OverflowError
    config = tmp_path / "prior.json"
    config.write_text(json.dumps({
        "prior": {"sigma2_shape": 0.1, "sigma2_rate": 1e-6},
        "sampler": {"n_chains": 2, "n_iters": 200, "burn_in": 100, "thin": 1, "seed": 1},
    }))
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"), "--config", str(config),
               "--prior-only", "--allow-nonconverged", "--out-dir", str(tmp_path / "prior")])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "Traceback" not in captured.err


def test_importing_the_cli_leaves_out_scipy_optimize_and_linalg():
    # importing scipy.optimize alone takes most of a second
    code = ("import sys, mortsurv.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    src = str(Path(mortsurv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_fit_says_on_stderr_when_the_mode_search_stops_short(tmp_path, capsys):
    """Nearly flat priors on the criterion-4 book leave both risks' Newton
    searches above their tolerance: the command says so in one stderr line
    per risk, naming the risk and the decrement, and still exits 0 under
    --allow-nonconverged."""
    sim, fit = tmp_path / "sim.json", tmp_path / "fit.json"
    sim.write_text(json.dumps({
        "n_loans": 2000, "n_covariates": 3, "seed": 20260819, "maturity": 30.0,
        "censor_time": None,
        "true": {"mu_default": 2.8, "sigma2_default": 0.81, "mu_prepay": 1.6,
                 "sigma2_prepay": 0.49, "theta_default": [-0.6, 0.5, -0.4, 0.3],
                 "theta_prepay": [0.3, -0.2, 0.4, -0.25]},
    }))
    fit.write_text(json.dumps({
        "prior": {"theta_sd": 1e4, "mu_sd": 1e4, "sigma2_rate": 1e4},
        "sampler": {"n_chains": 2, "n_iters": 4, "burn_in": 2, "thin": 1, "seed": 1},
    }))
    assert main(["simulate", "--config", str(sim), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    src = str(Path(mortsurv.__file__).resolve().parents[1])
    argv = ["fit", "--dataset", str(tmp_path / "dataset.csv"), "--config", str(fit),
            "--allow-nonconverged", "--out-dir", str(tmp_path / "fit")]
    out = subprocess.run([sys.executable, "-m", "mortsurv.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    said = [line for line in out.stderr.splitlines() if "mode search" in line]
    assert len(said) == 2, out.stderr
    for risk, line in zip(("default", "prepay"), said):
        prefix = (f"{risk} risk: the mode search stopped short of the mode, "
                  "squared Newton decrement ")
        assert line.startswith(prefix) and line.endswith(" (tolerance 0.0001)"), line
        assert float(line[len(prefix):].split()[0]) > 1.0, line


def test_threads_flag_is_accepted_and_ignored(tmp_path, sim_outputs, fit_config,
                                              capsys):
    a = tmp_path / "plain"
    assert main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
                 "--config", str(fit_config), "--allow-nonconverged",
                 "--out-dir", str(a)]) == 0
    b = tmp_path / "t2"
    assert main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
                 "--config", str(fit_config), "--allow-nonconverged",
                 "--threads", "2", "--out-dir", str(b)]) == 0
    capsys.readouterr()
    for name in ("draws.csv", "summary.csv", "acceptance.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fit_exits_4_when_a_risk_worker_fails_and_leaves_no_thread(
    sim_outputs, tmp_path, fit_config, monkeypatch, capsys
):
    _recorded(monkeypatch, fail=RiskKind.PREPAY)
    before = threading.active_count()
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(fit_config), "--out-dir", str(tmp_path / "fit")])
    assert rc == 4
    assert capsys.readouterr().err == "error: prepay scoring failed\n"
    assert threading.active_count() == before
    assert not (tmp_path / "fit" / "draws.csv").exists()


def test_out_dir_env_var(tmp_path, sim_config, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("MORTSURV_OUT_DIR", str(target))
    assert main(["simulate", "--config", str(sim_config)]) == 0
    capsys.readouterr()
    assert (target / "dataset.csv").exists()


def test_fit_gates_on_rhat_unless_waived(sim_outputs, tmp_path, fit_config,
                                         capsys):
    # 80-iteration chains are far from converged, so the gate must trip
    out = tmp_path / "gated"
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(fit_config), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 5
    assert "convergence gate" in captured.err
    # outputs are still written so the run can be inspected
    assert (out / "draws.csv").exists()
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--data-end", "2014-01", "expected YYYYMM, got '2014-01'"),
    ("--data-end", "201413", "month out of range in '201413'"),
    ("--maturity", "-1", "must be positive and finite, got -1.0"),
    ("--maturity", "inf", "must be positive and finite, got inf"),
    ("--maturity", "nan", "must be positive and finite, got nan"),
    ("--maturity", "ten", "invalid float value: 'ten'"),
    ("--min-category-freq", "1.5", "must be in [0, 1), got 1.5"),
    ("--max-reject-fraction", "-0.1", "must be in [0, 1], got -0.1"),
])
def test_ingest_bad_flag_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        # the input files do not exist: the flag must be refused before any read
        main(["ingest", "--origination", str(tmp_path / "orig.txt"),
              "--performance", str(tmp_path / "perf.txt"), flag, value,
              "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in err
    assert not out.exists()


def test_ingest_missing_schema_file_is_usage_error(tmp_path, capsys):
    orig = tmp_path / "orig.txt"
    perf = tmp_path / "perf.txt"
    orig.write_text(orow(lid="L001") + "\n")
    perf.write_text(prow(lid="L001", ym="200502", zb="01", rep="N") + "\n")
    missing = tmp_path / "no_such_schema.json"
    rc = main(["ingest", "--origination", str(orig), "--performance", str(perf),
               "--schema", str(missing), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert str(missing) in captured.err


def test_diagnose_active_only_dataset_is_empty_but_clean(sim_outputs, tmp_path,
                                                         capsys):
    from dataclasses import replace

    from mortsurv.fileio import write_dataset_csv
    from mortsurv.model import Dataset, LoanStatus

    ds = read_dataset_csv(sim_outputs / "dataset.csv")
    active = tuple(
        replace(ln, status=LoanStatus.ACTIVE, time=2.5) for ln in ds.loans[:5]
    )
    sub = tmp_path / "active.csv"
    write_dataset_csv(Dataset(loans=active, schema=ds.schema), sub)
    out = tmp_path / "diag"
    rc = main(["diagnose", "--dataset", str(sub),
               "--draws", str(sim_outputs / "draws.csv"),
               "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    residuals = (out / "residuals.csv").read_text().splitlines()
    assert len(residuals) == 1  # header only
    cov = (out / "coverage.csv").read_text().splitlines()
    assert len(cov) == 3
    for line in cov[1:]:
        fields = line.split(",")
        assert fields[2] == "0" and fields[4] == "nan"


def test_ingest_schema_missing_columns_key_exits_4(tmp_path, capsys):
    orig = tmp_path / "orig.txt"
    perf = tmp_path / "perf.txt"
    orig.write_text(orow(lid="L001") + "\n")
    perf.write_text(prow(lid="L001", ym="200502", zb="01", rep="N") + "\n")
    good = json.loads((files("mortsurv.data") / "freddie_sample_schema.json").read_text())
    cases = [  # (schema JSON, how the error names the key: a map's keys in block form)
        ({"origination": {"loan_id": 19},
          "performance": {"loan_id": 0, "reporting_date": 1}}, '"origination_columns"'),
        ({**good, "origination_columns": [19]}, "origination_columns: expected a JSON object"),
        ({**good, "delimiter": 5}, '"delimiter"'),
        ({**good, "delimiter": ""}, '"delimiter"'),
        ({**good, "origination_columns": {**good["origination_columns"], "dti": -1}},
         '"origination_columns.dti"'),
        ({**good, "performance_columns": {**good["performance_columns"], "zero_balance": "x"}},
         'performance_columns: "zero_balance"'),
        ({**good, "origination_columns": {**good["origination_columns"], "upb": True}},
         'origination_columns: "upb"'),
        ({**good, "has_header": "false"}, '"has_header"'),
        ({**good, "missing_codes": {"dti": "999"}}, 'missing_codes: "dti"'),
        ({**good, "missing_codes": ["dti"]}, "missing_codes: expected a JSON object"),
        ({**good, "date_format": "mm/yyyy"}, '"date_format"'),
    ]
    schema = tmp_path / "schema.json"
    for case, says in cases:
        schema.write_text(json.dumps(case))
        rc = main(["ingest", "--origination", str(orig), "--performance", str(perf),
                   "--schema", str(schema), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4, says
        assert says in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "dataset.csv").exists()


def test_simulate_config_missing_parameter_exits_4(tmp_path, sim_config, capsys):
    cfg = json.loads(sim_config.read_text())
    del cfg["true"]["theta_prepay"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "theta_prepay" in err
    assert "Traceback" not in err


def test_single_chain_fit_says_gate_not_evaluated(sim_outputs, tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "sampler": {"n_chains": 1, "n_iters": 80, "burn_in": 40, "thin": 4, "seed": 1},
    }))
    out = tmp_path / "one"
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(cfg), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "convergence gate: not evaluated (split R-hat needs at least 2 chains)\n")
    assert "convergence gate" not in captured.out
    assert (out / "summary.csv").exists()


def test_fit_repeated_covariate_column_exits_4(sim_outputs, tmp_path, fit_config, capsys):
    # repeated names would make the theta columns of draws.csv indistinct
    lines = (sim_outputs / "dataset.csv").read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    header[5:] = ["x"] * (len(header) - 5)
    bad = tmp_path / "repeated.csv"
    bad.write_text(",".join(header) + "\n" + "".join(lines[1:]))
    rc = main(["fit", "--dataset", str(bad), "--config", str(fit_config),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{bad}: covariate column 'x' is repeated in the schema" in err
    assert not (tmp_path / "out" / "draws.csv").exists()


def test_short_chain_fit_says_gate_not_evaluated(sim_outputs, tmp_path, capsys):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({
        "sampler": {"n_chains": 2, "n_iters": 43, "burn_in": 40, "thin": 1, "seed": 1},
    }))
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(cfg), "--out-dir", str(tmp_path / "short")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "convergence gate: not evaluated "
        "(split R-hat needs at least 4 kept draws per chain)\n")


def test_fit_gate_trips_on_stuck_chains(sim_outputs, tmp_path, fit_config, capsys,
                                        monkeypatch):
    # stuck chains read R-hat +inf, which the gate must not skip as it skips
    # the NaN of draws that are all one constant
    def stuck(samples):
        rows = summarize(samples)
        return [replace(r, rhat=math.inf if i == 4 else math.nan) for i, r in enumerate(rows)]

    monkeypatch.setattr("mortsurv.cli.summarize", stuck)
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(fit_config), "--out-dir", str(tmp_path / "stuck")])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.err == (
        "convergence gate: split R-hat > 1.1 for theta_default:intercept (worst inf)\n")


def test_fit_config_block_not_an_object_exits_4(sim_outputs, tmp_path, capsys):
    cfg = tmp_path / "bad_fit.json"
    cfg.write_text(json.dumps({"prior": 5}))
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "fit config prior: expected a JSON object" in err


def test_fit_config_removed_tuning_key_exits_4(sim_outputs, tmp_path, capsys):
    cfg = tmp_path / "adapt.json"
    cfg.write_text(json.dumps({"sampler": {"adapt": True, "n_iters": 80, "burn_in": 40}}))
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "unknown keys ['adapt']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("n_chains", "2"), ("n_iters", 80.0)])
def test_fit_config_wrongly_typed_value_exits_4(sim_outputs, tmp_path, capsys,
                                                key, value):
    sampler = {"n_chains": 2, "n_iters": 80, "burn_in": 40, "thin": 4, "seed": 1}
    sampler[key] = value
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"sampler": sampler}))
    rc = main(["fit", "--dataset", str(sim_outputs / "dataset.csv"),
               "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f'fit config sampler: "{key}" must be an integer' in err
    assert "Traceback" not in err


def test_simulate_config_wrongly_typed_value_exits_4(tmp_path, sim_config, capsys):
    cfg = json.loads(sim_config.read_text())
    cfg["n_loans"] = "80"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert 'simulate config: "n_loans" must be an integer' in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, need", [
    ("predict", "--grid-points", "0", "a positive integer, got 0"),
    ("predict", "--n-sims", "0", "a positive integer, got 0"),
    ("predict", "--seed", "-1", "a non-negative integer, got -1"),
    ("diagnose", "--level", "1.5", "in [0, 1], got 1.5"),
    ("diagnose", "--level", "nan", "in [0, 1], got nan"),
], ids=["--grid-points", "--n-sims", "--seed", "--level-1.5", "--level-nan"])
def test_predict_count_flags_must_be_positive(sim_outputs, tmp_path, capsys,
                                              command, flag, value, need):
    out = tmp_path / "pred"
    with pytest.raises(SystemExit) as exc:
        main([command, "--dataset", str(sim_outputs / "dataset.csv"),
              "--draws", str(sim_outputs / "draws.csv"),
              flag, value, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: must be {need}" in err
    assert not out.exists()  # rejected before any output is opened


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_config_negative_seed_exits_4_naming_seed(sim_outputs, sim_config, tmp_path, capsys,
                                                  command):
    if command == "simulate":
        cfg = json.loads(sim_config.read_text())
        cfg["seed"] = -3
        argv = ["simulate"]
    else:
        cfg = {"sampler": {"n_chains": 2, "n_iters": 80, "burn_in": 40, "thin": 4, "seed": -3}}
        argv = ["fit", "--dataset", str(sim_outputs / "dataset.csv")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(argv + ["--config", str(bad), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "seed must be a non-negative integer, got -3" in err
    assert "Traceback" not in err
    assert not out.exists()


def _edit_cell(src, dst, line_no, column, value):
    """Copy a CSV file, replacing one cell (line numbers count the header as 1)."""
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[line_no - 1].split(",")
    cells[col] = value
    lines[line_no - 1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, value, need", [
    ("mu_default", "nan", "finite"),
    ("sigma2_default", "-1.0", "positive and finite"),
])
@pytest.mark.parametrize("command", ["predict", "diagnose"])
def test_draws_value_out_of_domain_exits_4(sim_outputs, tmp_path, capsys,
                                           command, column, value, need):
    draws = tmp_path / "draws.csv"
    _edit_cell(sim_outputs / "draws.csv", draws, 3, column, value)
    argv = [command, "--dataset", str(sim_outputs / "dataset.csv"),
            "--draws", str(draws), "--out-dir", str(tmp_path / "out")]
    rc = main(argv + (["--n-sims", "5"] if command == "predict" else []))
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{draws}:3: {column} must be {need}, got {value}" in err


def _swap_thetas(cols):
    i, j = cols.index("theta_default:intercept"), cols.index("theta_default:x1")
    cols[i], cols[j] = cols[j], cols[i]


@pytest.mark.parametrize("edit", [
    _swap_thetas,
    lambda cols: cols.remove("theta_prepay:x1"),
    lambda cols: cols.remove("sigma2_prepay"),
    lambda cols: cols.reverse(),
], ids=["swapped-theta", "missing-theta-prepay", "missing-sigma2-prepay", "reversed"])
def test_draws_malformed_header_exits_4(sim_outputs, tmp_path, capsys, edit):
    rows = [line.split(",") for line in (sim_outputs / "draws.csv").read_text().splitlines()]
    header = list(rows[0])
    edit(header)
    cols = [rows[0].index(name) for name in header]  # whole columns move or go
    draws = tmp_path / "draws.csv"
    draws.write_text("".join(",".join(row[k] for k in cols) + "\n" for row in rows))
    rc = main(["predict", "--dataset", str(sim_outputs / "dataset.csv"),
               "--draws", str(draws), "--n-sims", "5", "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{draws}: expected header chain,iteration,mu_default," in err
    assert "Traceback" not in err


def test_dataset_unparseable_number_names_its_place(sim_outputs, tmp_path, capsys):
    dataset = tmp_path / "dataset.csv"
    _edit_cell(sim_outputs / "dataset.csv", dataset, 4, "time", "abc")
    rc = main(["fit", "--dataset", str(dataset), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{dataset}:4: time 'abc' is not a number" in err


@pytest.mark.parametrize("rows, line, message", [
    (["b,default,2.0,30.0,1.0,1.0,nan"], 3, "x1 must be finite, got nan"),
    (["b,default,2.0,30.0,inf,1.0,0.5"], 3, "obs_time must be finite and positive, got inf"),
    (["b,default,2.0,30.0,nan,1.0,0.5"], 3, "obs_time must be finite and positive, got nan"),
    (["b,default,2.0,30.0,0.0,1.0,0.5"], 3, "obs_time must be finite and positive, got 0.0"),
    (["b,default,2.0,30.0,1.0,1.0,0.5", "b,default,2.0,30.0,1.0,1.0,0.7"], 4,
     "obs_time must be strictly increasing within a loan, got 1.0 after 1.0"),
    (["b,default,-1.0,30.0,1.0,1.0,0.5", "b,default,-1.0,30.0,2.0,1.0,0.5"], 3,
     "loan b: time must be positive, got -1.0"),
    (["b,active,40.0,30.0,1.0,1.0,0.5", "b,active,40.0,30.0,2.0,1.0,0.5"], 3,
     "loan b: active beyond maturity (40.0 > 30.0)"),
    (["b,prepaid,1.0,30.0,1.0,1.0,0.5", "a,default,2.0,30.0,2.0,1.0,0.5"], 4,
     "rows of loan a not consecutive"),
    (["a,default,3.0,30.0,2.0,1.0,0.5"], 3, "loan a rows disagree on loan fields"),
    (["b,default,2.0,30.0,1.0,1.0"], 3, "expected 7 fields"),
    (["b,defaulted,2.0,30.0,1.0,1.0,0.5"], 3, "unknown status 'defaulted'"),
], ids=["covariate-nan", "obs-time-inf", "obs-time-nan", "obs-time-zero", "obs-time-repeats",
        "time-negative", "active-past-maturity", "not-consecutive", "disagree", "field-count",
        "unknown-status"])
def test_dataset_content_error_names_its_place(tmp_path, capsys, rows, line, message):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("loan_id,status,time,maturity,obs_time,intercept,x1\n"
                       "a,default,2.0,30.0,1.0,1.0,0.5\n" + "".join(r + "\n" for r in rows)
                       + "c,prepaid,1.0,30.0,1.0,1.0,0.5\n")
    rc = main(["fit", "--dataset", str(dataset), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{dataset}:{line}: {message}" in err
    assert "Traceback" not in err


_DRAWS_HEADER = ("chain,iteration,mu_default,sigma2_default,mu_prepay,sigma2_prepay,"
                 "theta_default:intercept,theta_default:x1,theta_prepay:intercept,theta_prepay:x1")
_DRAW = "1.0,1.0,1.0,1.0,0.1,0.2,0.1,0.2"


@pytest.mark.parametrize("name, text, where, message", [
    ("dataset.csv", "", "", "empty dataset file"),
    ("dataset.csv", "loan_id,time,status,maturity,obs_time,x1\n", "",
     "expected columns ['loan_id', 'status', 'time', 'maturity', 'obs_time']..., "
     "got ['loan_id', 'time', 'status', 'maturity', 'obs_time']"),
    ("dataset.csv", "loan_id,status,time,maturity,obs_time\n", "", "no covariate columns"),
    ("draws.csv", f"{_DRAWS_HEADER}\n0,1,{_DRAW}\n0,2\n", ":3", "wrong field count"),
    ("draws.csv", f"{_DRAWS_HEADER}\n", "", "no draws"),
    ("draws.csv", f"{_DRAWS_HEADER}\n0,1,{_DRAW}\n99999999999999999999,2,{_DRAW}\n", ":3",
     "chain must fit in int64, got 99999999999999999999"),
    ("draws.csv", f"{_DRAWS_HEADER}\n0,-9223372036854775809,{_DRAW}\n", ":2",
     "iteration must fit in int64, got -9223372036854775809"),
], ids=["dataset-empty", "dataset-leading-columns", "dataset-no-covariates",
        "draws-field-count", "draws-none", "draws-chain-beyond-int64",
        "draws-iteration-beyond-int64"])
def test_input_file_error_names_the_file(tmp_path, capsys, name, text, where, message):
    """A dataset or draws file refused as a whole, or at a line, exits 4
    with a message naming the file (and the line), not a traceback."""
    dataset, draws = tmp_path / "dataset.csv", tmp_path / "draws.csv"
    dataset.write_text("loan_id,status,time,maturity,obs_time,intercept,x1\n"
                       "a,default,2.0,30.0,1.0,1.0,0.5\n")
    draws.write_text(f"{_DRAWS_HEADER}\n0,1,{_DRAW}\n")
    (tmp_path / name).write_text(text)
    rc = main(["predict", "--dataset", str(dataset), "--draws", str(draws), "--n-sims", "5",
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == f"error: {tmp_path / name}{where}: {message}\n"


def test_ingest_non_finite_origination_number_rejects_row_without_warning(tmp_path, capsys):
    orig = tmp_path / "orig.txt"
    orig.write_text("\n".join([
        orow(lid="L001", cs="720", fpd="200501", state="FL"),
        orow(lid="L002", cs="680", fpd="200503", dti="38", units="2"),
        orow(lid="L003", cs="750", fpd="200506", rate="6.2", mi="25"),
        orow(lid="L004", cs="640", fpd="200502", upb="90000", nb="1"),
        orow(lid="L005", cs="nan", fpd="200502"),
        orow(lid="L006", upb="1e400", fpd="200502"),
    ]) + "\n")
    perf = tmp_path / "perf.txt"
    perf.write_text("\n".join([
        prow("L001", "200501"), prow("L001", "200606", rep="N", zb="01"),
        prow("L002", "200503"), prow("L002", "200703", zb="03"),
        prow("L003", "200506"), prow("L003", "201402"),
        prow("L004", "200502"), prow("L004", "200801", dlq="R"),
        prow("L005", "200502"), prow("L005", "200801", dlq="R"),
        prow("L006", "200502"), prow("L006", "200801", dlq="R"),
    ]) + "\n")
    out = tmp_path / "ing"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["ingest", "--origination", str(orig), "--performance", str(perf),
                   "--max-reject-fraction", "0.5", "--out-dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (out / "rejects.csv").read_text().splitlines() == [
        "file,line,reason",
        "origination,5,bad credit_score: 'nan'",
        "origination,6,bad upb: '1e400'",
    ]
    assert len(read_dataset_csv(out / "dataset.csv").loans) == 4


def test_ingest_overflowing_field_statistic_exits_4_naming_the_field(tmp_path, capsys):
    orig = tmp_path / "orig.txt"
    orig.write_text("\n".join([
        orow(lid="L0", cs="720", fpd="200501", upb="1.7e308"),
        orow(lid="L1", cs="680", fpd="200503", upb="1.7e308", dti="38"),
        orow(lid="L2", cs="750", fpd="200506", rate="6.2", mi="25", units="2"),
        orow(lid="L3", cs="640", fpd="200502", upb="90000", nb="1"),
        orow(lid="L4", cs="700", fpd="200502", dti="41"),
        orow(lid="L5", cs="660", fpd="200504", rate="5.1"),
    ]) + "\n")
    perf = tmp_path / "perf.txt"
    starts = ("200501", "200503", "200506", "200502", "200502", "200504")
    perf.write_text("\n".join(
        row for k, start in enumerate(starts)
        for row in (prow(f"L{k}", start), prow(f"L{k}", "201402"))
    ) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["ingest", "--origination", str(orig), "--performance", str(perf),
                   "--out-dir", str(tmp_path / "ing")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == ("error: field upb cannot be standardized: its mean (inf) or standard "
                   "deviation (inf) overflows\n")


@pytest.mark.parametrize("column, value, kind", [
    ("iteration", "1.5", "an integer"),
    ("theta_prepay:intercept", "abc", "a number"),
])
def test_draws_unparseable_number_names_its_place(sim_outputs, tmp_path, capsys,
                                                  column, value, kind):
    draws = tmp_path / "draws.csv"
    _edit_cell(sim_outputs / "draws.csv", draws, 2, column, value)
    rc = main(["predict", "--dataset", str(sim_outputs / "dataset.csv"),
               "--draws", str(draws), "--n-sims", "5", "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{draws}:2: {column} {value!r} is not {kind}" in err


# --- corrupted input files ------------------------------------------------------


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    """One valid file for each input flag, keyed by (command, flag)."""
    d = tmp_path_factory.mktemp("clean")
    sim = d / "sim.json"
    sim.write_text(json.dumps({
        "n_loans": 30, "n_covariates": 2, "seed": 9,
        "true": {"mu_default": 2.8, "sigma2_default": 0.9, "mu_prepay": 1.6,
                 "sigma2_prepay": 0.5, "theta_default": [-0.8, 0.5, 0.2],
                 "theta_prepay": [0.3, -0.2, 0.1]},
    }))
    fit = d / "fit.json"
    fit.write_text(json.dumps({"sampler": {"n_chains": 2, "n_iters": 40, "burn_in": 20,
                                           "thin": 4, "seed": 1}}))
    assert main(["simulate", "--config", str(sim), "--out-dir", str(d)]) == 0
    assert main(["fit", "--dataset", str(d / "dataset.csv"), "--config", str(fit),
                 "--allow-nonconverged", "--out-dir", str(d)]) == 0
    (d / "orig.txt").write_text(orow(lid="L001") + "\n")
    (d / "perf.txt").write_text(prow(lid="L001", ym="200502", zb="01", rep="N") + "\n")
    (d / "schema.json").write_bytes(
        (files("mortsurv.data") / "freddie_sample_schema.json").read_bytes())
    return {
        ("simulate", "--config"): sim,
        ("fit", "--dataset"): d / "dataset.csv",
        ("fit", "--config"): fit,
        ("predict", "--dataset"): d / "dataset.csv",
        ("predict", "--draws"): d / "draws.csv",
        ("ingest", "--origination"): d / "orig.txt",
        ("ingest", "--performance"): d / "perf.txt",
        ("ingest", "--schema"): d / "schema.json",
    }


def _non_utf8(data: bytes) -> bytes:
    at = data.find(b"\n") + 1 or len(data) // 2
    return data[:at] + b"\xe9" + data[at:]


def _huge_cell(data: bytes) -> bytes:
    header, rest = data.split(b"\n", 1)
    return header + b"\n" + b"9" * 200_000 + rest


CORRUPTIONS = {
    "non-utf8": _non_utf8,
    "huge-cell": _huge_cell,
    "invalid-json": lambda data: data.replace(b'"', b"'", 1),
    "utf8-bom": lambda data: b"\xef\xbb\xbf" + data,
}
CSV_FLAGS = [("fit", "--dataset"), ("predict", "--draws")]
JSON_FLAGS = [("fit", "--config"), ("simulate", "--config"), ("ingest", "--schema")]
RAW_FLAGS = [("ingest", "--origination"), ("ingest", "--performance")]
CORRUPT_CASES = (
    [(*flag, "non-utf8") for flag in CSV_FLAGS + JSON_FLAGS + RAW_FLAGS]
    + [(*flag, "huge-cell") for flag in CSV_FLAGS]
    + [(*flag, kind) for flag in JSON_FLAGS for kind in ("invalid-json", "utf8-bom")]
)


@pytest.mark.parametrize("command, flag, kind", CORRUPT_CASES,
                         ids=[f"{c}{f}-{k}" for c, f, k in CORRUPT_CASES])
def test_corrupted_input_file_exits_cleanly_naming_it(clean_inputs, tmp_path, capsys,
                                                      command, flag, kind):
    bad = tmp_path / clean_inputs[command, flag].name
    bad.write_bytes(CORRUPTIONS[kind](clean_inputs[command, flag].read_bytes()))
    argv = [command]
    for (cmd, other), path in clean_inputs.items():
        if cmd == command:
            argv += [other, str(bad if other == flag else path)]
    rc = main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (3, 4), err
    assert err.startswith("error: ") and str(bad) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, block, key, value, says", [
    ("simulate", "true", "mu_default", "abc", '"mu_default" must be a number, got "abc"'),
    ("simulate", "true", "mu_default", True, '"mu_default" must be a number, got true'),
    ("simulate", "true", "sigma2_default", -1, '"sigma2_default": sigma2 must be positive'),
    ("fit", "sampler", "n_chains", 0, "n_chains must be at least 1"),
    ("fit", "prior", "theta_sd", -1, "theta_sd must be positive and finite, got -1.0"),
], ids=["string", "bool", "negative-variance", "no-chains", "negative-sd"])
def test_config_value_error_names_file_block_and_key(sim_config, tmp_path, capsys,
                                                     command, block, key, value, says):
    cfg = json.loads(sim_config.read_text()) if command == "simulate" else {block: {}}
    cfg[block][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    argv = [command, "--config", str(bad), "--out-dir", str(tmp_path / "out")]
    if command == "fit":
        dataset = tmp_path / "dataset.csv"
        write_dataset_csv(Dataset(loans=(), schema=("intercept",)), dataset)
        argv += ["--dataset", str(dataset)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"error: {bad}: {command} config {block}: {says}"), err
    assert not (tmp_path / "out").exists()


def test_schema_with_misspelled_optional_keys_exits_4(tmp_path, capsys):
    schema = json.loads((files("mortsurv.data") / "freddie_sample_schema.json").read_text())
    schema.update(delimeter=",", has_headr=True)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    (tmp_path / "orig.txt").write_text(orow(lid="L001") + "\n")
    (tmp_path / "perf.txt").write_text(prow(lid="L001", ym="200502", zb="01", rep="N") + "\n")
    rc = main(["ingest", "--origination", str(tmp_path / "orig.txt"),
               "--performance", str(tmp_path / "perf.txt"), "--schema", str(path),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(
        f"error: {path}: input file schema: unknown keys ['delimeter', 'has_headr']")
