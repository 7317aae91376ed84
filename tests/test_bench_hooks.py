"""The benchmark's trace hooks still reach the layers they time.

``bench/spans.py`` times the package by patching module attributes.  A
hooked function that is renamed, or that the program calls through a
reference captured at import time, leaves its per-layer metric with no
samples and no error.  A tiny traced run of ``fit``, ``predict --curves``,
``ingest`` and ``diagnose`` catches both.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from mortsurv import LoanStatus, cli, fileio, mcmc

from conftest import params_small, samples_at
from test_ingest import orow, prow

BENCH = Path(__file__).resolve().parents[1] / "bench"

SIM = {
    "n_loans": 60, "n_covariates": 2, "seed": 3,
    "true": {
        "mu_default": 2.8, "sigma2_default": 0.81, "mu_prepay": 1.6, "sigma2_prepay": 0.49,
        "theta_default": [-0.8, 0.5, 0.2], "theta_prepay": [0.3, -0.2, 0.1],
    },
}
FIT = {"sampler": {"n_chains": 2, "n_iters": 6, "burn_in": 3, "thin": 1, "seed": 1}}
# hooks of the one-block sampler kernels, which one independence block per
# risk replaced; the tracer reports them absent on every command
DELETED_KERNELS = ["mcmc.update_theta", "mcmc.update_mu", "mcmc.update_sigma2"]


def _traced(monkeypatch, argv):
    """Run one CLI command under the benchmark tracer: (exit code, tracer)."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read only
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return rc, tracer


def _span_counts(tracer) -> Counter:
    return Counter(span.name for span in tracer.spans())


def test_traced_fit_records_every_sampler_and_likelihood_hook(tmp_path, monkeypatch, capsys):
    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    (tmp_path / "fit.json").write_text(json.dumps(FIT))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path)]) == 0
    original = mcmc.run_chain

    rc, tracer = _traced(monkeypatch, [
        "fit", "--dataset", str(tmp_path / "dataset.csv"), "--config", str(tmp_path / "fit.json"),
        "--allow-nonconverged", "--threads", "2", "--out-dir", str(tmp_path / "fit")])
    capsys.readouterr()

    assert rc == 0
    # each risk's block scores its proposals through coef_parts and
    # baseline_parts, many rows a call: every chain's independence proposals
    # of a chunk, and one row per chain at the starts and each random-walk
    # sweep; one run_chain call runs all the fit's chains
    assert tracer.missing == DELETED_KERNELS
    assert mcmc.run_chain is original
    counts = _span_counts(tracer)
    for name in ("mcmc.run_chain", "likelihood.coef_parts", "likelihood.baseline_parts",
                 "fileio.read_dataset_csv", "fileio.write_draws_csv",
                 "fileio.write_summary_csv", "fileio.write_acceptance_csv"):
        assert counts[name] > 0, name


def test_traced_predict_records_classify(tmp_path, monkeypatch, capsys):
    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path)]) == 0
    schema = fileio.read_dataset_csv(tmp_path / "dataset.csv").schema
    fileio.write_draws_csv(samples_at(params_small(3), n_draws=8, jitter=0.1, schema=schema),
                           tmp_path / "draws.csv")

    rc, tracer = _traced(monkeypatch, [
        "predict", "--dataset", str(tmp_path / "dataset.csv"),
        "--draws", str(tmp_path / "draws.csv"), "--n-sims", "10", "--curves",
        "--grid-points", "5", "--out-dir", str(tmp_path / "predict")])
    capsys.readouterr()

    assert rc == 0
    assert tracer.missing == DELETED_KERNELS
    names = [span.name for span in tracer.spans()]
    assert names.count("predict.classify") == SIM["n_loans"]
    assert names.count("fileio.read_draws_csv") == 1


def test_traced_ingest_records_readers_and_writer(tmp_path, monkeypatch, capsys):
    orig, perf = tmp_path / "orig.txt", tmp_path / "perf.txt"
    orig.write_text("\n".join([
        orow(lid="L001", cs="720", fpd="200501", state="FL"),
        orow(lid="L002", cs="680", fpd="200503", dti="38", units="2"),
        orow(lid="L003", cs="750", fpd="200506", rate="6.2", mi="25"),
        orow(lid="L004", cs="640", fpd="200502", upb="90000", nb="1"),
    ]) + "\n")
    perf.write_text("\n".join([
        prow("L001", "200501"), prow("L001", "200606", rep="N", zb="01"),
        prow("L002", "200503"), prow("L002", "200703", zb="03"),
        prow("L003", "200506"), prow("L003", "201402"),
        prow("L004", "200502"), prow("L004", "200801", dlq="R"),
    ]) + "\n")
    rc, tracer = _traced(monkeypatch, [
        "ingest", "--origination", str(orig), "--performance", str(perf),
        "--out-dir", str(tmp_path / "ingest")])
    capsys.readouterr()

    assert rc == 0
    assert tracer.missing == DELETED_KERNELS
    counts = _span_counts(tracer)
    for name in ("ingest.ingest_portfolio", "ingest.read_origination_file",
                 "ingest.read_performance_file", "fileio.write_dataset_csv"):
        assert counts[name] == 1, name


def test_traced_diagnose_records_coverage_and_loans(tmp_path, monkeypatch, capsys):
    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path)]) == 0
    dataset = fileio.read_dataset_csv(tmp_path / "dataset.csv")
    fileio.write_draws_csv(
        samples_at(params_small(3), n_draws=8, jitter=0.1, schema=dataset.schema),
        tmp_path / "draws.csv")

    rc, tracer = _traced(monkeypatch, [
        "diagnose", "--dataset", str(tmp_path / "dataset.csv"),
        "--draws", str(tmp_path / "draws.csv"), "--out-dir", str(tmp_path / "diagnose")])
    capsys.readouterr()

    assert rc == 0
    assert tracer.missing == DELETED_KERNELS
    counts = _span_counts(tracer)
    assert counts["diagnostics.coverage_report"] == 1
    terminated = sum(loan.status is not LoanStatus.ACTIVE for loan in dataset.loans)
    assert terminated > 0
    assert counts["diagnostics.loan_diagnostics"] == terminated
