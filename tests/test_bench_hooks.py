"""The benchmark's trace hooks still reach the layers they time.

``bench/spans.py`` times the package by patching module attributes.  A
hooked function that is renamed, or that the program calls through a
reference captured at import time, leaves its per-layer metric with no
samples and no error.  A tiny traced ``fit`` and ``predict --curves``
catch both.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from mortsurv import cli, fileio, mcmc

from conftest import params_small, samples_at

BENCH = Path(__file__).resolve().parents[1] / "bench"

SIM = {
    "n_loans": 60, "n_covariates": 2, "seed": 3,
    "true": {
        "mu_default": 2.8, "sigma2_default": 0.81, "mu_prepay": 1.6, "sigma2_prepay": 0.49,
        "theta_default": [-0.8, 0.5, 0.2], "theta_prepay": [0.3, -0.2, 0.1],
    },
}
FIT = {"sampler": {"n_chains": 2, "n_iters": 6, "burn_in": 3, "thin": 1, "seed": 1}}


def test_traced_fit_records_every_sampler_and_likelihood_hook(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read only
    import spans

    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    (tmp_path / "fit.json").write_text(json.dumps(FIT))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path)]) == 0
    originals = (mcmc.run_chain, mcmc.update_theta, mcmc.update_mu, mcmc.update_sigma2)

    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["fit", "--dataset", str(tmp_path / "dataset.csv"),
                       "--config", str(tmp_path / "fit.json"), "--allow-nonconverged",
                       "--threads", "2", "--out-dir", str(tmp_path / "fit")])
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert rc == 0
    assert tracer.missing == []
    assert (mcmc.run_chain, mcmc.update_theta, mcmc.update_mu, mcmc.update_sigma2) == originals
    counts: dict[str, int] = {}
    for span in tracer.spans():
        counts[span.name] = counts.get(span.name, 0) + 1
    for name in ("mcmc.update_theta", "mcmc.update_mu", "mcmc.update_sigma2",
                 "mcmc.run_chain", "likelihood.coef_parts", "likelihood.baseline_parts",
                 "fileio.read_dataset_csv", "fileio.write_draws_csv",
                 "fileio.write_summary_csv", "fileio.write_acceptance_csv"):
        assert counts.get(name, 0) > 0, name


def test_traced_predict_records_classify(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read only
    import spans

    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path)]) == 0
    schema = fileio.read_dataset_csv(tmp_path / "dataset.csv").schema
    fileio.write_draws_csv(samples_at(params_small(3), n_draws=8, jitter=0.1, schema=schema),
                           tmp_path / "draws.csv")

    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["predict", "--dataset", str(tmp_path / "dataset.csv"),
                       "--draws", str(tmp_path / "draws.csv"), "--n-sims", "10", "--curves",
                       "--grid-points", "5", "--out-dir", str(tmp_path / "predict")])
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert rc == 0
    assert tracer.missing == []
    names = [span.name for span in tracer.spans()]
    assert names.count("predict.classify") == SIM["n_loans"]
    assert names.count("fileio.read_draws_csv") == 1
