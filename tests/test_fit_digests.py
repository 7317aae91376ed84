"""The bytes of a fit's result files, pinned.

A fixed simulated book is fitted through the CLI and the sha256 of
``draws.csv``, ``summary.csv`` and ``acceptance.csv`` is compared with
digests recorded before a sampler change that promised the same bytes.
Floating-point libraries can round differently from one version to the
next, so the digests hold only for the numpy and scipy versions recorded
beside them; on other versions the test skips.  A change that alters draw
bytes on purpose (a new RNG-to-draw mapping, say) records new digests and
says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import scipy

from mortsurv.cli import main

SIM = {
    "n_loans": 200, "n_covariates": 2, "seed": 21,
    "true": {
        "mu_default": 2.8, "sigma2_default": 0.81, "mu_prepay": 1.6, "sigma2_prepay": 0.49,
        "theta_default": [-0.8, 0.5, 0.2], "theta_prepay": [0.3, -0.2, 0.1],
    },
}
# longer than one proposal chunk (1024 sweeps), so the fit crosses a chunk boundary
FIT = {"sampler": {"n_chains": 4, "n_iters": 1200, "burn_in": 300, "thin": 3, "seed": 8}}
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    "draws.csv": "5c95578844a71e61cbd9f6c913eac484ad6128bc71542e022d89ceded7155767",
    "summary.csv": "99a74544f9f149af01b2307a0ecadccc0eb587e12b150a6aae900f0dfd8fe9b3",
    "acceptance.csv": "b84afe5e92b8e3f6714c5b083bb5b477df538f426c85931e13e3d4fd3784cf06",
}


def test_fit_output_bytes_are_pinned(tmp_path, capsys):
    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    if found != VERSIONS:
        pytest.skip(f"digests recorded with {VERSIONS}, running {found}")
    (tmp_path / "sim.json").write_text(json.dumps(SIM))
    (tmp_path / "fit.json").write_text(json.dumps(FIT))
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--out-dir", str(tmp_path / "data")]) == 0
    assert main(["fit", "--dataset", str(tmp_path / "data" / "dataset.csv"),
                 "--config", str(tmp_path / "fit.json"), "--allow-nonconverged",
                 "--out-dir", str(tmp_path / "fit")]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / "fit" / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS
