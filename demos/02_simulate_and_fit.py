"""Generate a synthetic portfolio with known parameters and fit it back.

A quick version of the recovery workflow: simulate 500 loans, run four
short chains, and compare the posterior intervals with the
truth that generated the data.  Takes well under a minute; production
runs use the defaults (4 chains x 20k sweeps).
"""

from __future__ import annotations

import numpy as np

from mortsurv import (
    BenchmarkConfig,
    LoanStatus,
    LognormalBaseline,
    ModelParams,
    PriorSpec,
    SamplerConfig,
    make_benchmark,
    run_sampler,
    summarize,
)

truth = ModelParams(
    baseline_default=LognormalBaseline(2.8, 0.9**2),
    baseline_prepay=LognormalBaseline(1.6, 0.7**2),
    theta_default=np.array([-0.6, 0.5, 0.3]),
    theta_prepay=np.array([0.3, -0.2, 0.25]),
)
dataset, record = make_benchmark(
    BenchmarkConfig(n_loans=500, true_params=truth, n_covariates=2, seed=7)
)
print("portfolio mix:", {s.value: dataset.count(s) for s in LoanStatus})

config = SamplerConfig(n_chains=4, n_iters=3000, burn_in=1500, thin=5, seed=1)
samples = run_sampler(dataset, PriorSpec(), config)
print(f"kept {samples.n_draws} draws from {config.n_chains} chains")

true_by_name = {
    "mu_default": truth.baseline_default.mu,
    "sigma2_default": truth.baseline_default.sigma2,
    "mu_prepay": truth.baseline_prepay.mu,
    "sigma2_prepay": truth.baseline_prepay.sigma2,
}
for j, name in enumerate(samples.schema):
    true_by_name[f"theta_default:{name}"] = float(truth.theta_default[j])
    true_by_name[f"theta_prepay:{name}"] = float(truth.theta_prepay[j])

print()
print(f"{'parameter':<24} {'truth':>7} {'median':>8} {'95% interval':>19} {'rhat':>6}")
for row in summarize(samples):
    tv = true_by_name[row.name]
    hit = "in " if row.q2_5 <= tv <= row.q97_5 else "OUT"
    print(
        f"{row.name:<24} {tv:>7.3f} {row.median:>8.3f} "
        f"[{row.q2_5:>7.3f}, {row.q97_5:>7.3f}] {row.rhat:>6.3f}  {hit}"
    )
print()
print("short chains leave wide intervals; the acceptance suite runs the")
print("full-length version and requires 11 of 12 parameters covered")
