"""Residuals, observed quantiles, and interval coverage for a fitted model.

For each terminated loan the model predicts the distribution of its own
event time; diagnostics compare the observation against it.  Quantiles
near 1 mean the event came surprisingly early.  Coverage counts how many
observations the central 95% predictive intervals catch, split by
category: on well-specified synthetic data both land near 0.95, with
defaults a touch lower because their heavy predictive tail is capped at
the simulation horizon.
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
    coverage_report,
    make_benchmark,
    observed_quantile,
    run_sampler,
    standardized_residual,
)

truth = ModelParams(
    baseline_default=LognormalBaseline(2.8, 0.9**2),
    baseline_prepay=LognormalBaseline(1.6, 0.7**2),
    theta_default=np.array([-0.6, 0.5, 0.3]),
    theta_prepay=np.array([0.3, -0.2, 0.25]),
)
dataset, _ = make_benchmark(
    BenchmarkConfig(n_loans=300, true_params=truth, n_covariates=2, seed=19)
)
samples = run_sampler(
    dataset,
    PriorSpec(),
    SamplerConfig(n_chains=2, n_iters=2000, burn_in=1000, thin=10, seed=3),
)

print("first five terminated loans:")
print(f"{'loan':>8} {'status':>9} {'time':>6} {'residual':>9} {'quantile':>9}")
shown = 0
for loan in dataset.loans:
    if loan.status is LoanStatus.ACTIVE:
        continue
    res = standardized_residual(loan, samples)
    q = observed_quantile(loan, samples)
    print(f"{loan.loan_id:>8} {loan.status.value:>9} {loan.time:>6.2f} {res:>9.2f} {q:>9.3f}")
    shown += 1
    if shown == 5:
        break

report = coverage_report(dataset.loans, samples, level=0.95)
print()
print(f"central 95% interval coverage over {len(report.rows)} terminated loans:")
for label, cell in (("default", report.defaulted), ("prepaid", report.prepaid)):
    print(f"  {label:>8}: {cell.n_hits}/{cell.n_loans} covered (rate {cell.rate:.3f})")

quantiles = np.array([row.quantile for row in report.rows])
print(f"  observed quantiles: mean {quantiles.mean():.3f} (calibrated target 0.5)")
