"""Posterior-predictive curves and outcome probabilities for single loans.

Every predictive quantity averages over posterior draws.  This demo uses
a fast fit, then for two contrasting profiles prints the prepay survival
curve, draws a few event times from it (pick a posterior draw, invert its
survival in closed form), and partitions the outcome probabilities with
the competing-risks race.
"""

from __future__ import annotations

import numpy as np

from mortsurv import (
    BenchmarkConfig,
    CovariatePath,
    LognormalBaseline,
    ModelParams,
    PriorSpec,
    RiskKind,
    SamplerConfig,
    classify,
    make_benchmark,
    predictive_reliability,
    sample_event_time,
    run_sampler,
)

truth = ModelParams(
    baseline_default=LognormalBaseline(2.8, 0.9**2),
    baseline_prepay=LognormalBaseline(1.6, 0.7**2),
    theta_default=np.array([-0.6, 0.5, 0.3]),
    theta_prepay=np.array([0.3, -0.2, 0.25]),
)
dataset, _ = make_benchmark(
    BenchmarkConfig(n_loans=500, true_params=truth, n_covariates=2, seed=7)
)
samples = run_sampler(
    dataset,
    PriorSpec(),
    SamplerConfig(n_chains=2, n_iters=2000, burn_in=1000, thin=10, seed=3),
    n_threads=2,
)

profiles = {
    "steady borrower": CovariatePath.constant([1.0, -1.0, 0.0]),
    "rate chaser": CovariatePath.constant([1.0, 1.5, 1.0]),
}
grid = np.array([1.0, 3.0, 5.0, 10.0, 20.0, 30.0])

for label, path in profiles.items():
    rel = predictive_reliability(path, samples, RiskKind.PREPAY, grid)
    print(f"{label}: prepay survival over the years")
    for t, r in zip(grid, rel):
        bar = "#" * int(round(40 * r))
        print(f"  {t:>5.0f}y  {r:.3f}  {bar}")

    rng = np.random.default_rng(11)
    times = [sample_event_time(path, samples, RiskKind.PREPAY, rng).time for _ in range(5)]
    print("  five sampled prepay times:", " ".join(f"{t:.1f}" for t in times))

    rng = np.random.default_rng(12)
    res = classify(path, samples, maturity=30.0, n_sims=4000, rng=rng)
    print(
        f"  outcome probabilities: default {res.p_default:.3f}, "
        f"prepay {res.p_prepay:.3f}, mature {res.p_mature:.3f} "
        f"(sum {res.p_default + res.p_prepay + res.p_mature})"
    )
    print()
