"""Bayesian competing-risks survival modeling of mortgage portfolios.

Loans face two racing terminal events, default and prepayment, each with
a lognormal-baseline proportional-hazards rate.  The package covers the
full workflow: ingesting loan-level files, exact likelihood evaluation,
Laplace-fitted Metropolis-Hastings posterior sampling, posterior-predictive
curves and outcome probabilities, and residual/coverage diagnostics,
plus a synthetic-data generator with known ground truth.
"""

from .diagnostics import (
    CoverageReport,
    LoanDiagnostics,
    PredictiveMoments,
    coverage_report,
    loan_diagnostics,
    observed_quantile,
    predictive_moments,
    standardized_residual,
)
from .ingest import (
    FileSchema,
    IngestConfig,
    IngestError,
    IngestResult,
    PreprocessSpec,
    ZeroVarianceError,
    ingest_portfolio,
)
from .likelihood import PortfolioLikelihood, loan_loglik, total_loglik
from .mcmc import (
    InitializationError,
    ParamSummary,
    PosteriorSamples,
    PriorSpec,
    SamplerConfig,
    effective_sample_size,
    run_chain,
    run_sampler,
    split_rhat,
    summarize,
)
from .model import (
    CovariatePath,
    Dataset,
    LognormalBaseline,
    LoanObservation,
    LoanStatus,
    ModelParams,
    RiskKind,
    baseline_cumhaz,
    covariate_at,
    cumulative_hazard,
    log_normal_survival,
    lognormal_hazard,
)
from .predict import (
    ClassificationResult,
    EventTimeDraw,
    RiskCurves,
    classify,
    predictive_density,
    predictive_reliability,
    sample_event_time,
)
from .synth import (
    BenchmarkConfig,
    SimulatedLoan,
    TruthRecord,
    invert_survival,
    make_benchmark,
    simulate_loan,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "ClassificationResult",
    "CovariatePath",
    "CoverageReport",
    "Dataset",
    "EventTimeDraw",
    "FileSchema",
    "IngestConfig",
    "IngestError",
    "IngestResult",
    "InitializationError",
    "LoanDiagnostics",
    "LoanObservation",
    "LoanStatus",
    "LognormalBaseline",
    "ModelParams",
    "ParamSummary",
    "PortfolioLikelihood",
    "PosteriorSamples",
    "PredictiveMoments",
    "PreprocessSpec",
    "PriorSpec",
    "RiskCurves",
    "RiskKind",
    "SamplerConfig",
    "SimulatedLoan",
    "TruthRecord",
    "ZeroVarianceError",
    "baseline_cumhaz",
    "classify",
    "coverage_report",
    "covariate_at",
    "cumulative_hazard",
    "effective_sample_size",
    "ingest_portfolio",
    "invert_survival",
    "loan_diagnostics",
    "loan_loglik",
    "log_normal_survival",
    "lognormal_hazard",
    "make_benchmark",
    "observed_quantile",
    "predictive_density",
    "predictive_moments",
    "predictive_reliability",
    "run_chain",
    "run_sampler",
    "sample_event_time",
    "simulate_loan",
    "split_rhat",
    "standardized_residual",
    "summarize",
    "total_loglik",
]
