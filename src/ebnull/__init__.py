"""Empirical-Bayes null estimation and multiple testing for one-sided
z-statistics.

The package fits a null distribution to the left tail of a statistic
sample (Gaussian, skew-normal, or nonparametric mixture, selected by
truncated likelihood), converts statistics to p-values under that fitted
null, and applies standard and adaptive false discovery rate procedures.
"""

__version__ = "0.1.0"

from .distributions import (
    mills_ratio,
    skew_normal_cdf,
)
from .nullmodel import (
    GaussianNull,
    MixtureNull,
    NullModel,
    SkewNormalNull,
    StatSample,
    TruncationRule,
    fit_gaussian,
    fit_mixture,
    fit_skew_normal,
    resolve_cut,
    select_null,
)
from .procedures import (
    ErrorMetrics,
    RejectionResult,
    bh,
    c_storey_bh,
    compute_metrics,
    d_storey_bh,
    storey_bh,
    storey_pi0,
)
from .pvalues import (
    PValueVector,
    eb_pvalues,
    standard_pvalues,
)
from .simulate import (
    HalfNormalPrior,
    MethodSummary,
    SimScenario,
    SimSummary,
    TwoPointPrior,
    generate,
    pvalue_histogram,
    run_scenario,
)

__all__ = [
    "__version__",
    # distributions
    "mills_ratio",
    "skew_normal_cdf",
    # null model
    "GaussianNull",
    "MixtureNull",
    "NullModel",
    "SkewNormalNull",
    "StatSample",
    "TruncationRule",
    "fit_gaussian",
    "fit_mixture",
    "fit_skew_normal",
    "resolve_cut",
    "select_null",
    # p-values
    "PValueVector",
    "eb_pvalues",
    "standard_pvalues",
    # procedures
    "ErrorMetrics",
    "RejectionResult",
    "bh",
    "c_storey_bh",
    "compute_metrics",
    "d_storey_bh",
    "storey_bh",
    "storey_pi0",
    # simulation
    "HalfNormalPrior",
    "MethodSummary",
    "SimScenario",
    "SimSummary",
    "TwoPointPrior",
    "generate",
    "pvalue_histogram",
    "run_scenario",
]
