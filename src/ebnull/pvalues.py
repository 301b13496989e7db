"""P-value construction for one-sided z-statistics.

Three flavors share one container: the textbook tail probability under
N(0, 1), the oracle version using the true marginal null, and the
empirical-Bayes version read off the survival function of a fitted null
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import std_normal_cdf
from .nullmodel import NullModel, _as_values

KINDS = ("standard", "oracle", "empirical_bayes")


@dataclass(frozen=True)
class PValueVector:
    """P-values in [0, 1], one per statistic, plus the kind of null they
    were computed against."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("p-values must form a one-dimensional vector")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        if self.kind not in KINDS:
            raise ValueError(f"unknown p-value kind {self.kind!r}")


def standard_pvalues(sample) -> PValueVector:
    """One-sided p-values 1 - Phi(z) against the unit Gaussian null."""
    z = _as_values(sample)
    return PValueVector(values=std_normal_cdf(-z), kind="standard")


def oracle_pvalues(sample, true_null_cdf) -> PValueVector:
    """P-values 1 - F0(z) under a known marginal null law.

    ``true_null_cdf`` is any vectorized callable returning the null
    distribution function; only simulations can supply it.
    """
    z = _as_values(sample)
    vals = np.clip(1.0 - np.asarray(true_null_cdf(z), dtype=float), 0.0, 1.0)
    return PValueVector(values=vals, kind="oracle")


def eb_pvalues(sample, model: NullModel) -> PValueVector:
    """P-values P(Z >= z) under the fitted null model, read off its survival
    function ``model.sf`` rather than computed as 1 - F0_hat(z), so they
    stay positive in the right tail where 1 - F0_hat rounds to 0."""
    z = _as_values(sample)
    vals = np.clip(model.sf(z), 0.0, 1.0)
    return PValueVector(values=vals, kind="empirical_bayes")
