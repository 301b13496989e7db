"""P-value construction for one-sided z-statistics.

Four flavors share one container: the textbook tail probability under
N(0, 1), the oracle version using the true marginal null, the
empirical-Bayes version read off the survival function of a fitted null
model, and conditionally rescaled p-values restricted to those at or
below a threshold tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import std_normal_cdf
from .nullmodel import NullModel, _as_values

KINDS = ("standard", "oracle", "empirical_bayes", "conditional")


@dataclass(frozen=True)
class PValueVector:
    """P-values plus provenance.

    ``source_indices`` maps entries back to positions in the originating
    vector; it is the identity for full-length kinds and the surviving
    positions for the conditional kind, whose rescale threshold is kept in
    ``tau``.
    """

    values: np.ndarray
    kind: str
    tau: float | None = None
    source_indices: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("p-values must form a one-dimensional vector")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        if self.kind not in KINDS:
            raise ValueError(f"unknown p-value kind {self.kind!r}")
        if self.kind == "conditional":
            if self.tau is None or not (0.0 < self.tau <= 1.0):
                raise ValueError("conditional p-values need tau in (0, 1]")
        if self.source_indices is not None:
            idx = np.asarray(self.source_indices, dtype=np.intp)
            if idx.shape != values.shape:
                raise ValueError("source_indices length must match values")
            object.__setattr__(self, "source_indices", idx)

    def __len__(self):
        return int(self.values.size)


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


def conditional_pvalues(pvalues, tau: float = 0.5) -> PValueVector:
    """Restrict to p <= tau and rescale by tau.

    The result carries ``source_indices`` so rejections on the conditioned
    vector can be mapped back to the original hypotheses.  An empty result
    (every p above tau) is legitimate and handled downstream.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    vals = pvalues.values if isinstance(pvalues, PValueVector) else np.asarray(
        pvalues, dtype=float
    )
    keep = np.flatnonzero(vals <= tau)
    scaled = vals[keep] / tau
    return PValueVector(
        values=scaled, kind="conditional", tau=tau, source_indices=keep
    )
