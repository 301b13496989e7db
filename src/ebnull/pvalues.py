"""P-value construction for one-sided z-statistics.

Every p-value is P(Z >= z), read off a null law's survival function: the
unit Gaussian's for the textbook p-values and a fitted null model's for the
empirical-Bayes ones.  Both share one container, whose checks every
consumer applies to raw vectors too, through ``_as_vector``.  The container
holds a read-only copy of its values and sorts it at most once, however
many procedures read the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .nullmodel import NullModel, _as_values


@dataclass(frozen=True)
class PValueVector:
    """P-values in [0, 1], one per statistic.

    ``values`` is the vector's own read-only copy of its input, so the
    sorted copy the step-up procedures share, made on first use, always
    matches it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("p-values must form a one-dimensional vector")
        # NaN fails both comparisons, so it is refused with the out-of-range values
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("p-values must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def _ordered(self) -> np.ndarray:
        """The values in ascending order, read-only."""
        ordered = np.sort(self.values)
        ordered.flags.writeable = False
        return ordered


def _as_vector(p) -> PValueVector:
    """``p`` itself if it is a ``PValueVector``, else one built from it."""
    return p if isinstance(p, PValueVector) else PValueVector(p)


def _as_pvalues(p) -> np.ndarray:
    """The values of ``_as_vector(p)``."""
    return _as_vector(p).values


def standard_pvalues(sample) -> PValueVector:
    """One-sided p-values Phi(-z) against the unit Gaussian null."""
    z = _as_values(sample)
    return PValueVector(values=special.ndtr(-z))


def eb_pvalues(sample, model: NullModel) -> PValueVector:
    """P-values P(Z >= z) under the fitted null model, read off its survival
    function ``model.sf``, which every null law keeps in [0, 1]."""
    z = _as_values(sample)
    return PValueVector(values=model.sf(z))
