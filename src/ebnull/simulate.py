"""Synthetic benchmarks for the null-estimation testing pipeline.

Each replication draws m one-sided z-statistics from a two-group mixture:
with probability pi0 the mean comes from a null prior supported on
(-inf, 0], otherwise it sits at a fixed positive alternative location.
The harness runs a configurable set of procedures per replication through
``run_methods``, the one method dispatch that the ``ebnull test`` command
shares, and aggregates false-discovery and true-positive rates with Monte
Carlo standard errors.  ``METHOD_NAMES`` and ``DEFAULT_METHODS`` are the
only lists of procedure names.  Everything is deterministic given
(scenario, base_seed): replication r uses the seed sequence (base_seed, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .distributions import skew_normal_sf
from .nullmodel import StatSample, TruncationRule, select_null
from .procedures import (
    RejectionResult,
    _check_q,
    bh,
    c_storey_bh,
    compute_metrics,
    d_storey_bh,
    storey_bh,
)
from .pvalues import PValueVector, _as_pvalues, eb_pvalues, standard_pvalues

METHOD_NAMES = ("bh", "stbh", "c-stbh", "d-stbh", "proposed")
DEFAULT_METHODS = METHOD_NAMES[1:]  # every adaptive procedure, not plain BH


# ---------------------------------------------------------------------------
# null priors


@dataclass(frozen=True)
class TwoPointPrior:
    """Null means equal to -1 with probability rho, otherwise 0."""

    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError("rho must lie in [0, 1]")

    name = "two_point"

    @property
    def param(self) -> float:
        return self.rho

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.where(rng.random(size) < self.rho, -1.0, 0.0)

    def marginal_sf(self, z):
        """Survival function of the z-statistic marginal when the mean
        follows this prior."""
        z = np.asarray(z, dtype=float)
        return self.rho * ndtr(-1.0 - z) + (1.0 - self.rho) * ndtr(-z)


@dataclass(frozen=True)
class HalfNormalPrior:
    """Null means are minus the absolute value of a N(0, sigma0^2) draw,
    i.e. a centered Gaussian truncated to the non-positive half-line."""

    sigma0: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValueError("sigma0 must be positive and finite")

    name = "half_normal"

    @property
    def param(self) -> float:
        return self.sigma0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return -np.abs(rng.normal(0.0, self.sigma0, size=size))

    def marginal_sf(self, z):
        """Survival function of the closed-form marginal: skew-normal with
        scale sqrt(1 + sigma0^2) and shape -sigma0."""
        return skew_normal_sf(z, self.sigma0)


# ---------------------------------------------------------------------------
# scenario and summary records


@dataclass(frozen=True)
class SimScenario:
    """One simulation setting: mixture weights, null prior, alternative."""

    null_prior: TwoPointPrior | HalfNormalPrior
    m: int = 5000
    pi0: float = 0.9
    q: float = 0.1
    alt_mean: float = 3.0
    n_reps: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least 2 hypotheses")
        if not (0.0 < self.pi0 <= 1.0):
            raise ValueError("pi0 must lie in (0, 1]")
        _check_q(self.q)
        if self.n_reps < 1:
            raise ValueError("need at least one replication")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")


@dataclass(frozen=True)
class MethodSummary:
    """Aggregated error rates for one procedure across replications."""

    fdr: float
    fdr_se: float
    tpr: float
    tpr_se: float


@dataclass(frozen=True)
class SimSummary:
    """Per-method aggregate of a scenario run.

    ``n_reps_used`` counts replications that completed out of
    ``scenario.n_reps``; failed ones are dropped from every method's average
    and tallied in ``n_failures``.
    """

    scenario: SimScenario
    methods: dict = field(default_factory=dict)
    n_failures: int = 0

    @property
    def n_reps_used(self) -> int:
        return self.scenario.n_reps - self.n_failures


def generate(scenario: SimScenario, rep_index: int) -> StatSample:
    """Draw one replication of labeled statistics, deterministically.

    The stream is seeded by the pair (base_seed, rep_index); labels are
    drawn first, then null means, then the unit Gaussian noise, so any two
    runs of the same pair agree bit for bit.
    """
    if rep_index < 0:
        raise ValueError("rep_index must be non-negative")
    rng = np.random.default_rng((scenario.base_seed, rep_index))
    m = scenario.m
    is_alt = rng.random(m) < (1.0 - scenario.pi0)
    means = np.full(m, scenario.alt_mean, dtype=float)
    n_null = int((~is_alt).sum())
    means[~is_alt] = scenario.null_prior.draw(rng, n_null)
    values = means + rng.standard_normal(m)
    return StatSample(values=values, is_alt=is_alt)


def run_methods(
    methods,
    p_std: PValueVector,
    p_eb: PValueVector | None,
    q: float,
    tau: float,
    lambda_storey: float,
    lambda_discard: float,
) -> dict[str, RejectionResult]:
    """Rejection result of each named procedure, in the order given.

    The baselines run on the standard p-values ``p_std``; "proposed" is
    Storey-BH on the fitted-null p-values ``p_eb``, which the caller
    computes (it may pass ``None`` when "proposed" is not requested).
    """
    out: dict[str, RejectionResult] = {}
    for method in methods:
        if method == "bh":
            out[method] = bh(p_std, q)
        elif method == "stbh":
            out[method] = storey_bh(p_std, q, lam=lambda_storey)
        elif method == "c-stbh":
            out[method] = c_storey_bh(p_std, q, tau=tau, lam=lambda_storey)
        elif method == "d-stbh":
            out[method] = d_storey_bh(p_std, q, lam=lambda_discard, tau=tau)
        elif method == "proposed":
            out[method] = storey_bh(p_eb, q, lam=lambda_storey)
        else:
            raise ValueError(f"unknown method {method!r}")
    return out


def check_methods(methods, q: float, tau: float, lambda_storey: float,
                  lambda_discard: float):
    """Raise the ``ValueError`` that ``run_methods`` would raise with these
    names and settings, before any data exists: it runs them on the
    one-element vector [0.0], so each procedure checks its own settings."""
    probe = PValueVector(np.zeros(1))
    run_methods(methods, probe, probe, q, tau, lambda_storey, lambda_discard)


def _mean_se(values: list) -> tuple[float, float]:
    """Mean of per-replication values and its Monte Carlo standard error:
    NaN for both from no values, and an error of 0.0 from one."""
    if not values:
        return math.nan, math.nan
    x = np.asarray(values)
    se = x.std(ddof=1) / math.sqrt(x.size) if x.size > 1 else 0.0
    return float(x.mean()), float(se)


def run_scenario(
    scenario: SimScenario,
    methods=DEFAULT_METHODS,
    tau: float = 0.5,
    lambda_storey: float = 0.5,
    lambda_discard: float = 0.25,
    xi_quantile: float = 0.85,
) -> SimSummary:
    """Run every replication of a scenario and aggregate error rates.

    Every method name and setting is checked before the first replication
    is drawn: an unknown method or an invalid ``tau``, ``lambda_storey``,
    ``lambda_discard`` (through ``check_methods``) or ``xi_quantile``
    raises ``ValueError``.  The null is fitted with ``select_null``'s
    default grid, once per replication, only when "proposed" is requested.
    A replication whose null fit or fitted-null p-values raise
    ``ValueError`` (``select_null`` raises it when every family fails) is
    dropped for all methods (keeping the per-method averages paired) and
    counted in the summary; any other exception propagates.  Results do not
    depend on iteration order beyond the deterministic per-rep seeding.
    """
    methods = tuple(methods)
    check_methods(methods, scenario.q, tau, lambda_storey, lambda_discard)
    rule = TruncationRule(quantile_level=xi_quantile)
    fit_null = "proposed" in methods
    rows = {method: ([], []) for method in methods}  # fdp list, tpp list
    failures = 0
    for rep in range(scenario.n_reps):
        sample = generate(scenario, rep)
        p_eb = None
        if fit_null:
            try:
                p_eb = eb_pvalues(sample, select_null(sample, rule))
            except ValueError:
                failures += 1  # failed reps are tallied, not fatal
                continue
        results = run_methods(
            methods,
            standard_pvalues(sample),
            p_eb,
            q=scenario.q,
            tau=tau,
            lambda_storey=lambda_storey,
            lambda_discard=lambda_discard,
        )
        for method, result in results.items():
            metrics = compute_metrics(result, sample.is_alt)
            rows[method][0].append(metrics.fdp)
            rows[method][1].append(metrics.tpp)

    summaries = {
        method: MethodSummary(*_mean_se(fdps), *_mean_se(tpps))
        for method, (fdps, tpps) in rows.items()
    }
    return SimSummary(scenario=scenario, methods=summaries, n_failures=failures)


# ---------------------------------------------------------------------------
# diagnostics


def pvalue_histogram(pvalues, bins: int = 50) -> np.ndarray:
    """Counts over equal-width bins of [0, 1], right-closed except the first.

    Bin j covers (j/bins, (j+1)/bins] for j >= 1 and [0, 1/bins] for j = 0,
    so boundary values land in the lower bin.  Returns the counts only;
    edges are ``np.linspace(0, 1, bins + 1)``.  Takes a ``PValueVector`` or a
    raw 1-D array; a value outside [0, 1] raises ``ValueError``.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    vals = _as_pvalues(pvalues)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, vals, side="left"), 1, bins) - 1
    return np.bincount(idx, minlength=bins).astype(np.intp)

