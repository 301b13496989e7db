"""Step-up multiple-testing procedures and error metrics.

Implements the Benjamini-Hochberg step-up, its adaptive variant with
Storey's null-proportion estimate, the conditional variant applied to
rescaled p-values at or below a threshold tau, and the discarding variant
whose null-proportion estimate and threshold scan ignore p-values above
tau.  All four share one step-up scan: the largest candidate s with
m * pi0 * s / #{p <= s} <= q, then every p <= s is rejected; they differ
only in pi0 and in the candidate set.  All procedures return the same
result record and operate purely on p-value vectors; no calibration logic
lives here.  Invalid p-values or parameters raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pvalues import PValueVector, _as_pvalues


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of one testing procedure on one p-value vector.

    ``rejected`` holds sorted original indices; ``threshold`` is the
    largest p-value (on the original scale) that was rejected, 0.0 when
    nothing was.  ``pi0_hat`` records the null-proportion estimate the
    procedure actually used (1.0 for plain BH); ``m`` counts the hypotheses.
    """

    rejected: np.ndarray
    threshold: float
    pi0_hat: float
    m: int

    def __post_init__(self):
        idx = np.asarray(self.rejected, dtype=np.intp)
        object.__setattr__(self, "rejected", np.sort(idx))

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.size)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=bool)
        out[self.rejected] = True
        return out


@dataclass(frozen=True)
class ErrorMetrics:
    """False discovery proportion and true positive proportion."""

    fdp: float
    tpp: float


def _check_q(q: float):
    if not (0.0 < q < 1.0):
        raise ValueError("target FDR level q must lie in (0, 1)")


def _check_lambda(lam: float):
    if not (0.0 <= lam < 1.0):
        raise ValueError("lambda must lie in [0, 1)")


def _step_up(vals: np.ndarray, q: float, pi0: float,
             scan: np.ndarray | None = None) -> RejectionResult:
    """Reject every p at or below the largest candidate (of ``scan``, all of
    ``vals`` by default) whose estimated FDP m * pi0 * p / k is at most q,
    with m = ``vals.size`` and k the candidate's 1-based position in sorted
    order; the threshold is 0.0 when none passes.

    At the last position of a tie k equals #{p <= s}, so this is the
    largest passing candidate s of the count-based definition.  For finite
    pi0 an exact zero always passes, so rejecting ``vals <= 0.0`` after a
    0.0 result rejects nothing more.  For pi0 = inf (d-stbh with tau - lam
    near 0) a zero's estimate is NaN and nothing passes, and the 0.0 result
    rejects exactly the zeros.  The result holds no procedure name or q.
    """
    m = vals.size
    ordered = np.sort(vals if scan is None else scan)
    with np.errstate(invalid="ignore"):  # inf * 0 when pi0 = inf
        fdp_hat = m * pi0 * ordered / np.arange(1, ordered.size + 1)
    passing = np.flatnonzero(fdp_hat <= q)
    thr = float(ordered[passing[-1]]) if passing.size else 0.0
    return RejectionResult(rejected=np.flatnonzero(vals <= thr), threshold=thr,
                           pi0_hat=pi0, m=m)


def bh(pvalues, q: float) -> RejectionResult:
    """Benjamini-Hochberg step-up at level q."""
    _check_q(q)
    return _step_up(_as_pvalues(pvalues), q, 1.0)


def storey_pi0(pvalues, lam: float = 0.5) -> float:
    """Storey's null-proportion estimate (1 + #{p > lam}) / (m (1 - lam)).

    Returned uncapped; callers that need a proportion clip it themselves.
    """
    _check_lambda(lam)
    vals = _as_pvalues(pvalues)
    m = vals.size
    if m == 0:
        raise ValueError("cannot estimate pi0 from an empty vector")
    return float((1.0 + (vals > lam).sum()) / (m * (1.0 - lam)))


def storey_bh(pvalues, q: float, lam: float = 0.5) -> RejectionResult:
    """Adaptive BH with Storey's estimate capped at 1; never below 1/m."""
    _check_q(q)
    if not isinstance(pvalues, PValueVector):  # checked once, not once per use
        pvalues = PValueVector(pvalues)
    return _step_up(pvalues.values, q, min(storey_pi0(pvalues, lam), 1.0))


def c_storey_bh(
    pvalues, q: float, tau: float = 0.5, lam: float = 0.5
) -> RejectionResult:
    """Storey-BH on the conditionally rescaled p-values p/tau given p <= tau.

    The adaptive step-up runs entirely on the conditioned vector (with its
    own length and pi0 estimate) and its rejections are mapped back to the
    original positions, so the rejection set only holds hypotheses with
    p <= tau; the threshold is the largest rejected p-value itself, which
    (p / tau) * tau need not give back.  With nothing conditioned, nothing
    is rejected and pi0_hat is 1.
    """
    _check_q(q)
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    _check_lambda(lam)
    vals = _as_pvalues(pvalues)
    keep = np.flatnonzero(vals <= tau)
    rejected, thr, pi0 = keep, 0.0, 1.0
    if keep.size:
        inner = storey_bh(PValueVector(vals[keep] / tau), q, lam)
        rejected, pi0 = keep[inner.rejected], inner.pi0_hat
        thr = float(vals[rejected].max()) if rejected.size else 0.0
    return RejectionResult(rejected=rejected, threshold=thr, pi0_hat=pi0, m=vals.size)


def d_storey_bh(
    pvalues, q: float, lam: float = 0.25, tau: float = 0.5
) -> RejectionResult:
    """Discarding variant: estimate pi0 from p in (lam, tau], scan s <= tau.

    The null-proportion estimate (1 + #{lam < p <= tau}) / (m (tau - lam))
    is deliberately left uncapped, and the rejection threshold is the
    largest candidate s in {0} union {p_i <= tau} whose estimated FDP
    m * pi0 * s / max(#{p <= s}, 1) stays at or below q.
    """
    _check_q(q)
    if not (0.0 <= lam < tau <= 1.0):
        raise ValueError("need 0 <= lambda < tau <= 1")
    vals = _as_pvalues(pvalues)
    m = vals.size
    if m == 0:
        raise ValueError("cannot run the discarding procedure on an empty vector")
    # in Python floats, which overflow to inf without a warning
    pi0 = ((1.0 + int(((vals > lam) & (vals <= tau)).sum()))
           / (m * (float(tau) - float(lam))))
    return _step_up(vals, q, pi0, scan=vals[vals <= tau])


def compute_metrics(result: RejectionResult, truth) -> ErrorMetrics:
    """False discovery and true positive proportions against truth labels.

    ``truth`` is a boolean vector, True for genuine alternatives, with one
    entry per original hypothesis.
    """
    labels = np.asarray(truth, dtype=bool)
    if labels.ndim != 1 or labels.size != result.m:
        raise ValueError(
            f"truth labels have length {labels.size}, expected {result.m}"
        )
    n_rejected = result.n_rejected
    true_rej = int(labels[result.rejected].sum())
    return ErrorMetrics(
        fdp=(n_rejected - true_rej) / max(n_rejected, 1),
        tpp=true_rej / max(int(labels.sum()), 1),
    )
