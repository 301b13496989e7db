"""Estimation of the marginal null distribution from truncated z-statistics.

One-sided testing with z-scores whose null means may sit below zero makes
the textbook p-value 1 - Phi(z) conservative.  The remedy implemented here
fits the marginal null law F0 on the statistics falling below a data-chosen
cut (where alternatives are rare), then hands the fitted F0 to the p-value
layer.  Each fitted family is a null law in its own right: it evaluates its
survival function ``sf``, the one tail the p-values read, and names the
parameters a report shows.  Three nested families are fitted on the same
truncated subsample:

* a shifted Gaussian N(mu0, 1) with mu0 <= 0 (point-mass prior),
* a skew-normal arising from a one-sided Gaussian prior spread sigma0,
* a finite location mixture on a grid of non-positive atoms, fitted with a
  certificate of optimality (``MixtureNull.converged``) and read at a
  profile-likelihood upper bound on its tail (``fit_mixture``).

The family with the largest truncated log-likelihood wins; a richer family
must lead by more than ``TIE_RTOL * max(1, |loglik|)``, otherwise the tie goes
to the simpler family, so rounding noise never decides the selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special
from scipy.linalg import solve_triangular
from scipy.optimize import brentq, minimize_scalar, nnls

from .distributions import _LOG_2PI, mills_ratio, skew_normal_cdf, skew_normal_sf

# relative margin a richer family's log-likelihood must exceed to win
TIE_RTOL = 1e-9

# search interval for eta = log(sigma0) in the skew-normal fit
_ETA_MIN = -6.0
_ETA_MAX = 3.0

# the number of mixture grid atoms, the one grid size every caller uses
_GRID_K = 50

# the skew-normal and mixture fits run on the truncated sample binned on the
# lattice floor(z / _BIN_H), each bin at its mean with its count
_BIN_H = 0.005

# the mixture's regular atoms start at the smallest truncated statistic
# within _GRID_MARGIN of the _GRID_ORDER-th smallest; each bin below that
# end gets an atom of its own, so at most _GRID_ORDER - 1 far atoms
_GRID_MARGIN = 8.0
_GRID_ORDER = 5

# mixture weight solver: the relative KKT gap that counts as converged, the
# Hessian ridge relative to each diagonal entry, the Armijo sufficient-
# decrease fraction, the smallest step tried, and the cap on SQP steps
_MIX_TOL = 1e-10
_MIX_RIDGE = 1e-10
_MIX_ARMIJO = 0.01
_MIX_MIN_STEP = 1e-10
_MIX_MAX_ITER = 200
# the least share of its density a line-search step leaves any bin
_MIX_THETA = 1e-12

# the log-likelihood, in nats, the mixture's tail bound gives up: half the
# median of chi-square(1), so the bound is the upper end of a 50% profile-
# likelihood interval for the weight moved onto the atom at 0
_TAIL_DELTA = 0.5 * special.ndtri(0.75) ** 2


# ---------------------------------------------------------------------------
# sample container and truncation rule


@dataclass(frozen=True)
class StatSample:
    """A vector of test statistics with optional ids and truth labels."""

    values: np.ndarray
    ids: tuple[str, ...] | None = None
    is_alt: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("statistics must form a one-dimensional vector")
        if values.size == 0:
            raise ValueError("empty statistic vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("statistics must be finite")
        object.__setattr__(self, "values", values)
        if self.ids is not None:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != values.size:
                raise ValueError("ids length does not match statistics length")
            object.__setattr__(self, "ids", ids)
        if self.is_alt is not None:
            labels = np.asarray(self.is_alt, dtype=bool)
            if labels.shape != values.shape:
                raise ValueError("labels length does not match statistics length")
            object.__setattr__(self, "is_alt", labels)

    def __len__(self):
        return int(self.values.size)


@dataclass(frozen=True)
class TruncationRule:
    """The truncation cut is the ``quantile_level`` sample quantile.

    The level must lie in (0, 1); the default keeps the 0.85 quantile.
    """

    quantile_level: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.quantile_level < 1.0):
            raise ValueError("quantile level must lie in (0, 1)")


def _as_values(sample) -> np.ndarray:
    if isinstance(sample, StatSample):
        return sample.values
    return StatSample(np.asarray(sample, dtype=float)).values


def resolve_cut(sample, rule: TruncationRule | None = None) -> float:
    """Turn a truncation rule into a concrete cut value for this sample.

    Quantiles use the linear-interpolation convention (numpy's default),
    so the cut is a weighted average of two order statistics.
    """
    rule = rule or TruncationRule()
    return float(np.quantile(_as_values(sample), rule.quantile_level))


def _check_k(k: int):
    """The one rule on the mixture grid's size."""
    if k < 2:
        raise ValueError("need at least 2 grid atoms")


def _truncated(values: np.ndarray, xi: float) -> np.ndarray:
    z0 = values[values <= xi]
    if z0.size < 2:
        raise ValueError(f"need at least 2 statistics at or below the cut, got {z0.size}")
    return z0


def _binned(z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bins of ``floor(z / _BIN_H)`` that hold data, in increasing
    order: each bin's mean and its count, as floats."""
    _, which, counts = np.unique(np.floor(z0 / _BIN_H), return_inverse=True,
                                 return_counts=True)
    counts = counts.astype(float)
    return np.bincount(which, weights=z0) / counts, counts


# ---------------------------------------------------------------------------
# fitted null laws: each family evaluates itself and names its report fields


@dataclass(frozen=True)
class GaussianNull:
    """Shifted Gaussian null N(mu0, 1) with mu0 <= 0."""

    mu0: float
    loglik: float
    iterations: int
    converged: bool

    family = "gaussian"

    def sf(self, z):
        return special.ndtr(self.mu0 - np.asarray(z, dtype=float))

    def report_params(self) -> dict:
        return {"mu0": self.mu0, "iterations": self.iterations,
                "converged": self.converged}


@dataclass(frozen=True)
class SkewNormalNull:
    """Skew-normal null induced by a one-sided Gaussian prior spread sigma0.

    ``eta = log(sigma0)`` is the internal optimization variable;
    ``at_boundary`` flags an estimate pinned at the search-interval edge.
    The survival function is ``skew_normal_sf``, which loses relative
    accuracy in the far right tail.
    """

    sigma0: float
    eta: float
    loglik: float
    at_boundary: bool = False

    family = "skew_normal"

    def sf(self, z):
        return skew_normal_sf(z, self.sigma0)

    def report_params(self) -> dict:
        return {"sigma0": self.sigma0, "eta": self.eta,
                "at_boundary": self.at_boundary}


@dataclass(frozen=True)
class MixtureNull:
    """Finite mixture of unit-variance Gaussians on non-positive atoms.

    ``grid`` holds the atoms in increasing order, ending at 0: the regular,
    equally spaced ones and, below them, up to four far atoms, one at each
    far-left bin of the fitted sample (``fit_mixture``).  ``weights_p`` are
    the maximum-likelihood mixing weights and ``weights_eta`` the
    truncation-tilted weights the concave program optimizes over (each
    atom's weight times its chance of landing below the cut,
    renormalized).  The law ``sf`` reads is ``1 - tail_mass``
    times ``weights_p`` plus ``tail_mass`` on the grid's last atom, 0.
    """

    grid: np.ndarray
    weights_p: np.ndarray
    weights_eta: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    kkt_gap: float
    tail_mass: float

    family = "mixture"

    # atoms without weight add 0, and the weights sum to 1 only up to
    # rounding, hence the clip
    def sf(self, z):
        weights = (1.0 - self.tail_mass) * self.weights_p
        weights[-1] += self.tail_mass
        keep = weights > 0
        t = self.grid[keep] - np.asarray(z, dtype=float)[..., None]
        return np.clip(special.ndtr(t) @ weights[keep], 0.0, 1.0)

    def report_params(self) -> dict:
        return {"grid": self.grid, "weights": self.weights_p,
                "iterations": self.iterations, "converged": self.converged,
                "kkt_gap": self.kkt_gap, "tail_mass": self.tail_mass}


@dataclass(frozen=True)
class NullModel:
    """Selected null family plus the truncation context it was fitted under.

    ``sf`` delegates to the fitted law: an array of the input's shape, or
    an ``np.float64`` for scalar input; ``family_logliks[family]`` is the
    selected law's log-likelihood.
    """

    variant: GaussianNull | SkewNormalNull | MixtureNull
    cut_xi: float
    n_truncated: int
    family_logliks: dict = field(default_factory=dict)

    @property
    def family(self) -> str:
        return self.variant.family

    def sf(self, z):
        return self.variant.sf(z)


# ---------------------------------------------------------------------------
# Gaussian fit: bracketed root of the truncated score


def _gaussian_loglik(mu, n, sum_z, sum_zz, xi):
    """Truncated-sample log-likelihood of N(mu, 1)."""
    quad = sum_zz - 2.0 * mu * sum_z + n * mu * mu
    return -0.5 * n * _LOG_2PI - 0.5 * quad - n * special.log_ndtr(xi - mu)


@np.errstate(all="ignore")
def fit_gaussian(sample, xi: float) -> GaussianNull:
    """Fit the shifted-Gaussian null on the statistics at or below ``xi``.

    The truncated log-likelihood is concave in mu, and its score per
    observation, ``zbar - mu + r(xi - mu)`` with ``r`` the Mills ratio, is
    positive at the truncated mean ``mu = zbar``.  So the MLE under
    mu0 <= 0 is 0 when the score at 0 is non-negative, and otherwise the
    root of the score in ``[zbar, 0]``, found by Brent's method
    (``scipy.optimize.brentq`` at its default tolerances).  ``iterations``
    counts Brent's iterations (0 when the estimate is 0); ``converged``
    means Brent's method converged and the log-likelihood is finite.  A
    non-finite score at 0 (statistics too large in magnitude) raises.
    Floating-point warnings are off: the raise and ``converged`` cover them.
    """
    z0 = _truncated(_as_values(sample), xi)
    n = z0.size
    zbar = float(z0.mean())

    def score(mu):
        return zbar - mu + float(mills_ratio(xi - mu))

    score0 = score(0.0)
    if not math.isfinite(score0):
        raise ValueError("gaussian score at mu0 = 0 is not finite: the statistics "
                         "are too large in magnitude for the truncated-normal fit")
    if score0 >= 0.0:
        mu0, iterations, converged = 0.0, 0, True
    else:
        mu0, result = brentq(score, zbar, 0.0, full_output=True, disp=False)
        iterations, converged = result.iterations, result.converged

    sum_z = float(z0.sum())
    sum_zz = float((z0 * z0).sum())
    loglik = float(_gaussian_loglik(mu0, n, sum_z, sum_zz, xi))
    if not math.isfinite(loglik):
        converged = False
    return GaussianNull(mu0=mu0, loglik=loglik, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# skew-normal fit: bounded scalar search over eta = log(sigma0)


def _skew_loglik(eta, z, c, xi, n, sum_zz):
    """Truncated log-likelihood of the skew-normal at eta = log(sigma0), from
    the points z with counts c (a scalar 1 for the plain sample) and the
    exact n and sum of squares."""
    sigma0 = math.exp(eta)
    omega = math.sqrt(1.0 + sigma0 * sigma0)
    # sum of log pdf terms; the squared part collapses to a sufficient stat
    ll = (
        n * (math.log(2.0) - math.log(omega))
        - 0.5 * n * _LOG_2PI
        - 0.5 * sum_zz / (omega * omega)
        + float((c * special.log_ndtr(-sigma0 * z / omega)).sum())
    )
    return ll - n * math.log(max(float(skew_normal_cdf(xi, sigma0)), 1e-300))


@np.errstate(all="ignore")
def fit_skew_normal(sample, xi: float) -> SkewNormalNull:
    """Fit the skew-normal null by maximizing over eta = log(sigma0).

    Bounded Brent search over eta in [-6, 3] on the negated truncated
    log-likelihood of the binned sample: the statistics at or below ``xi``
    on the lattice ``floor(z / h)``, h = 0.005, each bin at its mean and
    weighted by its count, with the exact sum of squares.  The search's
    optimum and the two interval endpoints are then scored on the exact
    statistics, and the best of the three is returned, so ``loglik`` is
    exact and a boundary optimum is returned exactly rather than to within
    the search tolerance.  Floating-point warnings are off: a non-finite
    log-likelihood covers them.
    """
    z0 = _truncated(_as_values(sample), xi)
    n = z0.size
    sum_zz = float((z0 * z0).sum())
    means, counts = _binned(z0)

    def neg(eta):
        return -_skew_loglik(eta, means, counts, xi, n, sum_zz)

    res = minimize_scalar(neg, bounds=(_ETA_MIN, _ETA_MAX), method="bounded",
                          options={"xatol": 1e-6})
    candidates = [(eta, _skew_loglik(eta, z0, 1.0, xi, n, sum_zz))
                  for eta in (float(res.x), _ETA_MIN, _ETA_MAX)]
    eta, loglik = max(candidates, key=lambda pair: pair[1])
    at_boundary = min(eta - _ETA_MIN, _ETA_MAX - eta) < 1e-5 * (_ETA_MAX - _ETA_MIN)
    return SkewNormalNull(
        sigma0=math.exp(eta), eta=eta, loglik=loglik, at_boundary=at_boundary
    )


# ---------------------------------------------------------------------------
# mixture fit: concave weight optimization on a fixed atom grid


def _mixture_columns(z, grid, log_below):
    """Per-point, per-atom truncated density columns, row-shifted.

    Returns (A, row_shift) with A[i, k] = exp(L[i, k] - row_shift[i]) where
    L[i, k] = log phi(z_i - mu_k) - log_below[k], log_below being log Phi(xi - grid).
    The shift keeps the rows well scaled; log-likelihoods add sum(row_shift) back.
    """
    # built in place: one n-by-k array, where each step of the expression
    # would allocate another (the CLI's fit has n near 1.7e5)
    logcols = z[:, None] - grid[None, :]
    logcols *= logcols
    logcols *= -0.5
    logcols -= 0.5 * _LOG_2PI + log_below
    shift = logcols.max(axis=1)
    logcols -= shift[:, None]
    return np.exp(logcols, out=logcols), shift


def _solve_weights_mixsqp(A, c):
    """Sequential quadratic programming for the tilted mixture weights.

    Minimizes f(x) = -(1/N) sum_b c_b log (Ax)_b + sum(x) over x >= 0, the
    rows of A being bins with counts c and N = sum(c); the minimizer lies on
    the simplex and maximizes the binned log-likelihood there (mixsqp: Kim,
    Carbonetto, Stephens & Anitescu 2020).  The plain program is the case
    c = 1.  Each step solves the quadratic model with Hessian
    (A sqrt(c) u)'(A sqrt(c) u) / N, u = 1 / (Ax), as a non-negative least-
    squares problem on its Cholesky factor, takes a backtracking Armijo step
    toward that solution, and rescales x onto the simplex, which never
    raises f.  The search starts at the longest step that leaves every bin
    at least ``_MIX_THETA`` of its density, so no density reaches 0.  The
    loop stops when the relative KKT gap ``max_k (A'(c u))_k / N - 1`` falls
    to ``_MIX_TOL``, when a step makes no progress, or after
    ``_MIX_MAX_ITER`` steps.  Returns the weights x, the step count, the
    gap in nats (N times the relative gap, a bound on the binned log-
    likelihood still to gain) and whether the gap met the tolerance.
    """
    K = A.shape[1]
    N = float(c.sum())
    root_c = np.sqrt(c)
    x = np.full(K, 1.0 / K)
    d = A @ x
    B = np.empty_like(A)  # the rows of A scaled by sqrt(c) u, rewritten each step
    iterations = 0
    while True:
        u = 1.0 / d
        grad = A.T @ (c * u) / N
        gap = float(grad.max()) - 1.0
        if gap <= _MIX_TOL or iterations >= _MIX_MAX_ITER:
            break
        np.multiply(A, (root_c * u)[:, None], out=B)
        H = B.T @ B / N
        # H has rank well below K.  A ridge in proportion to each diagonal
        # entry makes it positive definite without damping the support's
        # weak directions, which a ridge on the mean diagonal (set by the
        # far atoms) slows to linear convergence at n near 1.7e5; the
        # floor keeps a column that underflows to zero factorable
        ridge = _MIX_RIDGE * (np.diag(H) + _MIX_RIDGE * np.trace(H) / K)
        H[np.diag_indices(K)] += ridge
        R = np.linalg.cholesky(H).T
        g = 1.0 - grad  # the gradient of f
        # the model g'p + p'Hp/2 of the step p = y - x, over y >= 0, is
        # ||Ry - (Rx - R^-T g)||^2 / 2 + const; forming the target from the
        # small g, not from Hx, keeps its rounding in proportion to the step
        y = nnls(R, R @ x - solve_triangular(R, g, trans="T"))[0]
        p = y - x
        # one Newton refinement of the model on y's support brings p to its
        # own precision, which the last steps before the certificate need
        free = y > 0.0
        p[free] -= np.linalg.solve(H[np.ix_(free, free)], (g + H @ p)[free])
        p = np.maximum(x + p, 0.0) - x
        slope = float(g @ p)
        if not slope < 0.0:
            break
        # f(x + step p) - f(x), summed from the relative change of each
        # (Ax)_b so that the large log terms do not cancel.  A ratio that
        # rounds to just above -1 gives a finite log1p at step 1 while the
        # recomputed density is exactly 0, hence the shortened first step
        ratio = (A @ p) * u
        step = min(1.0, (1.0 - _MIX_THETA) / max(-float(ratio.min()), _MIX_THETA))
        while (-float(c @ np.log1p(step * ratio)) / N + step * p.sum()
               > _MIX_ARMIJO * step * slope):
            step *= 0.5
            if step < _MIX_MIN_STEP:
                break
        if step < _MIX_MIN_STEP:
            break
        x = x + step * p
        x /= x.sum()
        d = A @ x
        iterations += 1
    return x, iterations, gap * N, gap <= _MIX_TOL


def _mixture_grid(z0, means, k):
    """The atoms: ``k`` equally spaced from ``lo`` up to 0, below them one
    at the mean of each bin under ``lo``.

    ``lo`` is the smallest statistic at most _GRID_MARGIN below the
    _GRID_ORDER-th smallest (the minimum, when there are fewer), so the
    sample minimum unless a few statistics lie far to its left.  Those get
    atoms of their own, and the regular atoms are the ones the rest of the
    sample would get without them.
    """
    order = _GRID_ORDER - 1 if z0.size >= _GRID_ORDER else 0
    reach = float(np.partition(z0, order)[order]) - _GRID_MARGIN
    lo = min(float(z0[z0 >= reach].min()), 0.0)
    return np.concatenate((means[means < lo], np.linspace(lo, 0.0, k)))


@np.errstate(all="ignore")
def fit_mixture(sample, xi: float, k: int = _GRID_K) -> MixtureNull:
    """Fit mixture weights on a fixed grid of non-positive atoms.

    The statistics at or below ``xi`` are binned on the lattice
    ``floor(z / h)``, h = 0.005, each bin at its mean with its count, and
    the weights maximize the binned log-likelihood, which costs
    O(bins * atoms) per step rather than O(n * atoms).  The grid places
    ``k`` (by default ``_GRID_K``, 50) equally spaced atoms from the sample
    minimum up to 0.  Statistics more than 8 below the 5th-smallest
    truncated statistic are far-left: the regular atoms then start at the
    smallest statistic that is not, and each bin below them gets an atom at
    its mean (at most 4 more).  The optimization runs in the truncation-
    tilted weight coordinates (a concave program over the simplex); the
    plain mixing weights are recovered by undoing the tilt.

    The weights come from sequential quadratic programming (mixsqp) from
    the uniform start: each step solves a non-negative quadratic model of
    the binned log-likelihood and takes a backtracking line-search step
    toward its solution, never far enough to send a bin's density to 0.
    ``kkt_gap`` is the largest directional derivative of adding any atom to
    the binned program, in nats: it bounds how far the binned log-
    likelihood is below its maximum.  ``converged`` means the gap fell to
    1e-10 per truncated statistic, and ``iterations`` counts the steps
    taken.  The solver also stops, unconverged, when a step makes no
    progress or after 200 steps.  ``loglik`` is the truncated log-
    likelihood of the fitted weights on the exact statistics, computed in
    one pass over the atoms with positive weight and the atom at 0.
    Statistics so large in magnitude that the log-density columns
    overflow, or whose fitted density underflows to 0, raise ``ValueError``
    or give a non-finite ``loglik``; floating-point warnings are off, as
    those cover them.

    ``sf`` reads a profile-likelihood upper bound on the tail, with weight
    moved onto the atom at 0 until the exact-data log-likelihood has
    dropped by ``_TAIL_DELTA`` (0.23 nats): the constraint mu <= 0 makes
    the maximum-likelihood tail optimistic where the discoveries are.
    ``tail_mass`` is the share moved; ``loglik`` and the weights stay
    maximum-likelihood.
    """
    z0 = _truncated(_as_values(sample), xi)
    _check_k(k)
    means, counts = _binned(z0)
    grid = _mixture_grid(z0, means, k)
    log_below = special.log_ndtr(xi - grid)

    A, row_shift = _mixture_columns(means, grid, log_below)
    if not np.isfinite(row_shift).all():
        raise ValueError(
            "mixture log-density columns are not finite: the statistics are too "
            "large in magnitude for the atom grid"
        )
    eta, iterations, gap, converged = _solve_weights_mixsqp(A, counts)

    # the exact data's densities need only the atoms with weight; the atom
    # at 0, the last, is the one the tail bound moves weight onto
    used = eta > 0.0
    used[-1] = True
    A, row_shift = _mixture_columns(z0, grid[used], log_below[used])
    d = A @ eta[used]
    loglik = float(np.log(d).sum()) + float(row_shift.sum())

    # the tail bound moves tilted weight toward the atom at 0, the last and
    # heaviest-tailed, to (1 - eps) eta + eps e_K, where the log-likelihood
    # has dropped by _TAIL_DELTA; summed in log1p terms, it is concave in eps
    r = A[:, -1] / d - 1.0

    def spare(eps):
        return np.log1p(eps * r).sum() + _TAIL_DELTA

    # undo the truncation tilt, eta_k  propto  p_k * Phi(xi - mu_k), in logs,
    # since Phi underflows to 0 at every atom when the cut lies far below 0;
    # the bound puts eps / Phi(xi) at 0 against (1 - eps) sum_k exp(log_p_k)
    eps = 1.0 if spare(1.0) >= 0.0 else brentq(spare, 0.0, 1.0)
    log_p = np.log(eta) - log_below
    tail_mass = special.expit(np.log(eps) - log_below[-1] - np.log1p(-eps)
                              - special.logsumexp(log_p))
    weights_p = np.exp(log_p - log_p.max())
    weights_p /= weights_p.sum()
    return MixtureNull(
        grid=grid,
        weights_p=weights_p,
        weights_eta=eta,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
        kkt_gap=float(gap),
        tail_mass=float(tail_mass),
    )


# ---------------------------------------------------------------------------
# family selection and the fitted null law


def _beats(challenger: float, incumbent: float) -> bool:
    """True when a richer family's log-likelihood leads by more than the tie
    tolerance."""
    return challenger - incumbent > TIE_RTOL * max(1.0, abs(incumbent))


def select_null(sample, rule: TruncationRule | None = None, k: int = _GRID_K) -> NullModel:
    """Fit all three null families on the same truncated subsample and keep
    the one with the largest log-likelihood.

    Families are fitted and compared from simplest to richest; a later one
    replaces the current best only when its log-likelihood is higher by
    more than ``TIE_RTOL * max(1, |best loglik|)``, so ties within that
    tolerance go to the simpler family whatever the summation order.

    A fit that raises a numeric error (``ValueError``, which includes
    ``LinAlgError``, or ``ArithmeticError``) or returns a non-finite
    log-likelihood counts as failed and is recorded as ``None`` in
    ``family_logliks``; failures are tolerated as long as at least one
    family fits, and when none does ``ValueError`` names each family's
    failure.  Any other exception propagates.
    """
    _check_k(k)
    if not isinstance(sample, StatSample):  # validated once, not once per fit
        sample = StatSample(np.asarray(sample, dtype=float))
    xi = resolve_cut(sample, rule)
    n_truncated = int((sample.values <= xi).sum())

    best = None
    logliks: dict[str, float | None] = {}
    errors: dict[str, str] = {}
    for name, fitter in ((GaussianNull.family, fit_gaussian),
                         (SkewNormalNull.family, fit_skew_normal),
                         (MixtureNull.family, partial(fit_mixture, k=k))):
        try:
            fit = fitter(sample, xi)
            if not math.isfinite(fit.loglik):
                raise ArithmeticError(f"log-likelihood is {fit.loglik}")
        except (ValueError, ArithmeticError) as exc:
            logliks[name] = None
            errors[name] = str(exc)
            continue
        logliks[name] = float(fit.loglik)
        if best is None or _beats(fit.loglik, best.loglik):
            best = fit
    if best is None:
        details = "; ".join(f"{name}: {msg}" for name, msg in errors.items())
        raise ValueError(f"all null-family fits failed ({details})")

    return NullModel(
        variant=best, cut_xi=xi, n_truncated=n_truncated, family_logliks=logliks
    )
