"""Null-model fitting against independent oracles.

The Gaussian fit is checked against a brute-force grid search on a
log-likelihood written out with scipy.stats primitives, plus the
truncated-mean stationarity identity via scipy.stats.truncnorm and a
hypothesis property of the constrained score root.  The
skew-normal and mixture fits are checked for dominance over dense
parameter grids and for internal consistency of their reported values.
The fitted null laws are checked against scipy.stats densities, against
50-digit mpmath tail probabilities, and by hypothesis properties.
"""

import json
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm, skewnorm, truncnorm

import ebnull.nullmodel as nm
from ebnull.distributions import mills_ratio, skew_normal_cdf
from ebnull.nullmodel import (
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
from ebnull.simulate import HalfNormalPrior, SimScenario, TwoPointPrior, generate


# ---------------------------------------------------------------------------
# containers and the truncation rule


def test_stat_sample_validation():
    s = StatSample(values=[1.0, -2.0, 0.5])
    assert len(s) == 3
    assert s.values.dtype == float
    with pytest.raises(ValueError):
        StatSample(values=[])
    with pytest.raises(ValueError):
        StatSample(values=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        StatSample(values=[1.0, np.nan])
    with pytest.raises(ValueError):
        StatSample(values=[1.0, 2.0], ids=("a",))
    with pytest.raises(ValueError):
        StatSample(values=[1.0, 2.0], is_alt=[True])
    labeled = StatSample(values=[1.0, 2.0], ids=("a", "b"), is_alt=[0, 1])
    assert labeled.ids == ("a", "b")
    assert labeled.is_alt.dtype == bool


def test_truncation_rule_validation():
    assert TruncationRule().quantile_level == 0.85
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            TruncationRule(quantile_level=bad)


def test_resolve_cut_quantile():
    values = np.arange(-2.0, 18.0)  # 20 points: -2, -1, ..., 17
    cut = resolve_cut(StatSample(values=values), TruncationRule(quantile_level=0.85))
    # numpy's linear-interpolation quantile: position 16.15 between 14 and 15
    assert cut == pytest.approx(14.15, abs=1e-12)
    assert resolve_cut(values, None) == pytest.approx(14.15, abs=1e-12)


# ---------------------------------------------------------------------------
# Gaussian family


def test_fit_gaussian_untruncated_mean():
    # a cut far above the data: the estimate is the plain sample mean
    fit = fit_gaussian(np.array([-1.5, -0.5, -0.1]), xi=1e9)
    assert fit.mu0 == pytest.approx(-0.7, abs=1e-6)
    assert fit.converged


def test_fit_gaussian_clamps_to_zero():
    fit = fit_gaussian(np.array([0.1, 0.2, 0.6]), xi=1e9)
    assert fit.mu0 == 0.0
    assert fit.converged


def _independent_gaussian_loglik(mu_grid, z0, xi):
    # direct scipy evaluation, chunked over the grid to bound memory
    out = np.empty(mu_grid.size)
    for start in range(0, mu_grid.size, 256):
        mu = mu_grid[start:start + 256]
        terms = norm.logpdf(z0[None, :] - mu[:, None]).sum(axis=1)
        out[start:start + 256] = terms - z0.size * norm.logcdf(xi - mu)
    return out


def test_fit_gaussian_matches_grid_search():
    rng = np.random.default_rng(42)
    z = rng.normal(-1.0, 1.0, size=4000)
    xi = 0.5
    z0 = z[z <= xi]
    fit = fit_gaussian(z, xi=xi)
    assert fit.converged

    coarse = np.arange(-2.0, 0.5, 1e-3)
    ll_coarse = _independent_gaussian_loglik(coarse, z0, xi)
    center = coarse[int(np.argmax(ll_coarse))]
    fine = np.arange(center - 2e-3, center + 2e-3, 1e-5)
    ll_fine = _independent_gaussian_loglik(fine, z0, xi)
    mu_grid = fine[int(np.argmax(ll_fine))]

    assert fit.mu0 == pytest.approx(min(mu_grid, 0.0), abs=1e-4)
    ll_at_fit = _independent_gaussian_loglik(np.array([fit.mu0]), z0, xi)[0]
    assert fit.loglik == pytest.approx(ll_at_fit, abs=1e-6)
    assert fit.loglik >= ll_fine.max() - 1e-6


def test_fit_gaussian_stationarity_identity():
    # at an interior optimum the model's truncated mean equals the sample mean
    rng = np.random.default_rng(7)
    z = rng.normal(-0.6, 1.0, size=3000)
    xi = float(np.quantile(z, 0.85))
    fit = fit_gaussian(z, xi=xi)
    assert fit.converged and fit.mu0 < 0.0
    model_mean = truncnorm.mean(a=-np.inf, b=xi - fit.mu0, loc=fit.mu0, scale=1.0)
    assert model_mean == pytest.approx(float(np.mean(z[z <= xi])), abs=1e-6)


def test_fit_gaussian_not_converged_when_not_finite():
    # one statistic at -1e160 overflows the sum of squares into a NaN
    # log-likelihood; such a fit must not claim convergence
    z = np.append(np.random.default_rng(1).standard_normal(50), -1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        fit = fit_gaussian(z, xi=resolve_cut(StatSample(values=z)))
    assert not np.isfinite(fit.loglik)
    assert fit.converged is False


def _gaussian_score(mu, z0, xi):
    # the truncated score per observation, with the library's Mills ratio
    return float(z0.mean()) - mu + mills_ratio(xi - mu)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2,
                       max_size=60),
       level=st.floats(min_value=0.05, max_value=0.95))
def test_fit_gaussian_is_the_constrained_score_root(values, level):
    z = np.asarray(values)
    xi = resolve_cut(z, TruncationRule(quantile_level=level))
    z0 = z[z <= xi]
    assume(z0.size >= 2)
    fit = fit_gaussian(z, xi=xi)
    assert fit.mu0 <= 0.0
    assert np.isfinite(fit.loglik)
    assert (fit.mu0 == 0.0) == (_gaussian_score(0.0, z0, xi) >= 0.0)
    if fit.mu0 != 0.0:
        zbar = float(z0.mean())
        assert abs(_gaussian_score(fit.mu0, z0, xi)) <= 1e-9 * max(1.0, abs(zbar))


def test_fit_gaussian_needs_two_points():
    with pytest.raises(ValueError):
        fit_gaussian(np.array([0.0, 5.0]), xi=1.0)


# ---------------------------------------------------------------------------
# skew-normal family


def _independent_skew_loglik(eta, z0, xi):
    sigma0 = np.exp(eta)
    dist = skewnorm(-sigma0, loc=0.0, scale=float(np.sqrt(1 + sigma0**2)))
    return float(dist.logpdf(z0).sum() - z0.size * dist.logcdf(xi))


def test_fit_skew_normal_recovers_spread():
    rng = np.random.default_rng(3)
    m = 4000
    means = -np.abs(rng.normal(0.0, 2.0, size=m))
    z = means + rng.standard_normal(m)
    xi = float(np.quantile(z, 0.85))
    fit = fit_skew_normal(z, xi=xi)
    assert not fit.at_boundary
    assert fit.sigma0 == pytest.approx(2.0, abs=0.3)
    # the fitted law is the skew-normal with shape -sigma0, scale sqrt(1 + sigma0^2)
    law = skewnorm(-fit.sigma0, scale=np.sqrt(1 + fit.sigma0**2))
    assert fit.sf(0.3) == pytest.approx(law.sf(0.3), rel=1e-10)


def test_fit_skew_normal_dominates_eta_grid():
    rng = np.random.default_rng(5)
    means = -np.abs(rng.normal(0.0, 1.5, size=2000))
    z = means + rng.standard_normal(2000)
    xi = float(np.quantile(z, 0.85))
    z0 = z[z <= xi]
    fit = fit_skew_normal(z, xi=xi)
    assert fit.loglik == pytest.approx(
        _independent_skew_loglik(fit.eta, z0, xi), rel=1e-10
    )
    grid_best = max(_independent_skew_loglik(eta, z0, xi)
                    for eta in np.linspace(-6.0, 3.0, 200))
    assert fit.loglik >= grid_best - 1e-6


def test_fit_skew_normal_boundary_flag():
    # a prior spread far beyond exp(eta_max) pins the search at the edge
    rng = np.random.default_rng(11)
    means = -np.abs(rng.normal(0.0, 25.0, size=1500))
    z = means + rng.standard_normal(1500)
    xi = float(np.quantile(z, 0.85))
    fit = fit_skew_normal(z, xi=xi)
    assert fit.at_boundary
    assert fit.eta == pytest.approx(3.0, abs=1e-4)


# ---------------------------------------------------------------------------
# mixture family


def _mixture_loglik_direct(z0, xi, grid, eta):
    cols = norm.pdf(z0[:, None] - grid[None, :]) / norm.cdf(xi - grid)[None, :]
    return float(np.log(cols @ eta).sum())


def _mixture_gap_direct(z0, xi, grid, eta, counts=None):
    # the gap of the program with each point z0[i] counted counts[i] times
    counts = np.ones(z0.size) if counts is None else counts
    cols = norm.pdf(z0[:, None] - grid[None, :]) / norm.cdf(xi - grid)[None, :]
    d = cols @ eta
    return float((cols.T @ (counts / d)).max()) - counts.sum()


def _bins(z0, h=0.005):
    # the program the mixture fit solves: the statistics binned on the
    # lattice floor(z / h), each bin at its mean and with its count
    keys, counts = np.unique(np.floor(z0 / h), return_counts=True)
    means = np.array([z0[np.floor(z0 / h) == key].mean() for key in keys])
    return means, counts.astype(float)


@pytest.fixture(scope="module")
def two_point_data():
    rng = np.random.default_rng(19)
    m = 3000
    means = np.where(rng.random(m) < 0.5, -1.0, 0.0)
    z = means + rng.standard_normal(m)
    xi = float(np.quantile(z, 0.85))
    return z, xi


def test_fit_mixture_reported_values_consistent(two_point_data):
    z, xi = two_point_data
    z0 = z[z <= xi]
    fit = fit_mixture(z, xi=xi)
    assert fit.converged
    assert fit.kkt_gap <= 1e-10 * z0.size
    assert fit.loglik == pytest.approx(
        _mixture_loglik_direct(z0, xi, fit.grid, fit.weights_eta), abs=1e-7
    )
    # the gap certifies the binned program the weights solve
    means, counts = _bins(z0)
    assert _mixture_gap_direct(means, xi, fit.grid, fit.weights_eta,
                               counts) == pytest.approx(fit.kkt_gap, abs=1e-5)


def test_fit_mixture_weight_tilt_round_trip(two_point_data):
    z, xi = two_point_data
    fit = fit_mixture(z, xi=xi)
    np.testing.assert_allclose(fit.weights_p.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(fit.weights_eta.sum(), 1.0, atol=1e-12)
    # eta_k proportional to p_k * Phi(xi - mu_k), both simplex-normalized
    tilted = fit.weights_p * special.ndtr(xi - fit.grid)
    np.testing.assert_allclose(tilted / tilted.sum(), fit.weights_eta, atol=1e-12)


def _plain_truncated_loglik(z0, xi, atoms, weights):
    # the truncated log-likelihood of a mixing law in its plain weights
    dens = norm.pdf(z0[:, None] - atoms[None, :]) @ weights
    mass = norm.cdf(xi - atoms) @ weights
    return float(np.log(dens).sum() - z0.size * np.log(mass))


def test_fit_mixture_tail_is_the_profile_bound(two_point_data):
    # sf reads the fitted law with weight moved onto N(0, 1) until the
    # truncated log-likelihood has dropped by the tail's budget
    z, xi = two_point_data
    z0 = z[z <= xi]
    fit = fit_mixture(z, xi=xi)
    assert fit.grid[-1] == 0.0 and 0.0 < fit.tail_mass < 1.0
    assert _plain_truncated_loglik(z0, xi, fit.grid, fit.weights_p) == pytest.approx(
        fit.loglik, abs=1e-6)
    atoms = np.append(fit.grid, 0.0)
    bound = np.append((1.0 - fit.tail_mass) * fit.weights_p, fit.tail_mass)
    assert _plain_truncated_loglik(z0, xi, atoms, bound) == pytest.approx(
        fit.loglik - nm._TAIL_DELTA, abs=1e-6)
    t = np.linspace(-3.0, 8.0, 45)
    fitted = norm.sf(t[:, None] - fit.grid[None, :]) @ fit.weights_p
    np.testing.assert_allclose(
        fit.sf(t), (1.0 - fit.tail_mass) * fitted + fit.tail_mass * norm.sf(t),
        rtol=1e-12)
    assert np.all(fit.sf(t) >= fitted)


def test_fit_mixture_recovers_atoms(two_point_data):
    z, xi = two_point_data
    fit = fit_mixture(z, xi=xi)
    near_minus_one = np.abs(fit.grid + 1.0) <= 0.25
    near_zero = np.abs(fit.grid) <= 0.25
    mass = fit.weights_p[near_minus_one | near_zero].sum()
    assert mass >= 0.8


def test_fit_mixture_newton_matches_em():
    rng = np.random.default_rng(23)
    z = np.where(rng.random(400) < 0.5, -1.0, 0.0) + rng.standard_normal(400)
    xi = float(np.quantile(z, 0.85))
    fit = fit_mixture(z, xi=xi, k=20)

    # plain multiplicative (EM) ascent on the tilted weights, the reference
    z0 = z[z <= xi]
    cols = norm.pdf(z0[:, None] - fit.grid) / norm.cdf(xi - fit.grid)
    eta = np.full(fit.grid.size, 1.0 / fit.grid.size)
    em_loglik = float(np.log(cols @ eta).sum())
    for _ in range(10000):
        eta = eta * (cols.T @ (1.0 / (cols @ eta))) / z0.size
        prev, em_loglik = em_loglik, float(np.log(cols @ eta).sum())
        if abs(em_loglik - prev) < 1e-9:
            break
    em_gap = float((cols.T @ (1.0 / (cols @ eta))).max()) - z0.size

    assert fit.converged
    assert fit.loglik >= em_loglik - 1e-6
    # the gradient gap bounds each solver's distance from the optimum
    assert fit.loglik - em_loglik <= em_gap + 1e-6


@pytest.mark.parametrize("prior", ["two-point", "sigma0=2"])
def test_fit_mixture_binning_costs_little(two_point_data, prior):
    """The binned fit's exact-data log-likelihood is within 1e-4 nats of the
    exact data's optimum on the same grid.  That optimum is bracketed by a
    reference point and its gap, both from scipy densities; the point
    comes from the weight solver at unit counts, the unbinned program, as
    plain EM is still 0.04 nats short of it after 20000 steps here."""
    if prior == "two-point":
        z, xi = two_point_data
    else:
        rng = np.random.default_rng(37)
        z = -np.abs(rng.normal(0.0, 2.0, 3000)) + rng.standard_normal(3000)
        xi = float(np.quantile(z, 0.85))
    z0 = z[z <= xi]
    fit = fit_mixture(z, xi=xi)
    cols = norm.pdf(z0[:, None] - fit.grid[None, :]) / norm.cdf(xi - fit.grid)[None, :]
    eta = nm._solve_weights_mixsqp(cols, np.ones(z0.size))[0]
    reference = _mixture_loglik_direct(z0, xi, fit.grid, eta)
    gap = _mixture_gap_direct(z0, xi, fit.grid, eta)
    assert gap <= 1e-6
    assert reference + gap - 1e-4 <= fit.loglik <= reference + gap + 1e-9


def test_fit_mixture_converged_is_the_relative_certificate(two_point_data, monkeypatch):
    """``converged`` holds exactly when the KKT gap of the binned program,
    recomputed here from scipy densities, is at most 1e-10 per truncated
    statistic."""
    z, xi = two_point_data
    rng = np.random.default_rng(29)
    samples = [(z, xi)] + [
        (v, float(np.quantile(v, 0.85)))
        for v in (rng.normal(-0.5, 1.0, 2000),
                  -np.abs(rng.normal(0.0, 1.5, 2000)) + rng.standard_normal(2000))
    ]
    for cap in (nm._MIX_MAX_ITER, 1):  # a one-step cap stops short of the optimum
        monkeypatch.setattr(nm, "_MIX_MAX_ITER", cap)
        for values, cut in samples:
            z0 = values[values <= cut]
            fit = fit_mixture(values, xi=cut)
            means, counts = _bins(z0)
            gap = _mixture_gap_direct(means, cut, fit.grid, fit.weights_eta, counts)
            assert fit.converged == (gap <= 1e-10 * z0.size)
            assert fit.converged == (cap > 1)
            assert fit.kkt_gap == pytest.approx(gap, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("values", [
    np.abs(np.random.default_rng(41).standard_normal(300)) + 0.1,  # atoms all at 0
    np.repeat(np.random.default_rng(43).standard_normal(20), 15),  # ties
    np.array([-1.0, 0.5, 2.0]),  # m = 3
    np.append(np.random.default_rng(47).standard_normal(500), -1e6),  # one far value
], ids=["all-positive", "ties", "m=3", "far-outlier"])
def test_fit_mixture_degenerate_inputs_converge(values):
    xi = resolve_cut(values)
    z0 = values[values <= xi]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_mixture(values, xi=xi)
    assert fit.converged
    assert np.isfinite(fit.loglik)
    assert _mixture_gap_direct(z0, xi, fit.grid, fit.weights_eta) <= 1e-10 * z0.size


def test_far_negative_cut_untilts_in_logs():
    # every mean at -40 puts the cut so far below 0 that Phi(xi - mu)
    # underflows to 0 at every atom, so the tilt is undone in logs; the
    # mixture wins, and its p-values must not collapse to 0
    values = np.random.default_rng(0).standard_normal(500) - 40.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = select_null(values)
        p = model.sf(values)
    assert model.family == "mixture"
    np.testing.assert_allclose(model.variant.weights_p.sum(), 1.0, atol=1e-12)
    assert np.all(p >= 0.5)


@pytest.mark.parametrize("seed", [7, 201, 202])
def test_fit_mixture_converges_at_large_n(seed):
    # 199 000 one-sided-prior statistics and 1000 strong signals near z = 12,
    # about 1.7e5 of them below the cut: the input of the CLI benchmark
    bulk = generate(SimScenario(HalfNormalPrior(1.0), m=199_000, pi0=0.9,
                                alt_mean=3.0, base_seed=seed), 0)
    strong = generate(SimScenario(HalfNormalPrior(1.0), m=1000, pi0=0.001,
                                  alt_mean=12.0, base_seed=seed), 1)
    values = np.concatenate((bulk.values, strong.values))
    xi = resolve_cut(values)
    fit = fit_mixture(values, xi=xi)
    assert fit.converged
    assert fit.kkt_gap <= 1e-10 * int((values <= xi).sum())


def test_far_left_statistic_gets_its_own_atom():
    # one null at -1e3 gets an atom at its own value, and the regular atoms
    # are the sample's own, so the fitted tail at the same cut barely moves
    z = generate(SimScenario(TwoPointPrior(0.8), base_seed=7000), 0).values
    xi = resolve_cut(z)
    fit = fit_mixture(z, xi=xi)
    far = fit_mixture(np.append(z, -1e3), xi=xi)
    np.testing.assert_array_equal(far.grid, np.append(-1e3, fit.grid))
    assert far.sf(2.0) == pytest.approx(fit.sf(2.0), rel=1e-3)


def test_fit_mixture_grid_validation():
    z = np.arange(-3.0, 3.0, 0.1)
    with pytest.raises(ValueError):
        fit_mixture(z, xi=1.0, k=1)


# ---------------------------------------------------------------------------
# family selection


def test_select_null_reports_all_families():
    rng = np.random.default_rng(31)
    z = rng.normal(-0.5, 1.0, 2000)
    model = select_null(StatSample(values=z))
    assert set(model.family_logliks) == {"gaussian", "skew_normal", "mixture"}
    finite = {k: v for k, v in model.family_logliks.items() if v is not None}
    assert model.variant.loglik == max(finite.values())
    assert model.family in finite
    assert model.n_truncated == int((z <= model.cut_xi).sum())


def test_select_null_prefers_simpler_on_tie(monkeypatch):
    """select_null keeps the simpler family unless a richer one is ahead by
    more than the relative tie tolerance; a lead of a few ulps is rounding."""
    ell = -1258.0
    few_ulps = ell + 2.3e-13
    assert few_ulps > ell  # the richer fit really is ahead, by one ulp here

    def choose(gauss, skew, mix):
        monkeypatch.setattr(nm, "fit_gaussian", lambda values, xi: GaussianNull(
            mu0=0.0, loglik=gauss, iterations=1, converged=True))
        monkeypatch.setattr(nm, "fit_skew_normal", lambda values, xi: SkewNormalNull(
            sigma0=0.5, eta=float(np.log(0.5)), loglik=skew))
        monkeypatch.setattr(nm, "fit_mixture", lambda values, xi, k: MixtureNull(
            grid=np.array([-1.0, 0.0]), weights_p=np.array([0.0, 1.0]),
            weights_eta=np.array([0.0, 1.0]), loglik=mix, iterations=1,
            converged=True, kkt_gap=0.0, tail_mass=0.0))
        model = select_null(StatSample(values=np.linspace(-2.0, 2.0, 40)))
        # a non-finite log-likelihood is a failed fit, reported as None
        expected = {"gaussian": gauss, "skew_normal": skew, "mixture": mix}
        assert model.family_logliks == {
            name: (ll if np.isfinite(ll) else None) for name, ll in expected.items()
        }
        return model.family

    # gaussian against mixture: exact tie and a few-ulp lead both stay simple
    assert choose(ell, ell - 5.0, ell) == "gaussian"
    assert choose(ell, ell - 5.0, few_ulps) == "gaussian"
    # skew-normal against mixture, with the gaussian well behind
    assert choose(ell - 5.0, ell, ell) == "skew_normal"
    assert choose(ell - 5.0, ell, few_ulps) == "skew_normal"
    # all three tied: the simplest family of all
    assert choose(ell, ell, few_ulps) == "gaussian"
    # a real margin, far above the tolerance, selects the richer family
    assert choose(ell, ell - 5.0, ell + 1e-3) == "mixture"
    assert choose(ell - 5.0, ell, ell + 1e-3) == "mixture"
    assert choose(ell, ell + 1e-3, ell - 5.0) == "skew_normal"
    # infinite log-likelihoods are failed fits; the finite family wins
    assert choose(-np.inf, -np.inf, ell) == "mixture"


def test_select_null_family_frequencies():
    """Frozen selection counts over 30 seeded datasets per scenario.

    Deterministic because the fits use no randomness, and near-ties are
    settled by the relative tie tolerance of select_null, so the counts do
    not depend on summation order or BLAS; any change here means the
    selection behavior itself changed.
    """
    def count(draw_null_means):
        counts = {"gaussian": 0, "skew_normal": 0, "mixture": 0}
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = 1200
            is_alt = rng.random(m) < 0.1
            means = np.where(is_alt, 3.0, draw_null_means(rng, m))
            z = means + rng.standard_normal(m)
            counts[select_null(StatSample(values=z)).family] += 1
        return counts

    shifted = count(lambda rng, m: -1.0)
    assert shifted == {"gaussian": 10, "skew_normal": 0, "mixture": 20}
    centred = count(lambda rng, m: 0.0)
    assert centred == {"gaussian": 17, "skew_normal": 0, "mixture": 13}
    spread = count(lambda rng, m: -np.abs(rng.normal(0.0, 2.0, m)))
    assert spread == {"gaussian": 0, "skew_normal": 0, "mixture": 30}


def test_select_null_all_fits_failing():
    # the 0.85 quantile of [0, 10] is 8.5: one point at or below the cut
    with pytest.raises(ValueError, match="all null-family fits failed"):
        select_null(StatSample(values=[0.0, 10.0]))


def test_select_null_drops_nan_loglik():
    # one statistic at -1e160 overflows the Gaussian fit's sums into a NaN
    # log-likelihood; that fit must fail, not win every comparison
    z = np.append(np.random.default_rng(1).standard_normal(50), -1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        model = select_null(StatSample(values=z))
    assert model.family == "mixture"
    assert model.family_logliks["gaussian"] is None
    # the skew-normal log-likelihood is -inf here: a failed fit too
    assert model.family_logliks["skew_normal"] is None
    assert np.isfinite(model.variant.loglik)


def test_select_null_names_overflowing_mixture_columns():
    # statistics near -1e300 overflow every log-density column; the mixture
    # failure must say so rather than surface an internal solver error
    with pytest.raises(ValueError, match="mixture: mixture log-density") as err:
        select_null(StatSample(values=[-1e300, -1e300, 5.0]))
    assert "argmax" not in str(err.value)
    # the cut near -3e299 overflows the Gaussian's Mills ratio into a NaN
    # score at 0, named as such rather than by Brent's message
    assert "gaussian: gaussian score at mu0 = 0 is not finite" in str(err.value)
    assert "solver cannot continue" not in str(err.value)


def test_select_null_validates_k():
    z = StatSample(values=np.random.default_rng(2).standard_normal(200))
    for k in (1, 0):
        with pytest.raises(ValueError, match="grid atoms"):
            select_null(z, k=k)


def test_select_null_numeric_errors_only(monkeypatch):
    """A numeric error in one family drops that family; any other exception
    is a bug and propagates."""
    z = StatSample(values=np.random.default_rng(3).normal(-0.5, 1.0, 300))

    def raising(exc):
        def fit(*args, **kwargs):
            raise exc
        return fit

    monkeypatch.setattr(nm, "fit_skew_normal", raising(ValueError("no fit")))
    model = select_null(z)
    assert model.family_logliks["skew_normal"] is None
    assert model.family_logliks["gaussian"] is not None

    monkeypatch.setattr(nm, "fit_skew_normal", raising(TypeError("bug")))
    with pytest.raises(TypeError):
        select_null(z)


_THREAD_RUN = """
import json
from ebnull import (SimScenario, TwoPointPrior, eb_pvalues, generate, select_null,
                    storey_bh)
scenario = SimScenario(null_prior=TwoPointPrior(0.8), m=5000, pi0=0.9, q=0.1,
                       n_reps=60, base_seed=0)
out = []
for rep in range(scenario.n_reps):
    sample = generate(scenario, rep)
    model = select_null(sample)
    rejected = storey_bh(eb_pvalues(sample, model), q=0.1).rejected
    out.append([model.family, model.variant.loglik, rejected.tolist()])
print(json.dumps(out))
"""


def _pipeline_at_blas_threads(threads: str):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nm.__file__)))
    env.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
    done = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout)


def test_pipeline_does_not_depend_on_blas_threads():
    """select_null, the fitted-null p-values and Storey-BH give the same
    family, log-likelihood and rejection set at one and two BLAS threads,
    on 60 replications of the two-point prior at rho = 0.8."""
    one, two = (_pipeline_at_blas_threads(t) for t in ("1", "2"))
    assert len(one) == len(two) == 60
    for (fam1, ll1, rej1), (fam2, ll2, rej2) in zip(one, two):
        assert fam1 == fam2
        assert ll1 == pytest.approx(ll2, rel=1e-9)
        assert rej1 == rej2


# ---------------------------------------------------------------------------
# the fitted null laws


def _example_models():
    return [
        GaussianNull(mu0=-0.8, loglik=0.0, iterations=1, converged=True),
        SkewNormalNull(sigma0=1.5, eta=float(np.log(1.5)), loglik=0.0),
        MixtureNull(
            grid=np.array([-2.0, -1.0, 0.0]),
            weights_p=np.array([0.2, 0.3, 0.5]),
            weights_eta=np.array([0.25, 0.35, 0.4]),
            loglik=0.0, iterations=1, converged=True, kkt_gap=0.0,
            tail_mass=0.0,
        ),
    ]


def _reference_law(variant, method):
    """The density (``"pdf"``) or survival function (``"sf"``) of each law,
    written with scipy.stats alone."""
    if variant.family == "gaussian":
        return getattr(norm(loc=variant.mu0), method)
    if variant.family == "skew_normal":
        law = skewnorm(-variant.sigma0, scale=np.sqrt(1 + variant.sigma0**2))
        return getattr(law, method)
    return lambda t: sum(w * getattr(norm, method)(t - mu)
                         for mu, w in zip(variant.grid, variant.weights_p))


def _wrap(variant):
    return NullModel(variant=variant, cut_xi=1.0, n_truncated=10)


@pytest.mark.parametrize("variant", _example_models(),
                         ids=["gaussian", "skew_normal", "mixture"])
def test_null_law_is_a_distribution(variant):
    grid = np.linspace(-12.0, 12.0, 241)
    sf = variant.sf(grid)
    assert np.all(np.diff(sf) <= 1e-12)  # monotone up to roundoff
    assert sf[0] > 1 - 1e-6 and sf[-1] < 1e-6
    # the survival function integrates an independent density
    tail, _ = quad(_reference_law(variant, "pdf"), 0.3, np.inf)
    assert _wrap(variant).sf(0.3) == pytest.approx(tail, abs=1e-8)


def test_null_law_closed_forms():
    g, sn, mix = _example_models()
    assert _wrap(g).sf(0.0) == pytest.approx(norm.sf(0.8), rel=1e-12)
    assert _wrap(sn).sf(0.7) == pytest.approx(
        1.0 - skew_normal_cdf(0.7, sn.sigma0), rel=1e-12
    )
    assert _wrap(sn).sf(0.7) == pytest.approx(
        _reference_law(sn, "sf")(0.7), rel=1e-12
    )
    manual_sf = sum(w * norm.sf(0.4 - mu)
                    for mu, w in zip(mix.grid, mix.weights_p))
    assert _wrap(mix).sf(0.4) == pytest.approx(manual_sf, rel=1e-12)


def test_null_law_dispatch_and_types():
    report_keys = {
        "gaussian": ["mu0", "iterations", "converged"],
        "skew_normal": ["sigma0", "eta", "at_boundary"],
        "mixture": ["grid", "weights", "iterations", "converged", "kkt_gap",
                    "tail_mass"],
    }
    for variant in _example_models():
        wrapped = _wrap(variant)
        assert wrapped.family == variant.family
        assert list(variant.report_params()) == report_keys[variant.family]
        scalar = wrapped.sf(0.2)
        assert isinstance(scalar, float)
        assert scalar == float(variant.sf(0.2))
        assert wrapped.sf(np.array([0.2, 0.5])).shape == (2,)
        assert wrapped.sf(np.zeros((2, 3))).shape == (2, 3)


def _sf_reference(z, atoms, weights):
    # 50-digit P(Z >= z) for a mixture of N(atom, 1) laws
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        tail = sum(mpmath.mpf(w) * mpmath.erfc((z - mpmath.mpf(mu)) / mpmath.sqrt(2)) / 2
                   for mu, w in zip(atoms, weights))
        return float(tail)


def test_null_law_sf_matches_mpmath_in_the_tail():
    g, _, mix = _example_models()
    z = np.linspace(-5.0, 35.0, 81)
    cases = [(g, [g.mu0], [1.0]), (mix, mix.grid, mix.weights_p)]
    for variant, atoms, weights in cases:
        got = _wrap(variant).sf(z)
        want = np.array([_sf_reference(t, atoms, weights) for t in z])
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


_z_values = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


@st.composite
def _null_laws(draw):
    family = draw(st.sampled_from(["gaussian", "skew_normal", "mixture"]))
    if family == "gaussian":
        mu0 = draw(st.floats(min_value=-6.0, max_value=0.0))
        return GaussianNull(mu0=mu0, loglik=0.0, iterations=1, converged=True)
    if family == "skew_normal":
        eta = draw(st.floats(min_value=-6.0, max_value=3.0))
        return SkewNormalNull(sigma0=float(np.exp(eta)), eta=eta, loglik=0.0)
    atoms = draw(st.lists(st.floats(min_value=-8.0, max_value=0.0),
                          min_size=2, max_size=6))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=len(atoms), max_size=len(atoms)))
    weights = np.asarray(raw) / np.sum(raw)
    return MixtureNull(grid=np.sort(atoms), weights_p=weights, weights_eta=weights,
                       loglik=0.0, iterations=1, converged=True, kkt_gap=0.0,
                       tail_mass=0.0)


@settings(max_examples=200, deadline=None)
@given(law=_null_laws(), z=st.lists(_z_values, min_size=1, max_size=20))
def test_null_law_sf_properties(law, z):
    z = np.sort(np.asarray(z))
    model = _wrap(law)
    sf = model.sf(z)
    # against scipy.stats; the skew-normal sf is 1 - cdf and rounds to 0 in
    # the far right tail, hence the absolute tolerance
    np.testing.assert_allclose(sf, _reference_law(law, "sf")(z), rtol=1e-9, atol=1e-12)
    assert np.all((sf >= 0.0) & (sf <= 1.0))
    assert np.all(np.diff(sf) <= 0.0)
