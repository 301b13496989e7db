"""Simulation harness: priors, determinism, aggregation, diagnostics."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import ebnull.nullmodel as nm
import ebnull.simulate as sim
from ebnull.pvalues import PValueVector
from ebnull.simulate import (
    METHOD_NAMES,
    HalfNormalPrior,
    SimScenario,
    TwoPointPrior,
    generate,
    pvalue_histogram,
    run_methods,
    run_scenario,
)


# ---------------------------------------------------------------------------
# priors


def test_two_point_prior_draw_and_cdf():
    prior = TwoPointPrior(rho=0.3)
    rng = np.random.default_rng(0)
    draws = prior.draw(rng, 200000)
    assert set(np.unique(draws)) == {-1.0, 0.0}
    assert np.mean(draws == -1.0) == pytest.approx(0.3, abs=0.01)
    # the marginal is the matching two-component Gaussian mixture
    z = np.array([-2.0, 0.0, 1.5])
    expected = 0.3 * norm.sf(z + 1.0) + 0.7 * norm.sf(z)
    np.testing.assert_allclose(prior.marginal_sf(z), expected, rtol=1e-12)
    assert isinstance(prior.marginal_sf(1.5), float)
    with pytest.raises(ValueError):
        TwoPointPrior(rho=1.2)


def test_two_point_prior_degenerate_ends():
    rng = np.random.default_rng(1)
    assert np.all(TwoPointPrior(rho=0.0).draw(rng, 100) == 0.0)
    assert np.all(TwoPointPrior(rho=1.0).draw(rng, 100) == -1.0)


def test_two_point_marginal_sf_matches_mpmath_in_the_tail():
    # P(Z >= z) for Z ~ rho N(-1, 1) + (1 - rho) N(0, 1), at 50 digits;
    # 1 - F0(z) reads 0 here from z of about 8.3
    rho = 0.5
    z = np.linspace(-5.0, 35.0, 81)
    p = TwoPointPrior(rho).marginal_sf(z)
    with mpmath.workdps(50):
        def tail(t, mu):
            return mpmath.erfc((mpmath.mpf(t) - mu) / mpmath.sqrt(2)) / 2
        want = np.array([float(rho * tail(t, -1) + (1 - rho) * tail(t, 0))
                         for t in z.tolist()])
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p, want, rtol=1e-10, atol=0.0)


def test_half_normal_prior_draws_match_closed_form_moments():
    prior = HalfNormalPrior(sigma0=2.0)
    rng = np.random.default_rng(2)
    draws = prior.draw(rng, 100000)
    assert np.all(draws <= 0.0)
    # half-normal on the negative side: mean -sigma0 sqrt(2/pi)
    assert draws.mean() == pytest.approx(-2.0 * np.sqrt(2 / np.pi), abs=0.02)
    assert draws.std() == pytest.approx(2.0 * np.sqrt(1 - 2 / np.pi), abs=0.02)


def test_half_normal_marginal_cdf_is_skewed_left():
    prior = HalfNormalPrior(sigma0=2.0)
    # the z marginal: verify its skewness against the closed form for a
    # skew-normal with shape alpha = -sigma0
    rng = np.random.default_rng(3)
    z = prior.draw(rng, 100000) + rng.standard_normal(100000)
    alpha = -2.0
    delta = alpha / np.sqrt(1 + alpha**2)
    gamma1 = ((4 - np.pi) / 2) * (delta * np.sqrt(2 / np.pi)) ** 3 \
        / (1 - 2 * delta**2 / np.pi) ** 1.5
    sample_skew = float(np.mean(((z - z.mean()) / z.std()) ** 3))
    assert sample_skew == pytest.approx(gamma1, abs=0.05)
    # and the survival function matches the empirical one
    for t in (-3.0, -1.0, 0.5):
        assert prior.marginal_sf(t) == pytest.approx(np.mean(z > t), abs=0.01)
    with pytest.raises(ValueError):
        HalfNormalPrior(sigma0=0.0)


# ---------------------------------------------------------------------------
# generation


def test_generate_is_deterministic():
    scenario = SimScenario(null_prior=TwoPointPrior(0.5), m=300, base_seed=9)
    a = generate(scenario, 4)
    b = generate(scenario, 4)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.is_alt, b.is_alt)
    c = generate(scenario, 5)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        generate(scenario, -1)


def test_generate_respects_mixture_structure():
    scenario = SimScenario(null_prior=TwoPointPrior(1.0), m=20000, pi0=0.8,
                           alt_mean=3.0, base_seed=1)
    sample = generate(scenario, 0)
    assert sample.is_alt.mean() == pytest.approx(0.2, abs=0.01)
    # alternatives center on alt_mean, nulls on -1 (rho = 1)
    assert sample.values[sample.is_alt].mean() == pytest.approx(3.0, abs=0.05)
    assert sample.values[~sample.is_alt].mean() == pytest.approx(-1.0, abs=0.05)
    assert sample.values[~sample.is_alt].std() == pytest.approx(1.0, abs=0.05)


def test_scenario_validation():
    prior = TwoPointPrior(0.5)
    with pytest.raises(ValueError):
        SimScenario(null_prior=prior, m=1)
    with pytest.raises(ValueError):
        SimScenario(null_prior=prior, pi0=0.0)
    with pytest.raises(ValueError):
        SimScenario(null_prior=prior, q=1.0)
    with pytest.raises(ValueError):
        SimScenario(null_prior=prior, n_reps=0)
    with pytest.raises(ValueError):
        SimScenario(null_prior=prior, base_seed=-1)


# ---------------------------------------------------------------------------
# scenario runs


@pytest.fixture(scope="module")
def small_run():
    scenario = SimScenario(null_prior=TwoPointPrior(1.0), m=600, pi0=0.9,
                           n_reps=4, base_seed=13)
    return run_scenario(scenario, methods=("bh", "stbh", "proposed"))


def test_run_scenario_summary_shape(small_run):
    assert set(small_run.methods) == {"bh", "stbh", "proposed"}
    assert small_run.scenario.n_reps == 4
    assert small_run.n_reps_used == 4
    assert small_run.n_failures == 0
    for summary in small_run.methods.values():
        assert 0.0 <= summary.fdr <= 1.0
        assert 0.0 <= summary.tpr <= 1.0
        assert summary.fdr_se >= 0.0
        assert summary.tpr_se >= 0.0


def test_run_scenario_is_reproducible(small_run):
    scenario = SimScenario(null_prior=TwoPointPrior(1.0), m=600, pi0=0.9,
                           n_reps=4, base_seed=13)
    again = run_scenario(scenario, methods=("bh", "stbh", "proposed"))
    for method in small_run.methods:
        assert again.methods[method] == small_run.methods[method]


def test_run_scenario_matches_manual_aggregation():
    from ebnull.procedures import bh as bh_proc, compute_metrics
    from ebnull.pvalues import standard_pvalues

    scenario = SimScenario(null_prior=TwoPointPrior(0.5), m=400, n_reps=3,
                           base_seed=21)
    summary = run_scenario(scenario, methods=("bh",))
    fdps, tpps = [], []
    for rep in range(3):
        sample = generate(scenario, rep)
        metrics = compute_metrics(bh_proc(standard_pvalues(sample), 0.1),
                                  sample.is_alt)
        fdps.append(metrics.fdp)
        tpps.append(metrics.tpp)
    assert summary.methods["bh"].fdr == pytest.approx(np.mean(fdps), rel=1e-12)
    assert summary.methods["bh"].tpr == pytest.approx(np.mean(tpps), rel=1e-12)
    assert summary.methods["bh"].fdr_se == pytest.approx(
        np.std(fdps, ddof=1) / np.sqrt(3), rel=1e-12
    )


def test_run_scenario_all_null_has_zero_tpr():
    scenario = SimScenario(null_prior=TwoPointPrior(0.0), m=500, pi0=1.0,
                           n_reps=2, base_seed=3)
    summary = run_scenario(scenario, methods=("bh", "stbh"))
    assert summary.methods["bh"].tpr == 0.0
    assert summary.methods["stbh"].tpr == 0.0


def test_run_scenario_rejects_unknown_method():
    scenario = SimScenario(null_prior=TwoPointPrior(0.5), m=100, n_reps=1)
    with pytest.raises(ValueError):
        run_scenario(scenario, methods=("bh", "mystery"))


def _record_draws(monkeypatch) -> list:
    """The replication indices ``run_scenario`` draws from now on."""
    drawn = []
    monkeypatch.setattr(sim, "generate",
                        lambda scenario, rep: drawn.append(rep) or generate(scenario, rep))
    return drawn


def test_run_scenario_validates_xi_quantile_up_front(monkeypatch):
    """An invalid truncation quantile is a configuration error for every
    method set, raised before any replication is drawn, not a failed rep."""
    drawn = _record_draws(monkeypatch)
    scenario = SimScenario(null_prior=TwoPointPrior(0.5), m=100, n_reps=2)
    for methods in (("bh",), ("bh", "proposed")):
        with pytest.raises(ValueError, match="quantile level"):
            run_scenario(scenario, methods=methods, xi_quantile=2.0)
    assert drawn == []


def test_run_scenario_raises_on_invalid_procedure_parameter(monkeypatch):
    """An invalid tau is a configuration error, raised before any
    replication is drawn, not a failed replication."""
    drawn = _record_draws(monkeypatch)
    scenario = SimScenario(null_prior=TwoPointPrior(0.8), m=200, n_reps=2)
    with pytest.raises(ValueError, match="tau"):
        run_scenario(scenario, methods=("c-stbh", "bh"), tau=2.0)
    assert drawn == []


def _error_of(call, *args):
    """The message of the ``ValueError`` ``call(*args)`` raises, else None."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


_setting = st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.just(math.nan))


@settings(max_examples=400, deadline=None)
# c-stbh once checked lambda only when some p-value lay at or below tau
@example(methods=["c-stbh"], p=[0.9, 0.8], q=0.1, tau=0.5, lambda_storey=1.5,
         lambda_discard=0.25)
# d-stbh's pi0 once overflowed with a warning when tau - lambda was subnormal
@example(methods=["d-stbh"], p=[0.0], q=0.5, tau=5e-324, lambda_storey=math.nan,
         lambda_discard=0.0)
@given(methods=st.lists(st.sampled_from(METHOD_NAMES), max_size=6),
       p=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
       q=_setting, tau=_setting, lambda_storey=_setting, lambda_discard=_setting)
def test_check_methods_raises_as_run_methods_does(methods, p, q, tau, lambda_storey,
                                                  lambda_discard):
    # the one-value probe stands for any data: it raises when and as the
    # procedures would on a real p-vector, and nothing but ValueError escapes
    p = PValueVector(np.array(p))
    config = (q, tau, lambda_storey, lambda_discard)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _error_of(run_methods, methods, p, p, *config)
        assert _error_of(sim.check_methods, methods, *config) == expected


def test_run_scenario_failure_causes(monkeypatch):
    """Replications whose fits all fail numerically are tallied; a
    programming error in a fit propagates instead of being counted."""
    scenario = SimScenario(null_prior=TwoPointPrior(0.5), m=200, n_reps=2)

    def raising(exc):
        def fit(*args, **kwargs):
            raise exc
        return fit

    for name in ("fit_gaussian", "fit_skew_normal", "fit_mixture"):
        monkeypatch.setattr(nm, name, raising(ValueError("no fit")))
    summary = run_scenario(scenario, methods=("bh", "proposed"))
    assert summary.n_failures == 2
    assert summary.n_reps_used == 0

    monkeypatch.setattr(nm, "fit_skew_normal", raising(TypeError("bug")))
    with pytest.raises(TypeError):
        run_scenario(scenario, methods=("bh", "proposed"))


# ---------------------------------------------------------------------------
# diagnostics


def test_pvalue_histogram_bin_conventions():
    # one value per bin center
    centers = np.arange(0.01, 1.0, 0.02)
    counts = pvalue_histogram(centers, bins=50)
    assert counts.tolist() == [1] * 50
    # boundary values land in the lower bin; 0.02 is the edge of bin 0
    assert pvalue_histogram(np.array([0.02]), bins=50)[0] == 1
    assert pvalue_histogram(np.array([0.0, 1.0]), bins=4).tolist() == [1, 0, 0, 1]


def test_pvalue_histogram_validation_and_empty():
    assert pvalue_histogram(np.array([]), bins=3).tolist() == [0, 0, 0]
    counts = pvalue_histogram(
        PValueVector(values=np.array([0.1, 0.9])), bins=2
    )
    assert counts.tolist() == [1, 1]
    with pytest.raises(ValueError):
        pvalue_histogram(np.array([0.5]), bins=0)
    with pytest.raises(ValueError):
        pvalue_histogram(np.array([1.5]), bins=10)

