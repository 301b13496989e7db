"""P-value construction from statistics and fitted null laws."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from ebnull.nullmodel import GaussianNull, MixtureNull, NullModel, StatSample, select_null
from ebnull.procedures import bh, c_storey_bh, d_storey_bh, storey_bh, storey_pi0
from ebnull.pvalues import PValueVector, eb_pvalues, standard_pvalues
from ebnull.simulate import (HalfNormalPrior, SimScenario, TwoPointPrior, generate,
                             pvalue_histogram)


def test_standard_pvalues_values():
    s = StatSample(values=[0.0, 1.959963984540054, -1.0, 1.0])
    p = standard_pvalues(s)
    assert p.values[0] == pytest.approx(0.5, abs=1e-15)
    assert p.values[1] == pytest.approx(0.025, rel=1e-12)
    # symmetric statistics give p-values summing to one
    assert p.values[2] + p.values[3] == pytest.approx(1.0, abs=1e-14)


def test_standard_pvalues_decreasing_in_z():
    rng = np.random.default_rng(0)
    z = np.sort(rng.normal(size=100))
    p = standard_pvalues(StatSample(values=z))
    assert np.all(np.diff(p.values) <= 0.0)


def test_eb_pvalues_from_fitted_model():
    variant = GaussianNull(mu0=-0.8, loglik=0.0, iterations=1, converged=True)
    model = NullModel(variant=variant, cut_xi=1.0, n_truncated=5)
    s = StatSample(values=[0.0, 2.0, -3.0])
    p = eb_pvalues(s, model)
    np.testing.assert_allclose(p.values, 1.0 - norm.cdf(s.values + 0.8),
                               rtol=1e-12)
    # shifting the null left makes every p-value smaller than the standard one
    assert np.all(p.values <= standard_pvalues(s).values)


def test_eb_pvalues_stay_positive_in_the_right_tail():
    # 1 - F0_hat(20) rounds to 0; the survival function keeps the tail
    gauss = GaussianNull(mu0=-0.8, loglik=0.0, iterations=1, converged=True)
    mix = MixtureNull(grid=np.array([-2.0, 0.0]), weights_p=np.array([0.4, 0.6]),
                      weights_eta=np.array([0.5, 0.5]), loglik=0.0,
                      iterations=1, converged=True, kkt_gap=0.0,
                      tail_mass=0.0)
    s = StatSample(values=[20.0])
    for variant, expected in ((gauss, norm.sf(20.8)),
                              (mix, 0.4 * norm.sf(22.0) + 0.6 * norm.sf(20.0))):
        p = eb_pvalues(s, NullModel(variant=variant, cut_xi=1.0, n_truncated=5))
        assert p.values[0] > 0.0
        assert p.values[0] == pytest.approx(expected, rel=1e-12)


def test_pvalue_vector_validation():
    with pytest.raises(ValueError):
        PValueVector(values=np.array([0.1, 1.5]))
    with pytest.raises(ValueError):
        PValueVector(values=np.array([-0.01]))
    with pytest.raises(ValueError):
        PValueVector(values=np.array([[0.1]]))
    # NaN fails every comparison, so a range test written as "min < 0 or
    # max > 1" would let it through
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        PValueVector(values=np.array([0.001, np.nan, 0.5, 0.002]))
    assert PValueVector([0.0, 0.25, 1.0]).values.dtype == float


@pytest.mark.parametrize("consumer", [
    lambda p: bh(p, 0.1),
    lambda p: storey_bh(p, 0.1),
    lambda p: c_storey_bh(p, 0.1),
    lambda p: d_storey_bh(p, 0.1),
    storey_pi0,
    pvalue_histogram,
], ids=["bh", "storey_bh", "c_storey_bh", "d_storey_bh", "storey_pi0",
        "pvalue_histogram"])
@pytest.mark.parametrize("raw, message", [
    (np.array([0.2, -0.1]), r"p-values must lie in \[0, 1\]"),
    (np.array([0.2, 1.5]), r"p-values must lie in \[0, 1\]"),
    (np.array([0.2, np.nan]), r"p-values must lie in \[0, 1\]"),
    (np.array([[0.2, 0.3]]), "p-values must form a one-dimensional vector"),
], ids=["negative", "above-one", "nan", "two-d"])
def test_raw_pvalues_get_the_container_checks(consumer, raw, message):
    # a raw vector is checked as a PValueVector is, by every consumer
    with pytest.raises(ValueError, match=message):
        PValueVector(raw)
    with pytest.raises(ValueError, match=message):
        consumer(raw)


def test_pvalues_stay_in_unit_interval():
    rng = np.random.default_rng(1)
    s = StatSample(values=rng.normal(scale=5.0, size=500))
    variant = GaussianNull(mu0=-2.0, loglik=0.0, iterations=1, converged=True)
    model = NullModel(variant=variant, cut_xi=1.0, n_truncated=5)
    for p in (standard_pvalues(s), eb_pvalues(s, model)):
        assert np.all(p.values >= 0.0)
        assert np.all(p.values <= 1.0)


# small samples of every awkward shape: huge |z|, ties, constant vectors and
# samples with nothing below zero
_huge = st.floats(min_value=-1e300, max_value=1e300)
_tied = st.sampled_from([-1e300, -2.0, -1.0, 0.0, 1.0, 3.0, 1e300])
_samples = st.one_of(
    st.lists(st.one_of(_huge, st.floats(min_value=-10.0, max_value=10.0), _tied),
             min_size=2, max_size=10),
    st.lists(_tied, min_size=2, max_size=10),
    st.builds(lambda z, m: [z] * m, st.one_of(_huge, _tied), st.integers(2, 10)),
    st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2, max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(z=_samples)
def test_fitted_pvalues_feed_every_procedure(z):
    # from a sample to the four step-ups: a ValueError from the fit, or
    # p-values in [0, 1] and sorted, in-range rejections; nothing else is
    # raised and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = select_null(z)
        except ValueError:
            return
        p = eb_pvalues(z, model)
        assert np.all((p.values >= 0.0) & (p.values <= 1.0))
        for procedure in (bh, storey_bh, c_storey_bh, d_storey_bh):
            rejected = procedure(p, 0.1).rejected
            assert np.all(np.diff(rejected) > 0)
            assert np.all((rejected >= 0) & (rejected < len(z)))


_priors = st.one_of(st.builds(TwoPointPrior, st.floats(min_value=0.0, max_value=1.0)),
                    st.builds(HalfNormalPrior, st.floats(min_value=0.5, max_value=3.0)))


@settings(max_examples=40, deadline=None)
@given(prior=_priors, m=st.integers(500, 2000), seed=st.integers(0, 2**16),
       far=st.lists(st.floats(min_value=1.0, max_value=6.0), min_size=1, max_size=3))
@example(prior=TwoPointPrior(0.8), m=2000, seed=7000, far=[2.0])
def test_fitted_pvalues_feed_every_procedure_with_far_nulls(prior, m, seed, far):
    # simulated statistics plus 1-3 nulls at -10**far, log-uniform in
    # [-1e6, -10]: the mixture still fits, no warning escapes, and the
    # fitted-null p-values feed the four step-ups
    sample = generate(SimScenario(prior, m=m, base_seed=seed), 0)
    z = np.append(sample.values, -(10.0 ** np.asarray(far)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = select_null(z)
        assert model.family_logliks["mixture"] is not None
        p = eb_pvalues(z, model)
        assert np.all((p.values >= 0.0) & (p.values <= 1.0))
        for procedure in (bh, storey_bh, c_storey_bh, d_storey_bh):
            rejected = procedure(p, 0.1).rejected
            assert np.all(np.diff(rejected) > 0)
            assert np.all((rejected >= 0) & (rejected < z.size))
