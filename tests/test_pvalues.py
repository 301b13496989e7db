"""P-value construction from statistics and fitted null laws."""

import numpy as np
import pytest
from scipy.stats import norm

from ebnull.nullmodel import GaussianNull, MixtureNull, NullModel, StatSample
from ebnull.pvalues import (
    PValueVector,
    eb_pvalues,
    oracle_pvalues,
    standard_pvalues,
)


def test_standard_pvalues_values():
    s = StatSample(values=[0.0, 1.959963984540054, -1.0, 1.0])
    p = standard_pvalues(s)
    assert p.kind == "standard"
    assert p.values[0] == pytest.approx(0.5, abs=1e-15)
    assert p.values[1] == pytest.approx(0.025, rel=1e-12)
    # symmetric statistics give p-values summing to one
    assert p.values[2] + p.values[3] == pytest.approx(1.0, abs=1e-14)


def test_standard_pvalues_decreasing_in_z():
    rng = np.random.default_rng(0)
    z = np.sort(rng.normal(size=100))
    p = standard_pvalues(StatSample(values=z))
    assert np.all(np.diff(p.values) <= 0.0)


def test_oracle_pvalues_uses_supplied_cdf():
    s = StatSample(values=[-1.0, 0.5, 2.0])
    p = oracle_pvalues(s, lambda z: norm.cdf(z, loc=-1.0))
    expected = 1.0 - norm.cdf(s.values, loc=-1.0)
    np.testing.assert_allclose(p.values, expected, rtol=1e-12)
    assert p.kind == "oracle"


def test_eb_pvalues_from_fitted_model():
    variant = GaussianNull(mu0=-0.8, loglik=0.0, iterations=1, converged=True)
    model = NullModel(variant=variant, cut_xi=1.0, n_truncated=5)
    s = StatSample(values=[0.0, 2.0, -3.0])
    p = eb_pvalues(s, model)
    np.testing.assert_allclose(p.values, 1.0 - norm.cdf(s.values + 0.8),
                               rtol=1e-12)
    assert p.kind == "empirical_bayes"
    # shifting the null left makes every p-value smaller than the standard one
    assert np.all(p.values <= standard_pvalues(s).values)


def test_eb_pvalues_stay_positive_in_the_right_tail():
    # 1 - F0_hat(20) rounds to 0; the survival function keeps the tail
    gauss = GaussianNull(mu0=-0.8, loglik=0.0, iterations=1, converged=True)
    mix = MixtureNull(grid=np.array([-2.0, 0.0]), weights_p=np.array([0.4, 0.6]),
                      weights_eta=np.array([0.5, 0.5]), loglik=0.0,
                      iterations=1, converged=True, kkt_gap=0.0)
    s = StatSample(values=[20.0])
    for variant, expected in ((gauss, norm.sf(20.8)),
                              (mix, 0.4 * norm.sf(22.0) + 0.6 * norm.sf(20.0))):
        p = eb_pvalues(s, NullModel(variant=variant, cut_xi=1.0, n_truncated=5))
        assert p.values[0] > 0.0
        assert p.values[0] == pytest.approx(expected, rel=1e-12)


def test_pvalue_vector_validation():
    with pytest.raises(ValueError):
        PValueVector(values=np.array([0.1, 1.5]), kind="standard")
    with pytest.raises(ValueError):
        PValueVector(values=np.array([-0.01]), kind="standard")
    with pytest.raises(ValueError):
        PValueVector(values=np.array([0.1]), kind="mystery")
    with pytest.raises(ValueError):
        PValueVector(values=np.array([[0.1]]), kind="standard")


def test_pvalues_stay_in_unit_interval():
    rng = np.random.default_rng(1)
    s = StatSample(values=rng.normal(scale=5.0, size=500))
    variant = GaussianNull(mu0=-2.0, loglik=0.0, iterations=1, converged=True)
    model = NullModel(variant=variant, cut_xi=1.0, n_truncated=5)
    for p in (standard_pvalues(s), eb_pvalues(s, model)):
        assert np.all(p.values >= 0.0)
        assert np.all(p.values <= 1.0)
