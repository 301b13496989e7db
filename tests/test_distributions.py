"""Distribution helpers against high-precision reference values.

Frozen constants were computed with mpmath at 40 significant digits
(normal cdf via mp.ncdf, Owen's T by direct quadrature of its integral
definition).  The Owen's T checks run against
``scipy.special.owens_t``, the kernel that ``skew_normal_cdf`` and the
skew-normal fit call.  The skew-normal with sigma0 = 0 is N(0, 1), so the
standard-normal constants check ``skew_normal_sf`` at that shape.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, owens_t
from scipy.stats import skewnorm

from ebnull.distributions import (
    mills_ratio,
    skew_normal_cdf,
    skew_normal_sf,
)


def test_std_normal_point_values():
    # P(Z >= -1.3) = Phi(1.3) for Z ~ N(0, 1)
    assert skew_normal_sf(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert skew_normal_sf(-1.3, 0.0) == pytest.approx(0.90319951541438966685,
                                                      rel=1e-14)


def test_std_normal_vectorized():
    z = np.array([-2.0, 0.0, 1.5])
    out = skew_normal_sf(z, 0.0)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


def test_mills_ratio_reference_values():
    # phi(x) / Phi(x), the lower-tail hazard
    assert mills_ratio(0.0) == pytest.approx(np.sqrt(2 / np.pi), rel=1e-14)
    assert mills_ratio(-30.0) == pytest.approx(30.033259667433677037, rel=1e-12)
    assert mills_ratio(5.0) == pytest.approx(1.4867199409049057124e-6, rel=1e-12)


def test_mills_ratio_deep_tail_stays_finite():
    x = np.array([-500.0, -100.0, -50.0])
    r = mills_ratio(x)
    assert np.all(np.isfinite(r))
    # asymptotically |x| + 1/|x| for x -> -inf
    np.testing.assert_allclose(r, -x + 1.0 / -x, rtol=1e-3)


def test_owens_t_reference_values():
    assert owens_t(0.5, 0.75) == pytest.approx(0.088549214021517833418, rel=1e-12)
    assert owens_t(1.2, -0.3) == pytest.approx(-0.02211138752326336908, rel=1e-12)
    assert owens_t(2.0, 1.0) == pytest.approx(0.011116281722259821475, rel=1e-12)


def test_owens_t_identities():
    # T(0, a) = arctan(a) / (2 pi)
    for a in (0.3, 0.7, 2.5):
        assert owens_t(0.0, a) == pytest.approx(np.arctan(a) / (2 * np.pi),
                                                rel=1e-13)
    # T(h, 1) = Phi(h) (1 - Phi(h)) / 2
    for h in (-1.0, 0.4, 2.2):
        p = ndtr(h)
        assert owens_t(h, 1.0) == pytest.approx(p * (1 - p) / 2, rel=1e-12)
    # odd in a, even in h
    assert owens_t(0.8, -0.6) == pytest.approx(-owens_t(0.8, 0.6), rel=1e-13)
    assert owens_t(-0.8, 0.6) == pytest.approx(owens_t(0.8, 0.6), rel=1e-13)


def test_owens_t_matches_quadrature():
    def direct(h, a):
        val, _ = quad(lambda x: np.exp(-h * h * (1 + x * x) / 2) / (1 + x * x),
                      0.0, a)
        return val / (2 * np.pi)

    for h, a in [(0.1, 0.9), (1.5, -2.0), (3.0, 0.5)]:
        assert owens_t(h, a) == pytest.approx(direct(h, a), rel=1e-10)


def test_skew_normal_reference_values():
    # the law of mu + e with mu = -|N(0, sigma0^2)|, e ~ N(0, 1): 40-digit
    # quadrature of Phi(x - mu) against the half-normal density of mu
    assert skew_normal_cdf(1.0, 2.0) == pytest.approx(0.96815111844170462376,
                                                      rel=1e-12)
    assert skew_normal_cdf(-0.5, 0.5) == pytest.approx(0.45986019407653985953,
                                                       rel=1e-12)
    assert skew_normal_cdf(-3.0, 1.4) == pytest.approx(0.080997971045241916551,
                                                       rel=1e-12)


def test_skew_normal_zero_shape_is_normal():
    z = np.array([-3.0, 0.0, 1.7])
    np.testing.assert_allclose(skew_normal_cdf(z, 0.0), ndtr(z), rtol=1e-12)


def test_skew_normal_at_location():
    # at x = location = 0, with shape -sigma0: cdf = 1/2 + arctan(sigma0)/pi
    for sigma0 in (0.5, 2.0, 4.0):
        assert skew_normal_cdf(0.0, sigma0) == pytest.approx(
            0.5 + np.arctan(sigma0) / np.pi, rel=1e-12
        )


def test_skew_normal_pdf_integrates_to_cdf():
    # the integrand is scipy's skew-normal density, an independent oracle
    sigma0 = 1.8
    dist = skewnorm(-sigma0, scale=np.sqrt(1.0 + sigma0**2))
    part, _ = quad(dist.pdf, -np.inf, 0.7)
    assert skew_normal_cdf(0.7, sigma0) == pytest.approx(part, abs=1e-9)
    tail, _ = quad(dist.pdf, 0.7, np.inf)
    assert skew_normal_sf(0.7, sigma0) == pytest.approx(tail, abs=1e-9)


def test_scalar_in_scalar_out():
    assert isinstance(mills_ratio(-1.0), float)
    assert isinstance(skew_normal_cdf(0.3, 1.0), float)
    assert isinstance(skew_normal_sf(0.3, 1.0), float)
    assert isinstance(skew_normal_sf(np.array([0.3]), 1.0), np.ndarray)
