"""Distribution kernels used by the null-model fits.

Everything here is elementary: the Mills ratio, and the distribution and
survival functions of the skew-normal family that arises when a one-sided
Gaussian prior is convolved with unit Gaussian noise.  Heavy lifting, Owen's
T included, is delegated to ``scipy.special``; the functions exist to pin
down conventions (the skew-normal's scale and shape, log-space evaluation)
in one place.  Each is a numpy expression: an array in gives an array of
the same shape out, and a scalar gives an ``np.float64``, a ``float``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_LOG_2PI = float(np.log(2.0 * np.pi))


def mills_ratio(x):
    """phi(x) / Phi(x), evaluated in log space.

    The direct quotient underflows for x below roughly -37; the log-space
    form stays accurate over the whole real line (for x -> -inf the ratio
    grows like -x).
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (_LOG_2PI + x * x) - special.log_ndtr(x))


def skew_normal_cdf(x, sigma0):
    """Distribution function of mu + e with mu = -|N(0, sigma0^2)| and
    e ~ N(0, 1) independent.

    That law is the skew-normal with scale sqrt(1 + sigma0^2) and shape
    -sigma0, so the value is Phi(t) - 2 T(t, -sigma0) at
    t = x / sqrt(1 + sigma0^2).  Owen's T supplies the skew correction
    exactly; the result is clipped to [0, 1] to absorb the last-digit
    wobble of the subtraction.
    """
    x = np.asarray(x, dtype=float)
    t = x / math.sqrt(1.0 + sigma0 * sigma0)
    return np.clip(special.ndtr(t) - 2.0 * special.owens_t(t, -sigma0), 0.0, 1.0)


def skew_normal_sf(x, sigma0):
    """Survival function of the law of ``skew_normal_cdf``, computed as
    ``1 - skew_normal_cdf``: it loses relative accuracy in the far right
    tail and reads 0 once the distribution function rounds to 1."""
    return 1.0 - skew_normal_cdf(x, sigma0)
