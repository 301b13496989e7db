"""An independent optimum of the truncated mixture log-likelihood.

The tests judge ``fit_mixture`` against this reference, which shares no
code with ``ebnull`` and certifies itself.  On a fixed grid of atoms mu_k
and a cut xi, the truncated log-likelihood of the tilted weights eta is

    L(eta) = sum_i log sum_k eta_k phi(z_i - mu_k) / Phi(xi - mu_k),

concave over the simplex.  Plain EM steps from uniform weights find the
atoms that carry weight; Newton's method in a trust region
(``scipy.optimize.minimize(method="trust-exact")``) then maximizes
L(x) - n sum(x) over x = exp(theta) on those atoms, whose maximizer sums to
1 and so maximizes L on the simplex.  The certificate is the KKT gap over
every atom of the grid, ``max_k dL/deta_k - n``: by concavity, no weights
on the grid reach more than L(eta) plus the gap.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm

EM_STEPS = 500
# atoms whose weight after the EM steps is at least this share of the
# largest weight form the support the Newton stage runs on
SUPPORT_SHARE = 1e-6


def mixture_optimum(z0, xi, grid):
    """The exact log-likelihood the reference weights reach on the points
    ``z0``, all at or below ``xi``, and their KKT gap over ``grid``, both in
    nats and from scipy densities."""
    cols = norm.pdf(z0[:, None] - grid[None, :]) / norm.cdf(xi - grid)[None, :]
    n, k = cols.shape
    eta = np.full(k, 1.0 / k)
    for _ in range(EM_STEPS):
        eta *= cols.T @ (1.0 / (cols @ eta)) / n
    support = eta >= SUPPORT_SHARE * eta.max()
    sub = cols[:, support]

    def objective(theta):
        x = np.exp(theta)
        d = sub @ x
        return n * x.sum() - np.log(d).sum(), x * (n - sub.T @ (1.0 / d))

    def hessian(theta):
        x = np.exp(theta)
        d = sub @ x
        scaled = sub / d[:, None]
        return (np.diag(x * (n - scaled.sum(axis=0)))
                + x[:, None] * (scaled.T @ scaled) * x[None, :])

    # the iterations end where rounding stops the progress; the gap below,
    # not the solver's own status, says how close they came
    theta = minimize(objective, np.log(eta[support]), jac=True, hess=hessian,
                     method="trust-exact",
                     options={"gtol": 1e-10, "maxiter": 500}).x
    eta = np.zeros(k)
    eta[support] = np.exp(theta)
    eta /= eta.sum()
    d = cols @ eta
    return float(np.log(d).sum()), float((cols.T @ (1.0 / d)).max()) - n
