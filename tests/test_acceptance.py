"""Acceptance checks for the full pipeline, one test per criterion.

Criteria 1-4 share two Monte Carlo grids (six two-point settings and six
one-sided-prior settings, 200 replications each at m = 5000), so this
module takes several minutes.  Every test prints a single
``[criterion N] PASS/FAIL`` line with capture disabled, so the lines
appear even under pytest's default output capture.

Oracle notes: the extended-skew-normal identity of criterion 6 was
cross-checked against mpmath quadrature while freezing the tolerances;
the grid oracles of criterion 7 and the brute-force scans of criterion 8
are computed inline from first principles, sharing no code with the
implementations under test.  Criterion 7's mixture reference is
``mixture_oracle.mixture_optimum``, which shares none either: 500 plain
EM steps from uniform weights pick the atoms with weight, a trust-region
Newton solve from scipy maximizes the exact-data log-likelihood on them,
and the KKT gap over the whole grid, from scipy densities, certifies how
far that is from the optimum.  The criterion asserts the certificate too.
"""

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import kstest, norm

from ebnull.nullmodel import (
    StatSample,
    fit_gaussian,
    fit_mixture,
    fit_skew_normal,
    resolve_cut,
    select_null,
)
from ebnull.procedures import bh, c_storey_bh, d_storey_bh, storey_bh
from ebnull.pvalues import eb_pvalues, standard_pvalues
from ebnull.simulate import (
    HalfNormalPrior,
    SimScenario,
    TwoPointPrior,
    generate,
    run_scenario,
)
from mixture_oracle import mixture_optimum

Q = 0.1
N_REPS = 200
BASE_SEED = 0
RHO_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SIGMA0_GRID = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
METHODS = ("stbh", "c-stbh", "d-stbh", "proposed")


@pytest.fixture()
def report(capsys):
    def _do(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
                  flush=True)
    return _do


def _diff_se(a, b) -> float:
    """Standard error of a difference of two Monte Carlo means."""
    return float(np.hypot(a, b))


@pytest.fixture(scope="module")
def rho_runs():
    runs = {}
    for rho in RHO_GRID:
        scenario = SimScenario(null_prior=TwoPointPrior(rho), m=5000, pi0=0.9,
                               q=Q, n_reps=N_REPS, base_seed=BASE_SEED)
        summary = run_scenario(scenario, methods=METHODS)
        assert summary.n_failures == 0
        runs[rho] = summary
    return runs


@pytest.fixture(scope="module")
def sigma_runs():
    runs = {}
    for sigma0 in SIGMA0_GRID:
        scenario = SimScenario(null_prior=HalfNormalPrior(sigma0), m=5000,
                               pi0=0.9, q=Q, n_reps=N_REPS, base_seed=BASE_SEED)
        summary = run_scenario(scenario, methods=METHODS)
        assert summary.n_failures == 0
        runs[sigma0] = summary
    return runs


# ---------------------------------------------------------------------------
# criteria 1-4: error rates on the simulation grids


def test_criterion_1_fdr_control_two_point(rho_runs, report):
    failures = []
    worst = -np.inf
    for rho, summary in rho_runs.items():
        for method in METHODS:
            s = summary.methods[method]
            excess = s.fdr - (Q + 3.0 * s.fdr_se)
            worst = max(worst, excess)
            if excess > 0.0:
                failures.append(f"{method} at rho={rho}: fdr={s.fdr:.4f} "
                                f"se={s.fdr_se:.4f}")
    ok = not failures
    report(1, ok, f"two-point FDR <= q + 3 SE for all methods/settings "
                   f"(worst excess {worst:+.4f})"
                   + ("" if ok else f"; violations: {failures}"))
    assert ok, failures


def test_criterion_2_power_ordering_two_point(rho_runs, report):
    at1 = rho_runs[1.0].methods
    gain = at1["proposed"].tpr - at1["stbh"].tpr
    gain_se = _diff_se(at1["proposed"].tpr_se, at1["stbh"].tpr_se)
    ok_gain = gain >= 5.0 * gain_se

    at0 = rho_runs[0.0].methods
    close = abs(at0["proposed"].tpr - at0["stbh"].tpr)
    close_se = _diff_se(at0["proposed"].tpr_se, at0["stbh"].tpr_se)
    ok_close = close <= 3.0 * close_se

    ok = ok_gain and ok_close
    report(2, ok, f"TPR gain at rho=1: {gain:.4f} vs 5 SE={5 * gain_se:.4f}; "
                   f"|gap| at rho=0: {close:.4f} vs 3 SE={3 * close_se:.4f}")
    assert ok


def test_criterion_3_stbh_power_decreases(rho_runs, report):
    tpr0 = rho_runs[0.0].methods["stbh"]
    tpr1 = rho_runs[1.0].methods["stbh"]
    drop = tpr0.tpr - tpr1.tpr
    se = _diff_se(tpr0.tpr_se, tpr1.tpr_se)
    ok = drop >= 3.0 * se
    report(3, ok, f"StBH TPR drop from rho=0 to rho=1: {drop:.4f} "
                   f"vs 3 SE={3 * se:.4f}")
    assert ok


def test_criterion_4_half_normal_grid(sigma_runs, report):
    failures = []
    worst = -np.inf
    for sigma0, summary in sigma_runs.items():
        for method in METHODS:
            s = summary.methods[method]
            excess = s.fdr - (Q + 3.0 * s.fdr_se)
            worst = max(worst, excess)
            if excess > 0.0:
                failures.append(f"{method} at sigma0={sigma0}: fdr={s.fdr:.4f}")
    at2 = sigma_runs[2.0].methods
    gain = at2["proposed"].tpr - at2["stbh"].tpr
    gain_se = _diff_se(at2["proposed"].tpr_se, at2["stbh"].tpr_se)
    ok = not failures and gain >= 5.0 * gain_se
    report(4, ok, f"one-sided-prior FDR worst excess {worst:+.4f}; TPR gain "
                   f"at sigma0=2: {gain:.4f} vs 5 SE={5 * gain_se:.4f}"
                   + ("" if not failures else f"; violations: {failures}"))
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: calibration of null p-values


def _ks_calibration(prior, n_reps=100):
    scenario = SimScenario(null_prior=prior, m=5000, pi0=0.9, q=Q,
                           n_reps=n_reps, base_seed=BASE_SEED)
    eb_ok = std_bad = 0
    for rep in range(n_reps):
        sample = generate(scenario, rep)
        model = select_null(sample)
        nulls = ~sample.is_alt
        crit = 1.63 / np.sqrt(int(nulls.sum()))
        p_eb = eb_pvalues(sample, model).values[nulls]
        p_std = standard_pvalues(sample).values[nulls]
        eb_ok += kstest(p_eb, "uniform").statistic < crit
        std_bad += kstest(p_std, "uniform").statistic > crit
    return eb_ok / n_reps, std_bad / n_reps


def test_criterion_5_ks_calibration(report):
    results = {
        "two-point rho=1": _ks_calibration(TwoPointPrior(1.0)),
        "one-sided sigma0=2": _ks_calibration(HalfNormalPrior(2.0)),
    }
    ok = all(eb >= 0.80 and std >= 0.99 for eb, std in results.values())
    detail = "; ".join(f"{name}: fitted-null pass {eb:.0%}, standard exceed "
                       f"{std:.0%}" for name, (eb, std) in results.items())
    report(5, ok, detail + " (need >= 80% / >= 99%)")
    assert ok, results


# ---------------------------------------------------------------------------
# criterion 6: marginal-density identity for the truncated Gaussian prior


def _marginal_by_quadrature(z, mu0, sigma0):
    zeta = -mu0 / sigma0
    denom = norm.cdf(zeta)
    val, _ = quad(
        lambda mu: norm.pdf(z - mu) * norm.pdf((mu - mu0) / sigma0)
        / (sigma0 * denom),
        -np.inf, 0.0, limit=200,
    )
    return val


def _marginal_closed_form(z, mu0, sigma0):
    omega = np.sqrt(1.0 + sigma0**2)
    alpha = -sigma0
    zeta = -mu0 / sigma0
    alpha0 = zeta * np.sqrt(1.0 + alpha**2)
    t = (z - mu0) / omega
    return norm.pdf(t) / omega * norm.cdf(alpha0 + alpha * t) / norm.cdf(zeta)


def test_criterion_6_marginal_identity(report):
    worst = 0.0
    for sigma0 in (0.5, 1.0, 2.0):
        for mu0 in (0.0, -0.5):
            for z in np.linspace(-8.0, 8.0, 41):
                gap = abs(_marginal_by_quadrature(z, mu0, sigma0)
                          - _marginal_closed_form(z, mu0, sigma0))
                worst = max(worst, gap)
    ok = worst <= 1e-8
    report(6, ok, f"quadrature vs closed form, worst abs gap {worst:.2e} "
                   f"(tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: estimators against grid-search and EM oracles


def _c7_datasets():
    datasets = []
    for seed in range(20):
        rng = np.random.default_rng((999, seed))
        m = 1500
        if seed % 2 == 0:
            rho = 0.1 + 0.045 * seed
            null_means = np.where(rng.random(m) < rho, -1.0, 0.0)
        else:
            sigma0 = 0.8 + 0.07 * seed
            null_means = -np.abs(rng.normal(0.0, sigma0, m))
        is_alt = rng.random(m) < 0.1
        values = np.where(is_alt, 3.0, null_means) + rng.standard_normal(m)
        xi = resolve_cut(StatSample(values=values))
        datasets.append((values, xi, values[values <= xi]))
    return datasets


def _gauss_grid_oracle(z0, xi):
    def loglik(mu_grid):
        out = np.empty(mu_grid.size)
        for start in range(0, mu_grid.size, 512):
            mu = mu_grid[start:start + 512]
            terms = norm.logpdf(z0[None, :] - mu[:, None]).sum(axis=1)
            out[start:start + 512] = terms - z0.size * norm.logcdf(xi - mu)
        return out

    zbar = z0.mean()
    coarse = np.arange(zbar - 2.0, min(xi, zbar + 2.0), 1e-3)
    center = coarse[int(np.argmax(loglik(coarse)))]
    fine = np.arange(center - 2e-3, center + 2e-3, 1e-5)
    return float(fine[int(np.argmax(loglik(fine)))])


def _skew_grid_oracle(z0, xi):
    etas = np.arange(-6.0, 3.0 + 1e-12, 1e-3)
    best_eta, best_ll = None, -np.inf
    for start in range(0, etas.size, 300):
        eta = etas[start:start + 300]
        sigma0 = np.exp(eta)
        omega = np.sqrt(1.0 + sigma0**2)
        ll = (
            z0.size * (np.log(2.0) - np.log(omega))
            + norm.logpdf(z0[None, :] / omega[:, None]).sum(axis=1)
            + special.log_ndtr(-sigma0[:, None] * z0[None, :]
                               / omega[:, None]).sum(axis=1)
        )
        h = xi / omega
        cdf_xi = special.ndtr(h) - 2.0 * special.owens_t(h, -sigma0)
        ll -= z0.size * np.log(np.maximum(cdf_xi, 1e-300))
        j = int(np.argmax(ll))
        if ll[j] > best_ll:
            best_ll, best_eta = float(ll[j]), float(eta[j])
    return best_eta


def test_criterion_7_estimator_oracles(report):
    gauss_worst = skew_worst = mix_worst = oracle_gap = -np.inf
    for values, xi, z0 in _c7_datasets():
        g = fit_gaussian(values, xi)
        gauss_worst = max(gauss_worst,
                          abs(g.mu0 - min(_gauss_grid_oracle(z0, xi), 0.0)))

        s = fit_skew_normal(values, xi)
        skew_worst = max(skew_worst, abs(s.eta - _skew_grid_oracle(z0, xi)))

        mix = fit_mixture(values, xi)
        reference, gap = mixture_optimum(z0, xi, mix.grid)
        mix_worst = max(mix_worst, reference - mix.loglik)
        oracle_gap = max(oracle_gap, gap)

    ok = (gauss_worst <= 1e-4 and skew_worst <= 1e-2 and mix_worst <= 1e-6
          and oracle_gap <= 1e-6)
    report(7, ok, f"oracle gaps: location {gauss_worst:.2e} (tol 1e-4), "
                   f"log-spread {skew_worst:.2e} (tol 1e-2), mixture "
                   f"objective {mix_worst:+.2e} (tol 1e-6) against an optimum "
                   f"certified to {oracle_gap:.2e} nats (tol 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: procedures against brute-force threshold scans


def _brute_force(vals, q, fdp_hat, candidates):
    best = None
    for s in candidates:
        if fdp_hat(s) <= q and (best is None or s > best):
            best = s
    if best is None:
        return set()
    return set(np.flatnonzero(vals <= best).tolist())


def _bf_all(vals, q, tau=0.5, lam=0.5, lam_d=0.25):
    m = len(vals)

    def count(s):
        return max(int(np.sum(vals <= s)), 1)

    out = {"bh": _brute_force(vals, q, lambda s: m * s / count(s), vals)}

    pi0_s = min(max((1 + np.sum(vals > lam)) / (m * (1 - lam)), 1 / m), 1.0)
    out["stbh"] = _brute_force(vals, q, lambda s: m * pi0_s * s / count(s), vals)

    keep = np.flatnonzero(vals <= tau)
    if keep.size == 0:
        out["c-stbh"] = set()
    else:
        sub = vals[keep] / tau
        msub = sub.size
        pi0_c = min(max((1 + np.sum(sub > lam)) / (msub * (1 - lam)),
                        1 / msub), 1.0)
        inner = _brute_force(
            sub, q,
            lambda s: msub * pi0_c * s / max(int(np.sum(sub <= s)), 1), sub
        )
        out["c-stbh"] = {int(keep[i]) for i in inner}

    pi0_d = (1 + np.sum((vals > lam_d) & (vals <= tau))) / (m * (tau - lam_d))
    out["d-stbh"] = _brute_force(
        vals, q, lambda s: m * pi0_d * s / count(s),
        [0.0] + [v for v in vals if v <= tau]
    )
    return out


def test_criterion_8_brute_force_agreement(report):
    rng = np.random.default_rng(4242)
    mismatches = []
    for trial in range(1000):
        m = int(rng.integers(1, 13))
        vals = rng.random(m)
        shrink = rng.random(m) < 0.35
        vals[shrink] *= 0.03
        if rng.random() < 0.1:
            vals[int(rng.integers(m))] = float(rng.integers(2))  # exact 0 or 1
        if m > 1 and rng.random() < 0.2:
            vals[int(rng.integers(m))] = vals[int(rng.integers(m))]  # ties
        q = float(rng.uniform(0.02, 0.4))

        expected = _bf_all(vals, q)
        got = {
            "bh": set(bh(vals, q).rejected.tolist()),
            "stbh": set(storey_bh(vals, q).rejected.tolist()),
            "c-stbh": set(c_storey_bh(vals, q).rejected.tolist()),
            "d-stbh": set(d_storey_bh(vals, q).rejected.tolist()),
        }
        for name in expected:
            if expected[name] != got[name]:
                mismatches.append((trial, name, vals.tolist(), q))
    ok = not mismatches
    report(8, ok, f"1000 random instances, exact rejection-set match for "
                   f"all four procedures"
                   + ("" if ok else f"; first mismatches: {mismatches[:3]}"))
    assert ok, mismatches[:5]


# ---------------------------------------------------------------------------
# criterion 9: convexity of the p-value transform


def test_criterion_9_transform_convexity(report):
    worst = np.inf
    for prior in (TwoPointPrior(0.5), HalfNormalPrior(1.0)):
        x = np.linspace(0.002, 0.998, 200)
        h = prior.marginal_sf(special.ndtri(1.0 - x))
        worst = min(worst, float(np.diff(h, n=2).min()))
    ok = worst >= -1e-10
    report(9, ok, f"second differences of the exactness transform >= "
                   f"{worst:.2e} (tol -1e-10)")
    assert ok
