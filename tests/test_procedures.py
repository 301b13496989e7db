"""Testing procedures against hand-worked examples and a brute-force
reference.

The brute-force route scans every observed p-value as a candidate
threshold and applies the estimated-FDP definitions directly; the
implementations under test use sorted step-up computations.  Rejection
sets must agree exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebnull.procedures import (
    ErrorMetrics,
    RejectionResult,
    bh,
    c_storey_bh,
    compute_metrics,
    d_storey_bh,
    storey_bh,
    storey_pi0,
)

# ---------------------------------------------------------------------------
# brute-force reference implementations


def _bf_threshold(vals, candidates, fdp_hat, q):
    best = None
    for s in candidates:
        if fdp_hat(s) <= q and (best is None or s > best):
            best = s
    return best


def bf_bh(vals, q):
    m = len(vals)
    thr = _bf_threshold(
        vals, vals, lambda s: m * s / max(np.sum(vals <= s), 1), q
    )
    if thr is None:
        return set()
    return set(np.flatnonzero(vals <= thr).tolist())


def bf_storey(vals, q, lam=0.5):
    m = len(vals)
    pi0 = (1 + np.sum(vals > lam)) / (m * (1 - lam))
    pi0 = min(max(pi0, 1 / m), 1.0)
    thr = _bf_threshold(
        vals, vals, lambda s: m * pi0 * s / max(np.sum(vals <= s), 1), q
    )
    if thr is None:
        return set()
    return set(np.flatnonzero(vals <= thr).tolist())


def bf_c_storey(vals, q, tau=0.5, lam=0.5):
    keep = np.flatnonzero(vals <= tau)
    if keep.size == 0:
        return set()
    inner = bf_storey(vals[keep] / tau, q, lam)
    return {int(keep[i]) for i in inner}


def bf_d_storey(vals, q, lam=0.25, tau=0.5):
    m = len(vals)
    pi0 = (1 + np.sum((vals > lam) & (vals <= tau))) / (m * (tau - lam))
    candidates = [0.0] + [v for v in vals if v <= tau]
    thr = _bf_threshold(
        vals, candidates, lambda s: m * pi0 * s / max(np.sum(vals <= s), 1), q
    )
    if thr is None:
        return set()
    return set(np.flatnonzero(vals <= thr).tolist())


# ---------------------------------------------------------------------------
# hand-worked examples


def test_bh_worked_example():
    r = bh(np.array([0.01, 0.02, 0.5, 0.9]), q=0.1)
    assert r.rejected.tolist() == [0, 1]
    assert r.threshold == 0.02
    assert r.pi0_hat == 1.0
    assert r.n_rejected == 2
    assert r.mask().tolist() == [True, True, False, False]


def test_bh_rejects_nothing():
    r = bh(np.array([0.2, 0.5, 0.9]), q=0.05)
    assert r.n_rejected == 0
    assert r.threshold == 0.0


def test_storey_pi0_worked_example():
    # 4 of 4 p-values above lambda=0.5: (1 + 4) / (4 * 0.5) = 2.5, uncapped
    assert storey_pi0(np.array([0.8, 0.9, 0.95, 0.99]), lam=0.5) == 2.5
    assert storey_pi0(np.array([0.1, 0.2]), lam=0.0) == 1.5
    with pytest.raises(ValueError):
        storey_pi0(np.array([]), lam=0.5)
    with pytest.raises(ValueError):
        storey_pi0(np.array([0.5]), lam=1.0)


def test_storey_bh_worked_example():
    p = np.array([0.001, 0.002, 0.003, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
    r = storey_bh(p, q=0.05, lam=0.5)
    # 4 of 10 above 0.5: pi0 = (1 + 4) / (10 * 0.5) = 1.0
    assert r.pi0_hat == 1.0
    assert r.rejected.tolist() == [0, 1, 2]
    assert r.threshold == 0.003


def test_storey_bh_clips_pi0():
    p = np.array([0.8, 0.9, 0.95, 0.99])
    r = storey_bh(p, q=0.1)
    assert r.pi0_hat == 1.0  # raw estimate 2.5 clipped down
    p_small = np.array([0.001, 0.002, 0.003, 0.004])
    r_small = storey_bh(p_small, q=0.1)
    assert r_small.pi0_hat == 0.5  # (1 + 0) / (4 * 0.5), within [1/m, 1]
    assert r_small.n_rejected == 4


def test_c_storey_bh_worked_example():
    p = np.array([0.01, 0.2, 0.3, 0.6, 0.7])
    r = c_storey_bh(p, q=0.1, tau=0.5, lam=0.5)
    # conditioned vector (0.02, 0.4, 0.6): one above 0.5 so pi0 clips to 1;
    # only 0.02 <= 1 * 0.1 / 3 passes; mapped back through index 0
    assert r.rejected.tolist() == [0]
    assert r.threshold == pytest.approx(0.01)
    assert r.m == 5


def test_c_storey_bh_nothing_conditioned():
    r = c_storey_bh(np.array([0.7, 0.9]), q=0.1, tau=0.5)
    assert r.n_rejected == 0
    assert r.pi0_hat == 1.0
    assert r.threshold == 0.0


def test_c_storey_bh_conditions_on_p_at_or_below_tau():
    # a p-value equal to tau is conditioned (to 1.0, raising the
    # conditioned length to 2), one just above it is not
    assert c_storey_bh(np.array([0.5, 0.026]), q=0.1, tau=0.5).rejected.tolist() == []
    r = c_storey_bh(np.array([0.50000001, 0.026]), q=0.1, tau=0.5)
    assert r.rejected.tolist() == [1]


@pytest.mark.parametrize("p, tau", [(0.007, 0.7), (0.023, 0.3)])
def test_c_storey_bh_threshold_is_the_largest_rejected_pvalue(p, tau):
    # p / tau * tau rounds away from p when tau is not a power of two:
    # 0.007 / 0.7 * 0.7 = 0.006999999999999999 lies below the p it rejected
    r = c_storey_bh(np.array([p]), q=0.1, tau=tau)
    assert r.rejected.tolist() == [0]
    assert r.threshold == p


def test_c_storey_bh_validation():
    p = np.array([0.1, 0.2])
    for tau in (0.0, 1.5):
        with pytest.raises(ValueError, match="tau"):
            c_storey_bh(p, q=0.1, tau=tau)
    # lambda is checked whether or not any p-value is conditioned on
    for kept in ([0.1, 0.8], [0.9, 0.8]):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\)"):
            c_storey_bh(np.array(kept), q=0.1, tau=0.5, lam=5.0)


def test_d_storey_bh_worked_example():
    p = np.array([0.01, 0.2, 0.3, 0.6])
    r = d_storey_bh(p, q=0.2, lam=0.25, tau=0.5)
    # one p in (0.25, 0.5]: pi0 = (1 + 1) / (4 * 0.25) = 2.0, uncapped
    assert r.pi0_hat == 2.0
    # candidate 0.01: 4 * 2 * 0.01 / 1 = 0.08 passes; 0.2 and 0.3 do not
    assert r.rejected.tolist() == [0]
    assert r.threshold == 0.01


@pytest.mark.parametrize("tau", [5e-324, np.float64(5e-324)], ids=["float", "float64"])
def test_d_storey_bh_pi0_overflows_quietly(tau):
    # tau - lam subnormal: pi0 is inf, as a float whatever tau's type, with
    # no warning, and only the exact zeros are rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = d_storey_bh(np.array([0.0, 0.0, 0.5]), q=0.5, lam=0.0, tau=tau)
    assert type(r.pi0_hat) is float and r.pi0_hat == np.inf
    assert r.rejected.tolist() == [0, 1]
    assert r.threshold == 0.0


def test_d_storey_bh_validation():
    p = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        d_storey_bh(p, q=0.1, lam=0.5, tau=0.5)
    with pytest.raises(ValueError):
        d_storey_bh(p, q=0.1, lam=-0.1, tau=0.5)
    with pytest.raises(ValueError):
        d_storey_bh(p, q=0.1, lam=0.25, tau=1.5)
    with pytest.raises(ValueError):
        d_storey_bh(np.array([]), q=0.1)


def test_q_validation():
    p = np.array([0.1])
    for proc in (bh, storey_bh, c_storey_bh, d_storey_bh):
        with pytest.raises(ValueError):
            proc(p, q=0.0)
        with pytest.raises(ValueError):
            proc(p, q=1.0)


def test_exact_zero_pvalue_is_rejected():
    p = np.array([0.0, 0.6, 0.9])
    for proc in (bh, storey_bh, c_storey_bh, d_storey_bh):
        r = proc(p, q=0.1)
        assert r.rejected.tolist() == [0], proc.__name__


# ---------------------------------------------------------------------------
# brute-force agreement on random instances


def _assert_matches_brute_force(vals, q):
    assert set(bh(vals, q).rejected.tolist()) == bf_bh(vals, q)
    assert set(storey_bh(vals, q).rejected.tolist()) == bf_storey(vals, q)
    assert set(c_storey_bh(vals, q).rejected.tolist()) == bf_c_storey(vals, q)
    assert set(d_storey_bh(vals, q).rejected.tolist()) == bf_d_storey(vals, q)


def _ulps_away(x, n):
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


def test_procedures_match_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(1, 13))
        # mix uniforms with a few tiny values so rejections actually happen
        vals = rng.random(m)
        small = rng.random(m) < 0.4
        vals[small] = vals[small] * 0.02
        q = float(rng.uniform(0.02, 0.4))
        _assert_matches_brute_force(vals, q)

    # p-values within 3 ulps of the BH boundaries k * q / m, where the
    # scan's rounding decides the outcome
    for _ in range(200):
        m = int(rng.integers(1, 13))
        q = float(rng.uniform(0.02, 0.4))
        vals = rng.random(m)
        near = rng.random(m) < 0.5
        k = rng.integers(1, m + 1, size=m)
        vals[near] = [
            _ulps_away(ki * q / m, int(rng.integers(-3, 4))) for ki in k[near]
        ]
        _assert_matches_brute_force(vals, q)


@pytest.mark.parametrize(
    "vals, q, expected",
    [
        ([0.08333333333333334, 0.95, 0.95], 0.25, [0]),
        ([3.3333333333333335e-05] * 2 + [0.1], 0.1, [0, 1]),
    ],
)
def test_bh_follows_the_definition_at_rounding_boundaries(vals, q, expected):
    vals = np.array(vals)
    assert bh(vals, q).rejected.tolist() == expected
    assert sorted(bf_bh(vals, q)) == expected


# a few base values repeated, so ties are common, with exact 0 and 1 among them
_pvalue_lists = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).flatmap(
    lambda base: st.lists(st.sampled_from(base + [0.0, 1.0]), min_size=1, max_size=30))


@settings(max_examples=300, deadline=None)
@given(p=_pvalue_lists, q=st.floats(0.001, 0.999),
       lam=st.sampled_from([0.0, 0.3, 0.5, 0.8]),
       tau=st.sampled_from([0.3, 0.45, 0.5, 0.7, 0.9, 1.0]),
       lam_discard=st.sampled_from([0.0, 0.1, 0.25]))
@example(p=[0.007], q=0.1, lam=0.5, tau=0.7, lam_discard=0.25)
@example(p=[0.023], q=0.1, lam=0.5, tau=0.3, lam_discard=0.25)
def test_rejections_are_the_pvalues_at_or_below_the_threshold(p, q, lam, tau,
                                                              lam_discard):
    # the RejectionResult contract: the threshold is 0.0 or an input p-value,
    # and exactly the p-values at or below it are rejected
    vals = np.array(p)
    results = {"bh": bh(vals, q), "stbh": storey_bh(vals, q, lam),
               "c-stbh": c_storey_bh(vals, q, tau=tau, lam=lam),
               "d-stbh": d_storey_bh(vals, q, lam=lam_discard, tau=tau)}
    for name, r in results.items():
        assert r.rejected.tolist() == np.flatnonzero(vals <= r.threshold).tolist(), name
        assert r.threshold == 0.0 or r.threshold in p, name


@settings(max_examples=300, deadline=None)
@given(p=_pvalue_lists, q=st.floats(0.001, 0.999),
       lam=st.floats(0.0, 1.0, exclude_max=True))
@example(p=[0.0] * 30, q=0.1, lam=0.0)  # the estimate's least value, 1/m
def test_storey_pi0_is_never_below_one_over_m(p, q, lam):
    # (1 + #{p > lam}) / (m (1 - lam)) >= 1 / m, and rounding keeps it so,
    # hence storey_bh caps its estimate at 1 and needs no floor
    vals = np.array(p)
    pi0 = storey_pi0(vals, lam)
    assert pi0 >= 1.0 / vals.size
    assert storey_bh(vals, q, lam).pi0_hat == min(pi0, 1.0)


def test_discarding_with_full_window_is_uncapped_storey():
    # lam=0, tau=1 turns the discarding scan into adaptive BH whose pi0
    # estimate (1 + m) / m is deliberately not capped at one
    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(2, 20))
        vals = rng.random(m) ** 2
        q = 0.2
        d = d_storey_bh(vals, q, lam=0.0, tau=1.0)
        pi0 = (1 + m) / m
        thr = _bf_threshold(
            vals, vals, lambda s: m * pi0 * s / max(np.sum(vals <= s), 1), q
        )
        expected = set() if thr is None else set(np.flatnonzero(vals <= thr).tolist())
        assert set(d.rejected.tolist()) == expected
        assert d.pi0_hat == pytest.approx(pi0)


# ---------------------------------------------------------------------------
# metrics


def test_compute_metrics_worked_example():
    r = RejectionResult(rejected=np.array([0, 1]), threshold=0.02, pi0_hat=1.0, m=4)
    metrics = compute_metrics(r, truth=[True, False, False, True])
    assert metrics == ErrorMetrics(fdp=0.5, tpp=0.5)


def test_compute_metrics_empty_rejection():
    r = RejectionResult(rejected=np.array([], dtype=int), threshold=0.0,
                        pi0_hat=1.0, m=3)
    metrics = compute_metrics(r, truth=[True, False, False])
    assert metrics.fdp == 0.0
    assert metrics.tpp == 0.0


def test_compute_metrics_all_null_truth():
    r = RejectionResult(rejected=np.array([2]), threshold=0.01, pi0_hat=1.0, m=3)
    metrics = compute_metrics(r, truth=[False, False, False])
    assert metrics.fdp == 1.0
    assert metrics.tpp == 0.0
    with pytest.raises(ValueError):
        compute_metrics(r, truth=[False, False])


def test_rejection_result_sorts_indices():
    r = RejectionResult(rejected=np.array([3, 1, 2]), threshold=0.1,
                        pi0_hat=1.0, m=5)
    assert r.rejected.tolist() == [1, 2, 3]
