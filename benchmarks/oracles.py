"""Reference computations the benchmark checks the program against.

They share no code with ``ebnull``: each step-up is an exhaustive scan
over candidate thresholds s, keeping the largest s whose estimated false
discovery proportion m * pi0 * s / max(#{p <= s}, 1) is at most q.  This
is the definition acceptance criterion 8 checks on small inputs (bh, stbh
and c-stbh themselves walk order statistics instead).  #{p <= s} comes
from a binary search in the sorted p-values, so a scan costs O(m log m)
and every replication of a traced run can be checked.
"""

from __future__ import annotations

import numpy as np


def _counts_at_or_below(vals: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(vals), candidates, side="right")


def _scan(vals: np.ndarray, q: float, pi0: float, candidates: np.ndarray) -> np.ndarray:
    """Indices of ``vals`` at or below the largest passing candidate."""
    m = vals.size
    if candidates.size == 0:
        return np.empty(0, dtype=np.intp)
    counts = np.maximum(_counts_at_or_below(vals, candidates), 1)
    passing = candidates[m * pi0 * candidates / counts <= q]
    if passing.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(vals <= passing.max())


def brute_force_rejections(vals, q: float, tau: float = 0.5, lam: float = 0.5,
                           lam_discard: float = 0.25) -> dict[str, np.ndarray]:
    """Sorted rejected indices of bh, stbh, c-stbh and d-stbh on ``vals``,
    with the parameters ``ebnull.simulate.run_scenario`` uses by default."""
    vals = np.asarray(vals, dtype=float)
    m = vals.size
    out = {"bh": _scan(vals, q, 1.0, vals)}

    pi0 = min(max((1 + np.sum(vals > lam)) / (m * (1 - lam)), 1 / m), 1.0)
    out["stbh"] = _scan(vals, q, pi0, vals)

    keep = np.flatnonzero(vals <= tau)
    if keep.size == 0:
        out["c-stbh"] = keep
    else:
        sub = vals[keep] / tau
        n = sub.size
        pi0_c = min(max((1 + np.sum(sub > lam)) / (n * (1 - lam)), 1 / n), 1.0)
        out["c-stbh"] = keep[_scan(sub, q, pi0_c, sub)]

    pi0_d = (1 + np.sum((vals > lam_discard) & (vals <= tau))) / (m * (tau - lam_discard))
    candidates = np.concatenate(([0.0], vals[vals <= tau]))
    out["d-stbh"] = _scan(vals, q, pi0_d, candidates)
    return out
