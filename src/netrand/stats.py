"""Variance-ratio test statistics over focal units.

The per-cell statistic is the larger of the two ratios of sample
variances across arms, so it is at least 1 when finite. Zero-variance
conventions: both arms degenerate -> 1.0; exactly one -> +infinity.

The engine scores with the batch kernel below. ``ts_per_exposure`` and the
scalar helpers under it are on no engine path: they are the independent
reference that ``benchmarks/checks.py`` recomputes every kept draw with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewUnits


@dataclass(frozen=True)
class TestStatisticValue:
    value: float
    cell: object
    n_treated_used: int
    n_control_used: int


def conditional_variance(y: np.ndarray, t: np.ndarray, focal: np.ndarray,
                         arm: int) -> float:
    """Sample variance (denominator count-1) of focal outcomes in one arm."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(focal, dtype=bool) & (np.asarray(t) == arm)
    vals = y[mask]
    if len(vals) < 2:
        raise TooFewUnits(f"arm {arm} has {len(vals)} focal units; need >= 2")
    return float(np.var(vals, ddof=1))


def variance_ratio(var1: float, var0: float) -> float:
    """max(var1/var0, var0/var1) with the zero-variance conventions."""
    if var1 == 0.0 and var0 == 0.0:
        return 1.0
    if var1 == 0.0 or var0 == 0.0:
        return math.inf
    return max(var1 / var0, var0 / var1)


def ts_per_exposure(y: np.ndarray, t: np.ndarray, focal: np.ndarray,
                    cell=None) -> TestStatisticValue:
    """Variance-ratio statistic over the focal units of one exposure cell."""
    t = np.asarray(t)
    focal = np.asarray(focal, dtype=bool)
    v1 = conditional_variance(y, t, focal, 1)
    v0 = conditional_variance(y, t, focal, 0)
    return TestStatisticValue(value=variance_ratio(v1, v0), cell=cell,
                              n_treated_used=int((focal & (t == 1)).sum()),
                              n_control_used=int((focal & (t == 0)).sum()))


def masked_arm_variances(z: np.ndarray, arm_masks: tuple[np.ndarray, np.ndarray]):
    """Row-wise sample variances for two arm masks over a (B, N) value matrix.

    Returns (var1, var0, n1, n0) as (B,) arrays; rows where an arm has
    fewer than 2 units get NaN there.
    """
    out = []
    ns = []
    zf = np.asarray(z, dtype=np.float64)
    for mask in arm_masks:
        m = np.asarray(mask, dtype=bool)
        n = m.sum(axis=1).astype(np.float64)
        safe_n = np.maximum(n, 1.0)
        mean = (zf * m).sum(axis=1) / safe_n
        dev = (zf - mean[:, None]) * m
        ss = (dev * dev).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(n >= 2, ss / np.maximum(n - 1.0, 1.0), np.nan)
        out.append(var)
        ns.append(n.astype(np.int64))
    return out[0], out[1], ns[0], ns[1]


def ratio_stat_rows(var1: np.ndarray, var0: np.ndarray) -> np.ndarray:
    """Vectorized variance-ratio with the zero conventions; NaN inputs
    (an arm with < 2 units) surface as TooFewUnits."""
    v1 = np.asarray(var1, dtype=np.float64)
    v0 = np.asarray(var0, dtype=np.float64)
    if np.isnan(v1).any() or np.isnan(v0).any():
        raise TooFewUnits("a draw left fewer than 2 focal units in an arm")
    out = np.empty(v1.shape, dtype=np.float64)
    both_zero = (v1 == 0.0) & (v0 == 0.0)
    one_zero = ((v1 == 0.0) | (v0 == 0.0)) & ~both_zero
    rest = ~(both_zero | one_zero)
    out[both_zero] = 1.0
    out[one_zero] = np.inf
    a, b = v1[rest], v0[rest]
    out[rest] = np.maximum(a / b, b / a)  # as variance_ratio, so ties match it
    return out


def combined_stat(weights, values):
    """Weighted sum of per-cell statistics (floats or (B,) rows), added in
    cell order; an infinite cell with positive weight makes it infinite."""
    total = 0.0
    for w, v in zip(weights, values):
        total = total + w * v
    return total
