"""Variance-ratio test statistics over focal units.

The per-cell statistic is the larger of the two ratios of sample
variances across arms, so it is at least 1 when finite. Zero-variance
conventions: both arms degenerate -> 1.0; exactly one -> +infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooFewUnits, WeightMismatch


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


def ts_per_cell(y: np.ndarray, t: np.ndarray, x: np.ndarray,
                focal: np.ndarray, cell: tuple) -> TestStatisticValue:
    """Per-(exposure, covariate) variant: restrict focal units to the
    cell's covariate level, then apply the per-exposure statistic."""
    if len(cell) != 2:
        raise ValueError(f"cell {cell!r} must be (exposure, covariate_level)")
    mask = np.asarray(focal, dtype=bool) & (np.asarray(x) == cell[1])
    return ts_per_exposure(y, t, mask, cell=cell)


def _combine(values: Sequence[float], weights: Sequence[float], cell) -> TestStatisticValue:
    w = np.asarray(weights, dtype=np.float64)
    v = [float(getattr(s, "value", s)) for s in values]
    if len(v) != len(w):
        raise WeightMismatch(f"{len(v)} statistics but {len(w)} weights")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise WeightMismatch(f"weights must be nonnegative and sum to 1, got {w}")
    total = 0.0
    for wi, vi in zip(w, v):
        if wi == 0.0:
            continue  # zero-weight cells cannot contribute, even at +inf
        if math.isinf(vi):
            return TestStatisticValue(math.inf, cell, 0, 0)
        total += wi * vi
    return TestStatisticValue(total, cell, 0, 0)


def ts_combined(values: Sequence, weights: Sequence[float]) -> TestStatisticValue:
    """Weighted sum of per-exposure statistics; weights are the observed
    exposure-cell shares and must sum to 1."""
    return _combine(values, weights, "combined")


def ts_combined_xpi(values: Sequence, weights: Sequence[float]) -> TestStatisticValue:
    """Weighted sum of per-(exposure, covariate) statistics."""
    return _combine(values, weights, "combined_xpi")


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
