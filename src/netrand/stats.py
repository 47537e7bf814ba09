"""Variance-ratio test statistics over focal units.

The per-cell statistic is the larger of the two ratios of sample
variances across arms, so it is at least 1 when finite. Zero-variance
conventions: both arms degenerate -> 1.0; exactly one -> +infinity.

The engine scores with the batch kernel below: ``arm_variances`` takes
each draw's arm moments once and gives the variance of the imputed
outcomes at every effect value tau from them, and ``ratio_stat_rows``
turns two arms' variances into statistics. ``masked_arm_variances`` is
that kernel at tau = 0. ``ts_per_exposure`` and the scalar helpers under
it are on no engine path: they are the independent reference that
``benchmarks/checks.py`` recomputes every kept draw with.
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


def arm_variances(y: np.ndarray, mask: np.ndarray, taus=(0.0,),
                  switched: np.ndarray | None = None, sign: float = 1.0) -> np.ndarray:
    """Row-wise sample variances of y + tau d over each row's masked units,
    at every tau: a (G, B) array for G taus and a (B, N) mask.

    y is an (N,) row or a (B, N) matrix. d is sign on the masked units
    that switched (an (N,) bool row) marks and 0 elsewhere, so with k of
    n units switched the variance is a quadratic in tau,
    max(Syy + 2 tau Syd + tau^2 Sdd, 0) / (n - 1), with centered moments
    Syy, Syd and Sdd = k (n - k) / n computed once per row. Syd is
    sign * (sum of the deviations y - mean over the switched units), less
    k/n of their sum over all n units, which takes out the rounding error
    of the mean (the corrected two-pass algorithm of Chan, Golub & LeVeque
    1983). Syd and Sdd are exactly 0 when k is 0 or n, so a row that keeps
    or swaps every unit has the variance of y itself at every tau. Rows
    where fewer than 2 units are masked get NaN.
    """
    m = np.asarray(mask, dtype=bool)
    yf = np.asarray(y, dtype=np.float64)
    n = m.sum(axis=1).astype(np.float64)
    mean = (yf * m).sum(axis=1) / np.maximum(n, 1.0)
    dev = (yf - mean[:, None]) * m
    syy = (dev * dev).sum(axis=1)
    syd = sdd = 0.0
    if switched is not None:
        sw = np.asarray(switched, dtype=bool)
        k = (m & sw).sum(axis=1).astype(np.float64)
        partial = (k > 0.0) & (k < n)
        sums = dev @ np.stack([sw, np.ones_like(sw)], axis=1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            syd = np.where(partial, sign * (sums[:, 0] - k / n * sums[:, 1]), 0.0)
            sdd = np.where(partial, k * (n - k) / n, 0.0)
    tau = np.asarray(taus, dtype=np.float64)[:, None]
    q = np.maximum(syy + 2.0 * tau * syd + tau * tau * sdd, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n >= 2, q / np.maximum(n - 1.0, 1.0), np.nan)


def masked_arm_variances(z: np.ndarray, arm_masks: tuple[np.ndarray, np.ndarray]):
    """Row-wise sample variances for two arm masks over a (B, N) value matrix.

    Returns (var1, var0, n1, n0) as (B,) arrays; rows where an arm has
    fewer than 2 units get NaN there. This is arm_variances at tau = 0.
    """
    out = []
    ns = []
    for mask in arm_masks:
        m = np.asarray(mask, dtype=bool)
        out.append(arm_variances(z, m)[0])
        ns.append(m.sum(axis=1).astype(np.int64))
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
