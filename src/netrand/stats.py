"""Variance-ratio test statistics over focal units.

The per-cell statistic is the larger of the two ratios of sample
variances across arms, so it is at least 1 when finite. Zero-variance
conventions: both arms degenerate -> 1.0; exactly one -> +infinity.

The engine scores in three steps: ``arm_rhs`` once per cell, ``arm_sums``
to reduce each accepted draw to exact float64 sums over its focal units
in each arm, and ``arm_variances`` for each arm's variance, a parabola in
the effect value tau. ``ratio_stat_rows`` turns two arms' variances into
statistics. The two-pass ``masked_arm_variances`` and the scalar
``ts_per_exposure`` are on no engine path: they are the references that
the tests and ``benchmarks/checks.py`` recompute draws with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TooFewUnits


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


SCORE_BLOCK = 1 << 15  # draw cells (units x draws) per block of arm_sums, one GEMM per arm


def _grid_parts(v: np.ndarray) -> np.ndarray:
    """Rows of the (K, N) matrix v as hi and lo rows, (2K, N), on binary grids
    of bits = 52 - N.bit_length() so that any sum of N entries is exact in
    float64. hi + lo is v to within 2**-(2 bits) of the row's largest |entry|
    (2**-70 at 10**5 columns): precision scales with it, not an arm's spread."""
    bits = 52 - v.shape[1].bit_length()
    e = np.frexp(np.abs(v).max(axis=1, keepdims=True, initial=0.0))[1]  # |v| < 2**e
    hi = np.ldexp(np.round(np.ldexp(v, bits - e)), e - bits)
    lo = np.ldexp(np.round(np.ldexp(v - hi, 2 * bits - e)), e - 2 * bits)
    return np.vstack([hi, lo])


def arm_rhs(y, t_obs):
    """arm_sums' (n, 10) right-hand side for n units, each observed arm's indicator
    and the hi and lo parts of y less its arm's shift and of its square, and the shifts.
    Raises DataError when a squared deviation overflows float64, or their sum plus n
    times the shifts' squared gap does: arm_variances adds a term of that size for a
    draw that mixes the observed arms."""
    y = np.asarray(y, dtype=np.float64)
    groups = np.stack([np.asarray(t_obs) == 1, np.asarray(t_obs) != 1])
    # less each group's middle value: no unit order moves it, integer y stays integer
    shift = np.array([np.sort(y[g])[g.sum() // 2] if g.any() else 0.0 for g in groups])
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.where(groups, y - shift[:, None], 0.0)
        square = u * u
        per_unit = square.sum(axis=0)  # each unit's one nonzero row
        spread = per_unit.sum() + len(y) * (shift[0] - shift[1]) ** 2
    if not np.isfinite(spread):
        bad = np.flatnonzero(~np.isfinite(per_unit))
        raise DataError(
            f"outcome {float(y[bad[0]])}'s squared deviation from its arm's middle value "
            f"overflows float64" if len(bad) else
            f"the sum of {len(y)} outcomes' squared deviations from their arms' middle "
            f"values and those values' gap overflows float64")
    return np.ascontiguousarray(np.vstack([groups, _grid_parts(np.vstack([u, square]))]).T), shift


def arm_sums(t_new, focal, right):
    """(B, 2, 10) exact sums of right's rows over each draw's focal units in its arm 1 and
    its arm 0, from unit-major (n, B) 0/1 rows t_new and focal."""
    units, draws = len(right), t_new.shape[1]
    step = max(1, min(units, SCORE_BLOCK // max(draws, 1)))
    # one float64 mask of a block's cells, reused for both arms, stays at 256 KiB: a
    # 512 KiB one for both arms was faulted back in on most calls with small batches
    mask, sums = np.empty((step, draws)), np.zeros((2, draws, 10))
    for r in range(0, units, step):  # each block's sums are exact, so adding them is too
        t, f, rhs = t_new[r:r + step], focal[r:r + step], right[r:r + step]
        m = mask[:len(rhs)]
        sums[0] += np.logical_and(f, t, out=m).T @ rhs  # each draw's arm 1, then its arm 0
        sums[1] += np.greater(f, t, out=m).T @ rhs
    return sums.transpose(1, 0, 2)


def arm_variances(sums, shift, taus=(0.0,)):
    """Sample variances of z = y + tau (t_new - t_obs) over each draw's
    focal units in arm 1 and in arm 0 of t_new: two (G, B) arrays for G
    taus from (B, 2, 10) arm_sums over arm_rhs(y, t_obs) and its shift.
    NaN where an arm has < 2 units.

    An arm's units observed treated and those observed control each shift
    by one amount, so with their counts n1, n0, means m1, m0 and centered
    sums of squares W1, W0 the arm's variance is (Chan, Golub & LeVeque
    1983) (W1 + W0 + (n1 n0 / n) (m1 - m0 - tau)^2) / (n - 1). The sums are
    exact (_grid_parts), so a draw's variances depend only on which units
    it puts in each arm: not on unit order, column position, blocks of
    units or BLAS threads, and a draw that keeps or swaps every arm ties
    exactly.
    """
    n, s = sums[..., :2], sums[..., 2:6] + sums[..., 6:]  # hi + lo
    mean = s[..., :2] / np.maximum(n, 1.0)
    w = np.maximum(s[..., 2:] - s[..., :2] * mean, 0.0).sum(axis=-1)
    vertex = (shift[0] - shift[1]) + (mean[..., 0] - mean[..., 1])
    count = n.sum(axis=-1)
    tau = np.asarray(taus, dtype=np.float64)[:, None, None]
    q = w + n[..., 0] * n[..., 1] / np.maximum(count, 1.0) * (vertex - tau) ** 2
    var = np.where(count >= 2, q / np.maximum(count - 1.0, 1.0), np.nan)
    return var[..., 0], var[..., 1]


def masked_arm_variances(z: np.ndarray, arm_masks: tuple[np.ndarray, np.ndarray]):
    """Row-wise two-pass sample variances of a (B, N) value matrix over two
    (B, N) arm masks: (var1, var0, n1, n0) as (B,) arrays, NaN where an arm
    has < 2 units. A reference for arm_variances, on no engine path."""
    z, out = np.asarray(z, dtype=np.float64), []
    for m in (np.asarray(mask, dtype=bool) for mask in arm_masks):
        n = m.sum(axis=1)
        dev = (z - (z * m).sum(axis=1, keepdims=True) / np.maximum(n, 1)[:, None]) * m
        with np.errstate(invalid="ignore", divide="ignore"):
            out.append(np.where(n >= 2, (dev * dev).sum(axis=1) / (n - 1.0), np.nan))
        out.append(n.astype(np.int64))
    return out[0], out[2], out[1], out[3]


def ratio_stat_rows(var1: np.ndarray, var0: np.ndarray) -> np.ndarray:
    """Vectorized variance-ratio with the zero conventions; NaN inputs
    (an arm with < 2 units) surface as TooFewUnits. That is a guard the
    engine cannot reach: its sampler accepts only draws, and selects only
    observed focal units, with >= 2 scored units per arm."""
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
