"""Randomization mechanisms with known, enumerable support."""
from __future__ import annotations

import numpy as np

from .errors import InfeasibleCounts


# Keys are drawn and partitioned in blocks of about this many, small
# enough to stay in cache: on a 2-vCPU Xeon, 2^16 draws 499 x 3200 rows in
# 8.6 ms against 14.4 ms for the batch at once.
KEY_BLOCK = 1 << 16


def threshold_draw(m: int, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(m, n) int8 rows, each a uniform k-subset of n units: the units
    holding the k smallest of n i.i.d. uint32 keys (random sort keys,
    Knuth TAOCP vol. 2, 3.4.2). A row whose k-th and (k+1)-th smallest
    keys tie does not hold exactly k units and is redrawn; the no-tie event
    is symmetric in the units, so by exchangeability the rows it keeps stay
    uniform."""
    if k in (0, n):
        return np.full((m, n), int(k > 0), dtype=np.int8)
    t = np.empty((m, n), dtype=np.int8)
    step = max(1, KEY_BLOCK // n)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        while rows.size:
            keys = uint32_keys(rng, (rows.size, n))
            below = keys <= np.partition(keys, k - 1, axis=1)[:, k - 1:k]
            t[rows] = below
            rows = rows[below.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(n)) != k]
    return t


def uint32_keys(rng, shape: tuple) -> np.ndarray:
    """``rng.integers(0, 2**32, shape, np.uint32)`` bit for bit, with the same
    ``state`` and ``has_uint32`` after. PCG64 makes such keys as the low,
    then the high half of a 64-bit word, keeping the high half pending: with
    none pending, an even count is its raw words read as uint32 pairs on a
    little-endian host, at half the cost. Else it draws through the call."""
    size = shape[0] * shape[1]
    if (size % 2 == 0 and type(rng) is np.random.Generator and np.little_endian
            and type(rng.bit_generator) is np.random.PCG64
            and not rng.bit_generator.state["has_uint32"]):
        return rng.bit_generator.random_raw(size // 2).view(np.uint32).reshape(shape)
    return rng.integers(0, 1 << 32, size=shape, dtype=np.uint32)


class CompleteRandomization:
    """Uniform draw over all treatment vectors with a fixed treated count."""

    def __init__(self, n_units: int, n_treated: int):
        if not 0 <= n_treated <= n_units:
            raise InfeasibleCounts(
                f"n_treated={n_treated} outside 0..{n_units}")
        self.n_units = int(n_units)
        self.n_treated = int(n_treated)
        base = np.zeros(self.n_units, dtype=np.int8)
        base[: self.n_treated] = 1
        self._base = base

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self._base)

    def draw_batch(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return threshold_draw(m, self.n_units, self.n_treated, rng)

    def supports(self, t: np.ndarray) -> bool:
        t = np.asarray(t)
        if t.shape != (self.n_units,):
            return False
        vals = set(np.unique(t).tolist())
        return vals <= {0, 1} and int(t.sum()) == self.n_treated

    def __repr__(self) -> str:
        return f"CompleteRandomization(n_units={self.n_units}, n_treated={self.n_treated})"


class StratifiedComplete:
    """Complete randomization independently within design strata."""

    def __init__(self, strata: np.ndarray, n_treated_per_stratum: dict):
        self.strata = np.asarray(strata)
        self.n_units = len(self.strata)
        self.levels = sorted(np.unique(self.strata).tolist())
        self.n_treated_per_stratum = dict(n_treated_per_stratum)
        self._index = {}
        for lvl in self.levels:
            idx = np.flatnonzero(self.strata == lvl)
            if lvl not in self.n_treated_per_stratum:
                raise InfeasibleCounts(f"no treated count given for stratum {lvl!r}")
            k = int(self.n_treated_per_stratum[lvl])
            if not 0 <= k <= len(idx):
                raise InfeasibleCounts(
                    f"stratum {lvl!r}: n_treated={k} outside 0..{len(idx)}")
            self._index[lvl] = (idx, k)
        extra = set(self.n_treated_per_stratum) - set(self.levels)
        if extra:
            raise InfeasibleCounts(f"counts given for unknown strata {sorted(extra)!r}")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.draw_batch(1, rng)[0]

    def draw_batch(self, m: int, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((m, self.n_units), dtype=np.int8)
        for lvl in self.levels:
            idx, k = self._index[lvl]
            out[:, idx] = threshold_draw(m, len(idx), k, rng)
        return out

    def supports(self, t: np.ndarray) -> bool:
        t = np.asarray(t)
        if t.shape != (self.n_units,):
            return False
        vals = set(np.unique(t).tolist())
        if not vals <= {0, 1}:
            return False
        for lvl in self.levels:
            idx, k = self._index[lvl]
            if int(t[idx].sum()) != k:
                return False
        return True

    def __repr__(self) -> str:
        return f"StratifiedComplete(n_units={self.n_units}, strata={len(self.levels)})"

