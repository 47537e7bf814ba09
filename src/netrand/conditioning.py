"""Conditioning machinery for randomization tests under interference.

The test conditions on three objects: a super-focal set (units whose
observed exposure equals the cell's value), a set of acceptable treatment
vectors (those keeping enough super-focal units in each arm of the cell),
and a random selection of observed focal units whose size matches the
expected focal count across draws.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AcceptanceBudgetExhausted, ArmEmptyAfterRetries,
                     EmptySuperFocal)

Cell = tuple  # (pi,) or (pi, x_level)

# Cap on a candidate batch's rows x units. A batch's working set is a few
# tens of bytes per cell, so this keeps it to several hundred MB at any N.
MAX_BATCH_CELLS = 1 << 24


def cell_mask(pi: np.ndarray, cell: Cell, x: np.ndarray | None = None) -> np.ndarray:
    """Units whose exposure equals the cell's value and, for an
    (exposure, covariate) cell, whose covariate equals its level."""
    mask = np.asarray(pi) == cell[0]
    if len(cell) == 2:
        if x is None:
            raise ValueError(f"cell {cell} names a covariate level but x is missing")
        mask = mask & (np.asarray(x) == cell[1])
    return mask


@dataclass(frozen=True)
class ConditioningConfig:
    """epsilon bounds the relative frequencies of every (arm, cell) pair
    of the cells conditioned on, each (pi,) or (pi, x_level)."""

    epsilon: float
    cells: tuple
    max_attempts_per_accept: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.max_attempts_per_accept < 1:
            raise ValueError("max_attempts_per_accept must be >= 1")


@dataclass
class SuperFocalSet:
    """Units whose observed exposure (and covariate, for an
    (exposure, covariate) cell) matches the cell."""

    indicator: np.ndarray
    cell: Cell

    @property
    def n(self) -> int:
        return int(self.indicator.sum())


def superfocal_for_cell(exposures_obs: np.ndarray, cell: Cell,
                        x: np.ndarray | None = None) -> SuperFocalSet:
    mask = cell_mask(exposures_obs, cell, x)
    if not mask.any():
        raise EmptySuperFocal(f"no units with observed cell {cell}")
    return SuperFocalSet(indicator=mask, cell=cell)


def relative_frequency(t_new: np.ndarray, exposures_new: np.ndarray,
                       superfocal: SuperFocalSet, arm: int) -> float:
    """Share of the cell's super-focal units that the candidate vector
    leaves in the given arm with exposure unchanged."""
    denom = superfocal.n
    if denom == 0:
        raise EmptySuperFocal("super-focal set is empty")
    keep = (np.asarray(exposures_new) == superfocal.cell[0]) & superfocal.indicator
    num = int((keep & (np.asarray(t_new) == arm)).sum())
    return num / denom


@dataclass
class Draws:
    """Accepted draws as (b, N) matrices: the treatment vectors and the
    focal units (the union over the cells conditioned on, so a cell's own
    focal units are ``focal & superfocal.indicator``)."""

    t: np.ndarray
    focal: np.ndarray


@dataclass
class ConditioningDiagnostics:
    n_candidates: int
    n_accepted: int
    cells: list
    failure_counts: dict

    @property
    def acceptance_rate(self) -> float:
        if self.n_candidates == 0:
            return 0.0
        return self.n_accepted / self.n_candidates


def sample_conditioning_set(mechanism, dataset, exposures_obs, mapping,
                            config: ConditioningConfig, b: int,
                            rng: np.random.Generator):
    """Draw b i.i.d. vectors from the conditioning set by rejection.

    A candidate from the mechanism is accepted when, for every cell in
    config.cells and both arms, the relative frequency of retained
    super-focal units strictly exceeds epsilon. Returns the accepted
    draws as one Draws record plus diagnostics. Raises
    AcceptanceBudgetExhausted (naming the worst inequality) when
    b * max_attempts_per_accept candidates fail to produce b accepts.

    Until a candidate is rejected, each batch draws exactly the accepts
    still needed, so a design that rejects nothing draws b candidates.
    After that, a batch is sized so that at the acceptance rate so far it
    is expected to yield the accepts still needed plus one binomial
    standard deviation (sqrt of that need). Batches hold at most
    MAX_BATCH_CELLS rows x units.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    pi_obs = np.asarray(exposures_obs.values if hasattr(exposures_obs, "values")
                        else exposures_obs)
    cells = list(config.cells)
    masks = [superfocal_for_cell(pi_obs, c, dataset.x).indicator for c in cells]
    counts = [int(mask.sum()) for mask in masks]

    budget = b * config.max_attempts_per_accept
    max_rows = max(1, MAX_BATCH_CELLS // dataset.n)
    blocks = []  # (t, focal) rows accepted from each batch
    n_accepted = 0
    attempts = 0
    fail_counts = {(arm, c): 0 for c in cells for arm in (0, 1)}

    while n_accepted < b:
        if attempts >= budget:
            worst = max(fail_counts, key=fail_counts.get)
            raise AcceptanceBudgetExhausted(
                f"accepted {n_accepted}/{b} after {attempts} candidates; "
                f"worst inequality: arm={worst[0]}, cell={worst[1]} "
                f"failed {fail_counts[worst]} times (epsilon={config.epsilon})")
        need = b - n_accepted
        if n_accepted == attempts:  # nothing rejected yet
            m = need
        else:  # expected need plus one binomial standard deviation
            acc_est = max(n_accepted / attempts, 0.01)
            m = int(np.ceil((need + np.sqrt(need)) / acc_est))
        m = min(m, max_rows, budget - attempts)
        t_batch = mechanism.draw_batch(m, rng)
        pi_batch = mapping.compute_batch(t_batch, dataset.graph)
        ok = np.ones(m, dtype=bool)
        focal = np.zeros((m, dataset.n), dtype=bool)
        for c, mask, cnt in zip(cells, masks, counts):
            in_cell = (pi_batch == c[0]) & mask
            focal |= in_cell
            for arm in (0, 1):
                r = (in_cell & (t_batch == arm)).sum(axis=1) / cnt
                bad = ~(r > config.epsilon)
                fail_counts[(arm, c)] += int(bad.sum())
                ok &= ~bad
        rows = np.flatnonzero(ok)[:need]
        blocks.append((t_batch[rows], focal[rows]))
        n_accepted += len(rows)
        attempts += m

    draws = Draws(*(np.concatenate(col) for col in zip(*blocks)))
    diag = ConditioningDiagnostics(n_candidates=attempts, n_accepted=b,
                                   cells=cells, failure_counts=fail_counts)
    return draws, diag


def select_observed_focal(superfocal: SuperFocalSet, focal: np.ndarray,
                          t_obs: np.ndarray, rng: np.random.Generator,
                          min_per_arm: int = 1,
                          max_retries: int = 100) -> np.ndarray:
    """Uniform subset of the super-focal units sized to the mean focal
    count over the accepted draws' (b, N) focal matrix (round half to
    even).

    Resamples until each treatment arm holds at least min_per_arm selected
    units; raises ArmEmptyAfterRetries when that is impossible or the
    retry budget runs out.
    """
    t_obs = np.asarray(t_obs)
    counts = (np.asarray(focal, dtype=bool) & superfocal.indicator).sum(axis=1)
    if counts.size == 0:
        raise ValueError("no accepted draws to size the selection from")
    size = round(float(np.mean(counts)))
    idx = np.flatnonzero(superfocal.indicator)
    arm1 = int(t_obs[idx].sum())
    arm0 = len(idx) - arm1
    lo = max(min_per_arm, size - arm0)
    hi = min(size - min_per_arm, arm1)
    if size < 2 * min_per_arm or lo > hi:
        raise ArmEmptyAfterRetries(
            f"selection of size {size} from {len(idx)} super-focal units "
            f"(arms {arm1}/{arm0}) cannot hold >= {min_per_arm} per arm")
    for _ in range(max_retries):
        pick = rng.choice(idx, size=size, replace=False)
        n1 = int(t_obs[pick].sum())
        if n1 >= min_per_arm and size - n1 >= min_per_arm:
            mask = np.zeros(len(t_obs), dtype=bool)
            mask[pick] = True
            return mask
    raise ArmEmptyAfterRetries(
        f"no selection with >= {min_per_arm} units per arm in {max_retries} tries")


def epsilon_feasibility(dataset, exposures_obs, use_covariate: bool = False) -> float:
    """Recommended upper bound for epsilon: the smallest joint empirical
    cell proportion Pr(T=t, Pi=pi[, X=x]) over arms and observed cells.

    Declared cells with no units at all are skipped: they cannot be
    tested at any epsilon, so they carry no information about the bound.
    """
    pi = np.asarray(exposures_obs.values if hasattr(exposures_obs, "values")
                    else exposures_obs)
    mapping_values = exposures_obs.mapping.values if hasattr(exposures_obs, "mapping") else sorted(set(pi.tolist()))
    if use_covariate:
        if dataset.x is None:
            raise ValueError("use_covariate=True but dataset has no covariate")
        cells = [(v, l) for v in mapping_values for l in dataset.x_levels]
    else:
        cells = [(v,) for v in mapping_values]
    best = 1.0
    for cell in cells:
        m = cell_mask(pi, cell, dataset.x)
        if not m.any():
            continue
        for arm in (0, 1):
            best = min(best, int((m & (dataset.t == arm)).sum()) / dataset.n)
    return best
