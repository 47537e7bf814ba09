"""Conditioning machinery for randomization tests under interference.

A test conditions on three objects: each cell's super-focal units (those
whose observed exposure, and covariate for an (exposure, covariate) cell,
match the cell), which its Design holds; the acceptable treatment vectors
(those keeping more than an epsilon share of each cell's super-focal units
in each arm with exposure unchanged); and a random selection of observed
focal units whose size matches the mean focal count across draws.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (AcceptanceBudgetExhausted, ArmEmptyAfterRetries,
                     DataError, EmptySuperFocal, MissingParameter)
from .nullspec import BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL

Cell = tuple  # (pi,) or (pi, x_level)

# Cap on a candidate batch's rows x units. One sampler call (N=3200, b=499, two cells)
# peaks at 5.5 bytes per batch cell with FractionThreshold (8.4 MiB, tracemalloc) and
# 19.1 with WeightedThreshold's float64 sums (29.1 MiB): near 92 or 320 MB at this cap.
MAX_BATCH_CELLS = 1 << 24
MAX_FOCAL_RETRIES = 100  # observed focal selections tried before giving up


def family_cells(family: str, values: Sequence, x_levels: Sequence = ()) -> list[Cell]:
    """A null family's cells: (pi,) per exposure value, or (pi, x_level)
    per value and covariate level (x_levels is empty without a covariate)."""
    if family in (CONSTANT_ALL, BY_EXPOSURE):
        return [(v,) for v in values]
    if family == BY_EXPOSURE_COVARIATE:
        if not x_levels:
            raise DataError("per-cell families require a covariate column")
        return [(v, l) for v in values for l in x_levels]
    raise MissingParameter(f"family {family!r} has no testable cell structure")


def cell_mask(pi: np.ndarray, cell: Cell, x: np.ndarray | None = None) -> np.ndarray:
    """Units whose exposure equals the cell's value and, for an
    (exposure, covariate) cell, whose covariate equals its level. The
    empty cell (), the constant family's effect key, holds every unit."""
    if not cell:
        return np.ones(len(pi), dtype=bool)
    mask = np.asarray(pi) == cell[0]
    if len(cell) == 2:
        if x is None:
            raise ValueError(f"cell {cell} names a covariate level but x is missing")
        mask = mask & (np.asarray(x) == cell[1])
    return mask


def arm_counts(pi: np.ndarray, cells: Sequence[Cell], t: np.ndarray,
               x: np.ndarray | None = None) -> np.ndarray:
    """(len(cells), 2) counts of each cell's units in arm 0 and in arm 1."""
    arms = [np.asarray(t) == arm for arm in (0, 1)]
    return np.array([[int((cell_mask(pi, c, x) & a).sum()) for a in arms]
                     for c in cells], dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class Design:
    """A test's observed side, fixed before its first draw (inference.prepare):
    the observed ExposureVector, the null family, its cells and each
    cell's super-focal units (ascending indices; none is empty)."""

    exposures: object
    family: str
    cells: tuple
    units: dict

    def scored(self, cell: Cell, mask: np.ndarray | None = None) -> np.ndarray:
        """The cell's super-focal units that mask marks (all for None)."""
        units = self.units[cell]
        return units if mask is None else units[mask[units]]


@dataclass(frozen=True, eq=False)
class ConditioningConfig:
    """epsilon bounds the relative frequencies of every (arm, cell) pair
    of the cells conditioned on, each (pi,) or (pi, x_level). separate
    gives each cell its own accepted draws (multiple mode); otherwise one
    set of draws satisfies every cell jointly (combined mode). scored
    marks the units the statistics use (None for all): each record's
    focal units are restricted to them, while the inequalities count
    every super-focal unit. min_per_arm > 0 also asks each accepted draw
    to keep that many scored focal units in each arm of every cell of its
    group."""

    epsilon: float
    cells: tuple
    max_attempts_per_accept: int = 10_000
    separate: bool = False
    scored: np.ndarray | None = None
    min_per_arm: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.max_attempts_per_accept < 1:
            raise ValueError("max_attempts_per_accept must be >= 1")

    @property
    def groups(self) -> list[tuple]:
        """The cell groups that each keep their own accepted draws."""
        return [(c,) for c in self.cells] if self.separate else [tuple(self.cells)]


@dataclass
class SuperFocalSet:
    """Units whose observed exposure (and covariate, for an (exposure,
    covariate) cell) match the cell; benchmarks/checks.py's scalar
    reference, on no engine path."""

    indicator: np.ndarray
    cell: Cell

    @property
    def n(self) -> int:
        return int(self.indicator.sum())


def superfocal_for_cell(exposures_obs: np.ndarray, cell: Cell,
                        x: np.ndarray | None = None) -> SuperFocalSet:
    """The cell's SuperFocalSet: benchmarks/checks.py's reference, on no engine path."""
    mask = cell_mask(exposures_obs, cell, x)
    if not mask.any():
        raise EmptySuperFocal(f"no units with observed cell {cell}")
    return SuperFocalSet(indicator=mask, cell=cell)


def relative_frequency(t_new: np.ndarray, exposures_new: np.ndarray,
                       superfocal: SuperFocalSet, arm: int) -> float:
    """Share of the cell's super-focal units that the candidate vector
    leaves in the given arm with exposure unchanged (benchmarks/checks.py's
    scalar reference, on no engine path)."""
    denom = superfocal.n
    if denom == 0:
        raise EmptySuperFocal("super-focal set is empty")
    keep = (np.asarray(exposures_new) == superfocal.cell[0]) & superfocal.indicator
    num = int((keep & (np.asarray(t_new) == arm)).sum())
    return num / denom


@dataclass
class Draws:
    """One cell's accepted draws: its group's (b, N) treatment vectors (one
    array shared by the cells of a combined group); unit-major (n_sf, b)
    rows, over the cell's super-focal units (ascending), of its scored
    focal units and of the treated units under each draw; the focal counts
    per draw; the cell; and the candidates its group drew up to and
    including its last accept."""

    t: np.ndarray
    units: np.ndarray
    focal: np.ndarray
    treated: np.ndarray
    focal_counts: np.ndarray
    cell: Cell
    n_candidates: int

    @property
    def acceptance_rate(self) -> float:
        return len(self.t) / self.n_candidates


@dataclass
class ConditioningDiagnostics:
    """The candidate stream: candidates drawn, draws accepted over every
    group, and the candidates rejected while the cell's group was still
    accepting: per (arm, cell) those whose epsilon inequality failed, and
    per (arm, cell, "min_per_arm") those that met it but kept fewer than
    min_per_arm scored focal units in the arm."""

    n_candidates: int
    n_accepted: int
    failure_counts: dict


def _batch_rows(need: int, accepted: int, attempts: int) -> int:
    """Candidates a group wants next: exactly its need until it has
    rejected a candidate, then its need plus one binomial standard
    deviation (sqrt of the need) at its acceptance rate so far."""
    if accepted == attempts:
        return need
    return int(np.ceil((need + np.sqrt(need)) / max(accepted / attempts, 0.01)))


def sample_conditioning_set(mechanism, dataset, design: Design,
                            config: ConditioningConfig, b: int,
                            rng: np.random.Generator):
    """Draw b i.i.d. vectors from each cell group's conditioning set by
    rejection on one candidate stream.

    design (checked by inference.check_feasible) gives each cell's
    super-focal units, and its mapping each candidate's exposures,
    computed once per candidate for every group. A candidate is accepted
    into a group when, for every cell of the group and both arms, the
    relative frequency of retained super-focal units strictly exceeds
    epsilon and, with config.min_per_arm, at least that many of those
    units are scored. Each group keeps its first b accepts, so its draws
    are i.i.d. on its own conditioning set (the groups' draws are
    dependent, which Bonferroni and Holm allow). Returns one Draws record
    per cell of config.cells, in that order (focal and treated rows
    unit-major, as the check gathered them), plus diagnostics. Raises
    AcceptanceBudgetExhausted, naming each starved group and the worst
    failure among their cells, when b * max_attempts_per_accept
    candidates leave a group short of b.

    Each batch is the largest that an unfinished group asks for (see
    _batch_rows), so a design that rejects nothing draws b candidates.
    Batches hold at most MAX_BATCH_CELLS rows x units.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    groups, scored, least = config.groups, config.scored, config.min_per_arm
    budget = b * config.max_attempts_per_accept
    max_rows = max(1, MAX_BATCH_CELLS // dataset.n)
    count_type = np.min_scalar_type(-dataset.n - 1)  # holds -(N + 1), so every count 0..N
    t_blocks = [[] for _ in groups]  # rows each group accepted from each batch
    # the same draws' focal and treated rows per cell, and their focal counts
    record_blocks = {c: ([], [], []) for c in config.cells}
    accepted = [0] * len(groups)
    done_at = [0] * len(groups)  # candidates drawn up to the b-th accept
    attempts = 0
    fail_counts = {(arm, c): 0 for c in config.cells for arm in (0, 1)}
    if least:
        fail_counts.update({(arm, c, "min_per_arm"): 0 for c in config.cells for arm in (0, 1)})

    while live := [g for g in range(len(groups)) if accepted[g] < b]:
        live_cells = [c for g in live for c in groups[g]]
        if attempts >= budget:
            worst = max((k for k in fail_counts if k[1] in live_cells), key=fail_counts.get)
            short = ", ".join(f"cell{'s' * (len(groups[g]) > 1)} "
                              f"{', '.join(map(str, groups[g]))} accepted "
                              f"{accepted[g]}/{b}" for g in live)
            bound = (f"at least {least} scored focal units" if len(worst) == 3
                     else f"epsilon={config.epsilon}")
            raise AcceptanceBudgetExhausted(
                f"after {attempts} candidates, {short}; worst inequality: "
                f"arm={worst[0]}, cell={worst[1]} failed {fail_counts[worst]} "
                f"times ({bound})")
        m = max(_batch_rows(b - accepted[g], accepted[g], attempts) for g in live)
        m = min(m, max_rows, budget - attempts)
        t_batch = mechanism.draw_batch(m, rng)
        # unit-major from here on: a cell's super-focal units are whole rows
        t_units = np.ascontiguousarray(t_batch.T)
        pi_units = design.exposures.mapping.compute_units(t_units, dataset.graph)
        passes, checked = {}, {}
        for c in live_cells:
            rows = design.units[c]  # the cell's super-focal units
            in_cell, treated = pi_units[rows] == c[0], t_units[rows] == 1
            n = in_cell.sum(axis=0, dtype=count_type)
            n1 = (in_cell & treated).sum(axis=0, dtype=count_type)
            k, k1 = n, n1  # the scored focal units' counts
            if scored is not None:
                in_cell &= scored[rows, None]
                k = in_cell.sum(axis=0, dtype=count_type)
                k1 = (in_cell & treated).sum(axis=0, dtype=count_type)
            checked[c] = in_cell, treated, k
            ok = np.ones(m, dtype=bool)
            for arm, n_arm, k_arm in ((0, n - n1, k - k1), (1, n1, k1)):
                bad = ~(n_arm / len(rows) > config.epsilon)
                fail_counts[(arm, c)] += int(bad.sum())
                if least:
                    few = ~bad & (k_arm < least)
                    fail_counts[(arm, c, "min_per_arm")] += int(few.sum())
                    bad |= few
                ok &= ~bad
            passes[c] = ok
        t_units = pi_units = None  # freed before the records are built
        for g in live:
            need = b - accepted[g]
            rows = np.flatnonzero(np.logical_and.reduce(
                [passes[c] for c in groups[g]]))[:need]
            every = len(rows) == m  # then the check's own rows are the records
            t_blocks[g].append(t_batch if every else t_batch[rows])
            for c in groups[g]:
                for blk, a in zip(record_blocks[c], checked[c]):
                    blk.append(a if every else a[..., rows])
            accepted[g] += len(rows)
            if len(rows) == need:
                done_at[g] = attempts + int(rows[-1]) + 1
        attempts += m

    def joined(blocks, axis=-1):
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)

    draws = []
    for grp, blk, n in zip(groups, t_blocks, done_at):
        t = joined(blk, axis=0)
        for c in grp:
            focal, treated, k = (joined(r) for r in record_blocks[c])
            draws.append(Draws(t, design.units[c], focal, treated, k.astype(int), c, n))
    diag = ConditioningDiagnostics(n_candidates=attempts,
                                   n_accepted=b * len(groups),
                                   failure_counts=fail_counts)
    return draws, diag


def select_observed_focal(cell: Cell, units: np.ndarray, focal_counts: np.ndarray,
                          t_obs: np.ndarray, rng: np.random.Generator,
                          min_per_arm: int = 1) -> np.ndarray:
    """Uniform subset of the cell's scored super-focal units (ascending
    indices), as an N-wide mask, sized to the mean of the focal counts per
    draw, a Draws record's focal_counts (round half to even).

    Resamples until each treatment arm holds at least min_per_arm selected
    units; raises ArmEmptyAfterRetries, naming the cell, when that is
    impossible or MAX_FOCAL_RETRIES selections all miss.
    """
    t_obs = np.asarray(t_obs)
    if np.size(focal_counts) == 0:
        raise ValueError("no accepted draws to size the selection from")
    size = round(float(np.mean(focal_counts)))
    arm1 = int(t_obs[units].sum())
    arm0 = len(units) - arm1
    lo = max(min_per_arm, size - arm0)
    hi = min(size - min_per_arm, arm1)
    if size < 2 * min_per_arm or lo > hi:
        raise ArmEmptyAfterRetries(
            f"cell {cell}: selection of size {size} from {len(units)} "
            f"super-focal units (arms {arm1}/{arm0}) cannot hold >= {min_per_arm} per arm")
    for _ in range(MAX_FOCAL_RETRIES):
        pick = rng.choice(units, size=size, replace=False)
        n1 = int(t_obs[pick].sum())
        if n1 >= min_per_arm and size - n1 >= min_per_arm:
            mask = np.zeros(len(t_obs), dtype=bool)
            mask[pick] = True
            return mask
    raise ArmEmptyAfterRetries(
        f"cell {cell}: no selection with >= {min_per_arm} units per arm "
        f"in {MAX_FOCAL_RETRIES} tries")


def epsilon_feasibility(dataset, exposures, use_covariate: bool = False) -> float:
    """Recommended upper bound for epsilon: the smallest joint empirical
    cell proportion Pr(T=t, Pi=pi[, X=x]) over arms and the cells of the
    mapping's declared values.

    Declared cells with no units at all are skipped: they cannot be
    tested at any epsilon, so they carry no information about the bound.
    """
    if use_covariate and dataset.x is None:
        raise ValueError("use_covariate=True but dataset has no covariate")
    cells = family_cells(BY_EXPOSURE_COVARIATE if use_covariate else BY_EXPOSURE,
                         exposures.mapping.values, dataset.x_levels)
    counts = arm_counts(exposures.values, cells, dataset.t, dataset.x)
    return min([1.0] + (counts[counts.sum(axis=1) > 0] / dataset.n).ravel().tolist())
