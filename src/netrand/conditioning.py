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
from .stats import arm_rhs, arm_sums

Cell = tuple  # (pi,) or (pi, x_level)

# Budget for one candidate batch: rows x units x its mapping's batch_bytes_per_cell,
# the sampler's declared peak per batch cell. It keeps FractionThreshold's 2^24-cell
# cap with int8 counts (5.625 bytes per cell) and holds every mapping near 94 MB.
MAX_BATCH_BYTES = 5.625 * (1 << 24)
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
    the observed ExposureVector, the null family, its cells, each cell's
    super-focal units (ascending indices; none is empty) and scored_mask,
    the units the statistics use (None for all, or a split's inference half)."""

    exposures: object
    family: str
    cells: tuple
    units: dict
    scored_mask: np.ndarray | None = None

    def scored(self, cell: Cell) -> np.ndarray:
        """The cell's super-focal units that scored_mask marks."""
        units, mask = self.units[cell], self.scored_mask
        return units if mask is None else units[mask[units]]


@dataclass(frozen=True)
class ConditioningConfig:
    """epsilon bounds the relative frequencies of every (arm, cell) pair
    of the Design's cells. separate gives each cell its own accepted
    draws (multiple mode); otherwise one set of draws satisfies every
    cell jointly (combined mode). min_per_arm > 0 also asks each accepted
    draw to keep that many scored focal units in each arm of every cell
    of its group."""

    epsilon: float
    max_attempts_per_accept: int = 10_000
    separate: bool = False
    min_per_arm: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.max_attempts_per_accept < 1:
            raise ValueError("max_attempts_per_accept must be >= 1")


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
    array shared by the cells of a combined group); the cell's scored
    super-focal units (ascending), stats.arm_rhs of them (right, shift) and
    each draw's (b, 2, 10) stats.arm_sums of right over the check's rows;
    the focal counts per draw; the cell; and the candidates its group drew
    up to and including its last accept."""

    t: np.ndarray
    units: np.ndarray
    right: np.ndarray
    shift: np.ndarray
    sums: np.ndarray
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


def reserve_heap(nbytes: int) -> None:
    """Allocate nbytes as one block and free it at once, untouched.

    The sampler calls this before each batch with the batch's declared
    peak, so that the batch's arrays come from a heap that malloc keeps
    mapped between tests. Under glibc (mallopt(3)), a block at or above
    M_MMAP_THRESHOLD is mmapped, and freeing such a block raises
    M_MMAP_THRESHOLD to its size (up to 32 MiB on 64-bit hosts) and
    M_TRIM_THRESHOLD to twice that. Without it the largest blocks a test
    frees are its batch arrays, malloc trims the heap top above about
    twice their size after each test, and the next test faults those
    pages back in. Another allocator pays one allocation per batch. The
    block is never written, so it adds no resident memory.
    """
    np.empty(int(nbytes), dtype=np.uint8)


def max_batch_rows(mapping, graph) -> int:
    """The most candidates one batch may hold: MAX_BATCH_BYTES over the
    mapping's declared bytes per batch cell times the graph's units."""
    rows = MAX_BATCH_BYTES // (mapping.batch_bytes_per_cell(graph) * graph.n_units)
    return max(1, int(rows))


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

    design (checked by inference.check_feasible) gives the cells, each
    with its super-focal and scored units, and its mapping each
    candidate's exposures, computed once per candidate for every group
    (each cell with config.separate, else all cells). A candidate is
    accepted into a group when, for every cell of the group and both
    arms, the relative frequency of retained super-focal units strictly
    exceeds epsilon and, with config.min_per_arm, at least that many of
    those units are scored. Each group keeps its first b accepts, so
    its draws are i.i.d. on its own conditioning set (the groups' draws
    are dependent, which Bonferroni and Holm allow). Returns one Draws record
    per cell of design.cells, in that order, plus diagnostics. Raises
    AcceptanceBudgetExhausted, naming each starved group and the worst
    failure among their cells, when b * max_attempts_per_accept
    candidates leave a group short of b.

    Each batch is the largest that an unfinished group asks for (see
    _batch_rows), so a design that rejects nothing draws b candidates.
    A batch's rows x units x the mapping's batch_bytes_per_cell stay
    within MAX_BATCH_BYTES, and reserve_heap takes that many bytes
    before each draw.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    cells, scored, least = design.cells, design.scored_mask, config.min_per_arm
    groups = [(c,) for c in cells] if config.separate else [tuple(cells)]
    budget = b * config.max_attempts_per_accept
    mapping = design.exposures.mapping
    cell_bytes = mapping.batch_bytes_per_cell(dataset.graph)
    max_rows = max_batch_rows(mapping, dataset.graph)
    count_type = np.min_scalar_type(-dataset.n - 1)  # holds -(N + 1), so every count 0..N
    t_blocks = [[] for _ in groups]  # rows each group accepted from each batch
    record_blocks = {c: ([], []) for c in cells}  # their arm sums and focal counts
    units = {c: design.scored(c) for c in cells}
    rhs = {}  # each cell's arm_rhs of its units, built once the first batch is freed
    accepted = [0] * len(groups)
    done_at = [0] * len(groups)  # candidates drawn up to the b-th accept
    attempts = 0
    fail_counts = {(arm, c): 0 for c in cells for arm in (0, 1)}
    if least:
        fail_counts.update({(arm, c, "min_per_arm"): 0 for c in cells for arm in (0, 1)})

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
        reserve_heap(cell_bytes * m * dataset.n)
        t_batch = mechanism.draw_batch(m, rng)
        # unit-major from here on: a cell's super-focal units are whole rows
        t_units = np.ascontiguousarray(t_batch.T, dtype=np.int8)
        pi_units = mapping.compute_units(t_units, dataset.graph)
        passes, checked = {}, {}
        for c in live_cells:
            rows = design.units[c]  # the cell's super-focal units
            in_cell, treated = pi_units[rows] == c[0], t_units[rows].view(bool)
            n = in_cell.sum(axis=0, dtype=count_type)
            n1 = (in_cell & treated).sum(axis=0, dtype=count_type)
            k, k1 = n, n1  # the scored focal units' counts
            if scored is not None:  # the scored units' rows, which the sums read
                in_cell, treated = in_cell[scored[rows]], treated[scored[rows]]
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
        t_units = pi_units = None  # freed before the right-hand sides and sums are taken
        rhs = rhs or {c: arm_rhs(dataset.y[u], dataset.t[u]) for c, u in units.items()}
        for g in live:
            need = b - accepted[g]
            rows = np.flatnonzero(np.logical_and.reduce(
                [passes[c] for c in groups[g]]))[:need]
            whole = len(rows) == m
            t_blocks[g].append(t_batch if whole else t_batch[rows])
            for c in groups[g]:
                focal, treated, k = checked[c]
                if not whole:  # the kept columns, gathered once for the sums
                    focal, treated, k = focal[:, rows], treated[:, rows], k[rows]
                record_blocks[c][0].append(arm_sums(treated, focal, rhs[c][0]))
                record_blocks[c][1].append(k)
            accepted[g] += len(rows)
            if len(rows) == need:
                done_at[g] = attempts + int(rows[-1]) + 1
        attempts += m

    def joined(blocks):
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    draws = []
    for grp, blk, n in zip(groups, t_blocks, done_at):
        t = joined(blk)
        for c in grp:
            sums, k = (joined(r) for r in record_blocks[c])
            draws.append(Draws(t, units[c], *rhs[c], sums, k.astype(int), c, n))
    diag = ConditioningDiagnostics(n_candidates=attempts, n_accepted=b * len(groups),
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
