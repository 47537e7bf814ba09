"""Randomization-test engine.

run_test is the one engine. The four techniques for the unknown effect
values a null needs differ only in their TauSource, where those values
come from: oracle (the caller), plug-in (full-sample difference in
means, anti-conservative and flagged as such), sample splitting
(estimates from one half, statistics on the other) and confidence region
(a grid over a moment-based region, each p-value raised by the region's
miscoverage gamma; Berger & Boos 1994). A fixed effect is the one-point
grid. Each first builds the test's Design (prepare) and checks it once
(check_feasible) before any estimate or draw. p-values are the plain
fraction of accepted draws whose statistic reaches the observed one,
with no +1 smoothing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Mapping

import numpy as np

from .conditioning import (Cell, ConditioningConfig, Design, Draws, cell_mask,
                           family_cells, sample_conditioning_set, select_observed_focal)
from .data import Dataset
from .errors import (DataError, DegenerateInterval, EmptyArm, EmptySuperFocal,
                     MissingParameter, SplitInfeasible, TooFewUnits)
from .exposure import ExposureVector, compute_exposures
from .nullspec import (GENERAL, PLUGIN, SPLIT_ESTIMATE, NuisanceParams,
                       NullSpec, effect_key)
from .stats import arm_rhs, arm_sums, arm_variances, combined_stat, ratio_stat_rows

ENUMERATION_LIMIT = 10_000  # most permutations run_permutation_variant enumerates
TOTAL_GRID_BUDGET = 400  # most points of a combined-mode CI product grid
MIN_PER_ARM = 2  # scored focal units per arm: two give an arm's sample variance


def empirical_pvalue(observed, draw_stats):
    """Fraction of draw statistics >= the observed one (ties count) along
    the last axis: a float for one row of draws, a list of floats for a
    (G, b) stack of rows."""
    stats = np.atleast_1d(np.asarray(draw_stats, dtype=np.float64))
    if stats.shape[-1] < 1:
        raise ValueError("need at least one draw statistic")
    return np.mean(stats >= float(observed), axis=-1).tolist()


@dataclass
class CellResult:
    cell: Cell
    pvalue: float
    observed_stat: float
    tau: float | None
    n_superfocal: int
    fobs_size: int
    mean_focal: float
    acceptance_rate: float


@dataclass
class CombinedResult:
    pvalue: float
    observed_stat: float
    reject: bool
    weights: dict


@dataclass
class AdjustResult:
    method: str
    alpha: float
    decisions: dict
    adjusted_pvalues: dict
    any_rejection: bool


@dataclass
class TestReport:
    technique: str
    family: str
    stat_mode: str
    alpha: float
    b: int
    epsilon: float
    cells: list[CellResult] = field(default_factory=list)
    combined: CombinedResult | None = None
    decisions: dict = field(default_factory=dict)
    any_unadjusted_rejection: bool | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _json_safe({
            "technique": self.technique,
            "family": self.family,
            "stat": self.stat_mode,
            "alpha": self.alpha,
            "b": self.b,
            "epsilon": self.epsilon,
            "cells": [{
                "pi": c.cell[0],
                "x": c.cell[1] if len(c.cell) == 2 else None,
                "pvalue": c.pvalue,
                "observed_stat": c.observed_stat,
                "tau": c.tau,
                "n_superfocal": c.n_superfocal,
                "fobs_size": c.fobs_size,
                "mean_focal": c.mean_focal,
                "acceptance_rate": c.acceptance_rate,
            } for c in self.cells],
            "combined": None if self.combined is None else {
                "pvalue": self.combined.pvalue,
                "observed_stat": self.combined.observed_stat,
                "reject": self.combined.reject,
                "weights": {_cell_key(k): v for k, v in self.combined.weights.items()},
            },
            "decisions": {m: {_cell_key(k): v for k, v in d.items()}
                          for m, d in self.decisions.items()},
            "any_unadjusted_rejection": self.any_unadjusted_rejection,
            "diagnostics": self.diagnostics,
        })


def _cell_key(cell) -> str:
    return ",".join(str(v) for v in cell) if isinstance(cell, tuple) else str(cell)


class GridEvaluations(list):
    """A region's (tau, p) pairs, tau a float or, for a point of a product
    grid, a tuple of floats; _json_safe converts the list in one pass."""

    def json(self) -> list:
        taus = [tau for tau, _ in self]
        if taus and isinstance(taus[0], tuple):
            taus = itertools.chain.from_iterable(taus)
        if not all(map(math.isfinite, taus)):  # p-values are finite
            return [_json_safe(pair) for pair in self]
        return [[list(tau) if isinstance(tau, tuple) else tau, p] for tau, p in self]


def _json_safe(obj):
    if isinstance(obj, GridEvaluations):
        return obj.json()
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):  # numpy arrays and scalars as Python ones
        return _json_safe(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def adjust_multiple(pvalues: Mapping, alpha: float, method: str) -> AdjustResult:
    """Family-wise decisions: bonferroni, holm, or unadjusted_any."""
    cells = list(pvalues)
    p = np.asarray([pvalues[c] for c in cells], dtype=np.float64)
    m = len(p)
    if m == 0:
        raise ValueError("no p-values to adjust")
    if method == "bonferroni":
        adj = np.minimum(p * m, 1.0)
        dec = p <= alpha / m
    elif method == "holm":
        order = np.argsort(p, kind="stable")
        p_sorted, k = p[order], m - np.arange(m)  # k = m - rank
        adj, dec = np.empty(m), np.empty(m, dtype=bool)
        adj[order] = np.maximum.accumulate(np.minimum(1.0, k * p_sorted))
        dec[order] = np.logical_and.accumulate(p_sorted <= alpha / k)
    elif method == "unadjusted_any":
        adj = p.copy()
        dec = p < alpha
    else:
        raise ValueError(f"unknown method {method!r}")
    decisions = {c: bool(d) for c, d in zip(cells, dec)}
    return AdjustResult(method=method, alpha=alpha, decisions=decisions,
                        adjusted_pvalues={c: float(a) for c, a in zip(cells, adj)},
                        any_rejection=bool(dec.any()))


def estimate_tau_plugin(dataset: Dataset, exposures: ExposureVector, family: str,
                        mask: np.ndarray | None = None,
                        provenance: str = PLUGIN) -> NuisanceParams:
    """Difference-in-means estimate of each effect value, over the units of
    its key: pooled for the constant family, otherwise per cell. Raises
    EmptyArm when a key's units lack an arm."""
    sel = np.ones(dataset.n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    y, t = dataset.y, dataset.t

    def dim(key) -> float:
        in_key = cell_mask(exposures.values, key, dataset.x) & sel
        m1, m0 = in_key & (t == 1), in_key & (t == 0)
        if not m1.any() or not m0.any():
            raise EmptyArm(f"no {'treated' if not m1.any() else 'control'} units for "
                           f"{f'cell {key}' if key else 'pooled sample'}")
        return float(y[m1].mean() - y[m0].mean())

    cells = family_cells(family, exposures.mapping.values, dataset.x_levels)
    keys = dict.fromkeys(effect_key(family, c) for c in cells)
    return NuisanceParams(values={k: dim(k) for k in keys}, provenance=provenance)


def _check_stat(stat: str) -> None:
    if stat not in ("multiple", "combined"):
        raise ValueError(f"stat must be 'multiple' or 'combined', got {stat!r}")


def _nuisance_diag(nuisance: NuisanceParams) -> dict:
    return {"provenance": nuisance.provenance,
            "values": {_cell_key(k): v for k, v in nuisance.values.items()}}


@dataclass(frozen=True)
class TauSource:
    """Where a test's effect values come from, the one thing the
    techniques vary. axes maps each effect key to the values tested (one
    point for a fixed effect), gamma is added to every p-value, and
    diagnostics is what the technique adds to the report. A source with
    gamma > 0 scans a region: the p-value at each of its grid points is
    reported under diagnostics[technique]["grid_evaluations"]."""

    technique: str
    axes: dict
    gamma: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def _point_source(technique, design, nuisance, **extra):
    """A fixed-effect source: each effect key's one value from nuisance."""
    axes = {k: [nuisance.get(k)] for k in (effect_key(design.family, c) for c in design.cells)}
    return TauSource(technique, axes, diagnostics={"nuisance": _nuisance_diag(nuisance), **extra})


def prepare(dataset: Dataset, mapping, family: str) -> Design:
    """The test's Design, with its one evaluation of the observed exposures.
    Raises EmptySuperFocal for a cell with no units."""
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    cells = tuple(family_cells(family, mapping.values, dataset.x_levels))
    units = {c: np.flatnonzero(cell_mask(exposures.values, c, dataset.x)) for c in cells}
    for u in units.values():
        u.flags.writeable = False  # every Draws record of the cell shares the array
    if empty := [c for c in cells if not len(units[c])]:
        raise EmptySuperFocal(f"no units with observed cell {empty[0]}")
    return Design(exposures, family, cells, units)


def check_feasible(design: Design, t: np.ndarray, split: SplitResult | None = None) -> None:
    """The one feasibility check, before any estimate or draw: raises
    SplitInfeasible when a cell's estimation half lacks an arm, then
    TooFewUnits when design.scored(cell) holds fewer than MIN_PER_ARM
    per arm, the least every accepted draw keeps."""
    for c in design.cells if split is not None else ():
        units = design.units[c]
        est = np.bincount(t[units[split.est_mask[units]]], minlength=2)
        if not est.all():
            raise SplitInfeasible(f"estimation side of cell {c} has no arm-{est.argmin()} units")
    for c in design.cells:
        n0, n1 = np.bincount(t[design.scored(c)], minlength=2)
        if min(n0, n1) < MIN_PER_ARM:
            raise TooFewUnits(
                f"cell {c}: the observed assignment has {n0}/{n1} scored super-focal "
                f"units in arms 0/1; every draw needs >= {MIN_PER_ARM} per arm")


def run_test(source: TauSource, dataset: Dataset, design: Design, mechanism, *,
             epsilon: float, b: int, rng: np.random.Generator, stat: str = "multiple",
             alpha: float = 0.05, max_attempts_per_accept: int = 10_000,
             keep_draws: bool = False) -> TestReport:
    """The conditional randomization test at the source's effect values on
    a checked Design: the one engine of every technique. One candidate
    stream serves every cell: multiple mode keeps each cell's own
    accepts, combined mode the draws satisfying every cell's
    inequalities. Each accepted draw and observed focal selection keeps
    MIN_PER_ARM scored units per arm, so every draw can be scored."""
    _check_stat(stat)
    cfg = ConditioningConfig(epsilon=epsilon, max_attempts_per_accept=max_attempts_per_accept,
                             separate=stat == "multiple", min_per_arm=MIN_PER_ARM)
    records, _ = sample_conditioning_set(mechanism, dataset, design, cfg, b, rng)
    runs = [(d, select_observed_focal(d.cell, d.units, d.focal_counts, dataset.t, rng,
                                      min_per_arm=MIN_PER_ARM)) for d in records]
    return _score_grid(source, dataset, design, runs, b=b, epsilon=epsilon, stat=stat,
                       alpha=alpha, keep_draws=keep_draws)


def _score_grid(source, dataset, design, runs, *, b, epsilon, stat, alpha, keep_draws):
    """Score the draws of every test and build its report.

    Each run pairs a cell's Draws record with its observed focal units. A
    draw t_new imputes z = y + tau (t_new - t_obs) at each tau of its
    cell's axis, source.axes[effect_key(family, cell)], and is scored from
    the record's arm sums. The report starts from the source's diagnostics
    and counts each record's scored super-focal units. A cell's p-value
    is the largest over its axis plus gamma, the combined one the largest
    over the product of the axes plus gamma.
    """
    axes, gamma, family = source.axes, source.gamma, design.family
    cells = [d.cell for d, _ in runs]
    report = TestReport(technique=source.technique, family=family, stat_mode=stat,
                        alpha=alpha, b=b, epsilon=epsilon,
                        diagnostics=dict(source.diagnostics))
    observed, stats, best_stats, pvals, grid_evals = {}, {}, {}, {}, {}
    for (d, fobs), cell in zip(runs, cells):
        # the observed column heads the draws and switches no unit: its statistic
        # is the same at every tau, and draws keeping or swapping its arms tie it
        obs_sums = arm_sums(dataset.t[d.units, None] == 1, fobs[d.units, None], d.right)
        grid = axes[effect_key(family, cell)]
        scored = ratio_stat_rows(*arm_variances(np.concatenate([obs_sums, d.sums]),
                                                d.shift, grid))
        obs, stats[cell] = float(scored[0, 0]), scored[:, 1:]
        ps = empirical_pvalue(obs, stats[cell])
        best = int(np.argmax(ps))
        observed[cell], best_stats[cell] = obs, stats[cell][best]
        pvals[cell] = min(1.0, ps[best] + gamma)
        grid_evals[_cell_key(cell)] = GridEvaluations(
            zip(np.asarray(grid, dtype=np.float64).tolist(), ps))
        report.cells.append(CellResult(
            cell=cell, pvalue=pvals[cell], observed_stat=obs,
            tau=grid[0] if len(grid) == 1 else None,
            n_superfocal=len(d.units),
            fobs_size=int(fobs.sum()), mean_focal=float(np.mean(d.focal_counts)),
            acceptance_rate=d.acceptance_rate))

    if stat == "multiple":
        for method in ("bonferroni", "holm", "unadjusted_any"):
            adj = adjust_multiple(pvals, alpha, method)
            report.decisions[method] = adj.decisions
        report.any_unadjusted_rejection = adj.any_rejection  # the last method's
    else:
        # each cell weighs its share of the observed units
        weights = [len(design.units[c]) / dataset.n for c in cells]
        obs = combined_stat(weights, [observed[c] for c in cells])
        # every point of the product grid at once: cell c's (G, b) rows lie
        # along its own axis and broadcast over the others
        keys = list(axes)
        shape = [len(g) for g in axes.values()] + [b]

        def along_axis(c):
            s = [1] * len(keys) + [b]
            s[keys.index(effect_key(family, c))] = -1
            return stats[c].reshape(s)

        total = combined_stat(weights, [along_axis(c) for c in cells])
        rows = np.broadcast_to(total, shape).reshape(-1, b)
        ps = empirical_pvalue(obs, rows)
        best = int(np.argmax(ps))
        p = min(1.0, ps[best] + gamma)
        points = itertools.product(*(np.asarray(g, dtype=np.float64).tolist()
                                     for g in axes.values()))
        grid_evals = {"combined": GridEvaluations(zip(points, ps))}
        if keep_draws:
            best_stats["combined"] = rows[best]
        report.combined = CombinedResult(
            pvalue=p, observed_stat=float(obs), reject=p < alpha,
            weights={c: float(w) for c, w in zip(cells, weights)})
    if keep_draws:
        # multiple mode has one draw set per cell, combined mode one in all
        kept = {d.cell: d.t for d, _ in runs} if stat == "multiple" else {"combined": runs[0][0].t}
        report.diagnostics.update(
            draw_stats={_cell_key(k): v.tolist() for k, v in best_stats.items()},
            draw_treatments={_cell_key(k): v.tolist() for k, v in kept.items()},
            observed_focal={_cell_key(d.cell): np.flatnonzero(f).tolist() for d, f in runs})
    if gamma:
        report.diagnostics[source.technique] = {
            **source.diagnostics[source.technique], "grid_evaluations": grid_evals}
    return report


def run_oracle_test(dataset: Dataset, mapping, mechanism, null: NullSpec, *,
                    epsilon: float, b: int, rng: np.random.Generator,
                    stat: str = "multiple", alpha: float = 0.05,
                    max_attempts_per_accept: int = 10_000,
                    keep_draws: bool = False) -> TestReport:
    """Randomization test with caller-supplied effect values."""
    if null.family == GENERAL:
        raise MissingParameter("general hypotheses are representable but not testable")
    design = prepare(dataset, mapping, null.family)
    check_feasible(design, dataset.t)
    source = _point_source("oracle", design, null.nuisance)
    return run_test(source, dataset, design, mechanism, epsilon=epsilon,
                    b=b, rng=rng, stat=stat, alpha=alpha, keep_draws=keep_draws,
                    max_attempts_per_accept=max_attempts_per_accept)


def run_plugin_test(dataset: Dataset, mapping, mechanism, family: str, *,
                    epsilon: float, b: int, rng: np.random.Generator,
                    stat: str = "multiple", alpha: float = 0.05,
                    max_attempts_per_accept: int = 10_000,
                    keep_draws: bool = False) -> TestReport:
    """Full-sample plug-in estimates of the effect values.

    Reusing the whole sample for estimation and testing has no finite- or
    large-sample guarantee; the report carries a warning flag.
    """
    design = prepare(dataset, mapping, family)
    check_feasible(design, dataset.t)
    nuisance = estimate_tau_plugin(dataset, design.exposures, family)
    source = _point_source("plugin", design, nuisance,
                           warning="plug-in nuisance estimates reuse the full "
                                   "sample; size control is not guaranteed")
    return run_test(source, dataset, design, mechanism, epsilon=epsilon,
                    b=b, rng=rng, stat=stat, alpha=alpha, keep_draws=keep_draws,
                    max_attempts_per_accept=max_attempts_per_accept)


@dataclass
class SplitResult:
    est_mask: np.ndarray
    inf_mask: np.ndarray
    strata: list


def make_balanced_split(dataset: Dataset, exposures: ExposureVector, family: str,
                        rng: np.random.Generator) -> SplitResult:
    """Half-split stratified on (treatment, family cell) so both halves
    preserve the joint cell composition; odd strata flip a coin. Strata
    are taken arm by arm in sorted cell order, empty ones skipped."""
    cells = sorted(family_cells(family, exposures.mapping.values, dataset.x_levels))
    est = np.zeros(dataset.n, dtype=bool)
    strata = []
    for arm, cell in itertools.product((0, 1), cells):
        idx = np.flatnonzero(cell_mask(exposures.values, cell, dataset.x)
                             & (dataset.t == arm))
        if not len(idx):
            continue
        strata.append((arm, *cell))
        idx = rng.permutation(idx)
        half = len(idx) // 2
        if len(idx) % 2 == 1 and rng.random() < 0.5:
            half += 1
        est[idx[:half]] = True
    return SplitResult(est_mask=est, inf_mask=~est, strata=strata)


def run_ss_test(dataset: Dataset, mapping, mechanism, family: str, *,
                epsilon: float, b: int, split_rng: np.random.Generator,
                rng: np.random.Generator, stat: str = "multiple",
                alpha: float = 0.05, max_attempts_per_accept: int = 10_000,
                keep_draws: bool = False) -> TestReport:
    """Sample splitting: estimate effects on one half, test on the other.

    Conditioning-set inequalities are evaluated on the full sample's
    super-focal sets; statistics (observed selection and per-draw focal
    units) are restricted to the inference half.
    """
    design = prepare(dataset, mapping, family)
    split = make_balanced_split(dataset, design.exposures, family, split_rng)
    design = replace(design, scored_mask=split.inf_mask)
    check_feasible(design, dataset.t, split)
    nuisance = estimate_tau_plugin(dataset, design.exposures, family,
                                   mask=split.est_mask, provenance=SPLIT_ESTIMATE)
    source = _point_source("ss", design, nuisance,
                           split={"n_estimation": int(split.est_mask.sum()),
                                  "n_inference": int(split.inf_mask.sum())})
    return run_test(source, dataset, design, mechanism, epsilon=epsilon,
                    b=b, rng=rng, stat=stat, alpha=alpha, keep_draws=keep_draws,
                    max_attempts_per_accept=max_attempts_per_accept)


@dataclass(frozen=True)
class CIConfig:
    gamma: float = 0.001
    grid_size: int = 20

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2 to include both endpoints")


def neyman_interval(y, t, level: float) -> tuple[float, float, float]:
    """Normal-approximation interval for a difference in means. Raises
    DataError when the arms' means or variances overflow float64."""
    y, t = np.asarray(y, dtype=np.float64), np.asarray(t)
    y1, y0 = y[t == 1], y[t == 0]
    if len(y1) < 2 or len(y0) < 2:
        raise DegenerateInterval(
            f"need >= 2 units per arm, got {len(y1)}/{len(y0)}")
    with np.errstate(over="ignore", invalid="ignore"):
        tau_hat = float(y1.mean() - y0.mean())
        se = math.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
    if not math.isfinite(tau_hat + se):
        raise DataError(f"the arms' means or variances overflow float64 (se={se})")
    if not se > 0.0:
        raise DegenerateInterval(f"interval width is degenerate (se={se})")
    z = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
    return tau_hat - z * se, tau_hat + z * se, tau_hat


def run_ci_test(dataset: Dataset, mapping, mechanism, family: str, *,
                epsilon: float, b: int, rng: np.random.Generator,
                ci: CIConfig = CIConfig(), stat: str = "multiple",
                alpha: float = 0.05, max_attempts_per_accept: int = 10_000,
                keep_draws: bool = False) -> TestReport:
    """Grid the effect values over a joint confidence region, run the test
    at every grid point against the same accepted draws and the same
    observed focal selection, and report max(grid p-values) + gamma.

    Each axis is one unknown effect value, with a Neyman interval from the
    units whose difference in means estimates it (all units for the
    constant family). Multiple mode scans each cell's own axis at
    grid_size points; combined mode scans the product of the axes, with
    points per axis cut so the product stays within TOTAL_GRID_BUDGET.
    """
    design = prepare(dataset, mapping, family)
    check_feasible(design, dataset.t)
    keys = list(dict.fromkeys(effect_key(family, c) for c in design.cells))
    level = 1.0 - ci.gamma / len(keys)  # Bonferroni joint coverage >= 1 - gamma
    m_axis = ci.grid_size
    truncated = stat == "combined" and m_axis ** len(keys) > TOTAL_GRID_BUDGET
    if truncated:
        m_axis = max(2, int(TOTAL_GRID_BUDGET ** (1.0 / len(keys))))
    intervals = {}
    for k in keys:
        units = design.units[k] if k else slice(None)  # the constant family pools all
        try:
            intervals[k] = neyman_interval(dataset.y[units], dataset.t[units], level)
        except (DegenerateInterval, DataError) as exc:
            raise type(exc)(f"effect key {k}: {exc}") from None
    axes = {k: np.linspace(lo, hi, m_axis) for k, (lo, hi, _) in intervals.items()}
    diag = {"gamma": ci.gamma, "grid_points_per_axis": m_axis, "grid_truncated": truncated,
            "intervals": {_cell_key(k): list(v) for k, v in intervals.items()}}
    source = TauSource("ci", axes, gamma=ci.gamma, diagnostics={"ci": diag})
    return run_test(source, dataset, design, mechanism, epsilon=epsilon,
                    b=b, rng=rng, stat=stat, alpha=alpha, keep_draws=keep_draws,
                    max_attempts_per_accept=max_attempts_per_accept)


TECHNIQUES = ("oracle", "plugin", "ci", "ss")


def run_technique(technique: str, dataset: Dataset, mapping, mechanism,
                  family: str, seeds: np.random.SeedSequence, *,
                  null: NullSpec | None = None, ci: CIConfig = CIConfig(),
                  **common) -> TestReport:
    """Run one of TECHNIQUES with the oracle's null or the CI settings.

    Sample splitting draws its split from the first of two children of
    seeds and its test from the second; the others use seeds directly.
    """
    if technique == "ss":
        split_ss, draw_ss = seeds.spawn(2)
        return run_ss_test(dataset, mapping, mechanism, family,
                           split_rng=np.random.default_rng(split_ss),
                           rng=np.random.default_rng(draw_ss), **common)
    rng = np.random.default_rng(seeds)
    if technique == "oracle":
        return run_oracle_test(dataset, mapping, mechanism, null, rng=rng, **common)
    if technique == "plugin":
        return run_plugin_test(dataset, mapping, mechanism, family, rng=rng, **common)
    if technique == "ci":
        return run_ci_test(dataset, mapping, mechanism, family, rng=rng, ci=ci,
                           **common)
    raise ValueError(f"unknown technique {technique!r}")


def run_permutation_variant(dataset: Dataset, mapping, family: str,
                            split: SplitResult, b: int | None,
                            rng: np.random.Generator, *,
                            stat: str = "multiple", alpha: float = 0.05,
                            keep_draws: bool = False) -> TestReport:
    """Permutation analogue on a fixed super-focal set.

    After the split, the effect-adjusted outcomes y - tau t of each
    inference-side super-focal cell are permuted within the cell,
    treatments held fixed. Each cell's record sums the adjusted outcomes
    over the permutations as treatment rows of fixed focal units, which
    the engine's scorer scores at tau = 0, so every outcome keeps its
    float in whichever arm it lands: a permutation that reproduces the
    observed arms, or swaps the two, ties exactly. b=None enumerates all
    within-cell permutations, up to ENUMERATION_LIMIT of them. The spread
    of this null is narrower than the randomization null's, which is the
    diagnostic comparing the two procedures.
    """
    _check_stat(stat)
    design = replace(prepare(dataset, mapping, family), scored_mask=split.inf_mask)
    check_feasible(design, dataset.t, split)
    nuisance = estimate_tau_plugin(dataset, design.exposures, family,
                                   mask=split.est_mask, provenance=SPLIT_ESTIMATE)
    cells, t = design.cells, dataset.t
    taus = [nuisance.get(effect_key(family, c)) for c in cells]
    units = [design.scored(c) for c in cells]

    if b is None:
        total = 1
        for k in (k for idx in units for k in range(2, len(idx) + 1)):
            if (total := total * k) > ENUMERATION_LIMIT:  # no factorial past the limit
                raise ValueError(f"more than {ENUMERATION_LIMIT} permutations, the "
                                 f"enumeration limit; pass b instead")
        reps = itertools.product(*(itertools.permutations(range(len(idx))) for idx in units))
    else:
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        reps = ([rng.permutation(len(idx)) for idx in units] for _ in range(b))
    rows = []
    for perms in reps:
        row = t.copy()
        for idx, perm in zip(units, perms):
            row[idx[np.asarray(perm)]] = t[idx]
        rows.append(row)
    t_new = np.asarray(rows)
    runs = []
    for c, idx, tau in zip(cells, units, taus):
        # every permutation keeps the cell's inference units focal
        treated = t_new.T[idx] == 1
        right, shift = arm_rhs(dataset.y[idx] - tau * t[idx], t[idx])
        sums = arm_sums(treated, np.ones_like(treated), right)
        runs.append((Draws(t_new, idx, right, shift, sums, np.full(len(t_new), len(idx)), c,
                           n_candidates=len(t_new)), np.bincount(idx, minlength=dataset.n) > 0))
    source = TauSource("permutation", {effect_key(family, c): [0.0] for c in cells},
                       diagnostics={"nuisance": _nuisance_diag(nuisance)})
    report = _score_grid(source, dataset, design, runs,
                         b=len(t_new), epsilon=float("nan"), stat=stat,
                         alpha=alpha, keep_draws=keep_draws)
    for res, tau in zip(report.cells, taus):
        res.tau = tau
    return report
