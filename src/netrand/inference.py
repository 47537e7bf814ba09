"""Randomization-test engines.

Four ways to handle the unknown effect values a null needs: oracle
(caller supplies them), plug-in (full-sample difference in means,
anti-conservative and flagged as such), confidence-interval (grid over a
moment-based region, p-value inflated by the region's miscoverage), and
sample splitting (estimate on one half, test on the other). All four run
one engine over a grid of effect values, a single point for all but the
confidence-interval technique; p-values are the plain fraction of
accepted draws whose statistic reaches the observed one, with no +1
smoothing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .conditioning import (Cell, ConditioningConfig, SuperFocalSet, cell_mask,
                           sample_conditioning_set, select_observed_focal,
                           superfocal_for_cell)
from .data import Dataset
from .errors import (DataError, DegenerateInterval, EmptyArm, MissingParameter,
                     SplitInfeasible, TooFewUnits)
from .exposure import ExposureVector, compute_exposures
from .nullspec import (BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL,
                       GENERAL, PLUGIN, SPLIT_ESTIMATE, NuisanceParams,
                       NullSpec)
from .stats import arm_variances, combined_stat, ratio_stat_rows

MIN_OBSERVED_FOCAL = 4  # two per arm is the least that gives two variances
ENUMERATION_LIMIT = 10_000  # most permutations run_permutation_variant enumerates


def empirical_pvalue(observed, draw_stats):
    """Fraction of draw statistics >= the observed one (ties count) along
    the last axis: a float for one row of draws, a list of floats for a
    (G, b) stack of rows."""
    stats = np.atleast_1d(np.asarray(draw_stats, dtype=np.float64))
    if stats.shape[-1] < 1:
        raise ValueError("need at least one draw statistic")
    return np.mean(stats >= float(observed), axis=-1).tolist()


def family_cells(family: str, values: Sequence, x_levels: Sequence | None) -> list[Cell]:
    if family in (CONSTANT_ALL, BY_EXPOSURE):
        return [(v,) for v in values]
    if family == BY_EXPOSURE_COVARIATE:
        if not x_levels:
            raise DataError("per-cell families require a covariate column")
        return [(v, l) for v in values for l in x_levels]
    raise MissingParameter(f"family {family!r} has no testable cell structure")


def _imputed_stats(y, t_obs, t_new, focal, taus) -> np.ndarray:
    """(G, B) variance-ratio statistics of z = y + tau (t_new - t_obs) over
    each row's focal units, split into arms by the rows of t_new, at every
    tau. Within an arm, t_new - t_obs is +1 (treated arm) or -1 (control
    arm) on the units the row switched and 0 elsewhere, so arm_variances
    takes each arm's moments once and every tau costs O(B)."""
    v1, v0 = [arm_variances(y, focal & (t_new == arm), taus, t_obs != arm,
                            1.0 if arm else -1.0) for arm in (1, 0)]
    return ratio_stat_rows(v1, v0)


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
    if isinstance(cell, tuple):
        return ",".join(str(v) for v in cell)
    return str(cell)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k) if not isinstance(k, str) else k: _json_safe(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
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
        adj = np.empty(m)
        running = 0.0
        for rank, idx in enumerate(order):
            running = max(running, min(1.0, (m - rank) * p[idx]))
            adj[idx] = running
        dec = np.zeros(m, dtype=bool)
        for rank, idx in enumerate(order):
            if p[idx] <= alpha / (m - rank):
                dec[idx] = True
            else:
                break
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
    """Difference-in-means effect estimates: pooled for the constant
    family, otherwise per cell. Raises EmptyArm when a cell lacks an arm."""
    pi = np.asarray(exposures.values)
    sel = np.ones(dataset.n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    y, t = dataset.y, dataset.t

    def dim(in_cell, label) -> float:
        m1 = in_cell & (t == 1) & sel
        m0 = in_cell & (t == 0) & sel
        if not m1.any() or not m0.any():
            raise EmptyArm(f"no {'treated' if not m1.any() else 'control'} units for {label}")
        return float(y[m1].mean() - y[m0].mean())

    if family == CONSTANT_ALL:
        values = {(): dim(np.ones(dataset.n, dtype=bool), "pooled sample")}
    else:
        cells = family_cells(family, exposures.mapping.values, dataset.x_levels or None)
        values = {c: dim(cell_mask(pi, c, dataset.x), f"cell {c}") for c in cells}
    return NuisanceParams(values=values, provenance=provenance)


def _tau_lookup(null: NullSpec, cell: Cell) -> float:
    return null.tau_for(cell[0], cell[1] if len(cell) == 2 else None)


def _attach_decisions(report: TestReport, pvals: dict, alpha: float) -> None:
    for method in ("bonferroni", "holm", "unadjusted_any"):
        adj = adjust_multiple(pvals, alpha, method)
        report.decisions[method] = adj.decisions
        if method == "unadjusted_any":
            report.any_unadjusted_rejection = adj.any_rejection


def _check_stat(stat: str) -> None:
    if stat not in ("multiple", "combined"):
        raise ValueError(f"stat must be 'multiple' or 'combined', got {stat!r}")


def _grid_test(technique, dataset, mapping, mechanism, family, axes, cell_axis,
               gamma, *, epsilon, b, rng, stat, alpha, max_attempts,
               keep_draws, inf_mask=None):
    """The conditional randomization test over a grid of effect values:
    multiple mode samples each cell's conditioning set on its own,
    combined mode one set satisfying every cell's inequalities. Each
    cell's focal units are restricted to inf_mask when given."""
    _check_stat(stat)
    cells = list(cell_axis)
    pi_obs = compute_exposures(mapping, dataset.t, dataset.graph).values
    groups = [(c,) for c in cells] if stat == "multiple" else [tuple(cells)]
    runs = []
    for group in groups:
        cfg = ConditioningConfig(epsilon=epsilon, cells=group,
                                 max_attempts_per_accept=max_attempts)
        draws, diag = sample_conditioning_set(mechanism, dataset, pi_obs,
                                              mapping, cfg, b, rng)
        for cell in group:
            sf = superfocal_for_cell(pi_obs, cell, dataset.x)
            if inf_mask is not None:
                sf = SuperFocalSet(indicator=sf.indicator & inf_mask, cell=cell)
            focal = draws.focal & sf.indicator
            mean_focal = float(np.mean(focal.sum(axis=1)))
            if round(mean_focal) < MIN_OBSERVED_FOCAL:
                raise TooFewUnits(
                    f"cell {cell}: observed focal selection of size {round(mean_focal)} "
                    f"cannot support two per-arm variances (need >= {MIN_OBSERVED_FOCAL})")
            fobs = select_observed_focal(sf, focal, dataset.t, rng, min_per_arm=2)
            runs.append((cell, sf.n, draws.t, focal, fobs, mean_focal,
                         diag.acceptance_rate))
    return _score_grid(technique, dataset, family, pi_obs, runs, axes,
                       cell_axis, gamma, b=b, epsilon=epsilon, stat=stat,
                       alpha=alpha, keep_draws=keep_draws)


def _score_grid(technique, dataset, family, pi_obs, runs, axes, cell_axis,
                gamma, *, b, epsilon, stat, alpha, keep_draws):
    """Score the draws of every test and build its report.

    Each run is (cell, n_superfocal, t_new, focal, fobs, mean_focal,
    acceptance_rate): (b, N) treatment rows, the cell's focal units under
    each (or one broadcast row), and the observed focal units. A draw
    imputes z = y + tau (t_new - t_obs) at each tau of its cell's axis,
    axes[cell_axis[cell]], scored on the columns its cell's focal rows or
    observed focal units hold. A cell's p-value is the largest over its
    axis plus gamma, the combined one the largest over the product of the
    axes plus gamma; fixed effects are the one-point grid with gamma = 0.
    Returns the report and the grid evaluations behind its p-values.
    """
    cells = list(cell_axis)
    report = TestReport(technique=technique, family=family, stat_mode=stat,
                        alpha=alpha, b=b, epsilon=epsilon)
    y, t_obs = dataset.y, dataset.t
    observed, stats, best_stats, pvals, grid_evals = {}, {}, {}, {}, {}
    for cell, n_sf, t_new, focal, fobs, mean_focal, acceptance in runs:
        cols = np.flatnonzero(focal.any(axis=0) | fobs)
        yc, tc = y[cols], t_obs[cols]
        # the observed statistic is a one-row batch of the same kernel, so a
        # draw that keeps or swaps the observed arms ties with it exactly
        obs = float(_imputed_stats(yc, tc, tc[None, :], fobs[None, cols], [0.0])[0, 0])
        grid = axes[cell_axis[cell]]
        stats[cell] = _imputed_stats(yc, tc, t_new[:, cols], focal[:, cols], grid)
        ps = empirical_pvalue(obs, stats[cell])
        best = int(np.argmax(ps))
        observed[cell], best_stats[cell] = obs, stats[cell][best]
        pvals[cell] = min(1.0, ps[best] + gamma)
        grid_evals[_cell_key(cell)] = [(float(tau), p) for tau, p in zip(grid, ps)]
        report.cells.append(CellResult(
            cell=cell, pvalue=pvals[cell], observed_stat=obs,
            tau=grid[0] if len(grid) == 1 else None, n_superfocal=n_sf,
            fobs_size=int(fobs.sum()), mean_focal=mean_focal,
            acceptance_rate=acceptance))

    if stat == "multiple":
        _attach_decisions(report, pvals, alpha)
    else:
        # each cell weighs its share of the observed units
        weights = [int(cell_mask(pi_obs, c, dataset.x).sum()) / dataset.n
                   for c in cells]
        obs = combined_stat(weights, [observed[c] for c in cells])
        # every point of the product grid at once: cell c's (G, b) rows lie
        # along its own axis and broadcast over the others
        keys = list(axes)
        shape = [len(g) for g in axes.values()] + [b]

        def along_axis(c):
            s = [1] * len(keys) + [b]
            s[keys.index(cell_axis[c])] = -1
            return stats[c].reshape(s)

        total = combined_stat(weights, [along_axis(c) for c in cells])
        rows = np.broadcast_to(total, shape).reshape(-1, b)
        ps = empirical_pvalue(obs, rows)
        best = int(np.argmax(ps))
        p = min(1.0, ps[best] + gamma)
        grid_evals = {"combined": [
            (tuple(float(tau) for tau in point), q)
            for point, q in zip(itertools.product(*axes.values()), ps)]}
        if keep_draws:
            best_stats["combined"] = rows[best]
        report.combined = CombinedResult(
            pvalue=p, observed_stat=float(obs), reject=p < alpha,
            weights={c: float(w) for c, w in zip(cells, weights)})
    if keep_draws:
        # multiple mode has one draw set per cell, combined mode one in all
        kept = ({run[0]: run[2] for run in runs} if stat == "multiple"
                else {"combined": runs[0][2]})
        report.diagnostics["draw_stats"] = {_cell_key(k): v.tolist()
                                            for k, v in best_stats.items()}
        report.diagnostics["draw_treatments"] = {_cell_key(k): v.tolist()
                                                 for k, v in kept.items()}
        report.diagnostics["observed_focal"] = {
            _cell_key(run[0]): np.nonzero(run[4])[0].tolist() for run in runs}
    return report, grid_evals


def _nuisance_diag(nuisance: NuisanceParams) -> dict:
    return {"provenance": nuisance.provenance,
            "values": {_cell_key(k): v for k, v in nuisance.values.items()}}


def _run_fixed_tau_test(technique, dataset, mapping, mechanism, null, *,
                        epsilon, b, rng, stat, alpha, max_attempts,
                        keep_draws, inf_mask=None, extra_diag=None):
    cells = family_cells(null.family, mapping.values, dataset.x_levels or None)
    report, _ = _grid_test(
        technique, dataset, mapping, mechanism, null.family,
        {c: [_tau_lookup(null, c)] for c in cells}, {c: c for c in cells}, 0.0,
        epsilon=epsilon, b=b, rng=rng, stat=stat, alpha=alpha,
        max_attempts=max_attempts, keep_draws=keep_draws, inf_mask=inf_mask)
    report.diagnostics = {"nuisance": _nuisance_diag(null.nuisance),
                          **report.diagnostics, **(extra_diag or {})}
    return report


def run_oracle_test(dataset: Dataset, mapping, mechanism, null: NullSpec, *,
                    epsilon: float, b: int, rng: np.random.Generator,
                    stat: str = "multiple", alpha: float = 0.05,
                    max_attempts_per_accept: int = 10_000,
                    keep_draws: bool = False) -> TestReport:
    """Randomization test with caller-supplied effect values."""
    if null.family == GENERAL:
        raise MissingParameter(
            "general hypotheses are representable but not testable")
    return _run_fixed_tau_test("oracle", dataset, mapping, mechanism, null,
                               epsilon=epsilon, b=b, rng=rng, stat=stat,
                               alpha=alpha, max_attempts=max_attempts_per_accept,
                               keep_draws=keep_draws)


def run_plugin_test(dataset: Dataset, mapping, mechanism, family: str, *,
                    epsilon: float, b: int, rng: np.random.Generator,
                    stat: str = "multiple", alpha: float = 0.05,
                    max_attempts_per_accept: int = 10_000,
                    keep_draws: bool = False) -> TestReport:
    """Full-sample plug-in estimates of the effect values.

    Reusing the whole sample for estimation and testing has no finite- or
    large-sample guarantee; the report carries a warning flag.
    """
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    nuisance = estimate_tau_plugin(dataset, exposures, family)
    null = NullSpec(family, nuisance)
    return _run_fixed_tau_test(
        "plugin", dataset, mapping, mechanism, null,
        epsilon=epsilon, b=b, rng=rng, stat=stat, alpha=alpha,
        max_attempts=max_attempts_per_accept, keep_draws=keep_draws,
        extra_diag={"warning": "plug-in nuisance estimates reuse the full "
                               "sample; size control is not guaranteed"})


@dataclass
class SplitResult:
    est_mask: np.ndarray
    inf_mask: np.ndarray
    strata: list


def make_balanced_split(dataset: Dataset, exposures: ExposureVector, family: str,
                        rng: np.random.Generator) -> SplitResult:
    """Half-split stratified on (treatment, exposure[, covariate]) so both
    halves preserve the joint cell composition; odd cells flip a coin."""
    pi = np.asarray(exposures.values)
    keys = [tuple(k) for k in zip(dataset.t.tolist(), pi.tolist())]
    if family == BY_EXPOSURE_COVARIATE:
        if dataset.x is None:
            raise DataError("per-cell families require a covariate column")
        keys = [k + (x,) for k, x in zip(keys, dataset.x.tolist())]
    est = np.zeros(dataset.n, dtype=bool)
    strata = sorted(set(keys))
    for s in strata:
        idx = np.array([i for i, k in enumerate(keys) if k == s])
        idx = rng.permutation(idx)
        half = len(idx) // 2
        if len(idx) % 2 == 1 and rng.random() < 0.5:
            half += 1
        est[idx[:half]] = True
    return SplitResult(est_mask=est, inf_mask=~est, strata=strata)


def _check_split(dataset, pi_obs, cells, split):
    t = dataset.t
    for cell in cells:
        m = cell_mask(pi_obs, cell, dataset.x)
        for arm in (0, 1):
            if not (m & (t == arm) & split.est_mask).any():
                raise SplitInfeasible(
                    f"estimation side of cell {cell} has no arm-{arm} units")
            if int((m & (t == arm) & split.inf_mask).sum()) < 2:
                raise SplitInfeasible(
                    f"inference side of cell {cell} has fewer than 2 arm-{arm} units")


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
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    cells = family_cells(family, mapping.values, dataset.x_levels or None)
    split = make_balanced_split(dataset, exposures, family, split_rng)
    _check_split(dataset, exposures.values, cells, split)
    nuisance = estimate_tau_plugin(dataset, exposures, family,
                                   mask=split.est_mask,
                                   provenance=SPLIT_ESTIMATE)
    null = NullSpec(family, nuisance)
    extra = {"split": {
        "n_estimation": int(split.est_mask.sum()),
        "n_inference": int(split.inf_mask.sum()),
    }}
    return _run_fixed_tau_test("ss", dataset, mapping, mechanism, null,
                               epsilon=epsilon, b=b, rng=rng, stat=stat,
                               alpha=alpha, max_attempts=max_attempts_per_accept,
                               keep_draws=keep_draws, inf_mask=split.inf_mask,
                               extra_diag=extra)


@dataclass(frozen=True)
class CIConfig:
    gamma: float = 0.001
    grid_size: int = 20
    total_grid_budget: int = 400

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2 to include both endpoints")


def neyman_interval(y, t, level: float, mask=None) -> tuple[float, float, float]:
    """Normal-approximation interval for a difference in means."""
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t)
    sel = np.ones(len(y), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    y1 = y[sel & (t == 1)]
    y0 = y[sel & (t == 0)]
    if len(y1) < 2 or len(y0) < 2:
        raise DegenerateInterval(
            f"need >= 2 units per arm, got {len(y1)}/{len(y0)}")
    tau_hat = float(y1.mean() - y0.mean())
    se = math.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
    if not (math.isfinite(se) and se > 0.0):
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
    points per axis cut so the product stays within total_grid_budget.
    """
    cells = family_cells(family, mapping.values, dataset.x_levels or None)
    pi_obs = compute_exposures(mapping, dataset.t, dataset.graph).values
    cell_axis = {c: () if family == CONSTANT_ALL else c for c in cells}
    keys = list(dict.fromkeys(cell_axis.values()))
    level = 1.0 - ci.gamma / len(keys)  # Bonferroni joint coverage >= 1 - gamma
    m_axis = ci.grid_size
    truncated = stat == "combined" and m_axis ** len(keys) > ci.total_grid_budget
    if truncated:
        m_axis = max(2, int(ci.total_grid_budget ** (1.0 / len(keys))))
    intervals = {k: neyman_interval(dataset.y, dataset.t, level,
                                    cell_mask(pi_obs, k, dataset.x) if k else None)  # () pools all units
                 for k in keys}
    axes = {k: np.linspace(lo, hi, m_axis) for k, (lo, hi, _) in intervals.items()}
    report, grid_evals = _grid_test(
        "ci", dataset, mapping, mechanism, family, axes, cell_axis, ci.gamma,
        epsilon=epsilon, b=b, rng=rng, stat=stat, alpha=alpha,
        max_attempts=max_attempts_per_accept, keep_draws=keep_draws)
    report.diagnostics["ci"] = {
        "gamma": ci.gamma,
        "grid_points_per_axis": m_axis,
        "grid_truncated": truncated,
        "intervals": {_cell_key(k): list(v) for k, v in intervals.items()},
        "grid_evaluations": _json_safe(grid_evals),
    }
    return report


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
    treatments held fixed. The engine's scorer takes the permutations as
    treatment rows over fixed focal units and scores the adjusted
    outcomes at tau = 0, so every outcome keeps its float in whichever
    arm it lands: a permutation that reproduces the observed arms, or
    swaps the two, ties exactly. b=None enumerates all within-cell
    permutations, up to ENUMERATION_LIMIT of them. The spread of this
    null is narrower than the randomization null's, which is the
    diagnostic comparing the two procedures.
    """
    _check_stat(stat)
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    cells = family_cells(family, mapping.values, dataset.x_levels or None)
    nuisance = estimate_tau_plugin(dataset, exposures, family,
                                   mask=split.est_mask, provenance=SPLIT_ESTIMATE)
    null = NullSpec(family, nuisance)
    t = dataset.t
    masks = [cell_mask(exposures.values, c, dataset.x) & split.inf_mask for c in cells]
    units = [np.flatnonzero(m) for m in masks]
    adjusted = dataset.y.copy()
    for cell, m in zip(cells, masks):
        if min(np.bincount(t[m], minlength=2)) < 2:
            raise TooFewUnits(f"cell {cell}: the inference side needs >= 2 units per arm")
        adjusted[m] -= _tau_lookup(null, cell) * t[m]

    if b is None:
        total = math.prod(math.factorial(len(idx)) for idx in units)
        if total > ENUMERATION_LIMIT:
            raise ValueError(f"{total} permutations exceeds the enumeration "
                             f"limit {ENUMERATION_LIMIT}; pass b instead")
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
    runs = [(c, len(idx), t_new, m[None, :], m, float(len(idx)), 1.0)
            for c, idx, m in zip(cells, units, masks)]
    report, _ = _score_grid(
        "permutation", replace(dataset, y=adjusted), family, exposures.values,
        runs, {c: [0.0] for c in cells}, {c: c for c in cells}, 0.0,
        b=len(t_new), epsilon=float("nan"), stat=stat, alpha=alpha,
        keep_draws=keep_draws)
    for res in report.cells:
        res.tau = _tau_lookup(null, res.cell)
    report.diagnostics = {"nuisance": _nuisance_diag(nuisance), **report.diagnostics}
    return report
