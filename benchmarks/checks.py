"""Output checks run after the timed loop.

The engine computes draw statistics with a batched kernel
(``masked_arm_variances``). The checks here recompute them one draw at a
time through the scalar path: ``mapping.compute``, then focal = retained
exposure and super-focal, then ``ts_per_exposure`` on
z = y + tau * (t_new - t_obs). Every retained draw must also be in the
mechanism's support and pass the epsilon inequalities of its target.
"""
from __future__ import annotations

import math

import numpy as np

import netrand as nr

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def cell_key(cell) -> str:
    """The report's string key for a cell: "0" for (0,), "0,1" for (0, 1)."""
    return ",".join(str(v) for v in cell)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise CheckFailed(f"shape mismatch {a.shape} vs {b.shape}")
    same_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    if (np.isinf(a) != np.isinf(b)).any() or np.isnan(a).any() or np.isnan(b).any():
        raise CheckFailed("infinite or NaN statistic in only one path")
    fa, fb = a[~same_inf], b[~same_inf]
    if fa.size == 0:
        return 0.0
    scale = np.maximum(np.maximum(np.abs(fa), np.abs(fb)), np.finfo(float).tiny)
    return float(np.max(np.abs(fa - fb) / scale))


def _check_pvalue(label: str, p_engine: float, stats: np.ndarray,
                  observed: float) -> int:
    """The p-value must match the scalar path's, except for draws whose
    statistic lies within REL_TOL of the observed one. Returns their count."""
    b = len(stats)
    p_scalar = float(np.mean(stats >= observed))
    if math.isinf(observed):
        ties = 0
    else:
        finite = np.isfinite(stats)
        ties = int(np.sum(finite & (np.abs(stats - observed)
                                    <= REL_TOL * max(abs(observed), 1.0))))
    if abs(p_scalar - p_engine) * b > ties + 1e-6:
        raise CheckFailed(f"{label}: p-value {p_engine!r} but scalar path gives "
                          f"{p_scalar!r} with {ties} draws in the tie band")
    return ties


def same_pvalues(a: list[float], b: list[float], label: str) -> None:
    if a != b:
        raise CheckFailed(f"{label}: p-values {a} differ from the keep_draws re-run {b}")


def scalar_path_check(dataset, mapping, mechanism, report, epsilon: float) -> dict:
    """Recompute every retained draw of a ``keep_draws=True`` fixed-tau
    report through the scalar path and compare."""
    diag = report.diagnostics
    joint = report.combined is not None
    cells = [c.cell for c in report.cells]
    t_obs = np.asarray(dataset.t, dtype=np.int64)
    y = dataset.y
    pi_obs = nr.compute_exposures(mapping, dataset.t, dataset.graph).values
    sfs = {c: nr.superfocal_for_cell(pi_obs, c, dataset.x) for c in cells}

    treatments = {k: np.asarray(v, dtype=np.int64)
                  for k, v in diag["draw_treatments"].items()}
    exposures = {}
    n_draws = 0
    for key, rows in treatments.items():
        if rows.shape[0] != report.b:
            raise CheckFailed(f"draw set {key!r} holds {rows.shape[0]} draws, b={report.b}")
        target = cells if joint else [c for c in cells if cell_key(c) == key]
        pis = []
        for row in rows:
            if not mechanism.supports(row):
                raise CheckFailed(f"draw set {key!r}: a draw is outside the mechanism's support")
            pi_new = np.asarray(mapping.compute(row, dataset.graph))
            for c in target:
                for arm in (0, 1):
                    r = nr.relative_frequency(row, pi_new, sfs[c], arm)
                    if not r > epsilon:
                        raise CheckFailed(
                            f"draw set {key!r}: cell {c} arm {arm} has relative "
                            f"frequency {r} <= epsilon {epsilon}")
            pis.append(pi_new)
        exposures[key] = np.stack(pis)
        n_draws += rows.shape[0]

    max_rel = 0.0
    ties = 0
    scalar_stats = {}
    scalar_obs = {}
    for res in report.cells:
        c = res.cell
        key = "combined" if joint else cell_key(c)
        rows, pis = treatments[key], exposures[key]
        tau = res.tau
        stats = np.array([
            nr.ts_per_exposure(y + tau * (row - t_obs), row,
                               (pi_new == c[0]) & sfs[c].indicator).value
            for row, pi_new in zip(rows, pis)])
        engine = np.array([float(v) for v in diag["draw_stats"][cell_key(c)]])
        max_rel = max(max_rel, _rel_err(stats, engine))
        fobs = np.zeros(dataset.n, dtype=bool)
        fobs[np.asarray(diag["observed_focal"][cell_key(c)], dtype=np.int64)] = True
        obs = nr.ts_per_exposure(y, t_obs, fobs).value
        max_rel = max(max_rel, _rel_err([obs], [res.observed_stat]))
        ties += _check_pvalue(f"cell {c}", res.pvalue, stats, obs)
        scalar_stats[c], scalar_obs[c] = stats, obs

    if joint:
        w = report.combined.weights
        rows = sum(w[c] * scalar_stats[c] for c in cells)
        obs = sum(w[c] * scalar_obs[c] for c in cells)
        engine = np.array([float(v) for v in diag["draw_stats"]["combined"]])
        max_rel = max(max_rel, _rel_err(rows, engine),
                      _rel_err([obs], [report.combined.observed_stat]))
        ties += _check_pvalue("combined", report.combined.pvalue, rows, obs)
    if max_rel > REL_TOL:
        raise CheckFailed(f"draw statistics differ from the scalar path by a "
                          f"relative {max_rel:.3g} > {REL_TOL}")
    return {"draws_checked": n_draws, "max_rel_err": max_rel, "tie_band_draws": ties}


def ci_grid_check(report) -> dict:
    """Combined mode: p = min(1, max grid p + gamma), and every grid p is a
    multiple of 1/b."""
    ci = report.diagnostics["ci"]
    ps = [float(p) for _, p in ci["grid_evaluations"]["combined"]]
    for p in ps:
        if abs(p * report.b - round(p * report.b)) > 1e-9 * report.b:
            raise CheckFailed(f"grid p-value {p!r} is not on the 1/b lattice")
    want = min(1.0, max(ps) + ci["gamma"])
    if report.combined.pvalue != want:
        raise CheckFailed(f"p-value {report.combined.pvalue!r}, expected "
                          f"min(1, max grid p + gamma) = {want!r}")
    return {"grid_points_checked": len(ps)}
