"""The names the benchmark reads from netrand are all still there.

``benchmarks/tracing.py`` patches netrand functions by attribute name and
``benchmarks/checks.py`` recomputes kept draws through the scalar
reference path. Both only read the package; a name either needs that has
gone fails here rather than in a benchmark run.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import netrand as nr
from fixtures import TOY12_EPS, TOY12_MAPPING, make_toy12

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import checks  # noqa: E402
import tracing  # noqa: E402


def test_tracer_finds_every_patched_name():
    assert tracing.Tracer().missing == []


@pytest.mark.parametrize("stat", ["multiple", "combined"])
def test_scalar_path_check_passes_on_an_oracle_report(stat):
    ds = make_toy12()
    mechanism = nr.CompleteRandomization(12, 6)
    null = nr.NullSpec.per_exposure({0: 0.5, 1: -0.25})
    report = nr.run_oracle_test(ds, TOY12_MAPPING, mechanism, null,
                                epsilon=TOY12_EPS, b=40, stat=stat,
                                rng=np.random.default_rng(3), keep_draws=True)
    out = checks.scalar_path_check(ds, TOY12_MAPPING, mechanism, report, TOY12_EPS)
    assert out["draws_checked"] == 40 * (2 if stat == "multiple" else 1)
    assert out["max_rel_err"] <= checks.REL_TOL


def test_ci_grid_check_passes_on_a_combined_report():
    ds = make_toy12()
    report = nr.run_ci_test(ds, TOY12_MAPPING, nr.CompleteRandomization(12, 6),
                            "by_exposure", epsilon=TOY12_EPS, b=60, stat="combined",
                            ci=nr.CIConfig(gamma=0.01, grid_size=5),
                            rng=np.random.default_rng(4))
    out = checks.ci_grid_check(report)
    assert out["grid_points_checked"] == 25


def test_every_ci_grid_pvalue_matches_the_scalar_path():
    # each grid p-value against the fraction of kept draws whose scalar
    # statistic at that tau reaches the observed one, up to draws within
    # REL_TOL of it; the kept draws are the same at every grid point
    ds = make_toy12()
    report = nr.run_ci_test(ds, TOY12_MAPPING, nr.CompleteRandomization(12, 6),
                            "by_exposure", epsilon=TOY12_EPS, b=60, stat="multiple",
                            ci=nr.CIConfig(gamma=0.01, grid_size=6),
                            rng=np.random.default_rng(4), keep_draws=True)
    diag = report.diagnostics
    t_obs = np.asarray(ds.t, dtype=np.int64)
    pi_obs = nr.compute_exposures(TOY12_MAPPING, ds.t, ds.graph).values
    checked = 0
    for res in report.cells:
        key = checks.cell_key(res.cell)
        sf = nr.superfocal_for_cell(pi_obs, res.cell, ds.x).indicator
        rows = np.asarray(diag["draw_treatments"][key], dtype=np.int64)
        focal = [(TOY12_MAPPING.compute(row, ds.graph) == res.cell[0]) & sf for row in rows]
        fobs = np.zeros(ds.n, dtype=bool)
        fobs[diag["observed_focal"][key]] = True
        obs = nr.ts_per_exposure(ds.y, t_obs, fobs).value
        for tau, p in diag["ci"]["grid_evaluations"][key]:
            stats = np.array([nr.ts_per_exposure(ds.y + tau * (row - t_obs), row, f).value
                              for row, f in zip(rows, focal)])
            checks._check_pvalue(f"cell {key} at tau {tau}", p, stats, obs)
            checked += 1
    assert checked == 2 * 6
