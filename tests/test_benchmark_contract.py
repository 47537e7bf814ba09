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
