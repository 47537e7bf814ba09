"""Memory bounds: large designs run within a fixed address-space limit.

The limit is set with ``resource.setrlimit(RLIMIT_AS)`` inside a child
process, so it acts on that process only.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import netrand

resource = pytest.importorskip("resource")

SRC = str(Path(netrand.__file__).resolve().parent.parent)

CHILD = textwrap.dedent("""
    import json, resource
    limit = 3 * 10**9
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import numpy as np
    import netrand as nr

    n = 50_000
    rng = np.random.default_rng(0)
    graph = nr.generate_regular_graph(n, 5, rng)
    t = np.zeros(n, dtype=np.int8)
    t[rng.choice(n, n // 2, replace=False)] = 1
    ds = nr.Dataset(y=rng.standard_normal(n), t=t, graph=graph)
    report = nr.run_oracle_test(ds, nr.FractionThreshold(0.5, ">"),
                                nr.CompleteRandomization(n, n // 2),
                                nr.NullSpec.constant(0.0), epsilon=0.2, b=99,
                                rng=rng, stat="multiple")
    print(json.dumps([c.pvalue for c in report.cells]))
""")


def test_n50000_oracle_test_runs_in_3gb_address_space():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    pvalues = [float(p) for p in proc.stdout.strip().splitlines()[-1].strip("[]").split(",")]
    assert len(pvalues) == 2 and all(0.0 <= p <= 1.0 for p in pvalues)
