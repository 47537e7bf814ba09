"""Memory bounds: large designs run within a fixed address-space limit,
and repeated sampler calls reuse a heap that stays mapped.

Each check runs in a child process; the limit is set there with
``resource.setrlimit(RLIMIT_AS)``, so it acts on that process only.
"""
import os
import platform
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


# Eleven inference units in one cell have 11! = 39 916 800 permutations,
# far past ENUMERATION_LIMIT; listing them would take gigabytes.
ENUMERATION_CHILD = textwrap.dedent("""
    import resource, time
    limit = 2 * 10**9
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import numpy as np
    import netrand as nr
    from netrand.inference import SplitResult

    ds = nr.Dataset(y=np.arange(22, dtype=float), t=np.array([1, 0] * 11),
                    graph=nr.build_graph(22, []))
    est = np.arange(22) < 11
    split = SplitResult(est_mask=est, inf_mask=~est, strata=[])
    start = time.perf_counter()
    try:
        nr.run_permutation_variant(ds, nr.CustomMapping(lambda i, t, g: 0, (0,)),
                                   "constant_all", split, b=None,
                                   rng=np.random.default_rng(0))
    except (ValueError, MemoryError) as exc:
        print(type(exc).__name__, round(time.perf_counter() - start, 3))
""")


# ru_maxrss growth (MiB) across one permutation-variant call at N=3200
PERMUTATION_CHILD = textwrap.dedent("""
    import resource
    import numpy as np
    import netrand as nr

    n = 3200
    rng = np.random.default_rng(0)
    graph = nr.generate_regular_graph(n, 5, rng)
    t = np.zeros(n, dtype=np.int8)
    t[rng.choice(n, n // 2, replace=False)] = 1
    ds = nr.Dataset(y=rng.standard_normal(n), t=t, graph=graph)
    mapping = nr.FractionThreshold(0.5, ">")
    exposures = nr.compute_exposures(mapping, ds.t, ds.graph)
    split = nr.make_balanced_split(ds, exposures, "by_exposure", rng)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    nr.run_permutation_variant(ds, mapping, "by_exposure", split, b=999, rng=rng)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) / 1024)
""")


# minor page faults per sampler call at N=3200, b=499, after two warm-up calls
FAULTS_CHILD = textwrap.dedent("""
    import resource
    import numpy as np
    import netrand as nr
    from netrand.conditioning import ConditioningConfig, sample_conditioning_set
    from netrand.inference import prepare

    n = 3200
    rng = np.random.default_rng(0)
    graph = nr.generate_regular_graph(n, 5, rng)
    t = np.zeros(n, dtype=np.int8)
    t[rng.choice(n, n // 2, replace=False)] = 1
    ds = nr.Dataset(y=rng.standard_normal(n), t=t, graph=graph)
    design = prepare(ds, nr.FractionThreshold(0.5, ">"), "by_exposure")
    cfg = ConditioningConfig(epsilon=0.01)
    mech = nr.CompleteRandomization(n, n // 2)
    for _ in range(2):
        sample_conditioning_set(mech, ds, design, cfg, 499, rng)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        sample_conditioning_set(mech, ds, design, cfg, 499, rng)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) / 10)
""")


# bytes the records of one multiple-mode sampler call hold at N=20000, b=99, and
# their bound. At epsilon 0.24 the design rejects some candidates, so each cell
# group keeps its own int8 t; a record adds 160 bytes per draw of arm sums and
# its cell's right-hand side, 80 bytes per scored unit whatever b is.
RECORDS_CHILD = textwrap.dedent("""
    import tracemalloc
    import numpy as np
    import netrand as nr
    from netrand.conditioning import ConditioningConfig, sample_conditioning_set
    from netrand.inference import prepare

    n, b = 20_000, 99
    rng = np.random.default_rng(0)
    graph = nr.generate_regular_graph(n, 5, rng)
    t = np.zeros(n, dtype=np.int8)
    t[rng.choice(n, n // 2, replace=False)] = 1
    ds = nr.Dataset(y=rng.standard_normal(n), t=t, graph=graph)
    design = prepare(ds, nr.FractionThreshold(0.5, ">"), "by_exposure")
    cfg = ConditioningConfig(epsilon=0.24, separate=True)
    tracemalloc.start()
    records, diag = sample_conditioning_set(nr.CompleteRandomization(n, n // 2), ds, design,
                                            cfg, b, rng)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert diag.n_candidates > b and records[0].t is not records[1].t
    bound = ((len(design.cells) + 0.1) * n * b + 200 * b * len(records)
             + 80 * sum(len(d.units) for d in records))
    print(held, bound)
""")


def _run_child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)


def test_n50000_oracle_test_runs_in_3gb_address_space():
    proc = _run_child(CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    pvalues = [float(p) for p in proc.stdout.strip().splitlines()[-1].strip("[]").split(",")]
    assert len(pvalues) == 2 and all(0.0 <= p <= 1.0 for p in pvalues)


def test_records_hold_arm_sums_not_unit_rows():
    proc = _run_child(RECORDS_CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    held, bound = map(float, proc.stdout.split())
    assert held <= bound


def test_enumeration_limit_is_checked_before_enumerating():
    proc = _run_child(ENUMERATION_CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    name, seconds = proc.stdout.split()
    assert name == "ValueError"
    assert float(seconds) < 2.0


def test_permutation_variant_scores_without_full_width_matrices():
    proc = _run_child(PERMUTATION_CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout.split()[-1]) <= 40.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_sampler_calls_take_no_page_faults():
    # each batch's reserved block keeps the heap that its arrays reuse mapped
    proc = _run_child(FAULTS_CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout.split()[-1]) < 200
