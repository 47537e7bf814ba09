"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, times a set-up,
runs one op at a time (a closed loop with one caller), and checks its
outputs afterwards. Ops call only netrand's public API. See README.md for
why each workload exists.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import netrand as nr
from checks import CheckFailed, ci_grid_check, same_pvalues, scalar_path_check

DEGREE = 5


@dataclass
class OpResult:
    failed: int     # failed units of work within the op (0 or 1)
    digest: object  # JSON-able values that fix the op's outcome
    pvalues: list


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, i])


def regular_edges(n: int, degree: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random simple degree-regular graph by the pairing model with repair:
    pair shuffled stubs, keep valid pairs, re-pair the rest, restart when
    re-pairing stops making progress."""
    for _ in range(100):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n), degree)
        stalled = 0
        while stubs.size and stalled < 20:
            rng.shuffle(stubs)
            left = []
            for u, v in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    left += (u, v)
            stalled = stalled + 1 if len(left) == stubs.size else 0
            stubs = np.array(left, dtype=np.int64)
        if not stubs.size:
            return sorted(edges)
    raise RuntimeError(f"no {degree}-regular graph on {n} nodes")


def write_inputs(workdir: Path, n: int, seed: int) -> tuple[Path, Path]:
    """Node and edge CSVs: a random 5-regular graph, half the units
    treated by complete randomization, and y ~ N(0, 1)."""
    rng = np.random.default_rng([seed, 0])
    edges = regular_edges(n, DEGREE, rng)
    t = np.zeros(n, dtype=np.int64)
    t[rng.choice(n, n // 2, replace=False)] = 1
    y = rng.standard_normal(n)
    nodes_path, edges_path = workdir / "nodes.csv", workdir / "edges.csv"
    with open(nodes_path, "w") as fh:
        fh.write("id,y,t\n")
        fh.writelines(f"{i},{float(y[i])!r},{int(t[i])}\n" for i in range(n))
    with open(edges_path, "w") as fh:
        fh.write("src,dst\n")
        fh.writelines(f"{a},{b}\n" for a, b in edges)
    return nodes_path, edges_path


class _IngestWorkload:
    """A single test per op on one dataset read from CSV at set-up."""

    n_units: int
    setup_repeats = 15
    warmup_ops = 1
    digest_ops = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.mapping = nr.FractionThreshold(0.5, ">")
        self.paths = write_inputs(workdir, self.n_units, seed)
        self.dataset = None

    def setup(self) -> None:
        """Ingest the CSVs and compute the observed exposures, which
        builds and caches the graph's dense adjacency."""
        self.dataset = None  # free the previous repeat's adjacency first
        ds = nr.ingest(*self.paths)
        nr.compute_exposures(self.mapping, ds.t, ds.graph)
        self.dataset = ds
        self.mechanism = nr.CompleteRandomization(ds.n, ds.n // 2)

    def op(self, i: int, span=nullcontext) -> OpResult:
        try:
            report = self.test(op_rng(self.seed, i))
        except nr.errors.NetrandError as exc:
            return OpResult(1, type(exc).__name__, [])
        with span("inference.report"):
            json.dumps(report.to_dict())
        return OpResult(0, self.digest(report), self.pvalues(report))


class OracleN3200(_IngestWorkload):
    name = "oracle-n3200"
    n_units = 3200
    epsilon = 0.2
    b = 499

    def test(self, rng, keep_draws=False):
        return nr.run_oracle_test(self.dataset, self.mapping, self.mechanism,
                                  nr.NullSpec.constant(0.0), epsilon=self.epsilon,
                                  b=self.b, rng=rng, stat="multiple",
                                  keep_draws=keep_draws)

    @staticmethod
    def pvalues(report):
        return [c.pvalue for c in report.cells]

    @staticmethod
    def digest(report):
        return [[c.pvalue, c.observed_stat] for c in report.cells]

    def check(self, i: int, timed: OpResult) -> dict:
        report = self.test(op_rng(self.seed, i), keep_draws=True)
        same_pvalues(timed.pvalues, self.pvalues(report), f"op {i}")
        return scalar_path_check(self.dataset, self.mapping, self.mechanism,
                                 report, self.epsilon)


class CiTightN800(_IngestWorkload):
    name = "ci-tight-n800"
    n_units = 800
    setup_repeats = 41
    epsilon = 0.24
    b = 499
    ci = nr.CIConfig(gamma=0.001, grid_size=20)

    def test(self, rng, keep_draws=False):
        return nr.run_ci_test(self.dataset, self.mapping, self.mechanism,
                              "by_exposure", epsilon=self.epsilon, b=self.b,
                              rng=rng, ci=self.ci, stat="combined",
                              keep_draws=keep_draws)

    @staticmethod
    def pvalues(report):
        evals = report.diagnostics["ci"]["grid_evaluations"]["combined"]
        return [report.combined.pvalue] + [p for _, p in evals]

    @staticmethod
    def digest(report):
        return [report.combined.pvalue, report.combined.observed_stat]

    def check(self, i: int, timed: OpResult) -> dict:
        report = self.test(op_rng(self.seed, i), keep_draws=True)
        same_pvalues(timed.pvalues, self.pvalues(report), f"op {i}")
        out = ci_grid_check(report)
        # run_ci_test keeps no draws, so the scalar path is checked on the
        # oracle engine's joint sampler at the interval midpoints instead.
        taus = {(int(k),): v[2] for k, v in report.diagnostics["ci"]["intervals"].items()}
        oracle = nr.run_oracle_test(
            self.dataset, self.mapping, self.mechanism, nr.NullSpec.per_exposure(taus),
            epsilon=self.epsilon, b=self.b, rng=np.random.default_rng([self.seed, 3]),
            stat="combined", keep_draws=True)
        out.update(scalar_path_check(self.dataset, self.mapping, self.mechanism,
                                     oracle, self.epsilon))
        return out


class Table5Sim:
    """One replication of the paper's table 5 per op: hxpi, multiple
    statistics, N=400, epsilon=0.1, b=199, oracle technique only."""

    name = "table5-sim"
    n_units = 400
    setup_repeats = 151
    warmup_ops = 3
    digest_ops = 100  # most replications reject nothing, so cover many
    epsilon = 0.1
    b = 199

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._setups = 0
        self.malformed: list[str] = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4, self._setups])
        self._setups += 1
        nr.generate_regular_graph(self.n_units, DEGREE, rng)

    def op_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 1, i]).generate_state(1, np.uint64)[0])

    def op(self, i: int, span=nullcontext) -> OpResult:
        result = nr.run_table("5", reps=1, techniques=("oracle",), dgps=("normal",),
                              sigma_taus=(0.0,), seed=self.op_seed(i))
        (row,) = result.rows
        if row.reps_done + row.failures != result.reps:
            self.malformed.append(f"op {i}: reps_done {row.reps_done} + failures "
                                  f"{row.failures} != reps {result.reps}")
        rejections = sorted(row.cell_rates.items())
        return OpResult(row.failures, [rejections, row.fwer, row.failures], [])

    def check(self, i: int, timed: OpResult) -> dict:
        """Scalar-path check on a table-5-shaped instance built from public
        functions (run_table keeps no draws)."""
        if self.malformed:
            raise CheckFailed("; ".join(self.malformed[:3]))
        for attempt in range(10):
            rng = np.random.default_rng([self.seed, 3, attempt])
            graph = nr.generate_regular_graph(self.n_units, DEGREE, rng)
            mapping = nr.FractionThreshold(0.5, ">")
            mechanism = nr.CompleteRandomization(self.n_units, self.n_units // 2)
            t = mechanism.draw(rng)
            pi = mapping.compute(t, graph)
            x = np.arange(self.n_units) % 2
            y = nr.generate_potential_outcomes(pi, t, x, sigma_tau=0.0, psi0=1.0,
                                               psi1=1.0, dgp="normal", rng=rng)
            dataset = nr.Dataset(y=y, t=t, graph=graph, x=x)
            null = nr.NullSpec.per_cell({(v, l): 1.0 + v + l for v in (0, 1) for l in (0, 1)})
            kwargs = dict(epsilon=self.epsilon, b=self.b, stat="multiple")
            try:
                plain = nr.run_oracle_test(dataset, mapping, mechanism, null,
                                           rng=np.random.default_rng([self.seed, 5]), **kwargs)
            except nr.errors.InfeasibleConditioning:
                continue
            kept = nr.run_oracle_test(dataset, mapping, mechanism, null, keep_draws=True,
                                      rng=np.random.default_rng([self.seed, 5]), **kwargs)
            same_pvalues([c.pvalue for c in plain.cells], [c.pvalue for c in kept.cells],
                         "table-5 instance")
            out = scalar_path_check(dataset, mapping, mechanism, kept, self.epsilon)
            out["instance_attempts"] = attempt + 1
            return out
        raise CheckFailed("no feasible table-5-shaped instance in 10 attempts")


WORKLOADS = {w.name: w for w in (OracleN3200, Table5Sim, CiTightN800)}
