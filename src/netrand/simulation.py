"""Monte Carlo harness: synthetic designs on random regular graphs.

Outcomes follow an additive model on the science table: the control
outcome at exposure pi is unit noise centered at pi, and the own-treatment
effect is a systematic part (1 + psi0*pi + psi1*x) plus sigma_tau times
the control outcome. sigma_tau = 0 makes the corresponding null exactly
true; sigma_tau > 0 indexes fixed heterogeneity alternatives.
"""
from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assignment import CompleteRandomization
from .conditioning import family_cells
from .data import Dataset
from .errors import (InfeasibleConditioning, InfeasibleCounts,
                     GenerationBudgetExhausted)
from .exposure import FractionThreshold
from .graph import Graph
from .inference import TECHNIQUES, run_technique
from .nullspec import (BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL,
                       NuisanceParams, NullSpec, effect_key)


MAX_GRAPH_RESTARTS = 1000  # pairing-model attempts before giving up


def generate_regular_graph(n: int, degree: int, rng: np.random.Generator) -> Graph:
    """Uniform-ish random d-regular graph via the pairing model with
    suitable-edge repair; restarts when the repair gets stuck."""
    if n * degree % 2 != 0:
        raise InfeasibleCounts(f"n * degree must be even, got {n} * {degree}")
    if not 0 <= degree < n:
        raise InfeasibleCounts(f"degree must be in 0..{n - 1}, got {degree}")

    def _suitable(edges, potential_edges):
        """Whether two of the leftover stubs' nodes could still be joined."""
        return not potential_edges or any(
            (min(u, v), max(u, v)) not in edges
            for u, v in itertools.combinations(potential_edges, 2))

    def _try_creation():
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential: dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] += 1
                    potential[s2] += 1
            if not _suitable(edges, potential):
                return None
            stubs = [node for node, count in potential.items()
                     for _ in range(count)]
        return edges

    for _ in range(MAX_GRAPH_RESTARTS):
        edges = _try_creation()
        if edges is not None:
            return Graph(n, edges)
    raise GenerationBudgetExhausted(
        f"no {degree}-regular graph on {n} nodes in {MAX_GRAPH_RESTARTS} restarts")


def _standardized_noise(dgp: str, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(n)
    if dgp == "normal":
        return z
    if dgp == "lognormal":
        # exp(Z) has mean e^{1/2} and variance e(e-1); standardize analytically
        return (np.exp(z) - math.exp(0.5)) / math.sqrt(math.e * (math.e - 1.0))
    raise ValueError(f"unknown dgp {dgp!r}")


def generate_potential_outcomes(pi: np.ndarray, t: np.ndarray, x: np.ndarray,
                                *, sigma_tau: float, psi0: float, psi1: float,
                                dgp: str, rng: np.random.Generator) -> np.ndarray:
    """Observed outcomes under the additive heterogeneity model."""
    pi = np.asarray(pi, dtype=np.float64)
    y0 = _standardized_noise(dgp, len(pi), rng) + pi
    tau = (1.0 + psi0 * pi + psi1 * np.asarray(x, dtype=np.float64)) + sigma_tau * y0
    return y0 + np.asarray(t, dtype=np.float64) * tau


def _oracle_null(family: str, psi0: float, psi1: float, values: tuple,
                 x_levels: tuple) -> NullSpec:
    """The true null of the outcome model: the effect value of each
    effect key (pi[, x]) is 1 + psi0*pi (+ psi1*x), 1 under constant_all."""
    taus = {}
    for cell in family_cells(family, values, x_levels):
        key = effect_key(family, cell)
        tau = 1.0
        for psi, level in zip((psi0, psi1), key):
            tau += psi * level
        taus[key] = tau
    return NullSpec(family, NuisanceParams(taus))


_TABLES = {
    "1": dict(family=CONSTANT_ALL, stat="multiple", psi0=0.0, psi1=0.0,
              n_units=200, epsilon=0.20, b=149),
    "2": dict(family=CONSTANT_ALL, stat="combined", psi0=0.0, psi1=0.0,
              n_units=200, epsilon=0.20, b=149),
    "3": dict(family=BY_EXPOSURE, stat="multiple", psi0=1.0, psi1=0.0,
              n_units=200, epsilon=0.20, b=149),
    "4": dict(family=BY_EXPOSURE, stat="combined", psi0=1.0, psi1=0.0,
              n_units=200, epsilon=0.20, b=149),
    "5": dict(family=BY_EXPOSURE_COVARIATE, stat="multiple", psi0=1.0,
              psi1=1.0, n_units=400, epsilon=0.10, b=199),
    "6": dict(family=BY_EXPOSURE_COVARIATE, stat="combined", psi0=1.0,
              psi1=1.0, n_units=400, epsilon=0.10, b=199),
}

_DEFAULT_SIGMAS = {
    "1": (0.0, 0.5, 1.0, 1.5, 2.0),
    "2": (0.0, 0.5, 1.0, 1.5, 2.0),
    "3": (0.0, 0.5, 1.0, 1.5, 2.0),
    "4": (0.0, 0.5, 1.0, 1.5, 2.0),
    "5": (0.0, 1.0),
    "6": (0.0, 1.0),
}

# fixed stream layout per replication so results do not depend on which
# techniques are requested together
_SLOTS = {"data": 0, "oracle": 1, "plugin": 2, "ci": 3, "ss": 4}


@dataclass
class ScenarioConfig:
    family: str
    stat: str
    psi0: float
    psi1: float
    n_units: int
    epsilon: float
    b: int
    dgp: str = "normal"
    sigma_tau: float = 0.0
    degree: int = 5


@dataclass
class TableRow:
    technique: str
    dgp: str
    sigma_tau: float
    n_units: int
    reps_done: int
    failures: int
    cell_rates: dict
    fwer: float | None
    combined_rate: float | None


@dataclass
class TableResult:
    table: str
    seed: int
    reps: int
    rows: list[TableRow] = field(default_factory=list)

    def to_records(self) -> list[dict]:
        recs = []
        for r in self.rows:
            rec = {"table": self.table, "technique": r.technique, "dgp": r.dgp,
                   "sigma_tau": r.sigma_tau, "n_units": r.n_units,
                   "reps_done": r.reps_done, "failures": r.failures}
            for k, v in r.cell_rates.items():
                rec[f"reject_{k}"] = v
            if r.fwer is not None:
                rec["fwer"] = r.fwer
            if r.combined_rate is not None:
                rec["reject_combined"] = r.combined_rate
            recs.append(rec)
        return recs

    def write_csv(self, path) -> None:
        recs = self.to_records()
        cols: list[str] = []
        for rec in recs:
            for k in rec:
                if k not in cols:
                    cols.append(k)
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for rec in recs:
                w.writerow(rec)


def _cell_label(cell) -> str:
    if len(cell) == 1:
        return f"pi{cell[0]}"
    return f"pi{cell[0]}_x{cell[1]}"


def _run_one_rep(cfg: ScenarioConfig, graph: Graph, techniques, rep_ss):
    """One replication: draw a dataset, run each technique at the engine's
    default alpha, CI settings and attempt budget, and return
    per-technique rejection indicators (or None on conditioning failure)."""
    children = rep_ss.spawn(len(_SLOTS))
    rng_data = np.random.default_rng(children[_SLOTS["data"]])
    n = cfg.n_units
    mapping = FractionThreshold(threshold=0.5, comparator=">")
    mechanism = CompleteRandomization(n, n // 2)
    t = mechanism.draw(rng_data)
    pi = mapping.compute(t, graph)
    x = np.arange(n) % 2
    y = generate_potential_outcomes(pi, t, x, sigma_tau=cfg.sigma_tau,
                                    psi0=cfg.psi0, psi1=cfg.psi1,
                                    dgp=cfg.dgp, rng=rng_data)
    dataset = Dataset(y=y, t=t, graph=graph, x=x)
    null = _oracle_null(cfg.family, cfg.psi0, cfg.psi1, mapping.values, dataset.x_levels)
    out = {}
    for tech in techniques:
        try:
            rep = run_technique(tech, dataset, mapping, mechanism, cfg.family,
                                children[_SLOTS[tech]], null=null,
                                epsilon=cfg.epsilon, b=cfg.b, stat=cfg.stat)
        except InfeasibleConditioning:
            out[tech] = None
            continue
        if cfg.stat == "multiple":
            cells = {_cell_label(c.cell): c.pvalue < rep.alpha for c in rep.cells}
            out[tech] = {"cells": cells, "fwer": rep.any_unadjusted_rejection}
        else:
            out[tech] = {"combined": rep.combined.pvalue < rep.alpha}
    return out


def _run_rep_chunk(cfg, graph_seed_ss, techniques, rep_seeds):
    graph = generate_regular_graph(cfg.n_units, cfg.degree,
                                   np.random.default_rng(graph_seed_ss))
    return [_run_one_rep(cfg, graph, techniques, ss) for ss in rep_seeds]


def run_scenario(cfg: ScenarioConfig, *, seed: int, reps: int,
                 techniques=TECHNIQUES, workers: int = 1) -> list[TableRow]:
    """Run one (dgp, sigma_tau) grid point and reduce to rejection rates."""
    root = np.random.SeedSequence(seed)
    graph_ss, reps_root = root.spawn(2)
    rep_seeds = reps_root.spawn(reps)
    if workers > 1:
        chunks = np.array_split(np.arange(reps), workers)
        futures = []
        with ProcessPoolExecutor(max_workers=workers) as ex:
            for chunk in chunks:
                if len(chunk) == 0:
                    continue
                futures.append(ex.submit(_run_rep_chunk, cfg, graph_ss,
                                         techniques,
                                         [rep_seeds[i] for i in chunk]))
            results = [r for f in futures for r in f.result()]
    else:
        results = _run_rep_chunk(cfg, graph_ss, techniques, rep_seeds)

    rows = []
    for tech in techniques:
        done = [r[tech] for r in results if r[tech] is not None]
        failures = sum(1 for r in results if r[tech] is None)
        n_done = len(done)
        if cfg.stat == "multiple":
            keys = sorted({k for r in done for k in r["cells"]}) if done else []
            cell_rates = {k: float(np.mean([r["cells"][k] for r in done]))
                          for k in keys}
            fwer = float(np.mean([r["fwer"] for r in done])) if done else float("nan")
            rows.append(TableRow(tech, cfg.dgp, cfg.sigma_tau, cfg.n_units,
                                 n_done, failures, cell_rates, fwer, None))
        else:
            rate = float(np.mean([r["combined"] for r in done])) if done else float("nan")
            rows.append(TableRow(tech, cfg.dgp, cfg.sigma_tau, cfg.n_units,
                                 n_done, failures, {}, None, rate))
    return rows


def run_table(table: str, *, seed: int, reps: int = 1000,
              techniques=TECHNIQUES, dgps=("normal", "lognormal"),
              sigma_taus=None, n_units=None, epsilon=None, b=None,
              degree: int = 5, workers: int = 1,
              fig2_sizes=(200, 400, 800)) -> TableResult:
    """Reproduce one of the calibration/power tables (or the size-vs-N
    series, table id "fig2")."""
    table = str(table)
    result = TableResult(table=table, seed=seed, reps=reps)
    if table == "fig2":
        for n in fig2_sizes:
            cfg = ScenarioConfig(family=CONSTANT_ALL, stat="combined",
                                 psi0=0.0, psi1=0.0, n_units=n,
                                 epsilon=0.20 if epsilon is None else epsilon,
                                 b=149 if b is None else b, dgp="lognormal",
                                 sigma_tau=0.0, degree=degree)
            # one seed per sample size, shared rep streams across sizes
            rows = run_scenario(cfg, seed=seed + n, reps=reps,
                                techniques=("ss",), workers=workers)
            result.rows.extend(rows)
        return result
    if table not in _TABLES:
        raise ValueError(f"unknown table {table!r}; choose 1-6 or fig2")
    base = dict(_TABLES[table])
    if n_units is not None:
        base["n_units"] = n_units
    if epsilon is not None:
        base["epsilon"] = epsilon
    if b is not None:
        base["b"] = b
    sigmas = _DEFAULT_SIGMAS[table] if sigma_taus is None else tuple(sigma_taus)
    for dgp in dgps:
        for sigma in sigmas:
            cfg = ScenarioConfig(dgp=dgp, sigma_tau=sigma, degree=degree, **base)
            result.rows.extend(run_scenario(cfg, seed=seed, reps=reps,
                                            techniques=techniques,
                                            workers=workers))
    return result
