"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/validation error or a failed
`check`, 3 infeasible conditioning (any InfeasibleConditioning: a cell too
small to test or split, a zero-width interval, an exhausted sampler).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .assignment import CompleteRandomization, StratifiedComplete
from .conditioning import epsilon_feasibility
from .data import Dataset, ingest
from .errors import DataError, InfeasibleConditioning, NetrandError
from .exposure import FractionThreshold, WeightedThreshold, compute_exposures, exposure_cell_counts
from .graph import degree_diagnostics, overlap_check
from .inference import TECHNIQUES, CIConfig, _json_safe, run_technique
from .nullspec import (BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL,
                       NullSpec)
from .simulation import run_table

_NULL_FAMILIES = {"h0": CONSTANT_ALL, "hpi": BY_EXPOSURE,
                  "hxpi": BY_EXPOSURE_COVARIATE}

USAGE_EXIT = 1
DATA_EXIT = 2
INFEASIBLE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="netrand",
                description="Randomization tests for treatment-effect "
                            "heterogeneity under network interference")
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_flags(sp):
        sp.add_argument("--nodes", required=True, help="node CSV: id,y,t[,x][,stratum][,weight]")
        sp.add_argument("--edges", required=True, help="edge CSV: src,dst (optional header)")
        sp.add_argument("--threshold", type=float, default=0.5)
        sp.add_argument("--comparator", choices=["gt", "ge"], default="gt",
                        help="strict (gt) or weak (ge) threshold comparison")
        sp.add_argument("--isolated-value", type=int, default=0)
        sp.add_argument("--weighted", action="store_true",
                        help="use the node weight column in the exposure rule")

    t = sub.add_parser("test", help="run one randomization test")
    add_data_flags(t)
    t.add_argument("--null", choices=sorted(_NULL_FAMILIES), required=True)
    t.add_argument("--technique", choices=list(TECHNIQUES), required=True)
    t.add_argument("--stat", choices=["multiple", "combined"], default="multiple")
    t.add_argument("--epsilon", type=float, required=True)
    t.add_argument("--b", type=int, required=True)
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--tau", type=float, default=None,
                   help="oracle effect value (h0)")
    t.add_argument("--tau-map", default=None,
                   help="JSON file of oracle effect values per cell")
    t.add_argument("--gamma", type=float, default=0.001)
    t.add_argument("--grid", type=int, default=20)
    t.add_argument("--stratified", action="store_true",
                   help="stratified mechanism using the stratum column")
    t.add_argument("--max-attempts", type=int, default=10_000)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", default=None, help="write the JSON report here")

    s = sub.add_parser("simulate", help="reproduce a calibration/power table")
    s.add_argument("--table", required=True,
                   choices=["1", "2", "3", "4", "5", "6", "fig2"])
    s.add_argument("--reps", type=int, default=1000)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--techniques", default=None,
                   help="comma list among oracle,plugin,ci,ss")
    s.add_argument("--dgps", default=None, help="comma list among normal,lognormal")
    s.add_argument("--sigma-taus", default=None, help="comma list of floats")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--b", type=int, default=None)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", default=None, help="directory for CSV/JSON output")

    c = sub.add_parser("check", help="data and design diagnostics")
    add_data_flags(c)
    c.add_argument("--eta", type=float, default=0.05)
    c.add_argument("--out", default=None)

    i = sub.add_parser("inspect", help="summarize a dataset and its cells")
    add_data_flags(i)
    i.add_argument("--out", default=None)
    return p


def _mapping_from_args(args, dataset: Dataset):
    comparator = ">" if args.comparator == "gt" else ">="
    if args.weighted:
        if dataset.weights is None:
            raise DataError("--weighted requires a weight column in the node file")
        return WeightedThreshold(dataset.weights, threshold=args.threshold,
                                 comparator=comparator,
                                 isolated_value=args.isolated_value)
    return FractionThreshold(threshold=args.threshold, comparator=comparator,
                             isolated_value=args.isolated_value)


def _mechanism_from_args(args, dataset: Dataset):
    if getattr(args, "stratified", False):
        if dataset.strata is None:
            raise DataError("--stratified requires a stratum column in the node file")
        counts = {}
        for lvl in sorted(np.unique(dataset.strata).tolist()):
            m = dataset.strata == lvl
            counts[lvl] = int(dataset.t[m].sum())
        return StratifiedComplete(dataset.strata, counts)
    return CompleteRandomization(dataset.n, int(dataset.t.sum()))


def _int_or_str(s: str):
    try:
        return int(s)
    except ValueError:
        return s


def _parse_cell_key(key: str, family: str):
    parsed = tuple(_int_or_str(p.strip()) for p in key.split(","))
    if family == BY_EXPOSURE and len(parsed) != 1:
        raise DataError(f"tau-map key {key!r} must name one exposure value")
    if family == BY_EXPOSURE_COVARIATE and len(parsed) != 2:
        raise DataError(f"tau-map key {key!r} must be 'exposure,covariate'")
    return parsed


def _null_from_args(args, family: str) -> NullSpec:
    if args.tau is not None and args.tau_map is not None:
        raise DataError("pass --tau or --tau-map, not both")
    if family == CONSTANT_ALL:
        if args.tau is None:
            raise DataError("oracle tests of the constant null need --tau")
        return NullSpec.constant(args.tau)
    if args.tau_map is None:
        raise DataError("oracle tests of per-cell nulls need --tau-map")
    with open(args.tau_map) as fh:
        raw = json.load(fh)
    values = {_parse_cell_key(k, family): float(v) for k, v in raw.items()}
    if family == BY_EXPOSURE:
        return NullSpec.per_exposure(values)
    return NullSpec.per_cell(values)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_test(args) -> int:
    dataset = ingest(args.nodes, args.edges)
    mapping = _mapping_from_args(args, dataset)
    mechanism = _mechanism_from_args(args, dataset)
    family = _NULL_FAMILIES[args.null]
    null = _null_from_args(args, family) if args.technique == "oracle" else None
    report = run_technique(args.technique, dataset, mapping, mechanism, family,
                           np.random.SeedSequence(args.seed), null=null,
                           ci=CIConfig(gamma=args.gamma, grid_size=args.grid),
                           epsilon=args.epsilon, b=args.b, stat=args.stat,
                           alpha=args.alpha,
                           max_attempts_per_accept=args.max_attempts)
    payload = report.to_dict()
    payload["run_config"] = {
        "command": "test", "nodes": args.nodes, "edges": args.edges,
        "null": args.null, "technique": args.technique, "stat": args.stat,
        "epsilon": args.epsilon, "b": args.b, "alpha": args.alpha,
        "tau": args.tau, "tau_map": args.tau_map, "gamma": args.gamma,
        "grid": args.grid, "seed": args.seed,
        "mapping": mapping.config(), "stratified": bool(args.stratified),
    }
    _emit(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    kwargs = {}
    if args.techniques:
        kwargs["techniques"] = tuple(s.strip() for s in args.techniques.split(","))
        unknown = set(kwargs["techniques"]) - set(TECHNIQUES)
        if unknown:
            raise DataError(f"unknown techniques {sorted(unknown)}")
    if args.dgps:
        kwargs["dgps"] = tuple(s.strip() for s in args.dgps.split(","))
    if args.sigma_taus:
        kwargs["sigma_taus"] = tuple(float(s) for s in args.sigma_taus.split(","))
    if args.n is not None:
        kwargs["n_units"] = args.n
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.b is not None:
        kwargs["b"] = args.b
    result = run_table(args.table, seed=args.seed, reps=args.reps,
                       workers=args.workers, **kwargs)
    payload = {"table": result.table, "seed": result.seed, "reps": result.reps,
               "rows": result.to_records()}
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, f"table_{args.table}.csv")
        json_path = os.path.join(args.out, f"table_{args.table}.json")
        result.write_csv(csv_path)
        _emit(payload, json_path)
        print(f"wrote {csv_path} and {json_path}")
    else:
        _emit(payload, None)
    return 0


def _cmd_check(args) -> int:
    dataset = ingest(args.nodes, args.edges)
    mapping = _mapping_from_args(args, dataset)
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    diag = degree_diagnostics(dataset.graph)
    overlap = overlap_check(dataset, exposures, args.eta)
    bound = epsilon_feasibility(dataset, exposures)
    payload = {
        "degree_diagnostics": {"third_moment": diag.third_moment,
                               "path3_density": diag.path3_density},
        "overlap": {
            "eta": overlap.eta,
            "passed": overlap.passed,
            "cells": [{"arm": c.arm, "cell": list(c.cell), "count": c.count,
                       "proportion": c.proportion, "passed": c.passed}
                      for c in overlap.cells],
        },
        "epsilon_feasibility_bound": bound,
    }
    _emit(payload, args.out)
    return 0 if overlap.passed else DATA_EXIT


def _cmd_inspect(args) -> int:
    dataset = ingest(args.nodes, args.edges)
    mapping = _mapping_from_args(args, dataset)
    exposures = compute_exposures(mapping, dataset.t, dataset.graph)
    counts = exposure_cell_counts(exposures, dataset.t, dataset.x)
    degs = dataset.graph.degrees
    payload = {
        "n_units": dataset.n,
        "n_edges": dataset.graph.n_edges,
        "n_treated": int(dataset.t.sum()),
        "degrees": {"min": int(degs.min()), "max": int(degs.max()),
                    "mean": float(degs.mean())},
        "exposure_counts": {str(k): v for k, v in counts.by_exposure.items()},
        "arm_exposure_counts": {f"t{k[0]},pi{k[1]}": v
                                for k, v in counts.by_arm_exposure.items()},
        "epsilon_feasibility_bound": epsilon_feasibility(dataset, exposures),
        "has_covariate": dataset.x is not None,
        "symmetrized_input": dataset.graph.symmetrized,
    }
    if counts.by_exposure_covariate is not None:
        payload["exposure_covariate_counts"] = {
            f"pi{k[0]},x{k[1]}": v for k, v in counts.by_exposure_covariate.items()}
    _emit(payload, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_inspect(args)
    except InfeasibleConditioning as exc:
        print(f"netrand: infeasible conditioning: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except (NetrandError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"netrand: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
