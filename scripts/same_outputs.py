"""Compare a fixed matrix of engine outputs between a parent revision and HEAD.

Run from the root of a checkout, with the change committed:

    python3 scripts/same_outputs.py --parent HEAD~1

The committed files of the parent revision and of HEAD are each exported
(``git archive``, as scripts/bench_pairs.py does) into a new temporary
directory. HEAD's copy of this script then runs the matrix below in each
tree, with that tree's src/ and tests/ on the path (``--collect OUT`` is
that step), and records one digest per output, or, where the call raised,
the exit code the CLI gives that error (3 for an InfeasibleConditioning, 2
for any other error cli.main catches, 1 for one it does not) with its class
and message. The key of every output that
differs is printed with both sides' values, then a count of the differing
outputs per move (such as ``exit 2: EmptyArm -> exit 3: TooFewUnits``;
``output`` is a digest), and the script exits 1 if any differ.

The matrix:
- every technique x family x stat through run_technique with keep_draws, on
  toy12 and the ten-unit fixture (both with a covariate), a 5-regular
  200-unit design and two random irregular designs with a hub of degree
  >= 200 and isolated units, each design under its FractionThreshold and
  under a WeightedThreshold with zero weights, some of which leave a
  neighbourhood weightless;
- the same engine runs on toy12 and hub260 with conditioning.MAX_BATCH_BYTES
  set to 16 rows' worth, so rejecting and sample-splitting designs run
  across many batches;
- the same engine runs on the 5-regular 200-unit design under its
  FractionThreshold with unit 0's outcome set to nan, and to 1e200, whose
  square overflows float64;
- compute_batch of each design and mapping on a drawn batch;
- run_permutation_variant with b and with b=None on the same designs;
- run_table(...).to_records() for tables 1-6 and fig2 (200 units) at seeds
  1 and 11, 2 reps, workers 1 and 2;
- ingest of small node and edge CSVs (INGEST): every column of the Dataset
  and its graph's CSR arrays, or the error;
- Graph built directly from bad edges (GRAPHS): its CSR arrays, or the error;
- cli.main's test command with malformed --tau-map files (TAU_MAPS): the
  report, or the exit code main returns with what it printed to stderr
  (class CliExit).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from bench_pairs import export

FAMILIES = ("constant_all", "by_exposure", "by_exposure_covariate")
STATS = ("multiple", "combined")


def digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        data = f"{obj.dtype}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes()
    else:
        data = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def designs():
    """(name, dataset, mechanism, epsilon, b, fraction mapping) per design."""
    from fixtures import (TEN_MAPPING, TOY12_EPS, TOY12_MAPPING, make_ten, make_toy12,
                          random_irregular_graph)
    from netrand.assignment import CompleteRandomization
    from netrand.data import Dataset
    from netrand.exposure import FractionThreshold
    from netrand.simulation import generate_regular_graph

    yield "toy12", make_toy12(with_x=True), CompleteRandomization(12, 6), TOY12_EPS, 20, \
        TOY12_MAPPING
    yield "ten", make_ten(with_x=True), CompleteRandomization(10, 5), 0.1, 20, TEN_MAPPING
    rng = np.random.default_rng(2024)
    graphs = {"regular200": generate_regular_graph(200, 5, rng),
              "hub260": random_irregular_graph(rng, 260, hub_degree=200, n_isolated=3),
              "hub400": random_irregular_graph(rng, 400, hub_degree=250, n_isolated=12)}
    for name, graph in graphs.items():
        n = graph.n_units
        mech = CompleteRandomization(n, n // 2)
        data = Dataset(y=rng.normal(size=n), t=mech.draw(rng), graph=graph, x=np.arange(n) % 2)
        mapping = (FractionThreshold(0.5, ">") if name == "regular200"
                   else FractionThreshold(0.3, ">=", isolated_value=1))
        yield name, data, mech, 0.05, 50, mapping


NODES = "id,y,t\n0,1.5,1\n1,-2.0,0\n2,0.25,1\n3,3.0,0\n"
EDGES = "src,dst\n0,1\n1,2\n2,3\n"
# name: (node CSV, edge CSV)
INGEST = {
    "plain": (NODES, EDGES),
    "header-order-whitespace": (" t , id,y \n1,0,1.5\n0 , 1,-2.0\n1,2,0.25\n0,3,3.0\n", EDGES),
    "rows-any-order": ("id,y,t\n3,3.0,0\n1,-2.0,0\n0,1.5,1\n2,0.25,1\n", EDGES),
    "blank-lines": ("id,y,t\n\n0,1.5,1\n\n1,-2.0,0\n2,0.25,1\n3,3.0,0\n\n",
                    "src,dst\n\n0,1\n\n1,2\n2,3\n\n"),
    "crlf": (NODES.replace("\n", "\r\n"), EDGES.replace("\n", "\r\n")),
    "cr": (NODES.replace("\n", "\r"), EDGES.replace("\n", "\r")),
    "node-whitespace-line": (NODES.replace("\n1,", "\n \n1,"), EDGES),
    "edge-whitespace-lines": (NODES, "0,1\n  \n1,2\n , \n2,3\n"),
    "quoted": ('id,y,t,x\n"0",1.5,1,"a,b"\n1,"-2.0",0,c\n2,0.25,"1",a\n3,3.0,0,c\n',
               'src,dst\n"0",1\n1,"2"\n2,3\n'),
    "underscore-digits": ("id,y,t\n0,1_000.5,1\n1,-2.0,0\n2,0.25,1\n3,3_0,0\n",
                          "src,dst\n0,1\n1,2\n0_2,3\n"),
    "non-ascii-digits": ("id,y,t\n\u0660,1.5,1\n1,-2.0,\u0660\n2,\u0662.5,1\n3,3.0,0\n",
                         "src,dst\n0,\u0661\n1,2\n2,3\n"),
    "float-tokens": ("id,y,t,weight\n0,nan,1,inf\n1,-nan,0,5e-324\n2,1e400,1,-0.0\n"
                     "3,0.1000000000000000055511151231257827,0,2.2250738585072011e-308\n",
                     EDGES),
    "missing-field": ("id,y,t\n0,1.5,1\n1,-2.0\n2,0.25,1\n3,3.0,0\n", EDGES),
    "missing-label": ("id,y,t,x\n0,1.5,1,a\n1,-2.0,0\n2,0.25,1,b\n3,3.0,0,a\n", EDGES),
    "extra-field": ("id,y,t\n0,1.0,0,9\n1,2.0,1\n", "0,1\n"),
    "bad-id": ("id,y,t\n0,1.5,1\none,-2.0,0\n2,0.25,1\n3,3.0,0\n", EDGES),
    "float-id": ("id,y,t\n0,1.5,1\n1.0,-2.0,0\n2,0.25,1\n3,3.0,0\n", EDGES),
    "duplicate-id": ("id,y,t\n0,1.5,1\n1,-2.0,0\n1,0.25,1\n3,3.0,0\n", EDGES),
    "out-of-range-id": ("id,y,t\n0,1.5,1\n1,-2.0,0\n2,0.25,1\n4,3.0,0\n", EDGES),
    "duplicate-name": ("id,y,t, y\n0,1.5,1,2\n1,-2.0,0,3\n2,0.25,1,4\n3,3.0,0,5\n", EDGES),
    "missing-column": ("id,y\n0,1.5\n1,-2.0\n", EDGES),
    "header-only": ("id,y,t\n", EDGES),
    "empty-node-file": ("", EDGES),
    "non-binary-t": ("id,y,t\n0,1.5,2\n1,-2.0,0\n2,0.25,1\n3,3.0,0\n", EDGES),
    "int-labels": ("id,y,t,x,stratum\n0,1.5,1, 1,0\n1,-2.0,0,2 ,1\n2,0.25,1,-3,0\n"
                   "3,3.0,0,+4,1\n", EDGES),
    "string-labels": ("id,y,t,x,stratum\n0,1.5,1, f,s0\n1,-2.0,0,m ,s1\n2,0.25,1,f,s0\n"
                      "3,3.0,0,2,s1\n", EDGES),
    "weights": ("id,y,t,weight,note\n0,1.5,1,0.5,a\n1,-2.0,0,2,b\n2,0.25,1,0,c\n"
                "3,3.0,0,1e-3,d\n", EDGES),
    "bad-weight": ("id,y,t,weight\n0,1.5,1,0.5\n1,-2.0,0,heavy\n2,0.25,1,0\n3,3.0,0,1\n",
                   EDGES),
    "edges-no-header": (NODES, "0,1\n1,2\n2,3\n"),
    "edges-extra-columns": (NODES, "src,dst,w\n0,1,0.5\n1,2\n2,3,x,y\n"),
    "edges-empty": (NODES, ""),
    "edges-header-only": (NODES, "src,dst\n"),
    "edges-one-column": (NODES, "src\n0\n"),
    "edges-bad-endpoint": (NODES, "src,dst\n0,1\n1,two\n"),
    "edges-out-of-range": (NODES, "src,dst\n0,1\n1,4\n"),
    "edges-self-loop": (NODES, "src,dst\n0,1\n2,2\n"),
    "edges-directed": (NODES, "0,1\n1,0\n1,2\n"),
}


# name: (n_units, edges) for Graph itself, which build_graph's checks once skipped
GRAPHS = {"graph-out-of-range": (3, [(0, 5)]), "graph-self-loop": (3, [(1, 1)])}
# name: the --tau-map file's text, valid JSON that is not an object of numbers
TAU_MAPS = {"tau-map-list": "[1, 2]", "tau-map-list-value": '{"0": 1.0, "1": [2]}'}


class CliExit(Exception):
    """A non-zero exit code that cli.main returned, with its stderr."""

    def __init__(self, code: int, stderr: str):
        super().__init__(stderr.strip())
        self.code = code


def graph_arrays(n_units: int, edges: list) -> dict:
    """The CSR arrays of Graph(n_units, edges), as digests."""
    from netrand.graph import Graph
    graph = Graph(n_units, edges)
    return {"indptr": digest(graph.indptr), "indices": digest(graph.indices)}


def cli_tau_map(text: str) -> str:
    """cli.main's oracle test of the per-exposure null on the plain INGEST
    design with text as its --tau-map file: the report it prints."""
    from netrand.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("nodes.csv", "edges.csv", "tau.json")]
        for path, content in zip(paths, (*INGEST["plain"], text)):
            path.write_text(content, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["test", "--nodes", str(paths[0]), "--edges", str(paths[1]),
                         "--null", "hpi", "--technique", "oracle", "--epsilon", "0.1",
                         "--b", "20", "--seed", "1", "--tau-map", str(paths[2])])
    if code:
        raise CliExit(code, err.getvalue())
    return out.getvalue()


def ingest_columns(nodes: str, edges: str) -> dict:
    """The Dataset ingest reads from the two CSV texts, as digests."""
    from netrand.data import ingest
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("nodes.csv", "edges.csv")]
        for path, text in zip(paths, (nodes, edges)):
            path.write_text(text, encoding="utf-8", newline="")
        ds = ingest(*paths)
    cols = {"y": ds.y, "t": ds.t, "x": ds.x, "strata": ds.strata, "weights": ds.weights,
            "indptr": ds.graph.indptr, "indices": ds.graph.indices}
    return {"symmetrized": ds.graph.symmetrized, "x_levels": list(ds.x_levels),
            **{k: None if v is None else digest(v.tolist() if v.dtype == object else v)
               for k, v in cols.items()}}


def zero_weights(graph, rng):
    """Weights in {0, 1, 2}, with every neighbour of the lowest-degree
    connected unit at 0, so that unit's neighbourhood weighs nothing."""
    w = rng.integers(0, 3, size=graph.n_units).astype(np.float64)
    degs = graph.degrees
    w[graph.neighbors(int(np.argmin(np.where(degs > 0, degs, degs.max() + 1))))] = 0.0
    return w


def outputs():
    """Yield (key, function, args) for every output of the matrix."""
    from netrand.conditioning import family_cells
    from netrand.data import Dataset
    from netrand.exposure import WeightedThreshold, compute_exposures
    from netrand.inference import (TECHNIQUES, make_balanced_split,
                                   run_permutation_variant, run_technique)
    from netrand.nullspec import NullSpec, NuisanceParams, effect_key
    from netrand.simulation import run_table

    def null_for(family, mapping, data):
        keys = dict.fromkeys(effect_key(family, c)
                             for c in family_cells(family, mapping.values, data.x_levels))
        return NullSpec(family, NuisanceParams({k: 0.25 * (i + 1) for i, k in enumerate(keys)}))

    def engine(tech, data, mapping, mech, family, stat, eps, b):
        null = null_for(family, mapping, data) if tech == "oracle" else None
        return run_technique(tech, data, mapping, mech, family, np.random.SeedSequence(1),
                             null=null, epsilon=eps, b=b, stat=stat,
                             keep_draws=True).to_dict()

    def small_batches(*args):
        from netrand import conditioning
        data, mapping = args[1:3]
        saved = conditioning.MAX_BATCH_BYTES
        conditioning.MAX_BATCH_BYTES = 16 * data.n * mapping.batch_bytes_per_cell(data.graph)
        try:
            return engine(*args)
        finally:
            conditioning.MAX_BATCH_BYTES = saved

    def bad_outcome(value, tech, data, *rest):
        y = data.y.copy()
        y[0] = value
        return engine(tech, Dataset(y=y, t=data.t, graph=data.graph, x=data.x), *rest)

    def permutation(data, mapping, family, stat, b):
        exposures = compute_exposures(mapping, data.t, data.graph)
        split = make_balanced_split(data, exposures, family, np.random.default_rng(7))
        return run_permutation_variant(data, mapping, family, split, b, np.random.default_rng(8),
                                       stat=stat, keep_draws=True).to_dict()

    def table_records(table, seed, workers):
        return run_table(table, seed=seed, reps=2, workers=workers,
                         fig2_sizes=(200,)).to_records()

    for name, data, mech, eps, b, fraction in designs():
        weighted = WeightedThreshold(zero_weights(data.graph, np.random.default_rng(5)),
                                     0.5, ">", isolated_value=1)
        for label, mapping in (("fraction", fraction), ("weighted", weighted)):
            at = f"{name}/{label}"
            batch = mech.draw_batch(64, np.random.default_rng(3))
            yield f"batch/{at}", mapping.compute_batch, (batch, data.graph)
            for family in FAMILIES:
                for stat in STATS:
                    for tech in TECHNIQUES:
                        args = (tech, data, mapping, mech, family, stat, eps, b)
                        yield f"engine/{at}/{tech}/{family}/{stat}", engine, args
                        if name in ("toy12", "hub260"):
                            yield f"batches16/{at}/{tech}/{family}/{stat}", small_batches, args
                        if at == "regular200/fraction":
                            for value in ("nan", "1e200"):
                                yield (f"y0={value}/{at}/{tech}/{family}/{stat}", bad_outcome,
                                       (float(value), *args))
                    for pb in (b, None):
                        yield (f"permutation/{at}/{family}/{stat}/b={pb}",
                               permutation, (data, mapping, family, stat, pb))
    for name, texts in INGEST.items():
        yield f"ingest/{name}", ingest_columns, texts
    for name, args in GRAPHS.items():
        yield f"graph/{name}", graph_arrays, args
    for name, text in TAU_MAPS.items():
        yield f"cli/{name}", cli_tau_map, (text,)
    for table in ("1", "2", "3", "4", "5", "6", "fig2"):
        for seed in (1, 11):
            for workers in (1, 2):
                yield (f"table/{table}/seed={seed}/workers={workers}", table_records,
                       (table, seed, workers))


def collect(out: Path) -> None:
    """Run the matrix in the current tree and write {key: value} to out."""
    import netrand
    from netrand.errors import InfeasibleConditioning, NetrandError
    CLI_CAUGHT = (NetrandError, OSError, json.JSONDecodeError, ValueError)  # as cli.main
    root = Path.cwd().resolve()
    if not Path(netrand.__file__).resolve().is_relative_to(root):
        sys.exit(f"netrand imported from {netrand.__file__}, not from {root}")
    results = {}
    for key, fn, args in outputs():
        try:
            results[key] = digest(fn(*args))
        except Exception as exc:  # an error is an output too, with its CLI exit code
            code = (exc.code if isinstance(exc, CliExit)
                    else 3 if isinstance(exc, InfeasibleConditioning)
                    else 2 if isinstance(exc, CLI_CAUGHT) else 1)
            results[key] = f"exit {code}: {type(exc).__name__}: {exc}"
    out.write_text(json.dumps(results, indent=1) + "\n")


def kind(value) -> str:
    """An output's class: 'exit N: ErrorClass' for an error, else 'output'."""
    if value is None:
        return "missing"
    return ": ".join(value.split(": ")[:2]) if value.startswith("exit ") else "output"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="the parent revision, such as HEAD~1")
    mode.add_argument("--collect", type=Path, metavar="OUT",
                      help="run the matrix in the current tree and write it to OUT")
    args = ap.parse_args()
    if args.collect:
        collect(args.collect)
        return

    tmp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        sides = {s: export(rev, tmp / s) for s, rev in (("parent", args.parent),
                                                         ("change", "HEAD"))}
        script = sides["change"] / "scripts" / Path(__file__).name
        procs = {s: subprocess.Popen(
            [sys.executable, str(script), "--collect", str(tmp / f"{s}.json")], cwd=root,
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'tests'}"})
            for s, root in sides.items()}
        if any([p.wait() for p in procs.values()]):  # wait for both before cleaning up
            sys.exit("a side failed to run the matrix")
        got = {s: json.loads((tmp / f"{s}.json").read_text()) for s in sides}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    parent, change = got["parent"], got["change"]
    differ = [k for k in dict.fromkeys([*parent, *change]) if parent.get(k) != change.get(k)]
    for k in differ:
        print(f"{k}\n  parent: {parent.get(k)}\n  change: {change.get(k)}")
    moves = Counter(f"{kind(parent.get(k))} -> {kind(change.get(k))}" for k in differ)
    for move, n in moves.most_common():
        print(f"{n:4d}  {move}", file=sys.stderr)
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} outputs differ",
          file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
