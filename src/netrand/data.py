"""Per-unit observed data bound to an interference graph."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, MissingColumn, NonBinaryTreatment, ParseError
from .graph import INT64, Graph, _csv_lines, _load_csv, read_edge_csv


@dataclass
class Dataset:
    """Observed outcome, binary treatment, and optional covariate columns.

    ``x`` is a discrete covariate (any sortable labels), ``strata`` an
    optional design stratum label, ``weights`` an optional per-unit column
    carried through for weighted exposure rules.
    """

    y: np.ndarray
    t: np.ndarray
    graph: Graph
    x: np.ndarray | None = None
    strata: np.ndarray | None = None
    weights: np.ndarray | None = None
    x_levels: tuple = field(init=False, repr=False, default=())  # sorted labels of x

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.t = np.asarray(self.t)
        n = self.graph.n_units
        if self.y.shape != (n,):
            raise DataError(f"y has shape {self.y.shape}, expected ({n},)")
        if self.t.shape != (n,):
            raise DataError(f"t has shape {self.t.shape}, expected ({n},)")
        if len(bad := np.flatnonzero(~np.isfinite(self.y))):
            raise DataError(f"unit {bad[0]} has outcome {self.y[bad[0]]}; outcomes must be finite")
        vals = set(np.unique(self.t).tolist())
        if not vals <= {0, 1}:
            raise NonBinaryTreatment(f"treatment values {sorted(vals)} not in {{0, 1}}")
        self.t = self.t.astype(np.int8)
        for name in ("x", "strata", "weights"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col)
                if col.shape != (n,):
                    raise DataError(f"{name} has shape {col.shape}, expected ({n},)")
                setattr(self, name, col)
        if self.weights is not None:
            self.weights = self.weights.astype(np.float64)
        if self.x is not None:
            self.x_levels = tuple(sorted(np.unique(self.x).tolist()))

    @property
    def n(self) -> int:
        return self.graph.n_units


# numpy dtype of each named node column; any other column is read as strings
NODE_DTYPES = {"id": np.int64, "y": np.float64, "t": np.int64, "weight": np.float64}
OPTIONAL_COLUMNS = (("x", "x"), ("stratum", "strata"), ("weight", "weights"))  # name, key


def read_nodes_csv(path) -> dict[str, np.ndarray]:
    """Read the node table: columns id,y,t and optional x,stratum,weight.

    Ids must form 0..n-1 (any row order). Returns columns keyed by name,
    sorted by id.
    """
    cols = _read_nodes_fast(path)
    return cols if cols is not None else _read_node_rows(path)


def _read_nodes_fast(path) -> dict[str, np.ndarray] | None:
    """read_nodes_csv by numpy's C reader, one typed field per header
    name, or None where it rejects the file or the layout is not covered
    (duplicate names, no data row, ids that are not 0..n-1)."""
    lines = _csv_lines(path)
    if lines is None:
        return None
    names = [c.strip() for c in lines[0].split(",")]
    if len(set(names)) < len(names) or not {"id", "y", "t"} <= set(names) or not any(lines[1:]):
        return None
    fields = {name: f"f{i}" for i, name in enumerate(names)}
    rows = _load_csv(lines[1:], [(fields[n], NODE_DTYPES.get(n, object)) for n in names], ndmin=1)
    if rows is None:
        return None
    ids = rows[fields["id"]]
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(len(ids))):
        return None
    out = {"y": rows[fields["y"]][order], "t": rows[fields["t"]][order]}
    for opt, key in OPTIONAL_COLUMNS:
        if opt in fields:
            col = rows[fields[opt]][order]
            out[key] = col if opt == "weight" else _parse_labels([v.strip() for v in col])
            if out[key] is None:
                return None  # an integer label outside int64: the row parser names its line
    return out


def _read_node_rows(path) -> dict[str, np.ndarray]:
    """read_nodes_csv row by row with csv: the reference for
    _read_nodes_fast and the only path that raises a ParseError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty node file")
        names = [c.strip() for c in reader.fieldnames]
        for required in ("id", "y", "t"):
            if required not in names:
                raise MissingColumn(f"node file lacks column {required!r}")
        rows = []
        for row in reader:
            lineno = reader.line_num  # the row's last physical line; blank lines count
            if None in row:  # DictReader's key for the fields past the header's
                raise ParseError(f"row has {len(names) + len(row[None])} fields, the header "
                                 f"has {len(names)}", line=lineno)
            clean = {k.strip(): (v.strip() if v is not None else "") for k, v in row.items()}
            try:
                rid = int(clean["id"])
                ry = float(clean["y"])
                rt = int(clean["t"])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad id/y/t value: {exc}", line=lineno) from None
            if rt not in INT64:
                raise ParseError(f"bad id/y/t value: t {clean['t']} outside int64", line=lineno)
            rows.append((rid, ry, rt, clean, lineno))
    if not rows:
        raise ParseError("node file has no data rows")
    rows.sort(key=lambda r: r[0])
    ids = [r[0] for r in rows]
    if ids != list(range(len(ids))):
        raise ParseError("node ids must be exactly 0..n-1")
    out: dict[str, np.ndarray] = {
        "y": np.array([r[1] for r in rows], dtype=np.float64),
        "t": np.array([r[2] for r in rows], dtype=np.int64),
    }
    for opt, key in OPTIONAL_COLUMNS:
        if opt not in names:
            continue
        raw = [r[3][opt] for r in rows]
        if opt == "weight":
            out[key] = np.empty(len(rows), dtype=np.float64)
            for i, (v, r) in enumerate(zip(raw, rows)):
                try:
                    out[key][i] = float(v)
                except ValueError as exc:
                    raise ParseError(f"bad weight value: {exc}", line=r[4]) from None
        elif (labels := _parse_labels(raw)) is None:
            bad = next(r for v, r in zip(raw, rows) if int(v) not in INT64)
            raise ParseError(f"{opt} label {bad[3][opt]} outside int64", line=bad[4])
        else:
            out[key] = labels
    return out


def _parse_labels(raw: list[str]) -> np.ndarray | None:
    """int64 labels where every label is an integer, else the strings;
    None where an integer label lies outside int64."""
    try:
        return np.array([int(v) for v in raw], dtype=np.int64)
    except ValueError:
        return np.array(raw, dtype=object)
    except OverflowError:
        return None


def ingest(nodes_path, edges_path) -> Dataset:
    """Load node and edge CSVs into a validated Dataset."""
    cols = read_nodes_csv(nodes_path)
    n = len(cols["y"])
    graph = read_edge_csv(edges_path, n_units=n)
    return Dataset(y=cols["y"], t=cols["t"], graph=graph,
                   x=cols.get("x"), strata=cols.get("strata"),
                   weights=cols.get("weights"))
