"""Undirected interference graphs and graph-level diagnostics.

Units are integers 0..n_units-1. Graphs are simple (no self loops, no
parallel edges); directed edge lists are symmetrized on construction.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .conditioning import arm_counts, family_cells
from .errors import EmptyCell, IndexOutOfRange, ParseError, SelfLoop
from .nullspec import BY_EXPOSURE, BY_EXPOSURE_COVARIATE

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset
    from .exposure import ExposureVector


class Graph:
    """Adjacency in compressed sparse row (CSR) form: unit i's neighbors
    are ``indices[indptr[i]:indptr[i + 1]]``, ascending, deduped over both
    orientations of the input pairs; ``edges`` derives the pairs i < j.

    ``neighbor_sums`` works in the neighbor-slot layout (``slots``): units
    sorted by descending degree, and for each slot k the k-th neighbors of
    the units of degree > k, which are a prefix of that order. A sum over
    neighbors is then one gather-add per slot, O(E) per row, and skewed
    degrees cost no padding. ``dense()`` builds the N x N matrix on
    request; no engine path calls it. The CSR arrays never change after
    construction, so ``cached`` keeps what is derived from them.

    Raises IndexOutOfRange (n_units <= 0, or an endpoint outside
    0..n_units-1) or SelfLoop for the first offending edge in input order.
    """

    def __init__(self, n_units: int, edges: Iterable[tuple[int, int]]):
        self.n_units = n = int(n_units)
        if n <= 0:
            raise IndexOutOfRange(f"n_units must be positive, got {n_units}")
        self.symmetrized = False  # build_graph sets it from its edge list
        if not isinstance(edges, np.ndarray):
            edges = np.fromiter(itertools.chain.from_iterable(edges), np.int64)
        pairs = edges.astype(np.int64, copy=False).reshape(-1, 2)
        a, b = pairs.T
        if len(pairs) and not (pairs.min() >= 0 and pairs.max() < n and (a != b).all()):
            outside = ((pairs < 0) | (pairs >= n)).any(axis=1)  # per edge only on failure
            i = int(np.argmax(outside | (a == b)))
            if outside[i]:
                raise IndexOutOfRange(f"edge ({a[i]}, {b[i]}) outside 0..{n - 1}")
            raise SelfLoop(f"self loop at unit {a[i]}")
        # each edge in both directions as key row * n + column, sorted and deduped
        keys = np.sort(np.concatenate((a * n + b, b * n + a)))
        rows, self.indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self._cache: dict = {}

    def neighbors(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_units:
            raise IndexOutOfRange(f"unit {i} not in 0..{self.n_units - 1}")
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        rows = self._rows()
        upper = rows < self.indices
        return frozenset(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    def _rows(self) -> np.ndarray:
        """The unit whose neighbor list holds each entry of ``indices``."""
        return np.repeat(np.arange(self.n_units), self.degrees)

    def cached(self, key, build):
        """build(), called once per key for this graph."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def dense(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (cached)."""
        return self.cached("dense", self._dense)

    def _dense(self) -> np.ndarray:
        a = np.zeros((self.n_units, self.n_units), dtype=np.float64)
        a[self._rows(), self.indices] = 1.0
        return a

    @property
    def slots(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(order, nbrs): units by descending degree, and per slot k the
        k-th neighbors of ``order[:len(nbrs[k])]``, the units of degree
        > k (cached)."""
        return self.cached("slots", self._slots)[:2]

    def _slots(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], bool]:
        """slots, and whether order is the identity: the stable sort keeps
        every unit in place exactly when no degree rises with the unit
        index, as on every regular graph."""
        degs = self.degrees
        order = np.argsort(-degs, kind="stable")
        starts = self.indptr[order]
        nbrs = tuple(self.indices[starts[:np.count_nonzero(degs > k)] + k]
                     for k in range(degs.max(initial=0)))
        return order, nbrs, not np.any(degs[1:] > degs[:-1])

    def neighbor_sums(self, t_units: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Sum of t_j (times weights[j], if given) over each unit's
        neighbors j, for every column of the unit-major 0/1 matrix t_units
        (N, B), whose row j holds unit j's treatments in B vectors.

        Returns an (N, B) matrix in unit order: counts in the narrowest
        signed integer type holding the largest degree, or float64 sums
        with weights. The sums accumulate in slot order, where each slot's
        gather reads whole contiguous rows: the first slot's gather is
        written and the others added. They are scattered back to unit
        order once, unless slot order is unit order.
        """
        order, nbrs, in_order = self.cached("slots", self._slots)
        t_units = np.ascontiguousarray(t_units, dtype=np.int8)
        # a type that holds -(d + 1) also holds every count 0..d
        dtype = np.min_scalar_type(-len(nbrs) - 1) if weights is None else np.float64
        sums = np.empty(t_units.shape, dtype=dtype)
        sums[len(nbrs[0]) if nbrs else 0:] = 0  # the units without neighbors
        for k, nbr in enumerate(nbrs):
            rows = t_units[nbr]  # frees the previous slot's rows before the weights' product
            if weights is not None:
                rows = rows * weights[nbr, None]
            if k:
                sums[:len(nbr)] += rows
            else:
                sums[:len(nbr)] = rows
        if in_order:
            return sums
        out = np.empty_like(sums)
        out[order] = sums
        return out

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def __repr__(self) -> str:
        return f"Graph(n_units={self.n_units}, n_edges={self.n_edges})"


def build_graph(n_units: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """The Graph of an edge list (validated, deduped and symmetrized as
    Graph does), whose symmetrized flag records whether the input, read
    as directed pairs, was missing any mirror pair."""
    pairs = np.asarray(edge_list, dtype=np.int64).reshape(len(edge_list), 2)
    graph = Graph(n_units, pairs)
    # each pair is one direction of an edge: a mirror pair is missing when
    # fewer than the graph's 2E directed pairs occur
    keys = np.sort(pairs[:, 0] * n_units + pairs[:, 1])
    graph.symmetrized = bool(np.count_nonzero(np.diff(keys, prepend=-1)) < len(graph.indices))
    return graph


INT64 = range(-(1 << 63), 1 << 63)  # the integers an int64 column holds


def _csv_lines(path) -> list[str] | None:
    """The file's lines, for numpy's C reader, or None when it holds a
    quote (csv unquotes fields, numpy does not) or does not decode; the
    row parser then reads the file and reports the error. Universal
    newlines end a line wherever csv ends a row: at \\n, \\r and \\r\\n."""
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    return None if '"' in text else text.split("\n")


def _load_csv(lines: list[str], dtype, **kwargs) -> np.ndarray | None:
    """Comma-separated lines parsed by numpy's C reader, which skips empty
    lines, or None where it rejects a line. Every int or float token it
    accepts has the value Python's int() or float() gives that token.
    Some tokens that Python accepts, such as 1_000 or non-ASCII digits, it
    rejects. lines must hold a non-empty one, since numpy warns on none."""
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, **kwargs)
    except ValueError:
        return None


def read_edge_csv(path, n_units: int | None = None) -> Graph:
    """Read src,dst edge pairs (optional header; extra columns ignored)
    and build a graph.

    Node count is inferred as max index + 1 unless given explicitly.
    """
    edges = _read_edges_fast(path)
    if edges is None:
        edges = _read_edge_rows(path)
    if n_units is None:
        n_units = 1 + int(edges.max(initial=-1))
        if n_units <= 0:
            raise ParseError("edge file contains no edges and no node count given")
    return build_graph(n_units, edges)


def _read_edges_fast(path) -> np.ndarray | None:
    """The (m, 2) endpoints by numpy's C reader, or None where it rejects
    the file or the layout is not covered (a first row of under two
    fields, or no data row)."""
    lines = _csv_lines(path)
    if lines is None:
        return None
    first = lines[0].split(",")
    if len(first) < 2:
        return None
    try:
        int(first[0]), int(first[1])
    except ValueError:
        lines = lines[1:]  # a header row, as in _read_edge_rows
    if not any(lines):
        return None
    return _load_csv(lines, np.int64, usecols=(0, 1), ndmin=2)


def _read_edge_rows(path) -> np.ndarray:
    """The (m, 2) endpoints, row by row with csv: the reference for
    _read_edges_fast and the only path that raises a ParseError."""
    ends: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ParseError("expected two columns src,dst", line=lineno)
            try:
                pair = int(row[0]), int(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ParseError(f"non-integer edge endpoint {row[:2]}", line=lineno) from None
            if not all(e in INT64 for e in pair):
                raise ParseError(f"edge endpoint {row[:2]} outside int64", line=lineno)
            ends += pair
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class DegreeDiagnostics:
    third_moment: float
    path3_density: float


def degree_diagnostics(graph: Graph) -> DegreeDiagnostics:
    """Degree third moment and length-3 path density.

    third_moment = mean over units of degree cubed; path3_density = mean
    over units of the number of length-3 walks to distinct endpoints.
    Both are k^3 checks for k-regular graphs and grow with N when the
    graph is too dense for exposure-based inference.
    """
    degs = graph.degrees
    third = float(np.mean(degs.astype(np.float64)**3))
    # All walks: 1'A^3 1 = sum over ordered edges (i, j) of deg_i * deg_j.
    # Closed walks: trace(A^3) = 6 triangles = 2 x (wedges whose ends are
    # adjacent), each triangle closing one wedge at each of its corners.
    walks = int(np.sum(np.repeat(degs, degs) * degs[graph.indices]))
    closed = 2 * _closed_wedges(graph)
    return DegreeDiagnostics(third_moment=third, path3_density=(walks - closed) / graph.n_units)


def _closed_wedges(graph: Graph) -> int:
    """Number of wedges j - i - k (j < k, both neighbors of i) whose ends
    j and k are adjacent. Each neighbor-list position pairs with the
    positions after it in the same (ascending) list."""
    n, flat, degs = graph.n_units, graph.indices, graph.degrees
    later = np.repeat(graph.indptr[1:], degs) - np.arange(len(flat)) - 1
    first = np.repeat(np.arange(len(flat)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    # j and k are adjacent when j * n + k is a CSR entry's row * n + column
    return int(np.count_nonzero(np.isin(flat[first] * n + flat[second],
                                        graph._rows() * n + flat)))


@dataclass(frozen=True)
class OverlapCell:
    arm: int
    cell: tuple
    count: int
    proportion: float
    passed: bool


@dataclass(frozen=True)
class OverlapReport:
    eta: float
    cells: tuple[OverlapCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


def overlap_check(dataset: "Dataset", exposures: "ExposureVector",
                  eta: float) -> OverlapReport:
    """Check that each treatment arm's share of every exposure(-covariate)
    stratum lies strictly inside (eta, 1 - eta).

    Proportions are conditional on the stratum, so flipping all treatments
    maps each reported proportion p to 1 - p. Raises EmptyCell when a
    declared stratum contains no units.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must be in (0, 0.5), got {eta}")
    family = BY_EXPOSURE if dataset.x is None else BY_EXPOSURE_COVARIATE
    strata = family_cells(family, exposures.mapping.values, dataset.x_levels)
    counts = arm_counts(exposures.values, strata, dataset.t, dataset.x).tolist()
    cells = []
    for cell, row in zip(strata, counts):
        if sum(row) == 0:
            raise EmptyCell(f"stratum {cell} has zero units")
        for arm, cnt in enumerate(row):
            prop = cnt / sum(row)
            cells.append(OverlapCell(arm=arm, cell=cell, count=cnt,
                                     proportion=prop,
                                     passed=eta < prop < 1.0 - eta))
    return OverlapReport(eta=eta, cells=tuple(cells))
