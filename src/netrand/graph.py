"""Undirected interference graphs and graph-level diagnostics.

Units are integers 0..n_units-1. Graphs are simple (no self loops, no
parallel edges); directed edge lists are symmetrized on construction.
"""
from __future__ import annotations

import csv
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
    """Adjacency stored as sorted neighbor lists.

    Batch kernels read the neighbor-slot layout (``slots``): units sorted
    by descending degree, and for each slot k the k-th neighbors of the
    units of degree > k, which are a prefix of that order. A sum over
    neighbors is then one gather-add per slot, O(E) per row, and skewed
    degrees cost no padding. ``dense()`` builds the N x N matrix on
    request; no engine path calls it.
    """

    def __init__(self, n_units: int, edges: Iterable[tuple[int, int]],
                 symmetrized: bool = False):
        self.n_units = int(n_units)
        self.edges = frozenset(edges)
        self.symmetrized = bool(symmetrized)
        nbrs: list[list[int]] = [[] for _ in range(self.n_units)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self._neighbors = tuple(np.array(sorted(ns), dtype=np.int64) for ns in nbrs)
        self._degrees = np.array([len(ns) for ns in nbrs], dtype=np.int64)
        self._dense: np.ndarray | None = None
        self._slots: tuple | None = None

    def neighbors(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_units:
            raise IndexOutOfRange(f"unit {i} not in 0..{self.n_units - 1}")
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        if not 0 <= i < self.n_units:
            raise IndexOutOfRange(f"unit {i} not in 0..{self.n_units - 1}")
        return int(self._degrees[i])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def dense(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (cached)."""
        if self._dense is None:
            a = np.zeros((self.n_units, self.n_units), dtype=np.float64)
            for i, j in self.edges:
                a[i, j] = 1.0
                a[j, i] = 1.0
            self._dense = a
        return self._dense

    @property
    def slots(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(order, nbrs): units by descending degree, and per slot k the
        k-th neighbors of ``order[:len(nbrs[k])]``, the units of degree
        > k (cached)."""
        if self._slots is None:
            degs = self._degrees
            order = np.argsort(-degs, kind="stable")
            starts = (np.cumsum(degs) - degs)[order]
            flat = self._flat_neighbors()
            self._slots = (order, tuple(flat[starts[:np.count_nonzero(degs > k)] + k]
                                        for k in range(degs.max(initial=0))))
        return self._slots

    def _flat_neighbors(self) -> np.ndarray:
        """All neighbor lists concatenated in unit order."""
        return np.concatenate((*self._neighbors, np.empty(0, np.int64)))

    def neighbor_sums(self, t_mat: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Sum of t_j (times weights[j], if given) over each unit's
        neighbors j, for every row of the 0/1 matrix t_mat (B, N).

        Returns a unit-major (N, B) matrix whose rows follow
        ``slots[0]`` (descending degree), int32 counts without weights and
        float64 sums with them. Working unit-major makes each slot's
        gather read whole contiguous rows.
        """
        order, nbrs = self.slots
        t_units = np.ascontiguousarray(np.asarray(t_mat).T, dtype=np.int8)
        dtype = np.int32 if weights is None else np.float64
        sums = np.zeros(t_units.shape, dtype=dtype)
        for nbr in nbrs:
            rows = t_units[nbr]
            if weights is None:
                sums[:len(nbr)] += rows
            else:
                sums[:len(nbr)] += rows * weights[nbr, None]
        return sums

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n_units={self.n_units}, n_edges={self.n_edges})"


def build_graph(n_units: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """Validate, dedupe, and symmetrize an edge list.

    Raises IndexOutOfRange for endpoints outside 0..n_units-1 and SelfLoop
    for (i, i) entries. The symmetrized flag on the result records whether
    the input, read as directed pairs, was missing any mirror pair.
    """
    if n_units <= 0:
        raise IndexOutOfRange(f"n_units must be positive, got {n_units}")
    directed = set()
    undirected = set()
    for a, b in edge_list:
        a, b = int(a), int(b)
        if not (0 <= a < n_units and 0 <= b < n_units):
            raise IndexOutOfRange(f"edge ({a}, {b}) outside 0..{n_units - 1}")
        if a == b:
            raise SelfLoop(f"self loop at unit {a}")
        directed.add((a, b))
        undirected.add((min(a, b), max(a, b)))
    symmetrized = any((b, a) not in directed for a, b in directed)
    return Graph(n_units, undirected, symmetrized=symmetrized)


def read_edge_csv(path, n_units: int | None = None) -> Graph:
    """Read src,dst edge pairs (optional header) and build a graph.

    Node count is inferred as max index + 1 unless given explicitly.
    """
    pairs: list[tuple[int, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ParseError("expected two columns src,dst", line=lineno)
            a, b = row[0].strip(), row[1].strip()
            if lineno == 1 and not (_is_int(a) and _is_int(b)):
                continue  # header row
            if not (_is_int(a) and _is_int(b)):
                raise ParseError(f"non-integer edge endpoint {row[:2]}", line=lineno)
            pairs.append((int(a), int(b)))
    if n_units is None:
        n_units = 1 + max((max(a, b) for a, b in pairs), default=-1)
        if n_units <= 0:
            raise ParseError("edge file contains no edges and no node count given")
    return build_graph(n_units, pairs)


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


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
    n = graph.n_units
    degs = graph.degrees
    third = float(np.mean(degs.astype(np.float64)**3))
    # All walks: 1'A^3 1 = sum over ordered edges (i, j) of deg_i * deg_j.
    # Closed walks: trace(A^3) = 6 triangles = 2 x (wedges whose ends are
    # adjacent), each triangle closing one wedge at each of its corners.
    edges = np.sort(np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2), axis=1)
    walks = 2 * int(np.sum(degs[edges[:, 0]] * degs[edges[:, 1]]))
    closed = 2 * _closed_wedges(graph, edges)
    return DegreeDiagnostics(third_moment=third, path3_density=(walks - closed) / n)


def _closed_wedges(graph: Graph, edges: np.ndarray) -> int:
    """Number of wedges j - i - k (j < k, both neighbors of i) whose ends
    j and k are adjacent. Each neighbor-list position pairs with the
    positions after it in the same (sorted) list."""
    n = graph.n_units
    flat = graph._flat_neighbors()
    later = np.repeat(np.cumsum(graph.degrees), graph.degrees) - np.arange(len(flat)) - 1
    first = np.repeat(np.arange(len(flat)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    keys = flat[first] * n + flat[second]
    return int(np.count_nonzero(np.isin(keys, edges[:, 0] * n + edges[:, 1])))


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
