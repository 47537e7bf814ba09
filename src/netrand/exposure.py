"""Exposure mappings: per-unit summaries of a whole treatment vector.

A mapping declares its finite value set up front so that conditioning
cells exist even for values unobserved under a particular draw. Each
unit's exposure may depend only on its own neighborhood.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from .conditioning import cell_mask
from .errors import MappingFailure
from .graph import Graph

ExposureValue = Hashable

_COMPARATORS = (">", ">=")


def _threshold_rows(mapping, num: np.ndarray, denom: np.ndarray,
                    graph: Graph) -> np.ndarray:
    """(B, N) exposures from the unit-major numerators of
    ``Graph.neighbor_sums`` and per-unit denominators in the same slot
    order; a zero denominator gives ``isolated_value``."""
    live = denom > 0
    passes = np.greater if mapping.comparator == ">" else np.greater_equal
    exposed = np.full(num.shape, mapping.isolated_value, dtype=np.int8)
    exposed[live] = passes(num[live] / denom[live, None], mapping.threshold)
    order = graph.slots[0]
    unit_major = np.empty_like(exposed)
    unit_major[order] = exposed
    return np.ascontiguousarray(unit_major.T, dtype=np.int64)


@dataclass(frozen=True)
class FractionThreshold:
    """Exposed when the fraction of treated neighbors clears a threshold.

    The comparator is explicit (strict ``">"`` or ``">="``), never inferred.
    Units with no neighbors get ``isolated_value``.
    """

    threshold: float = 0.5
    comparator: str = ">"
    isolated_value: int = 0
    values: tuple = (0, 1)

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if self.isolated_value not in self.values:
            raise ValueError("isolated_value must be a declared exposure value")

    def compute(self, t: np.ndarray, graph: Graph) -> np.ndarray:
        return self.compute_batch(np.asarray(t)[None, :], graph)[0]

    def compute_batch(self, t_mat: np.ndarray, graph: Graph) -> np.ndarray:
        counts = graph.neighbor_sums(t_mat)
        degs = graph.degrees[graph.slots[0]].astype(np.float64)
        return _threshold_rows(self, counts, degs, graph)

    def config(self) -> dict:
        return {"type": "fraction_threshold", "threshold": self.threshold,
                "comparator": self.comparator, "isolated_value": self.isolated_value}


class WeightedThreshold:
    """Threshold on a weighted share of treated neighbors.

    Uses per-unit weights d_j: exposed when
    sum_j t_j d_j A_ij / sum_j d_j A_ij clears the threshold. A zero
    denominator yields ``isolated_value``.
    """

    values = (0, 1)

    def __init__(self, weights: np.ndarray, threshold: float = 0.5,
                 comparator: str = ">", isolated_value: int = 0):
        if comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if isolated_value not in self.values:
            raise ValueError("isolated_value must be a declared exposure value")
        self.weights = np.asarray(weights, dtype=np.float64)
        self.threshold = float(threshold)
        self.comparator = comparator
        self.isolated_value = int(isolated_value)

    def compute(self, t: np.ndarray, graph: Graph) -> np.ndarray:
        return self.compute_batch(np.asarray(t)[None, :], graph)[0]

    def compute_batch(self, t_mat: np.ndarray, graph: Graph) -> np.ndarray:
        if self.weights.shape != (graph.n_units,):
            raise MappingFailure(
                f"weights have shape {self.weights.shape}, expected ({graph.n_units},)")
        num = graph.neighbor_sums(t_mat, self.weights)
        denom = graph.neighbor_sums(np.ones((1, graph.n_units), np.int8), self.weights)[:, 0]
        return _threshold_rows(self, num, denom, graph)

    def config(self) -> dict:
        return {"type": "weighted_threshold", "threshold": self.threshold,
                "comparator": self.comparator, "isolated_value": self.isolated_value}


class CustomMapping:
    """Wrap an arbitrary rule f(i, t, graph) -> value with a declared value set."""

    def __init__(self, fn: Callable[[int, np.ndarray, Graph], ExposureValue],
                 values: Sequence[ExposureValue]):
        self.fn = fn
        self.values = tuple(values)
        if not self.values:
            raise ValueError("values must be a nonempty finite set")

    def exposure(self, i: int, t: np.ndarray, graph: Graph) -> ExposureValue:
        try:
            v = self.fn(i, np.asarray(t), graph)
        except Exception as exc:
            raise MappingFailure(f"exposure rule failed at unit {i}: {exc}") from exc
        if v not in self.values:
            raise MappingFailure(f"exposure rule returned undeclared value {v!r} at unit {i}")
        return v

    def compute(self, t: np.ndarray, graph: Graph) -> np.ndarray:
        return np.array([self.exposure(i, t, graph) for i in range(graph.n_units)])

    def compute_batch(self, t_mat: np.ndarray, graph: Graph) -> np.ndarray:
        return np.stack([self.compute(row, graph) for row in np.asarray(t_mat)])

    def config(self) -> dict:
        return {"type": "custom", "values": list(self.values)}


@dataclass
class ExposureVector:
    """Exposure values for every unit under one treatment vector."""

    values: np.ndarray
    mapping: object
    treatment: np.ndarray = field(repr=False, default=None)


def compute_exposures(mapping, t: np.ndarray, graph: Graph) -> ExposureVector:
    """Evaluate the mapping at every unit under treatment vector t."""
    t = np.asarray(t)
    if t.shape != (graph.n_units,):
        raise MappingFailure(f"t has shape {t.shape}, expected ({graph.n_units},)")
    vals = mapping.compute(t, graph)
    return ExposureVector(values=np.asarray(vals), mapping=mapping, treatment=t.copy())


@dataclass(frozen=True)
class CellCounts:
    n: int
    by_exposure: dict
    by_arm_exposure: dict
    by_exposure_covariate: dict | None = None
    by_arm_exposure_covariate: dict | None = None


def exposure_cell_counts(exposures: ExposureVector, t: np.ndarray,
                         x: np.ndarray | None = None) -> CellCounts:
    """Cell counts N_k, N_{t,k} and, with a covariate, N_{k,l}, N_{t,k,l}."""
    pi = np.asarray(exposures.values)
    t = np.asarray(t)
    n = len(pi)
    by_exp = {}
    by_arm = {}
    for v in exposures.mapping.values:
        m = cell_mask(pi, (v,))
        by_exp[v] = int(m.sum())
        for arm in (0, 1):
            by_arm[(arm, v)] = int((m & (t == arm)).sum())
    by_cov = None
    by_arm_cov = None
    if x is not None:
        x = np.asarray(x)
        by_cov = {}
        by_arm_cov = {}
        for v in exposures.mapping.values:
            for lvl in sorted(np.unique(x).tolist()):
                m = cell_mask(pi, (v, lvl), x)
                by_cov[(v, lvl)] = int(m.sum())
                for arm in (0, 1):
                    by_arm_cov[(arm, v, lvl)] = int((m & (t == arm)).sum())
    return CellCounts(n=n, by_exposure=by_exp, by_arm_exposure=by_arm,
                      by_exposure_covariate=by_cov,
                      by_arm_exposure_covariate=by_arm_cov)
