"""Exposure mappings: per-unit summaries of a whole treatment vector.

A mapping declares its finite value set up front so that conditioning
cells exist even for values unobserved under a particular draw. Each
unit's exposure may depend only on its own neighborhood.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .conditioning import arm_counts, family_cells
from .errors import MappingFailure
from .graph import Graph
from .nullspec import BY_EXPOSURE, BY_EXPOSURE_COVARIATE

ExposureValue = Hashable

_COMPARATORS = (">", ">=")


class _UnitMajor:
    """Draw-major entry points over a mapping's one kernel, compute_units:
    the (N, m) exposures of the m treatment vectors in t_units' columns.

    batch_bytes_per_cell(graph) declares the sampler's peak bytes per cell
    (row x unit) of a candidate batch through this mapping, which sizes
    the batches (conditioning.MAX_BATCH_BYTES). Each figure is the
    tracemalloc peak of one sample_conditioning_set call whose one batch
    has no rejection, divided by the batch's rows x units, and rounded up
    to an eighth; the measurements are at N=3200, b=499, two cells, on a
    5-regular graph unless stated."""

    def batch_bytes_per_cell(self, graph: Graph) -> float:
        """The default, for a kernel that declares none: three float64
        arrays of the batch's shape."""
        return 24.0

    def compute(self, t: np.ndarray, graph: Graph) -> np.ndarray:
        return self.compute_batch(np.asarray(t)[None, :], graph)[0]

    def compute_batch(self, t_mat: np.ndarray, graph: Graph) -> np.ndarray:
        return np.ascontiguousarray(self.compute_units(np.asarray(t_mat).T, graph).swapaxes(0, 1))


@dataclass(frozen=True)
class FractionThreshold(_UnitMajor):
    """Exposed when the fraction of treated neighbors clears a threshold.

    The comparator is explicit (strict ``">"`` or ``">="``), never inferred.
    Units with no neighbors get ``isolated_value``.
    """

    threshold: float = 0.5
    comparator: str = ">"
    isolated_value: int = 0
    values = (0, 1)

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if self.isolated_value not in self.values:
            raise ValueError("isolated_value must be a declared exposure value")

    def batch_bytes_per_cell(self, graph: Graph) -> float:
        """The drawn batch and its transpose (1 + 1) plus the larger of the
        exposures with the check's rows (1 + 2, and temporaries) and
        neighbor_sums' two count arrays of c bytes each (2c), c the count
        type's width. Measured: 5.52 with int8 counts, 6.00 with int16 (a
        hub of degree 3000), 10.00 with int32 (N=40000, b=50, a hub of
        degree 33000)."""
        c = np.min_scalar_type(-int(graph.degrees.max(initial=0)) - 1).itemsize
        return max(5.625, 2.125 + 2 * c)

    def compute_units(self, t_units: np.ndarray, graph: Graph) -> np.ndarray:
        """A unit of degree d is exposed when its treated-neighbor count
        reaches its cut-off, the least c in 0..d for which c / float(d)
        passes (d + 1 if none does): the float64 fraction test decided on
        integers. Counts are compared with cut-off - 1, which fits them;
        the graph caches those per (threshold, comparator, count type)."""
        counts = graph.neighbor_sums(t_units)
        below, isolated = graph.cached(
            ("cut-offs", self.threshold, self.comparator, counts.dtype),
            lambda: self._below_cutoffs(graph.degrees, counts.dtype))
        exposed = (counts > below[:, None]).view(np.int8)
        exposed[isolated] = self.isolated_value
        return exposed

    def _below_cutoffs(self, degs: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Each unit's cut-off - 1 as dtype, and the units of degree 0."""
        ds, inverse = np.unique(degs, return_inverse=True)
        d = np.repeat(ds, ds + 1)  # each distinct degree, once per c in 0..d
        starts = np.flatnonzero(np.diff(d, prepend=-1))
        c = np.arange(len(d)) - np.repeat(starts, ds + 1)
        passes = np.greater if self.comparator == ">" else np.greater_equal
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = passes(c / d.astype(np.float64), self.threshold)
        cut = np.minimum.reduceat(np.where(ok, c, d + 1), starts)
        return (cut - 1).astype(dtype)[inverse], np.flatnonzero(degs == 0)

    def config(self) -> dict:
        return {"type": "fraction_threshold", "threshold": self.threshold,
                "comparator": self.comparator, "isolated_value": self.isolated_value}


class WeightedThreshold(_UnitMajor):
    """Threshold on a weighted share of treated neighbors.

    Uses per-unit weights d_j: exposed when
    sum_j t_j d_j A_ij / sum_j d_j A_ij clears the threshold. A zero
    denominator yields ``isolated_value``. Weights are finite and >= 0,
    and held as a read-only copy, so each graph caches the weighted
    degrees under the mapping itself.
    """

    values = (0, 1)

    def __init__(self, weights: np.ndarray, threshold: float = 0.5,
                 comparator: str = ">", isolated_value: int = 0):
        if comparator not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}")
        if isolated_value not in self.values:
            raise ValueError("isolated_value must be a declared exposure value")
        self.weights = np.array(weights, dtype=np.float64)
        self.weights.flags.writeable = False
        if len(bad := np.flatnonzero(~(np.isfinite(self.weights) & (self.weights >= 0)))):
            raise MappingFailure(f"unit {bad[0]} has weight {self.weights.flat[bad[0]]}; "
                                 f"weights must be finite and non-negative")
        self.threshold = float(threshold)
        self.comparator = comparator
        self.isolated_value = int(isolated_value)

    def batch_bytes_per_cell(self, graph: Graph) -> float:
        """The batch and its transpose (1 + 1), the float64 sums and the
        result they are scattered into (8 + 8), and one slot's gather
        (1). Measured: 19.10, with or without a hub of degree 3000."""
        return 19.25

    def compute_units(self, t_units: np.ndarray, graph: Graph) -> np.ndarray:
        """The float64 quotient of the weighted sums, divided in place."""
        if self.weights.shape != (graph.n_units,):
            raise MappingFailure(
                f"weights have shape {self.weights.shape}, expected ({graph.n_units},)")
        num = graph.neighbor_sums(t_units, self.weights)
        denom = graph.cached(("weighted degrees", self), lambda: graph.neighbor_sums(
            np.ones((graph.n_units, 1), np.int8), self.weights)[:, 0])
        passes = np.greater if self.comparator == ">" else np.greater_equal
        with np.errstate(divide="ignore", invalid="ignore"):
            exposed = passes(np.divide(num, denom[:, None], out=num),
                             self.threshold).view(np.int8)
        exposed[denom <= 0] = self.isolated_value
        return exposed

    def config(self) -> dict:
        return {"type": "weighted_threshold", "threshold": self.threshold,
                "comparator": self.comparator, "isolated_value": self.isolated_value}


class CustomMapping(_UnitMajor):
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

    def batch_bytes_per_cell(self, graph: Graph) -> float:
        """Each draw's list of N values and their int64 array (8 + 8)
        beside the batch and its transpose. Measured with an int-valued
        rule at b=99: 18.20 at N=400 and 18.88 at N=1000 (11.20 with
        bool values at N=400)."""
        return 20.0

    def compute_units(self, t_units: np.ndarray, graph: Graph) -> np.ndarray:
        return np.array([[self.exposure(i, t, graph) for i in range(graph.n_units)]
                         for t in np.asarray(t_units).T]).swapaxes(0, 1)

    def config(self) -> dict:
        return {"type": "custom", "values": list(self.values)}


@dataclass
class ExposureVector:
    """Exposure values for every unit under one treatment vector."""

    values: np.ndarray
    mapping: object


def compute_exposures(mapping, t: np.ndarray, graph: Graph) -> ExposureVector:
    """Evaluate the mapping at every unit under treatment vector t."""
    t = np.asarray(t)
    if t.shape != (graph.n_units,):
        raise MappingFailure(f"t has shape {t.shape}, expected ({graph.n_units},)")
    vals = mapping.compute(t, graph)
    return ExposureVector(values=np.asarray(vals), mapping=mapping)


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

    def tally(cells):
        counts = arm_counts(exposures.values, cells, t, x).tolist()
        return ({(c if len(c) == 2 else c[0]): sum(row) for c, row in zip(cells, counts)},
                {(arm, *c): k for c, row in zip(cells, counts)
                 for arm, k in enumerate(row)})

    by_exp, by_arm = tally(family_cells(BY_EXPOSURE, exposures.mapping.values))
    by_cov, by_arm_cov = (None, None) if x is None else tally(family_cells(
        BY_EXPOSURE_COVARIATE, exposures.mapping.values, sorted(np.unique(x).tolist())))
    return CellCounts(n=len(exposures.values), by_exposure=by_exp,
                      by_arm_exposure=by_arm, by_exposure_covariate=by_cov,
                      by_arm_exposure_covariate=by_arm_cov)
