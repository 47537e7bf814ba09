"""Frozen instances and slow pure-python oracles shared across the suite.

The oracles here deliberately avoid the library's vectorized paths:
exposures come from per-unit neighbor loops, empirical frequencies from
explicit counting, and conditioning sets from exhaustive enumeration over
every assignment the mechanism supports. Tests compare fast library
output against these references.
"""
import itertools
import math

import numpy as np

from netrand.conditioning import Design, cell_mask
from netrand.data import Dataset
from netrand.exposure import FractionThreshold
from netrand.graph import build_graph
from netrand.stats import masked_arm_variances, ratio_stat_rows

# ---------------------------------------------------------------------------
# Ten-unit worked instance. A tree whose majority-treated-neighbor exposures
# (comparator >=) realize two specific patterns used throughout the tests:
# under T_OBS the exposure vector is PI_OBS; under the permuted T_ALT every
# unit's exposure equals its own treatment.
# ---------------------------------------------------------------------------

TEN_EDGES = ((0, 3), (1, 2), (1, 3), (1, 9), (2, 4), (5, 9), (6, 8), (6, 9), (7, 8))
TEN_T_OBS = (0, 0, 0, 1, 1, 1, 0, 1, 1, 0)
TEN_PI_OBS = (1, 0, 1, 0, 0, 0, 1, 1, 1, 0)
TEN_T_ALT = (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
TEN_PI_ALT = (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
# covariate labels giving per-(exposure, level) cell sizes 2/3/3/2
TEN_X = ("m", "m", "m", "f", "f", "m", "f", "m", "f", "f")
# dyadic outcome values so sums and differences stay exact in float64
TEN_Y = (3.0, -1.5, 2.25, 0.5, -2.0, 1.75, 4.5, -0.25, 5.0, -3.5)

TEN_MAPPING = FractionThreshold(threshold=0.5, comparator=">=")


def make_ten(with_x: bool = False) -> Dataset:
    return Dataset(
        y=np.array(TEN_Y, dtype=np.float64),
        t=np.array(TEN_T_OBS),
        graph=build_graph(10, TEN_EDGES),
        x=np.array(TEN_X, dtype=object) if with_x else None,
    )


# ---------------------------------------------------------------------------
# Twelve-unit toy sized for exhaustive enumeration: C(12,6) = 924 assignment
# vectors. Both exposure cells have six units, every accepted draw at
# eps=0.21 keeps at least two focal units per arm, and the observed vector
# itself satisfies the inequalities, so the full engine runs on it.
# Enumerated set sizes (frozen from the generator script that picked the
# instance): |T_0| = 94, |T_1| = 106, |T_joint| = 23.
# ---------------------------------------------------------------------------

TOY12_EDGES = ((0, 1), (0, 9), (0, 10), (1, 3), (1, 8), (2, 4), (2, 5), (2, 6),
               (3, 5), (3, 9), (4, 5), (4, 11), (6, 7), (6, 9), (7, 8), (7, 11),
               (8, 10), (10, 11))
TOY12_T_OBS = (0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1)
TOY12_PI_OBS = (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0)
TOY12_Y = (0.0012, 0.2987, -0.2741, -0.8906, -0.4547, -0.9916,
           0.0601, 1.3402, -0.4922, -0.6205, 0.4898, 0.3569)
TOY12_EPS = 0.21

TOY12_MAPPING = FractionThreshold(threshold=0.5, comparator=">")


def make_toy12(with_x: bool = False) -> Dataset:
    return Dataset(
        y=np.array(TOY12_Y, dtype=np.float64),
        t=np.array(TOY12_T_OBS),
        graph=build_graph(12, TOY12_EDGES),
        x=np.array([i % 2 for i in range(12)]) if with_x else None,
    )


# ---------------------------------------------------------------------------
# Four-unit path, small enough to reason about every quantity by hand.
# ---------------------------------------------------------------------------

LINE4_EDGES = ((0, 1), (1, 2), (2, 3))


def make_line4(y=(1.0, 2.0, 3.0, 4.0), t=(1, 0, 1, 0)) -> Dataset:
    return Dataset(y=np.array(y, dtype=np.float64), t=np.array(t),
                   graph=build_graph(4, LINE4_EDGES))


# ---------------------------------------------------------------------------
# Pure-python oracles.
# ---------------------------------------------------------------------------

def neighbor_lists(n, edges):
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def oracle_exposure(t, nbrs, threshold=0.5, comparator=">=", isolated=0):
    """Per-unit loop version of the treated-neighbor-fraction mapping."""
    out = []
    for i in range(len(t)):
        if not nbrs[i]:
            out.append(isolated)
            continue
        frac = sum(t[j] for j in nbrs[i]) / len(nbrs[i])
        if comparator == ">=":
            out.append(1 if frac >= threshold else 0)
        else:
            out.append(1 if frac > threshold else 0)
    return tuple(out)


def dense_threshold_reference(mapping, t_mat, graph):
    """The dense-adjacency batch kernel the neighbor-slot kernel replaced:
    treated-neighbor counts (or weighted sums) as ``t @ A`` against the
    N x N matrix, divided by degrees (or weighted degrees) in float64.
    FractionThreshold and WeightedThreshold only."""
    a = graph.dense()
    t_mat = np.asarray(t_mat, dtype=np.float64)
    weights = getattr(mapping, "weights", None)
    if weights is None:
        num, denom = t_mat @ a, graph.degrees.astype(np.float64)
    else:
        num, denom = (t_mat * weights) @ a, a @ weights
    out = np.empty(num.shape, dtype=np.int64)
    live = denom > 0
    out[:, ~live] = mapping.isolated_value
    frac = num[:, live] / denom[live]
    passed = frac > mapping.threshold if mapping.comparator == ">" else frac >= mapping.threshold
    out[:, live] = passed
    return out


def design_of(ds, exposures, cells, family="by_exposure"):
    """A Design over the given cells of an ExposureVector, built as
    inference.prepare builds one but without its empty-cell check, for
    sampler tests that condition on some cells or fix the exposures."""
    return Design(exposures, family, tuple(cells),
                  {c: np.flatnonzero(cell_mask(exposures.values, c, ds.x)) for c in cells})


def expand_record(record):
    """A Draws record's unit-major (n_sf, b) focal and treated rows as the
    draw-major (b, N) matrices they stand for, False off the cell's
    super-focal units."""
    n = record.t.shape[1]
    full = []
    for rows in (record.focal, record.treated):
        out = np.zeros((rows.shape[1], n), dtype=bool)
        out[:, record.units] = rows.T
        full.append(out)
    return tuple(full)


def direct_imputed_stats(y, t_obs, t_new, focal, taus):
    """The per-tau scorer the closed form replaced: at each tau, impute
    the (B, N) outcome matrix y + tau (t_new - t_obs) and take its arm
    variances directly. Returns one (B,) row of statistics per tau."""
    d = np.asarray(t_new, dtype=np.float64) - np.asarray(t_obs, dtype=np.float64)
    masks = (focal & (t_new == 1), focal & (t_new == 0))
    return np.array([ratio_stat_rows(*masked_arm_variances(y + tau * d, masks)[:2])
                     for tau in taus])


def random_irregular_graph(rng, n, hub_degree=0, n_isolated=0):
    """Random graph on n units with Poisson-ish degrees, unit 0 joined to
    hub_degree others, and the last n_isolated units left without edges."""
    live = n - n_isolated
    edges = {(min(a, b), max(a, b))
             for a, b in rng.integers(0, live, size=(2 * live, 2)) if a != b}
    edges |= {(0, int(j)) for j in rng.choice(np.arange(1, live), hub_degree,
                                              replace=False)}
    return build_graph(n, sorted(edges))


class IntegersOnly:
    """A duck-typed generator offering only ``integers``, so every uint32
    key is drawn through the call rather than from raw words."""

    def __init__(self, rng):
        self._rng = rng

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def all_assignments(n, n_treated):
    """Every vector of the complete-randomization mechanism, as tuples."""
    for comb in itertools.combinations(range(n), n_treated):
        t = [0] * n
        for i in comb:
            t[i] = 1
        yield tuple(t)


def oracle_r(t_new, pi_new, pi_obs, arm, value, x=None, level=None):
    """Empirical frequency of arm-`arm` units keeping exposure `value`."""
    sf = [i for i in range(len(pi_obs))
          if pi_obs[i] == value and (level is None or x[i] == level)]
    hits = sum(1 for i in sf if t_new[i] == arm and pi_new[i] == value)
    return hits / len(sf)


def oracle_focal(t_new, pi_new, pi_obs, value, x=None, level=None):
    """Indices whose exposure cell survives the new assignment."""
    return tuple(i for i in range(len(pi_obs))
                 if pi_obs[i] == value and pi_new[i] == value
                 and (level is None or x[i] == level))


def oracle_conditioning_set(n, n_treated, nbrs, pi_obs, eps, cells, *,
                            threshold=0.5, comparator=">=", x=None, min_per_arm=0):
    """All assignments whose per-arm keep frequencies clear eps strictly
    for every requested cell, and that keep at least min_per_arm focal
    units in each arm of every cell. Cells are (value,) or (value, level)."""
    accepted = []
    for t in all_assignments(n, n_treated):
        pi = oracle_exposure(t, nbrs, threshold, comparator)
        ok = True
        for cell in cells:
            value = cell[0]
            level = cell[1] if len(cell) == 2 else None
            focal = oracle_focal(t, pi, pi_obs, value, x, level)
            for arm in (1, 0):
                kept = sum(1 for i in focal if t[i] == arm)
                if oracle_r(t, pi, pi_obs, arm, value, x, level) <= eps or kept < min_per_arm:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            accepted.append(t)
    return accepted


def oracle_var(values):
    """Unbiased sample variance via the definition, no numpy."""
    vals = [float(v) for v in values]
    m = sum(vals) / len(vals)
    return sum((v - m) ** 2 for v in vals) / (len(vals) - 1)


def oracle_ratio(v1, v0):
    if v1 == 0.0 and v0 == 0.0:
        return 1.0
    if v1 == 0.0 or v0 == 0.0:
        return math.inf
    return max(v1 / v0, v0 / v1)


def oracle_cell_stat(y, t_new, focal_idx):
    """Variance-ratio statistic over the given focal units."""
    treated = [y[i] for i in focal_idx if t_new[i] == 1]
    control = [y[i] for i in focal_idx if t_new[i] == 0]
    return oracle_ratio(oracle_var(treated), oracle_var(control))


def oracle_imputed(y, t_obs, t_new, tau):
    """Adjusted outcomes under a constant-effect null, all units."""
    return [y[i] + tau * (t_new[i] - t_obs[i]) for i in range(len(y))]
