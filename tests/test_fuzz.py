"""A differential fuzzer: the engine's techniques against brute force on
random designs small enough to enumerate.

Each example is one design of 8-14 units: a random irregular graph with
a hub and isolated units, complete randomization of any k with at least
two units per arm, a threshold mapping under either comparator, normal or
small-integer outcomes, an optional covariate and epsilon. Every oracle,
plug-in and CI test of it, under every family (the covariate family only
with a covariate) and both stat modes, must return a report or raise a
typed NetrandError that names one of its cells. Every draw a report keeps
must lie in the brute-force conditioning set of its cell group, with two
focal units per arm. The examples are derandomized and their number
fixed, so the suite runs the same designs every time.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (neighbor_lists, oracle_conditioning_set, oracle_exposure,
                      random_irregular_graph)
from netrand.assignment import CompleteRandomization
from netrand.conditioning import family_cells
from netrand.data import Dataset
from netrand.errors import NetrandError
from netrand.exposure import FractionThreshold
from netrand.inference import MIN_PER_ARM, run_technique
from netrand.nullspec import (BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL,
                              NullSpec, NuisanceParams, effect_key)

TECHNIQUES = ("oracle", "plugin", "ci")
B = 12


@st.composite
def designs(draw):
    """(dataset, mapping, n_treated, epsilon) of a random small design."""
    n = draw(st.integers(8, 14))
    n_isolated = draw(st.integers(0, 2))
    hub = draw(st.integers(0, n - n_isolated - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_irregular_graph(rng, n, hub_degree=hub, n_isolated=n_isolated)
    k = int(rng.integers(MIN_PER_ARM, n - MIN_PER_ARM + 1))  # uniform, not at the bounds
    t = np.zeros(n, dtype=np.int8)
    t[rng.choice(n, k, replace=False)] = 1
    y = (rng.integers(-2, 3, n).astype(float) if draw(st.booleans())
         else rng.standard_normal(n))
    x = rng.integers(0, 2, n) if draw(st.booleans()) else None
    mapping = FractionThreshold(draw(st.sampled_from([1 / 3, 0.5, 2 / 3])),
                                draw(st.sampled_from([">", ">="])))
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3]))
    return Dataset(y=y, t=t, graph=graph, x=x), mapping, k, epsilon


def oracle_null(family, mapping, ds):
    keys = dict.fromkeys(effect_key(family, c)
                         for c in family_cells(family, mapping.values, ds.x_levels))
    return NullSpec(family, NuisanceParams({key: 0.5 * i for i, key in enumerate(keys)}))


def kept_draws(report):
    """(cell group, accepted draws) for each draw set the report keeps."""
    cells = [c.cell for c in report.cells]
    kept = report.diagnostics["draw_treatments"]
    if report.stat_mode == "combined":
        return [(cells, kept["combined"])]
    return [([c], kept[",".join(map(str, c))]) for c in cells]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(designs())
def test_every_technique_reports_or_raises_and_draws_from_its_set(design):
    ds, mapping, k, epsilon = design
    n = ds.n
    nbrs = neighbor_lists(n, sorted(ds.graph.edges))
    pi_obs = oracle_exposure(tuple(ds.t.tolist()), nbrs, mapping.threshold, mapping.comparator)
    families = (CONSTANT_ALL, BY_EXPOSURE) + ((BY_EXPOSURE_COVARIATE,) if ds.x is not None else ())
    for family in families:
        for stat in ("multiple", "combined"):
            for tech in TECHNIQUES:
                try:
                    report = run_technique(
                        tech, ds, mapping, CompleteRandomization(n, k), family,
                        np.random.SeedSequence(7),
                        null=oracle_null(family, mapping, ds) if tech == "oracle" else None,
                        epsilon=epsilon, b=B, stat=stat, keep_draws=True,
                        max_attempts_per_accept=200)  # a starved group fails fast
                except NetrandError as exc:
                    cells = family_cells(family, mapping.values, ds.x_levels)
                    assert any(str(c) in str(exc) for c in cells), (family, stat, tech, exc)
                    continue
                for cells, draws in kept_draws(report):
                    assert len(draws) == B
                    drawn = {tuple(t) for t in draws}  # tested for membership, not enumerated
                    members = oracle_conditioning_set(
                        n, k, nbrs, pi_obs, epsilon, cells, threshold=mapping.threshold,
                        comparator=mapping.comparator, x=ds.x, min_per_arm=MIN_PER_ARM,
                        among=drawn)
                    assert set(members) == drawn, (family, stat, tech, cells)
