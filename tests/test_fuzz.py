"""A differential fuzzer: the engine's techniques against brute force on
random designs small enough to enumerate.

Each example is one design of 8-14 units: a random irregular graph with
a hub and isolated units, complete randomization of any k with at least
two units per arm, a threshold mapping under either comparator, normal or
small-integer outcomes, an optional covariate and epsilon. Every oracle,
plug-in, CI and sample-splitting test of it, under every family (the
covariate family only with a covariate) and both stat modes, must return
a report or raise a typed NetrandError that names one of its cells.
Every draw a report keeps must lie in the brute-force conditioning set
of its cell group, with two focal units per arm; under sample splitting
those are the focal units of the inference half, recomputed from the
split's seed as run_technique spawns it. Designs this small rarely leave
both halves of every cell two units per arm, so sample splitting also
runs alone on designs of 24-48 units, where the draws are still checked
one by one rather than enumerated. The examples are derandomized and
their number fixed, so the suite runs the same designs every time.
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
from netrand.exposure import FractionThreshold, compute_exposures
from netrand.inference import MIN_PER_ARM, make_balanced_split, run_technique
from netrand.nullspec import (BY_EXPOSURE, BY_EXPOSURE_COVARIATE, CONSTANT_ALL,
                              NullSpec, NuisanceParams, effect_key)

TECHNIQUES = ("oracle", "plugin", "ci", "ss")
SEED = 7
B = 12


@st.composite
def designs(draw, min_n=8, max_n=14):
    """(dataset, mapping, n_treated, epsilon) of a random small design."""
    n = draw(st.integers(min_n, max_n))
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


def inference_half(ds, mapping, family):
    """The inference half of the split that run_technique draws for ss,
    from the first of the two children it spawns of SeedSequence(SEED)."""
    split_ss, _ = np.random.SeedSequence(SEED).spawn(2)
    exposures = compute_exposures(mapping, ds.t, ds.graph)
    split = make_balanced_split(ds, exposures, family, np.random.default_rng(split_ss))
    return split.inf_mask


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
    check_techniques(design, TECHNIQUES)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(designs(24, 48))
def test_sample_splitting_draws_from_its_set_on_larger_designs(design):
    check_techniques(design, ("ss",))


def check_techniques(design, techniques):
    """Run each technique under every family and stat mode of the design:
    each must report or raise a NetrandError naming a cell, and each
    draw it keeps must lie in its cell group's conditioning set."""
    ds, mapping, k, epsilon = design
    n = ds.n
    nbrs = neighbor_lists(n, sorted(ds.graph.edges))
    pi_obs = oracle_exposure(tuple(ds.t.tolist()), nbrs, mapping.threshold, mapping.comparator)
    families = (CONSTANT_ALL, BY_EXPOSURE) + ((BY_EXPOSURE_COVARIATE,) if ds.x is not None else ())
    for family in families:
        for stat in ("multiple", "combined"):
            for tech in techniques:
                try:
                    report = run_technique(
                        tech, ds, mapping, CompleteRandomization(n, k), family,
                        np.random.SeedSequence(SEED),
                        null=oracle_null(family, mapping, ds) if tech == "oracle" else None,
                        epsilon=epsilon, b=B, stat=stat, keep_draws=True,
                        max_attempts_per_accept=200)  # a starved group fails fast
                except NetrandError as exc:
                    cells = family_cells(family, mapping.values, ds.x_levels)
                    assert any(str(c) in str(exc) for c in cells), (family, stat, tech, exc)
                    continue
                scored = inference_half(ds, mapping, family) if tech == "ss" else None
                for cells, draws in kept_draws(report):
                    assert len(draws) == B
                    drawn = {tuple(t) for t in draws}  # tested for membership, not enumerated
                    members = oracle_conditioning_set(
                        n, k, nbrs, pi_obs, epsilon, cells, threshold=mapping.threshold,
                        comparator=mapping.comparator, x=ds.x, min_per_arm=MIN_PER_ARM,
                        among=drawn, scored=scored)
                    assert set(members) == drawn, (family, stat, tech, cells)
