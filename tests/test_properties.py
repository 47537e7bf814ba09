"""Property-based checks of the library's structural invariants."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import (TOY12_EPS, TOY12_MAPPING, brute_sums, design_of,
                      direct_imputed_stats, imputed_stats, make_toy12, neighbor_lists,
                      oracle_exposure, oracle_focal, oracle_r, power_outcomes)
from netrand.assignment import CompleteRandomization
from netrand.conditioning import (ConditioningConfig, relative_frequency,
                                  sample_conditioning_set, superfocal_for_cell)
from netrand.data import Dataset
from netrand.errors import AcceptanceBudgetExhausted
from netrand.exposure import ExposureVector, FractionThreshold
from netrand.graph import build_graph
from netrand.inference import adjust_multiple, empirical_pvalue, run_oracle_test
from netrand.nullspec import NullSpec
from netrand.stats import (arm_rhs, arm_sums, arm_variances, combined_stat,
                           ts_per_exposure, variance_ratio)

# dyadic rationals are exact in binary floating point, so identities that
# are algebraically exact can be asserted with == rather than isclose
dyadic = st.integers(-256, 256).map(lambda k: k / 16.0)
small_tau = st.integers(-64, 64).map(lambda k: k / 16.0)


@st.composite
def labeled_sample(draw, min_per_arm=2, max_n=16):
    n = draw(st.integers(2 * min_per_arm, max_n))
    n1 = draw(st.integers(min_per_arm, n - min_per_arm))
    order = draw(st.permutations(range(n)))
    t = np.zeros(n, dtype=int)
    t[list(order[:n1])] = 1
    y = np.array(draw(st.lists(dyadic, min_size=n, max_size=n)))
    return y, t


def _assignment(draw, n):
    n1 = draw(st.integers(1, n - 1))
    order = draw(st.permutations(range(n)))
    t = np.zeros(n, dtype=int)
    t[list(order[:n1])] = 1
    return t


@st.composite
def graph_with_assignment(draw, n_assignments=1):
    n = draw(st.integers(4, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.sets(pair, min_size=0, max_size=2 * n))
    g = build_graph(n, sorted(edges))
    ts = [_assignment(draw, n) for _ in range(n_assignments)]
    return (g, *ts)


def _stats_equal(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@given(st.floats(0, 100), st.floats(0, 100))
def test_ratio_is_orientation_free_and_at_least_one(v1, v0):
    r = variance_ratio(v1, v0)
    assert r == variance_ratio(v0, v1)
    assert r >= 1.0
    if v1 == 0.0 and v0 == 0.0:
        assert r == 1.0
    elif v1 == 0.0 or v0 == 0.0:
        assert math.isinf(r)


@given(labeled_sample(), dyadic.filter(lambda c: c != 0.0))
def test_statistic_scale_invariance(sample, c):
    y, t = sample
    focal = np.ones(len(y), dtype=bool)
    base = ts_per_exposure(y, t, focal).value
    scaled = ts_per_exposure(c * y, t, focal).value
    assert _stats_equal(base, scaled)


@given(labeled_sample(), dyadic, dyadic)
def test_statistic_per_arm_shift_invariance(sample, a, b):
    y, t = sample
    focal = np.ones(len(y), dtype=bool)
    base = ts_per_exposure(y, t, focal).value
    shifted = ts_per_exposure(y + a * t + b * (1 - t), t, focal).value
    assert _stats_equal(base, shifted)


@given(labeled_sample())
def test_arm_relabeling_leaves_statistic_unchanged(sample):
    y, t = sample
    focal = np.ones(len(y), dtype=bool)
    assert _stats_equal(ts_per_exposure(y, t, focal).value,
                        ts_per_exposure(y, 1 - t, focal).value)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
       st.floats(-1e6, 2e6))
def test_pvalue_stays_in_unit_interval(draws, obs):
    p = empirical_pvalue(obs, draws)
    assert 0.0 <= p <= 1.0
    assert empirical_pvalue(min(draws) - 1.0, draws) == 1.0
    assert empirical_pvalue(max(draws) + 1.0, draws) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_exposure_change_never_imputes(seed):
    # the scorer imputes only focal units; a focal unit always keeps the
    # exposure it was observed at, in every cell conditioned on: each
    # record's arm sums are those of its super-focal units that keep it
    ds = power_outcomes(make_toy12())
    pi_obs = TOY12_MAPPING.compute(ds.t, ds.graph)
    cfg = ConditioningConfig(epsilon=TOY12_EPS)
    design = design_of(ds, ExposureVector(pi_obs, TOY12_MAPPING), [(0,), (1,)])
    records, _ = sample_conditioning_set(CompleteRandomization(12, 6), ds, design, cfg,
                                         10, np.random.default_rng(seed))
    for draws in records:
        pi_new = TOY12_MAPPING.compute_batch(draws.t, ds.graph)
        keep = (pi_new == pi_obs) & (pi_obs == draws.cell[0])
        assert np.array_equal(draws.units, np.flatnonzero(pi_obs == draws.cell[0]))
        assert np.array_equal(draws.sums, brute_sums(draws, keep))


@given(small_tau)
@settings(max_examples=10, deadline=None)
def test_equal_per_exposure_effects_match_the_constant_null(tau):
    ds = make_toy12()
    reports = [run_oracle_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                               null, epsilon=TOY12_EPS, b=30, keep_draws=True,
                               rng=np.random.default_rng(0))
               for null in (NullSpec.per_exposure({0: tau, 1: tau}),
                            NullSpec.constant(tau))]
    flat, const = (r.to_dict() for r in reports)
    assert flat["cells"] == const["cells"]
    assert flat["diagnostics"]["draw_stats"] == const["diagnostics"]["draw_stats"]


@given(st.integers(0, 2**32 - 1),
       st.sampled_from([(0.0, 1.0), (1e6, 1.0), (0.0, 2.0**-20)]),
       st.lists(st.integers(-5 * 1024, 5 * 1024), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_closed_form_scorer_matches_direct_imputation(seed, offset_scale, ks):
    # the scorer's per-draw arm moments, evaluated at each tau, against
    # imputing y + tau (t_new - t_obs) and taking its variances directly;
    # the first two rows keep and swap every arm. y and tau sit on dyadic
    # grids (scaled by about 1e-6 in one variant, tau with y), so the
    # imputed outcomes are exact and the direct path is a sharp reference.
    offset, scale = offset_scale
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 25))
    t_obs = np.zeros(n, dtype=np.int8)
    t_obs[rng.choice(n, n // 2, replace=False)] = 1
    t_new = np.array([t_obs, 1 - t_obs] + [rng.permutation(t_obs) for _ in range(30)])
    focal = rng.random(t_new.shape) < 0.8
    focal[:2] = True
    enough = [((focal & (t_new == arm)).sum(axis=1) >= 2) for arm in (0, 1)]
    t_new, focal = t_new[enough[0] & enough[1]], focal[enough[0] & enough[1]]
    y = offset + scale * np.round(rng.standard_normal(n) * 2**20) / 2**20
    grid = [0.0] + [scale * k / 1024 for k in ks]
    got = imputed_stats(y, t_obs, t_new.T, focal.T, grid)
    want = direct_imputed_stats(y, t_obs, t_new, focal, grid)
    assert got.shape == (len(grid), len(t_new))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def _exact_stat(y, t_obs, row, tau):
    """The statistic of one draw at tau in Fraction arithmetic, all units focal."""
    var = []
    for arm in (1, 0):
        z = [Fraction(y[i]) + Fraction(tau) * (int(row[i]) - int(t_obs[i]))
             for i in range(len(y)) if row[i] == arm]
        mean = sum(z) / len(z)
        var.append(sum((v - mean) ** 2 for v in z) / (len(z) - 1))
    return max(var[0] / var[1], var[1] / var[0])


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_scorer_is_exact_to_rounding_at_a_large_offset(seed):
    # y = 1e6 + N(0, 1): the arm means carry rounding errors of about
    # 1e-10, which the centered cross moment must not multiply by k
    rng = np.random.default_rng(seed)
    t_obs = np.zeros(16, dtype=np.int8)
    t_obs[rng.choice(16, 8, replace=False)] = 1
    t_new = np.array([rng.permutation(t_obs) for _ in range(10)])
    focal = np.ones(t_new.shape, dtype=bool)
    y = 1e6 + rng.standard_normal(16)
    taus = [-2.0, 0.5, 3.0]
    got = imputed_stats(y, t_obs, t_new.T, focal.T, taus)
    for g, tau in enumerate(taus):
        for r, row in enumerate(t_new):
            exact = _exact_stat(y, t_obs, row, tau)
            assert abs(Fraction(got[g, r]) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("effect", [1e3, 1e4])
@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("n, outliers", [(16, []), (400, [1e3, -3e3, 1e4])])
def test_closed_form_scorer_is_exact_to_rounding_near_the_effect(effect, offset, n,
                                                                 outliers):
    # y = offset + effect t_obs + N(0, 1): at tau = 0.999 effect a switched
    # unit lands 0.001 effect from its new arm's kept units, so a form that
    # expands the square in tau loses the digits that the difference of the
    # two groups' means keeps. The sums' grid is set by the largest value,
    # so outliers of up to 1e4 sd must leave an arm without them exact too.
    rng = np.random.default_rng(5)
    t_obs = np.zeros(n, dtype=np.int8)
    t_obs[rng.choice(n, n // 2, replace=False)] = 1
    t_new = np.array([rng.permutation(t_obs) for _ in range(10)])
    focal = np.ones(t_new.shape, dtype=bool)
    y = offset + effect * t_obs + rng.standard_normal(n)
    y[rng.choice(n, len(outliers), replace=False)] += outliers
    taus = [0.0, 0.999 * effect, -3.0]
    got = imputed_stats(y, t_obs, t_new.T, focal.T, taus)
    for g, tau in enumerate(taus):
        for r, row in enumerate(t_new):
            exact = _exact_stat(y, t_obs, row, tau)
            assert abs(Fraction(got[g, r]) - exact) <= 1e-12 * exact


_BINARY = [0, 0, 0, 1, 1, 1, 1] + [1, 1, 1, 1, 1, 0, 0]
_KEEP, _SWAP = [1] * 7 + [0] * 7, [0] * 7 + [1] * 7
_THREE_AND_THREE = [1] * 3 + [0] * 4 + [1] * 3 + [0] * 4


@pytest.mark.parametrize("y, t_new, focal, stats", [
    # binary y whose group means (4/7, 5/7) are not dyadic: the keep and the
    # swap row, with focal units that leave one or both arms constant
    (_BINARY, _KEEP, [1] * 3 + [0] * 4 + [1] * 7, [math.inf] * 3),
    (_BINARY, _KEEP, _THREE_AND_THREE, [1.0] * 3),
    (_BINARY, _SWAP, [1] * 7 + [1] * 3 + [0] * 4, [math.inf] * 3),
    (_BINARY, _SWAP, _THREE_AND_THREE, [1.0] * 3),
    # counts: arm 1 keeps two 3s and takes two 1s, so it imputes 3 on all
    # four of its units at tau = 2 only
    ([3, 3, 5, 7, 1, 2, 4] + [1, 1, 4, 6, 2, 0, 5], [1, 1] + [0] * 5 + [1, 1] + [0] * 5,
     [1] * 14, [None, math.inf, None]),
])
def test_integer_outcomes_keep_the_zero_variance_conventions(y, t_new, focal, stats):
    y, t_obs = np.array(y, dtype=float), np.array(_KEEP)
    t_new, focal = np.array([t_new]), np.array([focal], dtype=bool)
    taus = [0.0, 2.0, -3.0]
    got = imputed_stats(y, t_obs, t_new.T, focal.T, taus)[:, 0]
    for g, tau in enumerate(taus):
        ref = ts_per_exposure(y + tau * (t_new[0] - t_obs), t_new[0], focal[0]).value
        assert got[g] == pytest.approx(ref, rel=1e-12)
        assert stats[g] is None or got[g] == ref == stats[g]


@pytest.mark.parametrize("y6, stat", [(0.75, 1.0), (1.0, math.inf)])
def test_closed_form_variance_is_exactly_zero_on_a_constant_arm(y6, stat):
    # t_new moves units 4, 5 into arm 1 (d = +1) and units 2, 3 into arm 0
    # (d = -1); at tau = 2 arm 1 imputes 0.5 on all four of its units, and
    # arm 0 imputes 0.75 on all of its units when y6 = 0.75
    y = np.array([0.5, 0.5, 2.75, 2.75, -1.5, -1.5, y6, 0.75])
    t_obs = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    t_new = np.array([[1, 1, 0, 0, 1, 1, 0, 0]])
    focal = np.ones((1, 8), dtype=bool)
    right, shift = arm_rhs(y, t_obs)
    v1, _ = arm_variances(arm_sums(t_new.T, focal.T, right), shift, [0.0, 2.0])
    assert v1[1, 0] == 0.0
    assert v1[0, 0] > 0.0
    got = imputed_stats(y, t_obs, t_new.T, focal.T, [2.0])
    assert got[0, 0] == stat
    assert direct_imputed_stats(y, t_obs, t_new, focal, [2.0])[0, 0] == stat


@given(graph_with_assignment(n_assignments=2))
@settings(deadline=None)
def test_relative_frequency_and_focal_match_oracles(inst):
    g, t_obs, t_other = inst
    mapping = FractionThreshold(0.5, ">")
    pi_obs = mapping.compute(t_obs, g)
    pi_new = mapping.compute(t_other, g)
    nbrs = neighbor_lists(g.n_units, g.edges)
    assert tuple(pi_obs) == oracle_exposure(t_obs, nbrs, comparator=">")
    ds = power_outcomes(Dataset(y=np.zeros(g.n_units), t=t_obs, graph=g))
    for v in (0, 1):
        if not (pi_obs == v).any():
            continue
        sf = superfocal_for_cell(pi_obs, (v,))
        r = [relative_frequency(t_other, pi_new, sf, arm) for arm in (0, 1)]
        for arm in (0, 1):
            assert r[arm] == oracle_r(tuple(t_other), tuple(pi_new),
                                      tuple(pi_obs), arm, v)
        if min(r) > 0.0:
            # the sampler accepts t_other below its frequencies; its arm sums
            # are those of the cell's super-focal units that keep their
            # exposure, and with y = 2 ** i no other set sums alike
            cfg = ConditioningConfig(epsilon=min(r) / 2)
            design = design_of(ds, ExposureVector(pi_obs, mapping), [(v,)])
            (draws,), _ = sample_conditioning_set(_FixedMechanism(t_other), ds, design,
                                               cfg, 1, np.random.default_rng(0))
            assert np.array_equal(draws.units, np.flatnonzero(sf.indicator))
            focal = np.zeros((1, g.n_units), dtype=bool)
            focal[0, list(oracle_focal(tuple(t_other), tuple(pi_new), tuple(pi_obs), v))] = True
            assert np.array_equal(draws.sums, brute_sums(draws, focal))


class _FixedMechanism:
    """Degenerate mechanism that always emits one vector."""

    def __init__(self, t):
        self.t = np.asarray(t)

    def draw_batch(self, m, rng):
        return np.tile(self.t, (m, 1))

    def draw(self, rng):
        return self.t.copy()

    def supports(self, t):
        return bool((np.asarray(t) == self.t).all())


@given(graph_with_assignment(), st.integers(1, 15))
@settings(max_examples=60, deadline=None)
def test_identity_vector_accepted_exactly_below_its_own_frequencies(inst, k):
    g, t_obs = inst
    mapping = FractionThreshold(0.5, ">")
    pi_obs = mapping.compute(t_obs, g)
    for v in (0, 1):
        if not (pi_obs == v).any():
            continue
        sf = superfocal_for_cell(pi_obs, (v,))
        r_min = min(relative_frequency(t_obs, pi_obs, sf, arm)
                    for arm in (0, 1))
        ds = Dataset(y=np.zeros(g.n_units), t=t_obs, graph=g)
        mech = _FixedMechanism(t_obs)
        below = r_min * k / 16.0
        assume(0.0 < below < 0.5)
        cfg = ConditioningConfig(epsilon=below, max_attempts_per_accept=8)
        design = design_of(ds, ExposureVector(pi_obs, mapping), [(v,)])
        (draws,), _ = sample_conditioning_set(mech, ds, design,
                                           cfg, 1, np.random.default_rng(0))
        assert (draws.t[0] == t_obs).all()
        if 0.0 < r_min < 0.5:
            # at epsilon equal to the minimum frequency the strict
            # inequality fails and the identity vector is rejected
            cfg = ConditioningConfig(epsilon=r_min, max_attempts_per_accept=8)
            try:
                sample_conditioning_set(mech, ds, design,
                                        cfg, 1, np.random.default_rng(0))
                raised = False
            except AcceptanceBudgetExhausted:
                raised = True
            assert raised


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_sampler_is_seed_deterministic(seed):
    ds = make_toy12()
    mech = CompleteRandomization(12, 6)
    cfg = ConditioningConfig(epsilon=TOY12_EPS)
    pi_obs = TOY12_MAPPING.compute(ds.t, ds.graph)
    runs = []
    for _ in range(2):
        design = design_of(ds, ExposureVector(pi_obs, TOY12_MAPPING), [(0,)])
        (draws,), _ = sample_conditioning_set(mech, ds, design,
                                           cfg, 3, np.random.default_rng(seed))
        runs.append(draws.t)
    assert (runs[0] == runs[1]).all()


@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                       st.floats(0, 1), min_size=1),
       st.sampled_from([0.01, 0.05, 0.10]))
def test_holm_uniformly_dominates_bonferroni(pvals, alpha):
    bonf = adjust_multiple(pvals, alpha, "bonferroni")
    holm = adjust_multiple(pvals, alpha, "holm")
    for k, p in pvals.items():
        assert bonf.adjusted_pvalues[k] >= holm.adjusted_pvalues[k] >= p
        assert bonf.decisions[k] == (bonf.adjusted_pvalues[k] <= alpha)
        assert holm.decisions[k] == (holm.adjusted_pvalues[k] <= alpha)
        if bonf.decisions[k]:
            assert holm.decisions[k]


@given(st.lists(st.floats(1, 1e6), min_size=1, max_size=6),
       st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_combined_statistic_is_a_weighted_mean(values, raw_w):
    assume(len(values) == len(raw_w))
    w = np.array(raw_w, dtype=float)
    w /= w.sum()
    combined = combined_stat(w, values)
    assert min(values) - 1e-9 <= combined <= max(values) + 1e-9
