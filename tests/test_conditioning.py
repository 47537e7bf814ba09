"""Conditioning sets: super-focal units, frequencies, rejection sampling,
observed-focal selection, and the epsilon feasibility bound."""
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fixtures import (TEN_EDGES, TEN_MAPPING, TEN_PI_ALT, TEN_PI_OBS,
                      TEN_T_ALT, TEN_T_OBS, TOY12_EPS, TOY12_MAPPING,
                      TOY12_PI_OBS, TOY12_T_OBS, make_line4, make_ten,
                      brute_sums, make_toy12, neighbor_lists, oracle_conditioning_set,
                      oracle_exposure, oracle_focal, oracle_r, IntegersOnly,
                      LINE4_EDGES, TOY12_EDGES, design_of, power_outcomes,
                      random_irregular_graph)
from netrand import conditioning
from netrand.conditioning import (ConditioningConfig,
                                  epsilon_feasibility, relative_frequency,
                                  sample_conditioning_set,
                                  select_observed_focal, superfocal_for_cell)
from netrand.errors import (AcceptanceBudgetExhausted, ArmEmptyAfterRetries,
                            DataError, EmptySuperFocal, TooFewUnits)
from netrand.inference import (SplitResult, check_feasible, family_cells, prepare,
                               run_oracle_test)
from netrand.nullspec import NullSpec
from netrand.assignment import CompleteRandomization, StratifiedComplete
from netrand.data import Dataset
from netrand.exposure import (ExposureVector, FractionThreshold, WeightedThreshold,
                              compute_exposures)
from netrand.graph import build_graph

# the three vectors of the 4-path instance below that keep at least one
# unit of each arm inside exposure cell 1, worked out by hand
LINE4_T_OBS = (1, 1, 0, 0)
LINE4_PI_OBS = (1, 1, 1, 0)
LINE4_CELL1_SET = {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)}


class TestTargets:
    def test_cells_per_target(self):
        assert family_cells("constant_all", (0, 1), None) == [(0,), (1,)]
        assert family_cells("by_exposure", (0, 1), None) == [(0,), (1,)]
        assert family_cells("by_exposure_covariate", (0, 1), ("f", "m")) == [
            (0, "f"), (0, "m"), (1, "f"), (1, "m")]

    def test_all_cells_requires_levels(self):
        with pytest.raises(DataError):
            family_cells("by_exposure_covariate", (0, 1), None)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            ConditioningConfig(epsilon=0.5)
        with pytest.raises(ValueError):
            ConditioningConfig(epsilon=0.0)


class TestDesign:
    def test_a_scored_mask_compares_and_hashes_by_identity(self):
        ds = make_ten()
        exposures = ExposureVector(np.array(TEN_PI_OBS), TEN_MAPPING)
        design = design_of(ds, exposures, [(0,)], scored=np.ones(10, bool))
        twin = design_of(ds, exposures, [(0,)], scored=np.ones(10, bool))
        assert design == design and design != twin
        assert hash(design) == hash(design) and len({design, twin}) == 2


class TestSuperFocal:
    def test_fixture_cells(self):
        sf0 = superfocal_for_cell(np.array(TEN_PI_OBS), (0,))
        sf1 = superfocal_for_cell(np.array(TEN_PI_OBS), (1,))
        assert np.flatnonzero(sf0.indicator).tolist() == [1, 3, 4, 5, 9]
        assert np.flatnonzero(sf1.indicator).tolist() == [0, 2, 6, 7, 8]

    def test_fixture_covariate_cells(self):
        ds = make_ten(with_x=True)
        sf = superfocal_for_cell(np.array(TEN_PI_OBS), (0, "f"), ds.x)
        assert np.flatnonzero(sf.indicator).tolist() == [3, 4, 9]

    def test_empty_cell_raises(self):
        with pytest.raises(EmptySuperFocal):
            superfocal_for_cell(np.zeros(4, dtype=int), (1,))


class TestRelativeFrequency:
    def test_fixture_hand_values_under_permuted_vector(self):
        pi_obs = np.array(TEN_PI_OBS)
        pi_alt = np.array(TEN_PI_ALT)
        t_alt = np.array(TEN_T_ALT)
        sf0 = superfocal_for_cell(pi_obs, (0,))
        sf1 = superfocal_for_cell(pi_obs, (1,))
        # no treated unit keeps exposure 0, so the permuted vector is
        # outside the conditioning set of cell 0
        assert relative_frequency(t_alt, pi_alt, sf0, arm=1) == 0.0
        assert relative_frequency(t_alt, pi_alt, sf0, arm=0) == pytest.approx(0.4)
        assert relative_frequency(t_alt, pi_alt, sf1, arm=1) == pytest.approx(0.4)
        assert relative_frequency(t_alt, pi_alt, sf1, arm=0) == 0.0

    def test_matches_oracle_on_random_vectors(self):
        ds = make_ten()
        nbrs = neighbor_lists(10, ds.graph.edges)
        rng = np.random.default_rng(2)
        pi_obs = np.array(TEN_PI_OBS)
        for _ in range(20):
            t = rng.permutation(np.array(TEN_T_OBS))
            pi = TEN_MAPPING.compute(t, ds.graph)
            for v in (0, 1):
                sf = superfocal_for_cell(pi_obs, (v,))
                for arm in (0, 1):
                    want = oracle_r(t.tolist(), pi.tolist(), TEN_PI_OBS, arm, v)
                    got = relative_frequency(t, pi, sf, arm)
                    assert got == pytest.approx(want)


class TestFocalIndicator:
    """Focal units: the cell's super-focal units that keep their exposure
    under a new vector."""

    def test_fixture_focal_under_permuted_vector(self):
        pi_obs = np.array(TEN_PI_OBS)
        pi_alt = np.array(TEN_PI_ALT)
        assert oracle_focal(TEN_T_ALT, TEN_PI_ALT, TEN_PI_OBS, 1) == (0, 2)
        assert oracle_focal(TEN_T_ALT, TEN_PI_ALT, TEN_PI_OBS, 0) == (5, 9)
        # the frequencies count the same units: {0, 2} are both treated
        # among the five super-focal units of cell 1, {5, 9} both control
        # among those of cell 0
        sf1 = superfocal_for_cell(pi_obs, (1,))
        sf0 = superfocal_for_cell(pi_obs, (0,))
        t_alt = np.array(TEN_T_ALT)
        assert [relative_frequency(t_alt, pi_alt, sf1, arm) for arm in (1, 0)] == [0.4, 0.0]
        assert [relative_frequency(t_alt, pi_alt, sf0, arm) for arm in (1, 0)] == [0.0, 0.4]

    def test_matches_oracle_and_stays_inside_superfocal(self):
        # the sampler's arm sums, one cell conditioned on at a time, are those
        # of the oracle's focal units, which lie inside the super-focal set
        ds = power_outcomes(make_ten())
        nbrs = neighbor_lists(10, TEN_EDGES)
        pi_obs = np.array(TEN_PI_OBS)
        for v in (0, 1):
            cfg = ConditioningConfig(epsilon=0.1)
            (draws,), _ = sample_conditioning_set(
                CompleteRandomization(10, 5), ds,
                design_of(ds, ExposureVector(pi_obs, TEN_MAPPING), [(v,)]),
                cfg, 20, np.random.default_rng(4))
            sf = superfocal_for_cell(pi_obs, (v,))
            assert np.array_equal(draws.units, np.flatnonzero(sf.indicator))
            focal = np.zeros(draws.t.shape, dtype=bool)
            for f, t in zip(focal, draws.t.tolist()):
                f[list(oracle_focal(t, oracle_exposure(t, nbrs), TEN_PI_OBS, v))] = True
            assert not (focal & ~sf.indicator).any()
            assert np.array_equal(draws.sums, brute_sums(draws, focal))
            assert np.array_equal(draws.focal_counts, focal.sum(axis=1))


class TestSampler:
    def _line4(self, cells):
        """line4 and a Design conditioning on the given cells."""
        ds = power_outcomes(make_line4(t=LINE4_T_OBS))
        design = prepare(ds, TEN_MAPPING, "by_exposure")
        assert design.exposures.values.tolist() == list(LINE4_PI_OBS)
        return ds, design_of(ds, design.exposures, cells)

    def test_line4_support_matches_hand_enumeration(self):
        ds, design = self._line4([(1,)])
        oracle = oracle_conditioning_set(
            4, 2, neighbor_lists(4, LINE4_EDGES), LINE4_PI_OBS, 0.3, [(1,)])
        assert set(oracle) == LINE4_CELL1_SET
        cfg = ConditioningConfig(epsilon=0.3)
        (draws,), diag = sample_conditioning_set(
            CompleteRandomization(4, 2), ds, design, cfg, 300,
            np.random.default_rng(0))
        got = Counter(tuple(int(v) for v in row) for row in draws.t)
        assert set(got) == LINE4_CELL1_SET
        # i.i.d. uniform over three vectors: each within 5 sigma of 100
        se = np.sqrt(300 * (1 / 3) * (2 / 3))
        assert all(abs(c - 100) < 5 * se for c in got.values())
        assert diag.n_accepted == 300

    def test_line4_draw_bookkeeping(self):
        ds, design = self._line4([(1,)])
        cfg = ConditioningConfig(epsilon=0.3)
        (draws,), _ = sample_conditioning_set(
            CompleteRandomization(4, 2), ds, design, cfg, 50,
            np.random.default_rng(1))
        sf1 = superfocal_for_cell(np.array(LINE4_PI_OBS), (1,))
        focal_rows = np.zeros(draws.t.shape, dtype=bool)
        for t_new, focal in zip(draws.t, focal_rows):
            t = tuple(int(v) for v in t_new)
            pi_new = TEN_MAPPING.compute(t_new, ds.graph)
            for arm in (0, 1):
                want = oracle_r(t, pi_new.tolist(), LINE4_PI_OBS, arm, 1)
                r = relative_frequency(t_new, pi_new, sf1, arm)
                assert r == pytest.approx(want)
                assert r > 0.3
            focal[list(oracle_focal(t, pi_new.tolist(), LINE4_PI_OBS, 1))] = True
        assert not (focal_rows & ~sf1.indicator).any()
        assert np.array_equal(draws.sums, brute_sums(draws, focal_rows))
        assert np.array_equal(draws.focal_counts, focal_rows.sum(axis=1))

    def test_line4_single_unit_cell_is_infeasible(self):
        # cell 0 holds only unit 3; one unit cannot sit in both arms, so
        # the sampler must exhaust its budget and name the inequality
        ds, design = self._line4([(0,)])
        cfg = ConditioningConfig(epsilon=0.3, max_attempts_per_accept=50)
        with pytest.raises(AcceptanceBudgetExhausted) as exc:
            sample_conditioning_set(CompleteRandomization(4, 2), ds, design, cfg, 5,
                                    np.random.default_rng(0))
        assert "cell=(0,)" in str(exc.value)

    def test_toy12_joint_target_is_intersection(self):
        nbrs = neighbor_lists(12, TOY12_EDGES)
        t0 = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS,
                                     [(0,)], comparator=">")
        t1 = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS,
                                     [(1,)], comparator=">")
        joint = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS,
                                        [(0,), (1,)], comparator=">")
        assert len(t0) == 94 and len(t1) == 106 and len(joint) == 23
        assert set(joint) == set(t0) & set(t1)
        assert TOY12_T_OBS in joint

    def test_toy12_sampled_draws_lie_in_enumerated_set(self):
        ds = power_outcomes(make_toy12())
        design = prepare(ds, TOY12_MAPPING, "by_exposure")
        nbrs = neighbor_lists(12, TOY12_EDGES)
        joint = set(oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS,
                                            TOY12_EPS, [(0,), (1,)],
                                            comparator=">"))
        assert design.cells == ((0,), (1,))
        cfg = ConditioningConfig(epsilon=TOY12_EPS)
        # odd strata of 5 and 7 units with 3 treated in each: every draw
        # still treats 6 of 12; at b = 199 the first two batches have odd
        # row counts, whose keys draw through rng.integers, and the third
        # an even one, whose keys are raw words
        stratified = StratifiedComplete(np.repeat([0, 1], [5, 7]), {0: 3, 1: 3})
        for mech, b in ((CompleteRandomization(12, 6), 200), (stratified, 199)):
            (d0, d1), diag = sample_conditioning_set(mech, ds, design, cfg, b,
                                                     np.random.default_rng(3))
            for row in d0.t:
                assert tuple(int(v) for v in row) in joint
            assert all(mech.supports(row) for row in d0.t)
            # keys from raw words and from rng.integers give the same records
            (e0, e1), slow = sample_conditioning_set(
                mech, ds, design, cfg, b, IntegersOnly(np.random.default_rng(3)))
            assert slow.n_candidates == diag.n_candidates
            for d, e in ((d0, e0), (d1, e1)):
                assert np.array_equal(d.t, e.t) and np.array_equal(d.sums, e.sums)
                assert np.array_equal(d.focal_counts, e.focal_counts)

    def test_combined_records_share_draws_and_keep_own_focal(self):
        # one record per cell: the cells of a combined group share one t,
        # and each record's arm sums are over that cell's own focal units
        ds = power_outcomes(make_toy12())
        design = prepare(ds, TOY12_MAPPING, "by_exposure")
        pi = design.exposures
        cfg = ConditioningConfig(epsilon=TOY12_EPS)
        records, _ = sample_conditioning_set(
            CompleteRandomization(12, 6), ds, design, cfg, 60, np.random.default_rng(5))
        d0, d1 = records
        assert d0.t is d1.t
        assert [d.cell for d in records] == [(0,), (1,)]
        pi_new = TOY12_MAPPING.compute_batch(d0.t, ds.graph)
        for d, c in zip(records, design.cells):
            assert d.units.tolist() == np.flatnonzero(pi.values == c[0]).tolist()
            focal = (pi_new == c[0]) & (pi.values == c[0])
            assert np.array_equal(d.sums, brute_sums(d, focal))
            assert np.array_equal(d.focal_counts, focal.sum(axis=1))
            assert d.n_candidates == d0.n_candidates

    def test_identity_accepted_when_epsilon_below_bound(self):
        ds = make_toy12()
        pi = compute_exposures(TOY12_MAPPING, ds.t, ds.graph)
        bound = epsilon_feasibility(ds, pi)
        assert bound == pytest.approx(2 / 12)
        sf = {v: superfocal_for_cell(pi.values, (v,)) for v in (0, 1)}
        for v in (0, 1):
            for arm in (0, 1):
                r = relative_frequency(ds.t, pi.values, sf[v], arm)
                assert r > bound - 1e-12 or np.isclose(r, bound)
                assert r > 0.15  # any epsilon below the bound accepts it


class _CountingMechanism(CompleteRandomization):
    """Complete randomization that records each batch size it draws."""

    def __init__(self, n_units, n_treated):
        super().__init__(n_units, n_treated)
        self.batches = []

    def draw_batch(self, m, rng):
        self.batches.append(m)
        return super().draw_batch(m, rng)


class TestSamplerBatches:
    def _edgeless(self, n=40):
        # no edges: every unit is isolated with exposure 0, so cell (0,)
        # holds everyone and every candidate keeps half of it per arm
        ds = power_outcomes(Dataset(y=np.zeros(n), t=np.arange(n) % 2,
                                    graph=build_graph(n, [])))
        mapping = FractionThreshold()
        return ds, design_of(ds, compute_exposures(mapping, ds.t, ds.graph), [(0,)]), mapping

    def test_no_rejection_draws_exactly_b(self):
        ds, design, mapping = self._edgeless()
        mech = _CountingMechanism(ds.n, ds.n // 2)
        cfg = ConditioningConfig(epsilon=0.1)
        (draws,), diag = sample_conditioning_set(mech, ds, design, cfg, 37,
                                              np.random.default_rng(0))
        assert diag.n_candidates == 37 and diag.n_accepted == 37
        assert mech.batches == [37]
        assert sum(diag.failure_counts.values()) == 0
        assert draws.t.shape == (37, ds.n)

    def test_row_cap_splits_batches_without_changing_draws(self, monkeypatch):
        ds, design, mapping = self._edgeless()
        cfg = ConditioningConfig(epsilon=0.1)
        (whole,), _ = sample_conditioning_set(CompleteRandomization(ds.n, ds.n // 2), ds, design,
                                           cfg, 50, np.random.default_rng(1))
        monkeypatch.setattr(conditioning, "MAX_BATCH_BYTES",
                            (12 * ds.n + 5) * mapping.batch_bytes_per_cell(ds.graph))
        mech = _CountingMechanism(ds.n, ds.n // 2)
        (capped,), diag = sample_conditioning_set(mech, ds, design, cfg, 50,
                                               np.random.default_rng(1))
        assert mech.batches == [12, 12, 12, 12, 2]
        assert diag.n_candidates == 50
        assert np.array_equal(capped.t, whole.t)
        assert np.array_equal(capped.sums, whole.sums)
        assert np.array_equal(capped.focal_counts, whole.focal_counts)

    @pytest.mark.parametrize("n", [127, 128, 129])
    def test_a_cell_holding_every_unit_counts_all_n(self, n):
        # every unit lands in cell (0,) in every draw, so each count is N
        # itself: at N = 128 one more than the int8 maximum
        ds, design, mapping = self._edgeless(n)
        cfg = ConditioningConfig(epsilon=0.1)
        (draws,), _ = sample_conditioning_set(CompleteRandomization(n, n // 2), ds, design,
                                           cfg, 20, np.random.default_rng(0))
        assert np.array_equal(draws.sums, brute_sums(draws, np.ones(draws.t.shape, bool)))
        assert draws.focal_counts.tolist() == [n] * 20
        mask = select_observed_focal(draws.cell, draws.units, draws.focal_counts, ds.t,
                                     np.random.default_rng(1))
        assert mask.all()

    @pytest.mark.parametrize("separate", [True, False])
    def test_rejecting_batches_sum_the_kept_draws(self, monkeypatch, separate):
        # toy12 rejects most candidates, and 7-row batches make each group
        # keep some columns of many batches: every record's sums must be
        # those of its own accepted draws' focal units
        ds = power_outcomes(make_toy12())
        design = prepare(ds, TOY12_MAPPING, "by_exposure")
        monkeypatch.setattr(conditioning, "MAX_BATCH_BYTES",
                            7 * ds.n * TOY12_MAPPING.batch_bytes_per_cell(ds.graph))
        cfg = ConditioningConfig(epsilon=TOY12_EPS, separate=separate)
        mech = _CountingMechanism(12, 6)
        records, diag = sample_conditioning_set(mech, ds, design, cfg, 30,
                                                np.random.default_rng(9))
        assert max(mech.batches) == 7 and diag.n_candidates > 2 * 30
        for d in records:
            pi = TOY12_MAPPING.compute_batch(d.t, ds.graph)
            focal = (pi == d.cell[0]) & (np.asarray(TOY12_PI_OBS) == d.cell[0])
            assert np.array_equal(d.sums, brute_sums(d, focal))
            assert d.focal_counts.tolist() == focal.sum(axis=1).tolist()

    def test_rejecting_design_stays_within_budget(self):
        ds = make_toy12()
        design = prepare(ds, TOY12_MAPPING, "by_exposure")
        for max_attempts, b in ((100, 40), (60, 25)):
            cfg = ConditioningConfig(epsilon=TOY12_EPS, max_attempts_per_accept=max_attempts)
            mech = _CountingMechanism(12, 6)
            _, diag = sample_conditioning_set(mech, ds, design, cfg, b,
                                              np.random.default_rng(b))
            assert diag.n_candidates == sum(mech.batches)
            assert b < diag.n_candidates <= b * max_attempts
            assert mech.batches[0] == b
            assert sum(diag.failure_counts.values()) > 0

    def test_exhausted_budget_is_exact_and_names_the_worst_inequality(self):
        # line4 cell (0,) is the single unit 3, which can never sit in
        # both arms, while cell (1,) holds three units and often passes
        ds = make_line4(t=LINE4_T_OBS)
        design = design_of(ds, prepare(ds, TEN_MAPPING, "by_exposure").exposures,
                           [(1,), (0,)])
        cfg = ConditioningConfig(epsilon=0.3, max_attempts_per_accept=7)
        mech = _CountingMechanism(4, 2)
        with pytest.raises(AcceptanceBudgetExhausted) as exc:
            sample_conditioning_set(mech, ds, design, cfg, 6,
                                    np.random.default_rng(0))
        assert sum(mech.batches) == 6 * 7
        assert "after 42 candidates" in str(exc.value)
        assert "cell=(0,)" in str(exc.value)


class TestBatchBudget:
    """Each mapping's declared bytes per batch cell bound the sampler's
    peak, and MAX_BATCH_BYTES turns them into each batch's rows."""

    @pytest.mark.parametrize("mapping, hub, width", [
        (FractionThreshold(0.5, ">"), 0, 1),
        (FractionThreshold(0.5, ">"), 3000, 2),  # a hub of degree >= 128: int16 counts
        (WeightedThreshold(np.linspace(0.5, 2.0, 3200)), 0, 8),
    ])
    def test_declared_figure_bounds_one_call(self, monkeypatch, mapping, hub, width):
        # the reserved block is never written, so it holds no memory, but
        # tracemalloc would count its declared size: leave it out
        monkeypatch.setattr(conditioning, "reserve_heap", lambda nbytes: None)
        n, b = 3200, 499
        rng = np.random.default_rng(5)
        graph = random_irregular_graph(rng, n, hub_degree=hub)
        assert graph.neighbor_sums(np.ones((n, 1)), getattr(mapping, "weights", None)
                                   ).dtype.itemsize == width
        t = np.zeros(n, dtype=np.int8)
        t[rng.choice(n, n // 2, replace=False)] = 1
        ds = Dataset(y=np.zeros(n), t=t, graph=graph)
        design = prepare(ds, mapping, "by_exposure")
        cfg = ConditioningConfig(epsilon=0.01)
        tracemalloc.start()
        try:
            _, diag = sample_conditioning_set(CompleteRandomization(n, n // 2), ds, design,
                                              cfg, b, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.n_candidates == b  # one batch of b rows
        declared = mapping.batch_bytes_per_cell(graph) * b * n
        assert 0.85 * declared < peak <= declared

    @pytest.mark.parametrize("n", [1, 12, 200, 800, 3200, 50_000, 1 << 24, (1 << 24) + 1])
    def test_int8_fraction_batches_keep_the_cell_cap(self, n):
        graph = build_graph(n, [])
        assert conditioning.max_batch_rows(FractionThreshold(), graph) == max(1, (1 << 24) // n)

    def test_weighted_batch_at_n50000_peaks_within_100_mb(self):
        n = 50_000
        mapping, graph = WeightedThreshold(np.ones(n)), build_graph(n, [])
        rows = conditioning.max_batch_rows(mapping, graph)
        assert rows < (1 << 24) // n  # the budget binds below the int8 cell cap
        assert mapping.batch_bytes_per_cell(graph) * rows * n <= 100e6


class TestSelectObservedFocal:
    def test_full_focal_counts_force_whole_superfocal(self):
        sf = np.array([True] * 6 + [False] * 2)
        t_obs = np.array([1, 1, 1, 0, 0, 0, 1, 0])
        counts = np.array([6, 6, 6])
        mask = select_observed_focal((0,), np.flatnonzero(sf), counts, t_obs,
                                     np.random.default_rng(0))
        assert mask.tolist() == sf.tolist()

    def test_rounded_mean_size(self):
        sf = np.array([True] * 8 + [False] * 2)
        t_obs = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0])
        counts = np.array([4, 6])
        mask = select_observed_focal((0,), np.flatnonzero(sf), counts, t_obs,
                                     np.random.default_rng(0))
        assert int(mask.sum()) == 5
        assert not (mask & ~sf).any()

    def test_round_half_to_even(self):
        units = np.arange(8)
        t_obs = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        rng = np.random.default_rng(0)
        assert select_observed_focal((0,), units, np.array([4, 5]), t_obs, rng).sum() == 4
        assert select_observed_focal((0,), units, np.array([5, 6]), t_obs, rng).sum() == 6

    def test_both_arms_present(self):
        units = np.arange(6)
        t_obs = np.array([1, 0, 0, 0, 0, 0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = select_observed_focal((0,), units, np.array([2, 2]), t_obs, rng)
            picked = np.flatnonzero(mask)
            arms = {int(t_obs[i]) for i in picked}
            assert arms == {0, 1}

    def test_impossible_arm_requirement_raises(self):
        t_obs = np.array([1, 0, 0, 0, 0, 0])  # one treated unit only
        with pytest.raises(ArmEmptyAfterRetries):
            select_observed_focal((0,), np.arange(6), np.array([4, 4]), t_obs,
                                  np.random.default_rng(0), min_per_arm=2)

    def test_size_below_two_per_arm_raises(self):
        t_obs = np.array([1, 1, 1, 0, 0, 0])
        with pytest.raises(ArmEmptyAfterRetries):
            select_observed_focal((0,), np.arange(6), np.array([2, 2]), t_obs,
                                  np.random.default_rng(0), min_per_arm=2)


class TestEpsilonFeasibility:
    def test_fixture_bound(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        assert epsilon_feasibility(ds, exp) == pytest.approx(0.2)

    def test_fixture_bound_with_covariate(self):
        ds = make_ten(with_x=True)
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        assert epsilon_feasibility(ds, exp, use_covariate=True) == pytest.approx(0.1)

    def test_balanced_two_by_two(self):
        ds = make_line4(t=(1, 1, 0, 0))
        exp = ExposureVector(np.array([0, 1, 0, 1]), TEN_MAPPING)
        assert epsilon_feasibility(ds, exp) == pytest.approx(0.25)

    def test_single_exposure_balanced_arms(self):
        ds = make_line4(t=(1, 1, 0, 0))
        # the declared cell (1,) holds no units, so it is skipped
        exp = ExposureVector(np.array([0, 0, 0, 0]), TEN_MAPPING)
        assert epsilon_feasibility(ds, exp) == pytest.approx(0.5)

    def test_covariate_requested_but_missing(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        with pytest.raises(ValueError):
            epsilon_feasibility(ds, exp, use_covariate=True)


class _CyclingMechanism:
    """Emits the given vectors in turn, continuing across batches."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.int8)
        self.drawn = 0

    def draw_batch(self, m, rng):
        idx = (self.drawn + np.arange(m)) % len(self.rows)
        self.drawn += m
        return self.rows[idx]


class TestSharedStream:
    """Multiple mode: one candidate stream, each cell keeping its own
    first b accepts. On toy12, TOY12_T_OBS satisfies both cells, while
    ONLY_CELL0 satisfies cell (0,) and not cell (1,)."""

    ONLY_CELL0 = (1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1)

    def _toy12(self):
        ds = make_toy12()
        return ds, prepare(ds, TOY12_MAPPING, "by_exposure")

    def test_fixture_vectors(self):
        nbrs = neighbor_lists(12, TOY12_EDGES)
        sets = {c: set(oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS,
                                               [c], comparator=">"))
                for c in ((0,), (1,))}
        assert TOY12_T_OBS in sets[(0,)] and TOY12_T_OBS in sets[(1,)]
        assert self.ONLY_CELL0 in sets[(0,)] and self.ONLY_CELL0 not in sets[(1,)]

    def test_each_cell_keeps_its_first_b_accepts(self):
        # the stream repeats T_OBS, ONLY_CELL0, ONLY_CELL0: cell (0,)
        # accepts every candidate, cell (1,) every third, so its b-th
        # accept is candidate 3b - 2
        ds, design = self._toy12()
        b = 20
        mech = _CyclingMechanism([TOY12_T_OBS, self.ONLY_CELL0, self.ONLY_CELL0])
        cfg = ConditioningConfig(epsilon=TOY12_EPS, separate=True)
        (d0, d1), diag = sample_conditioning_set(mech, ds, design, cfg, b,
                                                 np.random.default_rng(0))
        assert [d0.cell, d1.cell] == [(0,), (1,)]
        assert d0.t.tolist() == [list(mech.rows[i % 3]) for i in range(b)]
        assert d1.t.tolist() == [list(TOY12_T_OBS)] * b
        assert (d0.n_candidates, d1.n_candidates) == (b, 3 * b - 2)
        assert d0.acceptance_rate == 1.0 and d1.acceptance_rate == b / (3 * b - 2)
        assert diag.n_candidates == mech.drawn >= 3 * b - 2
        assert diag.n_accepted == 2 * b
        assert diag.failure_counts[(0, (0,))] == diag.failure_counts[(1, (0,))] == 0
        assert diag.failure_counts[(0, (1,))] + diag.failure_counts[(1, (1,))] > 0
        # the engine reports the same per-cell rates
        mech = _CyclingMechanism([TOY12_T_OBS, self.ONLY_CELL0, self.ONLY_CELL0])
        rep = run_oracle_test(ds, TOY12_MAPPING, mech, NullSpec.constant(0.0),
                              epsilon=TOY12_EPS, b=b, rng=np.random.default_rng(0))
        assert [c.acceptance_rate for c in rep.cells] == [1.0, b / (3 * b - 2)]

    def test_starved_cell_and_its_worst_inequality_are_named(self):
        # cell (0,) accepts every candidate, cell (1,) none
        ds, design = self._toy12()
        cfg = ConditioningConfig(epsilon=TOY12_EPS, separate=True, max_attempts_per_accept=5)
        with pytest.raises(AcceptanceBudgetExhausted) as exc:
            sample_conditioning_set(_CyclingMechanism([self.ONLY_CELL0]), ds, design, cfg, 4,
                                    np.random.default_rng(0))
        msg = str(exc.value)
        assert "after 20 candidates, cell (1,) accepted 0/4;" in msg
        assert "cell=(1,) failed 20 times" in msg
        assert "(0,) accepted" not in msg

    def test_infeasible_epsilon_names_the_infeasible_cell(self):
        # at epsilon 0.4 no vector keeps 3 of cell (1,)'s six super-focal
        # units in each arm, and one of 924 does so for cell (0,)
        ds, design = self._toy12()
        nbrs = neighbor_lists(12, TOY12_EDGES)
        assert oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, 0.4, [(1,)],
                                       comparator=">") == []
        with pytest.raises(AcceptanceBudgetExhausted) as exc:
            run_oracle_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                            NullSpec.constant(0.0), epsilon=0.4, b=2,
                            max_attempts_per_accept=50, rng=np.random.default_rng(0))
        msg = str(exc.value)
        assert "after 100 candidates," in msg and "cell (1,) accepted 0/2" in msg
        worst = msg.split("cell=")[1].split(" failed")[0]
        assert f"cell {worst} accepted" in msg  # the worst inequality is a starved cell's


class TestScoredMinPerArm:
    """A Design's scored_mask with ConditioningConfig(min_per_arm=...):
    records keep only the scored units, every accept keeps min_per_arm scored focal units in
    each arm of its cells, and the rule's rejections are counted apart.
    On toy12, cell (0,)'s super-focal units are 0-3, 10 and 11, observed
    treated 1, 2, 3 and 11."""

    def _toy12(self):
        ds = make_toy12()
        return ds, prepare(ds, TOY12_MAPPING, "by_exposure")

    def test_records_hold_the_scored_units_and_meet_the_rule(self):
        ds, design = self._toy12()
        ds = power_outcomes(ds)
        scored = np.ones(12, dtype=bool)
        scored[[1, 4]] = False
        design = replace(design, scored_mask=scored)
        cfg = ConditioningConfig(epsilon=0.1, separate=True, min_per_arm=2)
        records, diag = sample_conditioning_set(CompleteRandomization(12, 6), ds, design, cfg,
                                                300, np.random.default_rng(3))
        for d in records:
            cell = d.cell
            sf = superfocal_for_cell(design.exposures.values, cell)
            pi_new = TOY12_MAPPING.compute_batch(d.t, ds.graph)
            assert np.array_equal(d.units, np.flatnonzero(sf.indicator & scored))
            assert np.array_equal(design.scored(cell), d.units)
            focal = (pi_new == cell[0]) & sf.indicator & scored
            assert np.array_equal(d.sums, brute_sums(d, focal))
            assert np.array_equal(d.focal_counts, focal.sum(axis=1))
            for arm in (0, 1):
                assert ((focal & (d.t == arm)).sum(axis=1) >= 2).all()
                # the inequalities still count every super-focal unit
                assert all(relative_frequency(t, p, sf, arm) > 0.1
                           for t, p in zip(d.t, pi_new))
        assert sum(n for key, n in diag.failure_counts.items() if len(key) == 3) > 0

    def test_without_the_rule_no_rule_kind_is_counted(self):
        ds, design = self._toy12()
        cfg = ConditioningConfig(epsilon=0.1)
        _, diag = sample_conditioning_set(CompleteRandomization(12, 6), ds, design, cfg, 50,
                                          np.random.default_rng(3))
        assert sorted(diag.failure_counts) == sorted(
            (arm, c) for c in ((0,), (1,)) for arm in (0, 1))

    def test_observed_assignment_breaking_the_rule_draws_nothing(self):
        # unscoring unit 0 leaves cell (0,) one scored control unit; every
        # unit stays on the estimation side, so only the scored check fails
        ds, design = self._toy12()
        scored = np.ones(12, dtype=bool)
        scored[0] = False
        with pytest.raises(TooFewUnits, match=r"^cell \(0,\): the observed assignment has 1/4 "):
            check_feasible(replace(design, scored_mask=scored), ds.t,
                           SplitResult(np.ones(12, dtype=bool), scored, []))
        # the engine checks before it draws: line4's cell (0,) is the one
        # control unit 3
        mech = _CountingMechanism(4, 2)
        with pytest.raises(TooFewUnits, match=r"^cell \(0,\): the observed assignment has 1/0 "):
            run_oracle_test(make_line4(t=LINE4_T_OBS), TEN_MAPPING, mech,
                            NullSpec.constant(0.0), epsilon=0.3, b=10,
                            rng=np.random.default_rng(0))
        assert mech.batches == []

    def test_exhausted_budget_names_the_rule(self):
        # with only units 0, 1, 2 and 10 of cell (0,) scored, few draws keep
        # two of them in each arm, while eps=0.1 asks for one unit per arm
        ds, design = self._toy12()
        scored = ~np.isin(np.arange(12), [3, 11])
        design = design_of(ds, design.exposures, [(0,)], scored=scored)
        cfg = ConditioningConfig(epsilon=0.1, min_per_arm=2, max_attempts_per_accept=2)
        with pytest.raises(AcceptanceBudgetExhausted) as exc:
            sample_conditioning_set(CompleteRandomization(12, 6), ds, design, cfg, 20,
                                    np.random.default_rng(0))
        assert "cell=(0,) failed" in str(exc.value)
        assert str(exc.value).endswith("times (at least 2 scored focal units)")
