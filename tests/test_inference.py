"""Test engines: p-values, multiplicity control, nuisance techniques."""
import copy
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fixtures import (TEN_MAPPING, TEN_Y, TOY12_EPS, TOY12_MAPPING,
                      brute_sums, direct_imputed_stats, make_ten, make_toy12,
                      oracle_cell_stat, oracle_imputed, power_outcomes)
from netrand import conditioning, inference
from netrand.assignment import CompleteRandomization
from netrand.conditioning import cell_mask, superfocal_for_cell
from netrand.data import Dataset
from netrand.errors import (DataError, DegenerateInterval, EmptyArm,
                            InfeasibleConditioning, MissingParameter,
                            TooFewUnits)
from netrand.exposure import CustomMapping, FractionThreshold, compute_exposures
from netrand.graph import build_graph
from netrand.inference import (CIConfig, SplitResult, adjust_multiple,
                               empirical_pvalue, estimate_tau_plugin,
                               make_balanced_split, neyman_interval,
                               run_ci_test, run_oracle_test,
                               run_permutation_variant, run_plugin_test,
                               run_ss_test)
from netrand.nullspec import NullSpec
from netrand.simulation import generate_potential_outcomes, generate_regular_graph
from statistics import NormalDist
from test_conditioning import _CountingMechanism


def toy12_engine_args():
    ds = make_toy12()
    return ds, TOY12_MAPPING, CompleteRandomization(12, 6)


# a 7-unit ring and three isolated units: no fraction exceeds 1, so the
# ring units always have exposure 0 and the isolated ones exposure 1
THIN_RING = tuple((i, (i + 1) % 7) for i in range(7))
THIN_T_OBS = (1, 0, 1, 0, 1, 0, 0, 1, 0, 1)
THIN_MAPPING = FractionThreshold(threshold=1.0, comparator=">", isolated_value=1)


class TestEmpiricalPvalue:
    def test_counts_ties_as_extreme(self):
        assert empirical_pvalue(5.0, [1.0, 5.0, 10.0]) == pytest.approx(2 / 3)

    def test_extremes(self):
        assert empirical_pvalue(11.0, [1.0, 5.0, 10.0]) == 0.0
        assert empirical_pvalue(0.0, [1.0, 5.0, 10.0]) == 1.0

    def test_infinite_observed_matches_infinite_draws(self):
        assert empirical_pvalue(math.inf, [1.0, math.inf]) == pytest.approx(0.5)


class TestAdjustMultiple:
    def test_two_cell_worked_example(self):
        p = {(0,): 0.01, (1,): 0.20}
        bonf = adjust_multiple(p, 0.05, "bonferroni")
        assert bonf.decisions == {(0,): True, (1,): False}
        assert bonf.adjusted_pvalues[(0,)] == pytest.approx(0.02)
        assert bonf.adjusted_pvalues[(1,)] == pytest.approx(0.40)
        holm = adjust_multiple(p, 0.05, "holm")
        assert holm.decisions == {(0,): True, (1,): False}
        assert holm.adjusted_pvalues[(0,)] == pytest.approx(0.02)
        assert holm.adjusted_pvalues[(1,)] == pytest.approx(0.20)
        any_ = adjust_multiple(p, 0.05, "unadjusted_any")
        assert any_.any_rejection and any_.decisions[(0,)]

    def test_holm_rejects_where_bonferroni_cannot(self):
        p = {"a": 0.01, "b": 0.02, "c": 0.05}
        bonf = adjust_multiple(p, 0.05, "bonferroni")
        holm = adjust_multiple(p, 0.05, "holm")
        assert bonf.decisions == {"a": True, "b": False, "c": False}
        assert holm.decisions == {"a": True, "b": True, "c": True}

    def test_holm_stops_at_first_failure(self):
        p = {"a": 0.03, "b": 0.001, "c": 0.04}
        holm = adjust_multiple(p, 0.05, "holm")
        # 0.001 <= 0.05/3 passes; 0.03 > 0.05/2 stops the walk
        assert holm.decisions == {"b": True, "a": False, "c": False}

    def test_holm_adjusted_pvalues_are_monotone(self):
        p = {"a": 0.04, "b": 0.01, "c": 0.02}
        holm = adjust_multiple(p, 0.05, "holm")
        adj = holm.adjusted_pvalues
        assert adj["b"] == pytest.approx(0.03)
        assert adj["c"] == pytest.approx(0.04)
        assert adj["a"] == pytest.approx(0.04)

    def test_unadjusted_any_uses_strict_inequality(self):
        res = adjust_multiple({"a": 0.05}, 0.05, "unadjusted_any")
        assert not res.decisions["a"]

    def test_validation(self):
        with pytest.raises(ValueError):
            adjust_multiple({}, 0.05, "bonferroni")
        with pytest.raises(ValueError):
            adjust_multiple({"a": 0.1}, 0.05, "fdr")


class TestPluginEstimates:
    def test_pooled_difference_in_means(self):
        g = build_graph(4, [])
        ds = Dataset(y=np.array([5.0, 3.0, 2.0, 4.0]),
                     t=np.array([1, 1, 0, 0]), graph=g)
        exp = compute_exposures(CustomMapping(lambda i, t, gr: 0, (0,)),
                                ds.t, g)
        est = estimate_tau_plugin(ds, exp, "constant_all")
        assert est.values[()] == pytest.approx((5.0 + 3.0 - 2.0 - 4.0) / 2)

    def test_fixture_per_exposure(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        est = estimate_tau_plugin(ds, exp, "by_exposure")
        want0 = np.mean([TEN_Y[3], TEN_Y[4], TEN_Y[5]]) - np.mean([TEN_Y[1], TEN_Y[9]])
        want1 = np.mean([TEN_Y[7], TEN_Y[8]]) - np.mean([TEN_Y[0], TEN_Y[2], TEN_Y[6]])
        assert est.values[(0,)] == pytest.approx(want0)
        assert est.values[(1,)] == pytest.approx(want1)

    def test_fixture_per_cell(self):
        ds = make_ten(with_x=True)
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        est = estimate_tau_plugin(ds, exp, "by_exposure_covariate")
        # cell (0, f) holds units {3, 4, 9}: treated {3, 4}, control {9}
        want = np.mean([TEN_Y[3], TEN_Y[4]]) - TEN_Y[9]
        assert est.values[(0, "f")] == pytest.approx(want)
        assert set(est.values) == {(0, "f"), (0, "m"), (1, "f"), (1, "m")}

    def test_mask_restricts_the_sample(self):
        g = build_graph(4, [])
        ds = Dataset(y=np.array([5.0, 3.0, 2.0, 4.0]),
                     t=np.array([1, 1, 0, 0]), graph=g)
        exp = compute_exposures(CustomMapping(lambda i, t, gr: 0, (0,)),
                                ds.t, g)
        est = estimate_tau_plugin(ds, exp, "constant_all",
                                  mask=np.array([True, False, True, False]))
        assert est.values[()] == pytest.approx(5.0 - 2.0)

    def test_empty_arm(self):
        g = build_graph(3, [])
        ds = Dataset(y=np.zeros(3), t=np.array([1, 1, 1]), graph=g)
        exp = compute_exposures(CustomMapping(lambda i, t, gr: 0, (0,)),
                                ds.t, g)
        with pytest.raises(EmptyArm):
            estimate_tau_plugin(ds, exp, "constant_all")

    def test_per_cell_family_needs_covariate(self):
        # both split helpers read the exposure vector's mapping for the
        # cells, and a per-cell family without a covariate is a data error
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        with pytest.raises(DataError, match="covariate column"):
            estimate_tau_plugin(ds, exp, "by_exposure_covariate")
        with pytest.raises(DataError, match="covariate column"):
            make_balanced_split(ds, exp, "by_exposure_covariate",
                                np.random.default_rng(0))


class TestSplitWalkThrough:
    def test_estimate_then_impute_under_new_vector(self):
        # four units with no interference; estimate on {0, 2}, and the
        # flipped assignment imputes the inference half from the estimate
        g = build_graph(4, [])
        y = np.array([5.0, 3.0, 2.0, 4.0])
        t = np.array([1, 1, 0, 0])
        ds = Dataset(y=y, t=t, graph=g)
        exp = compute_exposures(CustomMapping(lambda i, t_, gr: 0, (0,)),
                                ds.t, g)
        est_mask = np.array([True, False, True, False])
        est = estimate_tau_plugin(ds, exp, "constant_all", mask=est_mask)
        tau_hat = est.values[()]
        assert tau_hat == pytest.approx(y[0] - y[2])
        t_new = (0, 0, 1, 1)
        imputed = oracle_imputed(y, t, t_new, tau_hat)
        got1, got3 = imputed[1], imputed[3]
        assert got1 == pytest.approx(y[1] - tau_hat)
        assert got3 == pytest.approx(y[3] + tau_hat)


class TestOracleEngine:
    def test_general_family_not_testable(self):
        ds, mapping, mech = toy12_engine_args()
        with pytest.raises(MissingParameter):
            run_oracle_test(ds, mapping, mech, NullSpec.general("anything"),
                            epsilon=TOY12_EPS, b=10,
                            rng=np.random.default_rng(0))

    def test_multiple_mode_report_shape(self):
        ds, mapping, mech = toy12_engine_args()
        null = NullSpec.per_exposure({0: 0.0, 1: 0.0})
        rep = run_oracle_test(ds, mapping, mech, null, epsilon=TOY12_EPS,
                              b=150, rng=np.random.default_rng(0),
                              keep_draws=True)
        assert {c.cell for c in rep.cells} == {(0,), (1,)}
        for c in rep.cells:
            assert 0.0 <= c.pvalue <= 1.0
            assert c.fobs_size >= 4
            assert c.n_superfocal == 6
            assert c.mean_focal >= 4.0
            assert 0.0 < c.acceptance_rate <= 1.0
        assert set(rep.decisions) == {"bonferroni", "holm", "unadjusted_any"}
        assert rep.diagnostics["nuisance"]["provenance"] == "oracle"
        assert len(rep.diagnostics["draw_stats"]["0"]) == 150
        assert len(rep.diagnostics["observed_focal"]["0"]) == rep.cells[0].fobs_size

    def test_kept_draws_satisfy_mechanism_and_inequalities(self):
        ds, mapping, mech = toy12_engine_args()
        null = NullSpec.constant(0.0)
        rep = run_oracle_test(ds, mapping, mech, null, epsilon=TOY12_EPS,
                              b=40, rng=np.random.default_rng(1),
                              stat="combined", keep_draws=True)
        draws = np.asarray(rep.diagnostics["draw_treatments"]["combined"])
        assert draws.shape == (40, 12)
        pi_obs = mapping.compute(ds.t, ds.graph)
        for t_new in draws:
            assert mech.supports(t_new)
            pi_new = mapping.compute(t_new, ds.graph)
            for v in (0, 1):
                sf = superfocal_for_cell(pi_obs, (v,))
                keep = (pi_new == v) & sf.indicator
                for arm in (0, 1):
                    r = int((keep & (t_new == arm)).sum()) / sf.n
                    assert r > TOY12_EPS

    def test_combined_mode_weights_and_decision(self):
        ds, mapping, mech = toy12_engine_args()
        null = NullSpec.constant(0.0)
        rep = run_oracle_test(ds, mapping, mech, null, epsilon=TOY12_EPS,
                              b=150, rng=np.random.default_rng(2),
                              stat="combined")
        assert rep.combined is not None
        assert rep.combined.weights == {(0,): 0.5, (1,): 0.5}
        assert 0.0 <= rep.combined.pvalue <= 1.0
        assert rep.combined.reject == (rep.combined.pvalue < rep.alpha)

    def test_seed_determinism(self):
        ds, mapping, mech = toy12_engine_args()
        null = NullSpec.per_exposure({0: 0.25, 1: -0.5})
        reps = [run_oracle_test(ds, mapping, mech, null, epsilon=TOY12_EPS,
                                b=80, rng=np.random.default_rng(42),
                                keep_draws=True).to_dict()
                for _ in range(2)]
        assert reps[0] == reps[1]

    def test_draws_reproducing_the_observed_split_tie_with_it(self):
        # every unit is focal, so a draw equal to the observed split or its
        # arm mirror gives the observed statistic and must count as a tie
        y = np.array([0.9145, -0.0201, -1.2487, -0.3139,
                      0.0541, 0.2728, -0.9822, -1.1074])
        t = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        ds = Dataset(y=y, t=t, graph=build_graph(8, []))
        mapping = CustomMapping(lambda i, tv, gr: 0, (0,))
        rep = run_oracle_test(ds, mapping, CompleteRandomization(8, 4),
                              NullSpec.constant(0.0), epsilon=0.1, b=400,
                              rng=np.random.default_rng(0), keep_draws=True)
        (res,) = rep.cells
        draws = np.asarray(rep.diagnostics["draw_treatments"]["0"])
        stats = np.asarray(rep.diagnostics["draw_stats"]["0"])
        kept = (draws == t).all(axis=1)
        swapped = (draws == 1 - t).all(axis=1)
        same = kept | swapped
        assert kept.any() and swapped.any()
        assert same.sum() == 6
        assert (stats[same] == res.observed_stat).all()
        focal = range(8)
        obs = oracle_cell_stat(y, t, focal)
        reaching = [s or oracle_cell_stat(y, d, focal) >= obs for d, s in zip(draws, same)]
        assert res.pvalue == sum(reaching) / 400 == 0.67

    @pytest.mark.parametrize("tau", [0.3, 1.3, -0.45, 2.9, 5.5])
    def test_swapped_arms_tie_at_nonzero_tau(self, tau):
        # a draw that swaps every unit's arm imputes y + tau on one arm and
        # y - tau on the other: a shift, so the variances are the observed
        # ones exchanged and the draw must tie at every tau
        y = np.array([0.9145, -0.0201, -1.2487, -0.3139,
                      0.0541, 0.2728, -0.9822, -1.1074])
        t = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        ds = Dataset(y=y, t=t, graph=build_graph(8, []))
        mapping = CustomMapping(lambda i, tv, gr: 0, (0,))
        rep = run_oracle_test(ds, mapping, CompleteRandomization(8, 4),
                              NullSpec.constant(tau), epsilon=0.1, b=400,
                              rng=np.random.default_rng(0), keep_draws=True)
        (res,) = rep.cells
        draws = np.asarray(rep.diagnostics["draw_treatments"]["0"])
        stats = np.asarray(rep.diagnostics["draw_stats"]["0"])
        kept = (draws == t).all(axis=1)
        swapped = (draws == 1 - t).all(axis=1)
        assert kept.any() and swapped.any()
        assert (kept.sum(), swapped.sum()) == (3, 3)
        assert (stats[kept | swapped] == res.observed_stat).all()
        focal = range(8)
        obs = oracle_cell_stat(y, t, focal)
        reaching = [same or oracle_cell_stat(oracle_imputed(y, t, d, tau), d, focal) >= obs
                    for d, same in zip(draws, kept | swapped)]
        assert res.pvalue == sum(reaching) / 400

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_mean_focal_count_below_four_names_the_cell(self, stat):
        # cell (1,)'s three units cannot hold two per arm, so the test stops
        # before drawing a candidate
        ds = Dataset(y=np.arange(10, dtype=float), t=np.array(THIN_T_OBS),
                     graph=build_graph(10, THIN_RING))
        with pytest.raises(InfeasibleConditioning,
                           match=r"^cell \(1,\): the observed assignment has 1/2 scored "):
            run_oracle_test(ds, THIN_MAPPING, CompleteRandomization(10, 5),
                            NullSpec.constant(0.0), epsilon=0.2, b=20, stat=stat,
                            rng=np.random.default_rng(0))


class TestEveryDrawScored:
    """Every accepted draw keeps two scored focal units in each arm of
    each cell, so the scorer has both arm variances of every draw. Both
    runs below died before that rule, one in the scorer and one in the
    observed focal selection."""

    @staticmethod
    def _fewest_scored_per_arm(ds, mapping, report, scored):
        """Fewest scored focal units in an arm of a cell over every kept
        draw, recomputed from the draws' exposures."""
        pi_obs = compute_exposures(mapping, ds.t, ds.graph).values
        kept, fewest = report.diagnostics["draw_treatments"], []
        for res in report.cells:
            key = "combined" if report.stat_mode == "combined" else ",".join(map(str, res.cell))
            draws = np.asarray(kept[key])
            pi_new = mapping.compute_batch(draws, ds.graph)
            focal = (pi_new == res.cell[0]) & cell_mask(pi_obs, res.cell, ds.x) & scored
            fewest += [int((focal & (draws == arm)).sum(axis=1).min()) for arm in (0, 1)]
        return min(fewest)

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_split_scores_every_draw(self, stat):
        # at N=200 and eps=0.2 one kept unit clears a covariate cell's
        # inequality, and the inference half may hold none of it
        rng = np.random.default_rng(7)
        graph = generate_regular_graph(200, 5, rng)
        mech = CompleteRandomization(200, 100)
        t = mech.draw(rng)
        mapping = FractionThreshold(0.5, ">")
        x = np.arange(200) % 2
        y = generate_potential_outcomes(mapping.compute(t, graph), t, x, sigma_tau=0.5,
                                        psi0=1.0, psi1=1.0, dgp="normal", rng=rng)
        ds = Dataset(y=y, t=t, graph=graph, x=x)
        rep = run_ss_test(ds, mapping, mech, "by_exposure_covariate", epsilon=0.2, b=149,
                          split_rng=np.random.default_rng(1), rng=np.random.default_rng(1),
                          stat=stat, keep_draws=True)
        split = make_balanced_split(ds, compute_exposures(mapping, ds.t, ds.graph),
                                    "by_exposure_covariate", np.random.default_rng(1))
        assert split.inf_mask.sum() == rep.diagnostics["split"]["n_inference"]
        assert self._fewest_scored_per_arm(ds, mapping, rep, split.inf_mask) >= 2

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_toy12_at_low_epsilon_scores_every_draw(self, stat):
        # at eps=0.1 one kept unit of six clears an arm's inequality
        ds, mapping, mech = toy12_engine_args()
        rep = run_oracle_test(ds, mapping, mech, NullSpec.constant(0.0), epsilon=0.1,
                              b=200, rng=np.random.default_rng(0), stat=stat,
                              keep_draws=True)
        assert self._fewest_scored_per_arm(ds, mapping, rep, np.ones(12, dtype=bool)) >= 2


class TestArmSumRecords:
    """Each record holds its draws' arm sums over the cell's scored
    super-focal units, and the scorer scores from them. Recomputed from
    full-width brute-force focal and treated rows of the record's own
    draws, the sums are equal, and each statistic the scorer computes
    equals direct imputation over full-width draw-major rows."""

    @pytest.fixture
    def scored_runs(self, monkeypatch):
        """One namespace per cell the scorer scores, in order: the dataset,
        the cell's grid, its record, its scored super-focal units as an
        N-wide mask and their number before scoring, the observed focal
        units, the scorer's statistics, and the record of the same draws
        under y = 2 ** i (None for the permutation variant)."""
        seen, stats, twins = [], [], {}
        score, ratio = inference._score_grid, inference.ratio_stat_rows
        sample = inference.sample_conditioning_set

        def spy_sample(mechanism, dataset, design, config, b, rng):
            # the sampler reads no outcome, so a copy of its inputs draws the
            # same records, whose sums then tell every focal set apart
            twin, _ = sample(copy.deepcopy(mechanism), power_outcomes(dataset), design,
                             config, b, copy.deepcopy(rng))
            twins.update((d.cell, d) for d in twin)
            return sample(mechanism, dataset, design, config, b, rng)

        def spy_score(source, dataset, design, runs, **kw):
            stats.clear()
            report = score(source, dataset, design, runs, **kw)
            for (d, fobs), got in zip(runs, stats):
                sf = np.zeros(dataset.n, dtype=bool)
                sf[design.scored(d.cell)] = True
                seen.append(SimpleNamespace(
                    ds=dataset, grid=source.axes[inference.effect_key(design.family, d.cell)],
                    d=d, sf=sf, n_sf=len(design.units[d.cell]), fobs=fobs, got=got,
                    twin=twins.get(d.cell)))
            return report

        monkeypatch.setattr(inference, "sample_conditioning_set", spy_sample)
        monkeypatch.setattr(inference, "_score_grid", spy_score)
        monkeypatch.setattr(inference, "ratio_stat_rows",
                            lambda *a: stats.append(ratio(*a)) or stats[-1])
        return seen

    @staticmethod
    def _check(seen, mapping, y=None):
        assert seen
        for run in seen:
            d, ds = run.d, run.ds
            assert np.array_equal(d.units, np.flatnonzero(run.sf))
            pi_new = mapping.compute_batch(d.t, ds.graph)
            focal = (pi_new == d.cell[0]) & run.sf
            assert np.array_equal(d.sums, brute_sums(d, focal))
            assert np.array_equal(d.focal_counts, focal.sum(axis=1))
            if run.twin is not None:
                assert np.array_equal(run.twin.t, d.t)
                assert np.array_equal(run.twin.sums, brute_sums(run.twin, focal))
            want = direct_imputed_stats(ds.y if y is None else y, ds.t,
                                        np.vstack([ds.t, d.t]),
                                        np.vstack([run.fobs, focal]), run.grid)
            np.testing.assert_allclose(run.got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_rejecting_design_over_many_batches(self, monkeypatch, scored_runs, stat):
        ds, mapping, _ = toy12_engine_args()
        mech = _CountingMechanism(12, 6)
        monkeypatch.setattr(conditioning, "MAX_BATCH_BYTES",
                            7 * ds.n * mapping.batch_bytes_per_cell(ds.graph))
        run_oracle_test(ds, mapping, mech, NullSpec.per_exposure({0: 0.5, 1: -0.25}),
                        epsilon=TOY12_EPS, b=30, rng=np.random.default_rng(2), stat=stat)
        assert len(mech.batches) >= 3
        assert all(run.d.acceptance_rate < 1.0 for run in scored_runs)
        self._check(scored_runs, mapping)

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_scored_half_over_many_batches(self, monkeypatch, scored_runs, stat):
        rng = np.random.default_rng(4)
        graph = generate_regular_graph(60, 5, rng)
        mech = _CountingMechanism(60, 30)
        t = mech.draw(rng)
        ds = Dataset(y=rng.standard_normal(60), t=t, graph=graph)
        mapping = FractionThreshold(0.5, ">")
        monkeypatch.setattr(conditioning, "MAX_BATCH_BYTES",
                            9 * ds.n * mapping.batch_bytes_per_cell(ds.graph))
        run_ss_test(ds, mapping, mech, "by_exposure", epsilon=0.2, b=40, stat=stat,
                    split_rng=np.random.default_rng(1), rng=np.random.default_rng(1))
        assert len(mech.batches) >= 3
        assert all(run.d.acceptance_rate < 1.0 for run in scored_runs)
        # the records hold only the inference half of each super-focal set
        assert all(run.sf.sum() < run.n_sf for run in scored_runs)
        self._check(scored_runs, mapping)

    @pytest.mark.parametrize("b", [30, None])
    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_permutation_variant(self, scored_runs, b, stat):
        # exposure is the unit's parity; the last nine units are the
        # inference side, 4 + 5 per cell, so b=None enumerates 4! 5! = 2880
        n = 17
        mapping = CustomMapping(lambda i, t, gr: i % 2, (0, 1))
        ds = Dataset(y=np.random.default_rng(3).standard_normal(n),
                     t=np.array([1, 1, 0, 0] * 4 + [1]), graph=build_graph(n, []))
        inf = np.arange(n) >= n - 9
        split = SplitResult(est_mask=~inf, inf_mask=inf, strata=[])
        rep = run_permutation_variant(ds, mapping, "by_exposure", split, b,
                                      np.random.default_rng(0), stat=stat)
        assert rep.b == (2880 if b is None else b)
        # the records sum the effect-adjusted outcomes y - tau t of each cell
        adjusted = ds.y.copy()
        for run, res in zip(scored_runs, rep.cells):
            adjusted[run.sf] -= res.tau * ds.t[run.sf]
        self._check(scored_runs, mapping, y=adjusted)


class TestPluginEngine:
    def test_report_carries_warning_and_provenance(self):
        ds, mapping, mech = toy12_engine_args()
        rep = run_plugin_test(ds, mapping, mech, "by_exposure",
                              epsilon=TOY12_EPS, b=100,
                              rng=np.random.default_rng(3))
        assert "warning" in rep.diagnostics
        assert rep.diagnostics["nuisance"]["provenance"] == "plugin"
        exp = compute_exposures(mapping, ds.t, ds.graph)
        want = estimate_tau_plugin(ds, exp, "by_exposure")
        for c in rep.cells:
            assert c.tau == pytest.approx(want.values[c.cell])


class TestBalancedSplit:
    def test_even_strata_split_exactly(self):
        ds = make_toy12()
        exp = compute_exposures(TOY12_MAPPING, ds.t, ds.graph)
        split = make_balanced_split(ds, exp, "by_exposure",
                                    np.random.default_rng(0))
        assert (split.est_mask ^ split.inf_mask).all()
        pi = exp.values
        for s in split.strata:
            m = (ds.t == s[0]) & (pi == s[1])
            assert int((m & split.est_mask).sum()) == int(m.sum()) // 2

    def test_odd_strata_round_both_ways(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        pi = exp.values
        # stratum (1, 0) holds three units; across seeds the estimation
        # half must sometimes get 1 and sometimes 2 of them
        sizes = set()
        for seed in range(40):
            split = make_balanced_split(ds, exp, "by_exposure",
                                        np.random.default_rng(seed))
            m = (ds.t == 1) & (pi == 0)
            sizes.add(int((m & split.est_mask).sum()))
            for s in split.strata:
                sm = (ds.t == s[0]) & (pi == s[1])
                est_n = int((sm & split.est_mask).sum())
                assert abs(est_n - (int(sm.sum()) - est_n)) <= 1
        assert sizes == {1, 2}

    def test_covariate_family_stratifies_on_x(self):
        ds = make_ten(with_x=True)
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        split = make_balanced_split(ds, exp, "by_exposure_covariate",
                                    np.random.default_rng(1))
        assert all(len(s) == 3 for s in split.strata)


class TestSsEngine:
    def _dataset(self, n=80, graph_seed=0, data_seed=100):
        g = generate_regular_graph(n, 3, np.random.default_rng(graph_seed))
        rng = np.random.default_rng(data_seed)
        t = CompleteRandomization(n, n // 2).draw(rng)
        y = rng.normal(size=n)
        return Dataset(y=y, t=t, graph=g)

    def test_runs_and_restricts_focal_to_inference_half(self):
        ds = self._dataset()
        mapping = FractionThreshold(0.5, ">")
        rep = run_ss_test(ds, mapping, CompleteRandomization(80, 40),
                          "by_exposure", epsilon=0.3, b=100,
                          split_rng=np.random.default_rng(7),
                          rng=np.random.default_rng(8), keep_draws=True)
        assert rep.diagnostics["nuisance"]["provenance"] == "split_estimate"
        split = rep.diagnostics["split"]
        assert split["n_estimation"] + split["n_inference"] == 80
        # the observed focal selection must sit inside the inference half:
        # re-derive the split deterministically from the same seed
        exp = compute_exposures(mapping, ds.t, ds.graph)
        s = make_balanced_split(ds, exp, "by_exposure", np.random.default_rng(7))
        assert s.inf_mask.sum() == split["n_inference"]
        for key, idx in rep.diagnostics["observed_focal"].items():
            assert all(s.inf_mask[i] for i in idx)

    def test_split_determinism(self):
        ds = self._dataset()
        mapping = FractionThreshold(0.5, ">")
        args = dict(epsilon=0.3, b=60)
        reps = [run_ss_test(ds, mapping, CompleteRandomization(80, 40),
                            "by_exposure", split_rng=np.random.default_rng(7),
                            rng=np.random.default_rng(8), **args).to_dict()
                for _ in range(2)]
        assert reps[0] == reps[1]

    def test_small_cells_are_split_infeasible(self):
        # the inference half of a toy12 cell is short of units, which the
        # sampler reports before drawing, naming the cell
        ds = make_toy12()
        with pytest.raises(TooFewUnits, match=r"cell \(\d,\)"):
            run_ss_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                        "by_exposure", epsilon=TOY12_EPS, b=20,
                        split_rng=np.random.default_rng(0),
                        rng=np.random.default_rng(1))


class _CountingThreshold(FractionThreshold):
    """FractionThreshold that counts its one-vector evaluations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "calls", 0)  # the dataclass is frozen

    def compute(self, t, graph):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().compute(t, graph)


class TestObservedExposuresOncePerTest:
    """Each engine evaluates the observed exposures once and passes that
    ExposureVector down to the sampler; candidates go through
    compute_batch, which is not counted."""

    @pytest.mark.parametrize("technique", ["oracle", "plugin", "ci", "ss"])
    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_one_compute_call(self, technique, stat):
        mapping = _CountingThreshold(0.5, ">")
        rng = np.random.default_rng(0)
        if technique == "ss":
            # toy12's split is infeasible, so use the split engine's design
            ds = TestSsEngine()._dataset()
            run_ss_test(ds, mapping, CompleteRandomization(80, 40), "by_exposure",
                        epsilon=0.3, b=20, split_rng=np.random.default_rng(1),
                        rng=rng, stat=stat)
        else:
            ds, _, mech = toy12_engine_args()
            common = dict(epsilon=TOY12_EPS, b=20, rng=rng, stat=stat)
            if technique == "oracle":
                run_oracle_test(ds, mapping, mech, NullSpec.constant(0.0), **common)
            elif technique == "plugin":
                run_plugin_test(ds, mapping, mech, "by_exposure", **common)
            else:
                run_ci_test(ds, mapping, mech, "by_exposure",
                            ci=CIConfig(grid_size=3), **common)
        assert mapping.calls == 1


class TestNeymanInterval:
    def test_hand_computation(self):
        y = np.array([3.0, 5.0, 1.0, 2.0])
        t = np.array([1, 1, 0, 0])
        lo, hi, tau_hat = neyman_interval(y, t, 0.95)
        se = math.sqrt(2.0 / 2 + 0.5 / 2)
        z = NormalDist().inv_cdf(0.975)
        assert tau_hat == pytest.approx(2.5)
        assert lo == pytest.approx(2.5 - z * se)
        assert hi == pytest.approx(2.5 + z * se)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateInterval):
            neyman_interval(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0]), 0.95)
        with pytest.raises(DegenerateInterval):
            neyman_interval(np.array([2.0, 2.0, 1.0, 1.0]),
                            np.array([1, 1, 0, 0]), 0.95)


    def test_an_overflowing_variance_is_a_data_error(self):
        # every outcome is finite, but 1e200's squared deviation is not
        y, t = np.array([1e200, 0.0, 1.0, 2.0]), np.array([1, 1, 0, 0])
        with pytest.raises(DataError, match=r"variances overflow float64 \(se=inf\)"):
            neyman_interval(y, t, 0.95)


class TestCiEngine:
    def test_huge_outcome_is_a_data_error_naming_the_effect_key(self):
        ds = make_toy12()
        ds.y[5] = 1e200  # a unit of cell (1,)
        with pytest.raises(DataError, match=r"^effect key \(1,\): the arms' means or variances"):
            run_ci_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6), "by_exposure",
                        epsilon=TOY12_EPS, b=20, rng=np.random.default_rng(0))

    def test_degenerate_interval_names_the_effect_key(self):
        # constant outcomes over toy12's cell (1,) (units 4-9) give its
        # interval zero width, which check_feasible cannot see
        ds = make_toy12()
        y = ds.y.copy()
        y[4:10] = 1.5
        with pytest.raises(DegenerateInterval,
                           match=r"^effect key \(1,\): interval width is degenerate"):
            run_ci_test(replace(ds, y=y), TOY12_MAPPING, CompleteRandomization(12, 6),
                        "by_exposure", epsilon=TOY12_EPS, b=20, rng=np.random.default_rng(0))
        # make_ten's (0, "f") cell holds two treated units and one control,
        # which check_feasible rejects before any interval
        with pytest.raises(TooFewUnits, match=r"^cell \(0, 'f'\): the observed assignment "
                                              r"has 1/2 "):
            run_ci_test(make_ten(with_x=True), TEN_MAPPING, CompleteRandomization(10, 5),
                        "by_exposure_covariate", epsilon=0.1, b=20,
                        rng=np.random.default_rng(0))

    def test_pvalue_bookkeeping_multiple(self):
        ds, mapping, mech = toy12_engine_args()
        cfg = CIConfig(gamma=0.01, grid_size=8)
        rep = run_ci_test(ds, mapping, mech, "by_exposure", epsilon=TOY12_EPS,
                          b=120, rng=np.random.default_rng(4), ci=cfg)
        diag = rep.diagnostics["ci"]
        assert diag["grid_points_per_axis"] == 8
        assert not diag["grid_truncated"]
        for c in rep.cells:
            evals = diag["grid_evaluations"][f"{c.cell[0]}"]
            assert len(evals) == 8
            assert c.pvalue == pytest.approx(
                min(1.0, max(e[1] for e in evals) + cfg.gamma))
            lo, hi, _ = diag["intervals"][f"{c.cell[0]}"]
            assert evals[0][0] == pytest.approx(lo)
            assert evals[-1][0] == pytest.approx(hi)

    def test_pooled_axis_for_constant_family(self):
        ds, mapping, mech = toy12_engine_args()
        rep = run_ci_test(ds, mapping, mech, "constant_all", epsilon=TOY12_EPS,
                          b=100, rng=np.random.default_rng(5),
                          ci=CIConfig(gamma=0.01, grid_size=5))
        assert list(rep.diagnostics["ci"]["intervals"]) == [""]
        # both exposure cells are tested against the same pooled grid
        assert {c.cell for c in rep.cells} == {(0,), (1,)}

    def test_combined_mode_truncates_to_budget(self):
        ds, mapping, mech = toy12_engine_args()
        cfg = CIConfig(gamma=0.01, grid_size=25)
        rep = run_ci_test(ds, mapping, mech, "by_exposure", epsilon=TOY12_EPS,
                          b=80, rng=np.random.default_rng(6), stat="combined",
                          ci=cfg)
        diag = rep.diagnostics["ci"]
        assert diag["grid_truncated"]
        assert diag["grid_points_per_axis"] == 20
        evals = diag["grid_evaluations"]["combined"]
        assert len(evals) == 400
        assert rep.combined.pvalue == pytest.approx(
            min(1.0, max(e[1] for e in evals) + cfg.gamma))

    def _hxpi_instance(self):
        rng = np.random.default_rng(8)
        n = 400
        graph = generate_regular_graph(n, 5, rng)
        mapping = FractionThreshold(0.5, ">")
        mech = CompleteRandomization(n, n // 2)
        t = mech.draw(rng)
        y = rng.normal(size=n) + t * (1.0 + mapping.compute(t, graph))
        return Dataset(y=y, t=t, graph=graph, x=np.arange(n) % 2), mapping, mech

    def test_multiple_mode_scans_each_cells_full_axis(self):
        ds, mapping, mech = self._hxpi_instance()
        cfg = CIConfig(gamma=0.001, grid_size=20)
        rep = run_ci_test(ds, mapping, mech, "by_exposure_covariate",
                          epsilon=0.1, b=60, rng=np.random.default_rng(9),
                          ci=cfg)
        diag = rep.diagnostics["ci"]
        assert diag["grid_points_per_axis"] == 20
        assert not diag["grid_truncated"]
        assert len(rep.cells) == 4
        for c in rep.cells:
            evals = diag["grid_evaluations"][f"{c.cell[0]},{c.cell[1]}"]
            assert len(evals) == 20
            assert c.pvalue == min(1.0, max(e[1] for e in evals) + cfg.gamma)

    @pytest.mark.parametrize("stat", ["multiple", "combined"])
    def test_keep_draws_leaves_pvalues_unchanged(self, stat):
        ds, mapping, mech = toy12_engine_args()
        cfg = CIConfig(gamma=0.01, grid_size=6)
        reps = [run_ci_test(ds, mapping, mech, "by_exposure", epsilon=TOY12_EPS,
                            b=70, rng=np.random.default_rng(7), ci=cfg,
                            stat=stat, keep_draws=keep)
                for keep in (False, True)]
        plain, kept = reps
        assert ([c.pvalue for c in plain.cells] == [c.pvalue for c in kept.cells])
        assert (plain.diagnostics["ci"] == kept.diagnostics["ci"])
        if stat == "combined":
            assert plain.combined.pvalue == kept.combined.pvalue
        diag = kept.diagnostics
        for rows in diag["draw_treatments"].values():
            assert np.asarray(rows).shape == (70, 12)
        for c in kept.cells:
            obs = np.zeros(12, dtype=bool)
            obs[diag["observed_focal"][str(c.cell[0])]] = True
            assert obs.sum() == c.fobs_size
            # the kept statistics are those of the grid point behind the p-value
            stats = diag["draw_stats"][str(c.cell[0])]
            assert min(1.0, empirical_pvalue(c.observed_stat, stats)
                       + cfg.gamma) == c.pvalue

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            CIConfig(gamma=0.0)
        with pytest.raises(ValueError):
            CIConfig(grid_size=1)


def _perm_instance(y):
    """All but the last six units estimate the effect; the last six, three
    per arm, are the inference side of the one constant cell, which has
    6! = 720 within-cell permutations."""
    n = len(y)
    ds = Dataset(y=np.array(y), t=np.array([1, 0] * (n // 2)),
                 graph=build_graph(n, []))
    est = np.arange(n) < n - 6
    split = SplitResult(est_mask=est, inf_mask=~est, strata=[])
    return ds, CustomMapping(lambda i, t, gr: 0, (0,)), split


def _enumerated_pvalue(ds, split, tau):
    """p-value over every within-cell permutation of the inference side,
    each scored by the hand oracle on z = y + tau (t_new - t_obs)."""
    t = ds.t.tolist()
    idx = np.flatnonzero(split.inf_mask).tolist()
    observed = oracle_cell_stat(ds.y.tolist(), t, idx)
    hits = 0
    perms = list(itertools.permutations(range(len(idx))))
    for perm in perms:
        t_new = list(t)
        for j, k in enumerate(perm):
            t_new[idx[k]] = t[idx[j]]
        z = oracle_imputed(ds.y.tolist(), t, t_new, tau)
        hits += oracle_cell_stat(z, t_new, idx) >= observed
    return hits / len(perms)


# y and tau are integers and each observed arm's sum is a multiple of
# three, so the arm means, and with them the observed statistic and that
# of its mirror-image split, are exact in floating point
PERM_HALF_Y = [5.0, 3.0, 3.0, 3.0, -7.0, 2.0, -8.0, -5.0]  # tau_hat = 2


class TestPermutationVariant:
    def test_enumeration_half(self):
        # the observed arm split ranks fifth of the ten unordered splits,
        # so exactly half of the 720 permutations reach it
        ds, mapping, split = _perm_instance(PERM_HALF_Y)
        rep = run_permutation_variant(ds, mapping, "constant_all", split,
                                      b=None, rng=np.random.default_rng(0))
        assert rep.b == 720
        assert rep.cells[0].tau == 2.0
        assert _enumerated_pvalue(ds, split, 2.0) == 0.5
        assert rep.cells[0].pvalue == 0.5

    def test_enumeration_full(self):
        # equal observed arm variances give the smallest possible
        # statistic, 1, which every permutation reaches
        ds, mapping, split = _perm_instance([5.0, 3.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0])
        rep = run_permutation_variant(ds, mapping, "constant_all", split,
                                      b=None, rng=np.random.default_rng(0))
        assert rep.cells[0].observed_stat == 1.0
        assert _enumerated_pvalue(ds, split, rep.cells[0].tau) == 1.0
        assert rep.cells[0].pvalue == 1.0

    @pytest.mark.parametrize("y, hits", [
        ([0.9, 2.1, -3.2, 0.3, 1.3, 4.0, 4.0, -5.2, -1.7, 5.7, 0.5, 2.5], 576),
        ([1.6, 3.1, -0.6, -2.4, 1.0, 0.7, 3.3, -3.9, -2.0, -2.5, -5.2, 0.4], 360),
    ])
    def test_permutations_reproducing_or_swapping_the_observed_arms_tie(self, y, hits):
        # hits is the exact rational count; it includes the 36
        # permutations that reproduce the observed arms and, in the second
        # design, the 36 that swap them (tau_hat = 0.2, not exact in floats)
        ds, mapping, split = _perm_instance(y)
        rep = run_permutation_variant(ds, mapping, "constant_all", split,
                                      b=None, rng=np.random.default_rng(0))
        assert rep.b == 720
        assert rep.cells[0].pvalue == hits / 720

    def test_sampled_permutations(self):
        ds, mapping, split = _perm_instance(PERM_HALF_Y)
        rep = run_permutation_variant(ds, mapping, "constant_all", split,
                                      b=400, rng=np.random.default_rng(1),
                                      keep_draws=True)
        enum = run_permutation_variant(ds, mapping, "constant_all", split,
                                       b=None, rng=np.random.default_rng(0),
                                       keep_draws=True)
        assert rep.b == 400
        stats = np.asarray(rep.diagnostics["draw_stats"]["0"])
        # every sampled permutation is one of the enumerated ones
        assert set(stats.tolist()) <= set(enum.diagnostics["draw_stats"]["0"])
        assert rep.cells[0].pvalue == np.mean(stats >= rep.cells[0].observed_stat)

    def test_combined_single_cell_matches_multiple(self):
        ds, mapping, split = _perm_instance(PERM_HALF_Y)
        reps = [run_permutation_variant(ds, mapping, "constant_all", split,
                                        b=None, rng=np.random.default_rng(0),
                                        stat=stat)
                for stat in ("multiple", "combined")]
        assert reps[1].combined.weights == {(0,): 1.0}
        assert reps[1].combined.pvalue == reps[0].cells[0].pvalue == 0.5

    def test_enumeration_limit(self):
        g = build_graph(16, [])
        ds = Dataset(y=np.arange(16, dtype=float),
                     t=np.array([1, 0] * 8), graph=g)
        mapping = CustomMapping(lambda i, t, gr: 0, (0,))
        split = SplitResult(est_mask=np.array([True] * 8 + [False] * 8),
                            inf_mask=np.array([False] * 8 + [True] * 8),
                            strata=[])
        with pytest.raises(ValueError):
            run_permutation_variant(ds, mapping, "constant_all", split,
                                    b=None, rng=np.random.default_rng(0))

    def test_refusal_stops_before_any_large_factorial(self, monkeypatch):
        # 8! = 40320 alone passes the limit, so no larger factor is ever needed:
        # two 50-unit inference cells must not cost 50! each
        calls, factorial = [], math.factorial
        monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
        n = 200
        ds = Dataset(y=np.arange(n, dtype=float), t=np.arange(n) % 2,
                     graph=build_graph(n, []))
        mapping = CustomMapping(lambda i, t, gr: (i // 2) % 2, (0, 1))
        inf = np.arange(n) >= n // 2
        split = SplitResult(est_mask=~inf, inf_mask=inf, strata=[])
        with pytest.raises(ValueError, match=r"^more than 10000 permutations"):
            run_permutation_variant(ds, mapping, "by_exposure", split, b=None,
                                    rng=np.random.default_rng(0))
        assert max(calls, default=0) <= 8

    def test_thin_cell_rejected(self):
        ds, mapping, split = _perm_instance(PERM_HALF_Y)
        split.inf_mask[[2, 4]] = False  # leaves one treated inference unit
        with pytest.raises(TooFewUnits):
            run_permutation_variant(ds, mapping, "constant_all", split,
                                    b=10, rng=np.random.default_rng(0))


class TestReportSerialization:
    def test_json_safe_round_trip(self):
        import json
        ds, mapping, mech = toy12_engine_args()
        rep = run_oracle_test(ds, mapping, mech, NullSpec.constant(0.0),
                              epsilon=TOY12_EPS, b=50,
                              rng=np.random.default_rng(9), stat="combined",
                              keep_draws=True)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert json.loads(text)["combined"]["pvalue"] == rep.combined.pvalue

    def test_nonfinite_values_become_strings(self):
        ds, mapping, split = _perm_instance(PERM_HALF_Y)
        rep = run_permutation_variant(ds, mapping, "constant_all", split,
                                      b=5, rng=np.random.default_rng(0))
        d = rep.to_dict()
        assert d["epsilon"] == "nan"
