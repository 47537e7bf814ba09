"""End-to-end acceptance gate.

Each class pins one published behaviour of the library at full fidelity:
the calibration and power targets of the Monte Carlo harness, exact
agreement with brute-force enumeration on the small instances, the
ten-unit worked example, the fuzzed invariants, and the narrower-spread
diagnostic of the permutation variant.

The Monte Carlo classes run at their documented replication counts and
take a couple of minutes in total.  The power-trend class defaults to a
300-replication desk-scale run with a widened tolerance; set
NETRAND_ACCEPT_FULL=1 to run it at 1000 replications with the tight one.
"""
import csv
import math
import os
from collections import Counter

import numpy as np

import test_properties as props
from fixtures import (TEN_EDGES, TEN_MAPPING, TEN_PI_ALT, TEN_PI_OBS,
                      TEN_T_ALT, TEN_Y, TOY12_EDGES, TOY12_EPS,
                      TOY12_MAPPING, TOY12_PI_OBS, TOY12_T_OBS, TOY12_Y, LINE4_EDGES,
                      expand_record, make_line4, make_ten, make_toy12, neighbor_lists,
                      oracle_cell_stat, oracle_conditioning_set,
                      oracle_exposure, oracle_focal, oracle_imputed,
                      oracle_r)
from netrand.assignment import CompleteRandomization
from netrand.cli import main as cli_main
from netrand.conditioning import (ConditioningConfig, relative_frequency,
                                  sample_conditioning_set, superfocal_for_cell)
from netrand.data import Dataset
from netrand.exposure import compute_exposures
from netrand.inference import (make_balanced_split, prepare, run_ci_test,
                               run_oracle_test, run_permutation_variant,
                               run_plugin_test, run_ss_test)
from netrand.nullspec import BY_EXPOSURE, CONSTANT_ALL, NullSpec
from netrand.simulation import (ScenarioConfig, generate_regular_graph,
                                run_scenario, run_table)

FULL = os.environ.get("NETRAND_ACCEPT_FULL") == "1"

# 0.999 quantiles of the chi-square distribution, by degrees of freedom
CHI2_999 = {2: 13.816, 22: 48.26794229083518, 93: 140.8931342732306,
            105: 155.5276771810864, 115: 167.610, 203: 271.002}


def _se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _se_diff(p1: float, p2: float, n: int) -> float:
    return math.sqrt(p1 * (1.0 - p1) / n + p2 * (1.0 - p2) / n)


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _key(cell) -> str:
    return ",".join(str(v) for v in cell)


class TestNullSizePerExposure:
    """Size of the per-exposure tests under the constant-effect null.

    N=200 on 5-regular graphs, eps=0.20, 149 draws, normal noise, no
    effect heterogeneity, 1000 replications: both per-exposure rejection
    rates should sit at the 0.050 reference within 0.022 (three binomial
    standard errors), and the unadjusted any-rejection rate at 0.096
    within 0.03.  Driven through the command-line entry point.
    """

    def test_simulate_table_1_sizes(self, tmp_path, capsys):
        rc = cli_main(["simulate", "--table", "1", "--seed", "1",
                       "--reps", "1000", "--techniques", "oracle",
                       "--dgps", "normal", "--sigma-taus", "0.0",
                       "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        with open(tmp_path / "table_1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["technique"] == "oracle"
        assert int(row["reps_done"]) == 1000
        assert int(row["failures"]) == 0
        assert abs(float(row["reject_pi0"]) - 0.050) <= 0.022
        assert abs(float(row["reject_pi1"]) - 0.050) <= 0.022
        assert abs(float(row["fwer"]) - 0.096) <= 0.030


class TestNullSizeCombined:
    """Size of the weighted-combination statistic under the same design:
    rejection rate at the 0.048 reference within 0.022."""

    def test_table_2_combined_size(self):
        res = run_table("2", seed=1, reps=1000, techniques=("oracle",),
                        dgps=("normal",), sigma_taus=(0.0,))
        (row,) = res.rows
        assert row.reps_done == 1000
        assert row.failures == 0
        assert abs(row.combined_rate - 0.048) <= 0.022


class TestPowerTrend:
    """Power of the per-exposure test against growing effect
    heterogeneity.

    With noise-coupled heterogeneity scaled by sigma_tau in {0.5, 1.0,
    1.5, 2.0}, the exposure-0 rejection rates should reproduce (0.472,
    0.850, 0.962, 0.996) and be monotone nondecreasing within two
    standard errors of each pairwise difference.
    """

    def test_rates_track_references_and_increase(self):
        reps = 1000 if FULL else 300
        tol = 0.05 if FULL else 0.07
        references = (0.472, 0.850, 0.962, 0.996)
        res = run_table("1", seed=1, reps=reps, techniques=("oracle",),
                        dgps=("normal",), sigma_taus=(0.5, 1.0, 1.5, 2.0))
        assert [r.sigma_tau for r in res.rows] == [0.5, 1.0, 1.5, 2.0]
        rates = []
        for row, want in zip(res.rows, references):
            assert row.failures == 0
            rate = row.cell_rates["pi0"]
            assert abs(rate - want) <= tol, (row.sigma_tau, rate, want)
            rates.append(rate)
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 2.0 * _se_diff(lo, hi, reps)


class TestCiConservative:
    """The confidence-interval technique maximizes the p-value over a
    nuisance grid and adds gamma, so it can only over-cover: its null
    rejection rate must not exceed the known-effect rate by more than two
    standard errors of the difference, and every reported p-value must
    equal the recorded grid maximum plus gamma (clipped to one).
    """

    def test_size_not_above_known_effect_size(self):
        cfg = ScenarioConfig(family=CONSTANT_ALL, stat="multiple",
                             psi0=0.0, psi1=0.0, n_units=200,
                             epsilon=0.20, b=149)
        rows = run_scenario(cfg, seed=1, reps=400,
                            techniques=("oracle", "ci"))
        by_tech = {r.technique: r for r in rows}
        assert by_tech["oracle"].failures == 0
        assert by_tech["ci"].failures == 0
        for cell in ("pi0", "pi1"):
            p_ci = by_tech["ci"].cell_rates[cell]
            p_or = by_tech["oracle"].cell_rates[cell]
            assert p_ci <= p_or + 2.0 * _se_diff(p_ci, p_or, 400), cell

    @staticmethod
    def _sim_dataset(seed: int, n: int = 100):
        rng = np.random.default_rng(seed)
        graph = generate_regular_graph(n, 5, rng)
        mech = CompleteRandomization(n, n // 2)
        t = mech.draw(rng)
        y = rng.normal(size=n) + 0.5 * t
        return Dataset(y=y, t=t, graph=graph), mech

    @staticmethod
    def _assert_grid_bookkeeping(report):
        diag = report.diagnostics["ci"]
        gamma = diag["gamma"]
        evals = diag["grid_evaluations"]
        if report.stat_mode == "multiple":
            for c in report.cells:
                want = min(1.0, max(p for _, p in evals[_key(c.cell)]) + gamma)
                assert c.pvalue == want
        else:
            want = min(1.0, max(p for _, p in evals["combined"]) + gamma)
            assert report.combined.pvalue == want

    def test_every_pvalue_is_grid_max_plus_gamma(self):
        runs = [(s, BY_EXPOSURE, "multiple") for s in range(6)]
        runs += [(s, CONSTANT_ALL, "multiple") for s in (6, 7)]
        runs += [(s, BY_EXPOSURE, "combined") for s in (8, 9)]
        runs += [(s, CONSTANT_ALL, "combined") for s in (10, 11)]
        for seed, family, stat in runs:
            ds, mech = self._sim_dataset(seed)
            report = run_ci_test(ds, TEN_MAPPING, mech, family,
                                 epsilon=0.2, b=99,
                                 rng=np.random.default_rng(1000 + seed),
                                 stat=stat)
            self._assert_grid_bookkeeping(report)


class TestSplitSizeConvergence:
    """Sample-splitting size under log-normal noise shrinks toward the
    nominal 0.05 as the sample grows: across N in {200, 400, 800} the
    combined-statistic rejection rate is nonincreasing within two
    standard errors of each difference, and the largest design sits at or
    below 0.05 plus two binomial standard errors.
    """

    def test_size_drops_toward_nominal(self):
        reps = 500
        res = run_table("fig2", seed=1, reps=reps)
        assert [r.n_units for r in res.rows] == [200, 400, 800]
        for row in res.rows:
            assert row.technique == "ss"
            assert row.dgp == "lognormal"
        rates = [r.combined_rate for r in res.rows]
        for lo, hi in zip(rates, rates[1:]):
            assert hi <= lo + 2.0 * _se_diff(lo, hi, reps)
        assert rates[-1] <= 0.05 + 2.0 * _se(0.05, reps)


class TestNullSizeExposureCovariate:
    """Size of the per-(exposure, covariate) tests: N=400, eps=0.10, 199
    draws, no heterogeneity, 1000 replications.  All four cell rejection
    rates within 0.025 of their references and the unadjusted
    any-rejection rate at 0.173 within 0.04.
    """

    def test_table_5_cell_sizes(self):
        res = run_table("5", seed=1, reps=1000, techniques=("oracle",),
                        dgps=("normal",), sigma_taus=(0.0,))
        (row,) = res.rows
        assert row.reps_done == 1000
        assert row.failures == 0
        references = {"pi0_x0": 0.044, "pi1_x0": 0.052,
                      "pi0_x1": 0.044, "pi1_x1": 0.045}
        assert set(row.cell_rates) == set(references)
        for cell, want in references.items():
            assert abs(row.cell_rates[cell] - want) <= 0.025, cell
        assert abs(row.fwer - 0.173) <= 0.040


class TestWorkedExampleTenUnits:
    """The ten-unit walk-through: observed and counterfactual exposures,
    the symbolically imputable outcome column, and the frequency argument
    that excludes the alternative assignment from the exposure-0
    conditioning set."""

    TAU = 0.75

    def test_observed_and_alternative_exposures(self):
        ds = make_ten()
        got = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        assert tuple(int(v) for v in got.values) == TEN_PI_OBS
        alt = compute_exposures(TEN_MAPPING, np.array(TEN_T_ALT), ds.graph)
        assert tuple(int(v) for v in alt.values) == TEN_PI_ALT
        assert TEN_PI_ALT == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)

    def test_imputed_column_under_alternative_assignment(self):
        # the scorer imputes y + tau (t_new - t_obs) on the focal units of
        # each cell; the other units leave the observed science table
        ds = make_ten()
        imputed = oracle_imputed(ds.y, ds.t, TEN_T_ALT, self.TAU)
        focal = {i for v in (0, 1)
                 for i in oracle_focal(TEN_T_ALT, TEN_PI_ALT, TEN_PI_OBS, v)}
        got = [imputed[i] if i in focal else None for i in range(10)]
        want = [TEN_Y[0] + self.TAU, None, TEN_Y[2] + self.TAU, None, None,
                TEN_Y[5] - self.TAU, None, None, None, TEN_Y[9]]
        assert got == want

    def test_alternative_assignment_outside_exposure0_set(self):
        # every exposure-0 unit that keeps its exposure ends up untreated,
        # so the treated-arm frequency is exactly zero and no eps > 0 can
        # admit the vector
        t_alt = np.array(TEN_T_ALT)
        pi_alt = np.array(TEN_PI_ALT)
        sf0 = superfocal_for_cell(np.array(TEN_PI_OBS), (0,), None)
        assert relative_frequency(t_alt, pi_alt, sf0, arm=1) == 0.0
        assert oracle_r(TEN_T_ALT, TEN_PI_ALT, TEN_PI_OBS, 1, 0) == 0.0
        nbrs = neighbor_lists(10, TEN_EDGES)
        accepted = oracle_conditioning_set(10, 5, nbrs, TEN_PI_OBS, 0.1,
                                           [(0,)])
        assert TEN_T_ALT not in set(accepted)


class TestEnumerationEquivalence:
    """On instances small enough to enumerate every assignment vector,
    the rejection sampler and the full test must agree with brute force:
    identical support, per-draw focal sets and statistics reproducible by
    the hand oracles, sampled p-values within binomial error of the exact
    ones, and draw frequencies uniform over the enumerated set.
    """

    def test_twelve_unit_engine_matches_enumeration(self):
        ds = make_toy12()
        mech = CompleteRandomization(12, 6)
        nbrs = neighbor_lists(12, TOY12_EDGES)
        exact = {}
        for cell in ((0,), (1,)):
            exact[cell] = oracle_conditioning_set(
                12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS, [cell], comparator=">")
        assert len(exact[(0,)]) == 94
        assert len(exact[(1,)]) == 106

        b = 2000
        null = NullSpec.per_exposure({0: 0.0, 1: 0.0})
        report = run_oracle_test(ds, TOY12_MAPPING, mech, null,
                                 epsilon=TOY12_EPS, b=b,
                                 rng=np.random.default_rng(2024),
                                 keep_draws=True)
        for result in report.cells:
            cell = result.cell
            kept = np.asarray(report.diagnostics["draw_treatments"][_key(cell)],
                              dtype=int)
            stats = report.diagnostics["draw_stats"][_key(cell)]
            assert kept.shape == (b, 12)

            # support identical to the enumerated conditioning set
            sampled = [tuple(row) for row in kept]
            assert set(sampled) == set(exact[cell])

            # every per-draw statistic reproducible from scratch: recompute
            # the exposures, the focal set, and the variance ratio in pure
            # python (the null effect is zero, so outcomes need no shift)
            for t_new, stat in zip(sampled, stats):
                pi_new = oracle_exposure(t_new, nbrs, comparator=">")
                focal = oracle_focal(t_new, pi_new, TOY12_PI_OBS, cell[0])
                assert _close(stat, oracle_cell_stat(TOY12_Y, t_new, focal))

            # sampled p-value within four binomial standard errors of the
            # p-value over the full enumerated set; the reference compares
            # the oracle's statistics with the oracle's observed one, so its
            # ties are decided by one arithmetic path
            obs = oracle_cell_stat(TOY12_Y, TOY12_T_OBS,
                                   report.diagnostics["observed_focal"][_key(cell)])
            assert _close(result.observed_stat, obs)
            exact_stats = []
            for t_new in exact[cell]:
                pi_new = oracle_exposure(t_new, nbrs, comparator=">")
                focal = oracle_focal(t_new, pi_new, TOY12_PI_OBS, cell[0])
                exact_stats.append(oracle_cell_stat(TOY12_Y, t_new, focal))
            p_exact = sum(s >= obs for s in exact_stats) / len(exact_stats)
            tol = 4.0 * max(_se(p_exact, b), 1.0 / b)
            assert abs(result.pvalue - p_exact) <= tol

            # draw frequencies consistent with the uniform distribution on
            # the enumerated set (chi-square below its 0.999 quantile)
            freq = Counter(sampled)
            expected = b / len(exact[cell])
            chisq = sum((freq.get(t, 0) - expected) ** 2 / expected
                        for t in exact[cell])
            assert chisq < CHI2_999[len(exact[cell]) - 1]

    def test_twelve_unit_draws_are_uniform_on_the_scored_set(self):
        # at eps=0.1 one kept unit clears an arm's inequality, so each cell's
        # set holds hundreds of vectors; two focal units per arm leave the
        # eps=0.21 sets, and the observed vector is among them
        ds = make_toy12()
        nbrs = neighbor_lists(12, TOY12_EDGES)
        for stat, groups in (("multiple", [[(0,)], [(1,)]]), ("combined", [[(0,), (1,)]])):
            b = 2000
            report = run_oracle_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                                     NullSpec.constant(0.0), epsilon=0.1, b=b, stat=stat,
                                     rng=np.random.default_rng(2024), keep_draws=True)
            kept = report.diagnostics["draw_treatments"]
            for key, cells in zip(kept, groups):
                exact = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, 0.1, cells,
                                                comparator=">", min_per_arm=2)
                loose = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, 0.1, cells,
                                                comparator=">")
                assert TOY12_T_OBS in exact and len(exact) < len(loose)
                sampled = [tuple(int(v) for v in row) for row in kept[key]]
                assert set(sampled) == set(exact)
                freq = Counter(sampled)
                expected = b / len(exact)
                chisq = sum((freq.get(t, 0) - expected) ** 2 / expected for t in exact)
                assert chisq < CHI2_999[len(exact) - 1]

    @staticmethod
    def _exact_pvalue(exact, cell, tau, fobs):
        """The enumerated fraction of vectors whose statistic at tau, over
        their own focal units, reaches the observed one over fobs."""
        nbrs = neighbor_lists(12, TOY12_EDGES)
        obs = oracle_cell_stat(TOY12_Y, TOY12_T_OBS, fobs)
        hits = 0
        for t_new in exact:
            focal = oracle_focal(t_new, oracle_exposure(t_new, nbrs, comparator=">"),
                                 TOY12_PI_OBS, cell[0])
            z = oracle_imputed(TOY12_Y, TOY12_T_OBS, t_new, tau)
            hits += oracle_cell_stat(z, t_new, focal) >= obs
        return hits / len(exact)

    def test_twelve_unit_plugin_and_ci_match_enumeration(self):
        # each p-value within four binomial standard errors of the exact
        # one at the report's tau: plug-in at its estimate, the CI at every
        # grid point, and its reported p-value at the grid maximum plus gamma
        ds = make_toy12()
        nbrs = neighbor_lists(12, TOY12_EDGES)
        b = 2000
        common = dict(epsilon=TOY12_EPS, b=b, rng=np.random.default_rng(7), keep_draws=True)
        plugin = run_plugin_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                                 BY_EXPOSURE, **common)
        common["rng"] = np.random.default_rng(8)
        ci = run_ci_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6), BY_EXPOSURE,
                         **common)
        gamma = ci.diagnostics["ci"]["gamma"]
        for plug, res in zip(plugin.cells, ci.cells):
            cell = plug.cell
            exact = oracle_conditioning_set(12, 6, nbrs, TOY12_PI_OBS, TOY12_EPS, [cell],
                                            comparator=">", min_per_arm=2)
            fobs = plugin.diagnostics["observed_focal"][_key(cell)]
            p_exact = self._exact_pvalue(exact, cell, plug.tau, fobs)
            assert abs(plug.pvalue - p_exact) <= 4.0 * max(_se(p_exact, b), 1.0 / b)
            fobs = ci.diagnostics["observed_focal"][_key(cell)]
            grid = [(p, self._exact_pvalue(exact, cell, tau, fobs))
                    for tau, p in ci.diagnostics["ci"]["grid_evaluations"][_key(cell)]]
            for p, p_exact in grid:
                assert abs(p - p_exact) <= 4.0 * max(_se(p_exact, b), 1.0 / b)
            p_sup = min(1.0, max(q for _, q in grid) + gamma)
            assert abs(res.pvalue - p_sup) <= 4.0 * max(_se(p_sup, b), 1.0 / b)

    def test_four_unit_sampler_support(self):
        t_obs = (1, 1, 0, 0)
        ds = make_line4(t=t_obs)
        design = prepare(ds, TEN_MAPPING, "by_exposure")
        nbrs = neighbor_lists(4, LINE4_EDGES)
        pi_obs = tuple(int(v) for v in design.exposures.values)
        exact = oracle_conditioning_set(4, 2, nbrs, pi_obs, 0.3, [(1,)])
        assert set(exact) == {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)}
        cfg = ConditioningConfig(epsilon=0.3, cells=((1,),))
        (draws,), _ = sample_conditioning_set(
            CompleteRandomization(4, 2), ds, design, cfg, 300, np.random.default_rng(5))
        support = {tuple(int(v) for v in row) for row in draws.t}
        assert support == set(exact)

    def test_ten_unit_sampler_matches_enumeration(self):
        ds = make_ten()
        design = prepare(ds, TEN_MAPPING, "by_exposure")
        nbrs = neighbor_lists(10, TEN_EDGES)
        mech = CompleteRandomization(10, 5)
        for cell, size in (((0,), 116), ((1,), 204)):
            exact = oracle_conditioning_set(10, 5, nbrs, TEN_PI_OBS, 0.1,
                                            [cell])
            assert len(exact) == size
            cfg = ConditioningConfig(epsilon=0.1, cells=(cell,))
            (draws,), _ = sample_conditioning_set(
                mech, ds, design, cfg, 4000,
                np.random.default_rng(11))
            sampled = [tuple(int(v) for v in row) for row in draws.t]
            assert set(sampled) == set(exact)
            # per-draw focal sets equal the hand computation
            for focal, t_new in zip(expand_record(draws)[0], sampled):
                pi_new = oracle_exposure(t_new, nbrs)
                want = oracle_focal(t_new, pi_new, TEN_PI_OBS, cell[0])
                assert tuple(np.flatnonzero(focal)) == want


class TestFuzzedInvariants:
    """Re-run the randomized invariant checks as part of the gate: the
    statistic's symmetries, the p-value range, imputation only on units
    that keep their exposure, equal effects testing as the constant null,
    focal-set containment, acceptance of the observed vector below its
    own frequencies, and seed determinism of the sampler."""

    def test_statistic_symmetries(self):
        props.test_ratio_is_orientation_free_and_at_least_one()
        props.test_statistic_scale_invariance()
        props.test_statistic_per_arm_shift_invariance()
        props.test_arm_relabeling_leaves_statistic_unchanged()

    def test_pvalue_range(self):
        props.test_pvalue_stays_in_unit_interval()

    def test_imputation_algebra(self):
        props.test_exposure_change_never_imputes()
        props.test_equal_per_exposure_effects_match_the_constant_null()

    def test_frequencies_and_focal_sets_match_oracles(self):
        props.test_relative_frequency_and_focal_match_oracles()

    def test_focal_subset_of_superfocal(self):
        ds = make_ten()
        design = prepare(ds, TEN_MAPPING, "by_exposure")
        cfg = ConditioningConfig(epsilon=0.1, cells=((0,),))
        (draws,), _ = sample_conditioning_set(
            CompleteRandomization(10, 5), ds, design, cfg, 50, np.random.default_rng(3))
        sf = superfocal_for_cell(np.array(TEN_PI_OBS), (0,), None)
        for focal in expand_record(draws)[0]:
            assert not np.any(focal & ~sf.indicator)

    def test_identity_acceptance_and_seed_determinism(self):
        props.test_identity_vector_accepted_exactly_below_its_own_frequencies()
        props.test_sampler_is_seed_deterministic()


class TestPermutationSpreadDiagnostic:
    """Permuting outcomes within fixed cells removes the variability the
    randomization null carries through re-randomized exposures, so at a
    common draw count the permutation-null statistics must show no more
    empirical variance than the randomization-null statistics."""

    def test_permutation_null_narrower(self):
        n, b = 200, 5000
        graph = generate_regular_graph(n, 5, np.random.default_rng(0))
        rng = np.random.default_rng(100)
        mech = CompleteRandomization(n, n // 2)
        t = mech.draw(rng)
        y = rng.normal(size=n)
        ds = Dataset(y=y, t=t, graph=graph)

        rand = run_ss_test(ds, TEN_MAPPING, mech, BY_EXPOSURE,
                           epsilon=0.25, b=b,
                           split_rng=np.random.default_rng(7),
                           rng=np.random.default_rng(8), keep_draws=True)
        exposures = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        split = make_balanced_split(ds, exposures, BY_EXPOSURE,
                                    np.random.default_rng(7))
        perm = run_permutation_variant(ds, TEN_MAPPING, BY_EXPOSURE, split,
                                       b, np.random.default_rng(9),
                                       keep_draws=True)
        assert perm.b == b
        for cell in ((0,), (1,)):
            s_rand = np.asarray(rand.diagnostics["draw_stats"][_key(cell)])
            s_perm = np.asarray(perm.diagnostics["draw_stats"][_key(cell)])
            assert s_rand.shape == s_perm.shape == (b,)
            assert np.all(np.isfinite(s_rand))
            assert np.all(np.isfinite(s_perm))
            assert s_perm.var() <= s_rand.var(), cell
