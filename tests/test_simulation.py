"""Test the Monte Carlo harness: graphs, outcome model, scenario runner."""
import csv

import numpy as np
import pytest

from netrand.data import Dataset
from netrand.errors import InfeasibleCounts
from netrand.exposure import FractionThreshold
from netrand.nullspec import NullSpec
from netrand.simulation import (_TABLES, ScenarioConfig, TableResult, TableRow,
                                _oracle_null, generate_potential_outcomes,
                                generate_regular_graph, run_scenario,
                                run_table)


class TestRegularGraph:
    def test_exact_degrees(self):
        for n, d in [(20, 3), (30, 4), (50, 5)]:
            g = generate_regular_graph(n, d, np.random.default_rng(0))
            assert g.degrees.tolist() == [d] * n
            assert len(g.edges) == n * d // 2

    def test_no_self_loops_or_duplicates(self):
        g = generate_regular_graph(40, 5, np.random.default_rng(1))
        assert all(a != b for a, b in g.edges)
        assert len(set(g.edges)) == len(g.edges)

    def test_determinism(self):
        a = generate_regular_graph(30, 3, np.random.default_rng(7))
        b = generate_regular_graph(30, 3, np.random.default_rng(7))
        assert a.edges == b.edges

    def test_draws_vary_with_seed(self):
        a = generate_regular_graph(30, 3, np.random.default_rng(0))
        b = generate_regular_graph(30, 3, np.random.default_rng(1))
        assert a.edges != b.edges

    def test_odd_stub_count_rejected(self):
        with pytest.raises(InfeasibleCounts):
            generate_regular_graph(51, 5, np.random.default_rng(0))

    def test_degree_bounds(self):
        with pytest.raises(InfeasibleCounts):
            generate_regular_graph(4, 4, np.random.default_rng(0))
        g = generate_regular_graph(6, 0, np.random.default_rng(0))
        assert len(g.edges) == 0


class TestOutcomeModel:
    # moment tolerances: SE of a mean of n standardized draws is 1/sqrt(n);
    # SE of a sample variance is roughly sqrt((kurtosis+2)/n)
    N = 200_000

    @pytest.mark.parametrize("dgp", ["normal", "lognormal"])
    def test_control_outcomes_are_unit_noise_around_exposure(self, dgp):
        rng = np.random.default_rng(5)
        pi = rng.integers(0, 2, size=self.N)
        t = np.zeros(self.N)
        x = np.zeros(self.N)
        y = generate_potential_outcomes(pi, t, x, sigma_tau=0.0, psi0=0.0,
                                        psi1=0.0, dgp=dgp, rng=np.random.default_rng(6))
        noise = y - pi
        assert abs(noise.mean()) < 5 / np.sqrt(self.N)
        # lognormal excess kurtosis is large; allow a loose variance band
        assert abs(noise.var() - 1.0) < 0.1

    def test_lognormal_noise_is_right_skewed(self):
        y = generate_potential_outcomes(np.zeros(self.N), np.zeros(self.N),
                                        np.zeros(self.N), sigma_tau=0.0,
                                        psi0=0.0, psi1=0.0, dgp="lognormal",
                                        rng=np.random.default_rng(7))
        skew = np.mean((y - y.mean()) ** 3) / y.std() ** 3
        assert skew > 1.0

    def test_unknown_dgp(self):
        with pytest.raises(ValueError):
            generate_potential_outcomes(np.zeros(4), np.zeros(4), np.zeros(4),
                                        sigma_tau=0.0, psi0=0.0, psi1=0.0,
                                        dgp="cauchy", rng=np.random.default_rng(0))

    def test_effect_equals_systematic_part_when_sigma_zero(self):
        # same rng seed twice isolates the treatment effect exactly
        pi = np.array([0, 1, 0, 1, 1, 0])
        x = np.array([0, 1, 1, 0, 1, 0])
        kw = dict(sigma_tau=0.0, psi0=0.7, psi1=-0.3, dgp="normal")
        y_ctrl = generate_potential_outcomes(pi, np.zeros(6), x,
                                             rng=np.random.default_rng(9), **kw)
        y_trt = generate_potential_outcomes(pi, np.ones(6), x,
                                            rng=np.random.default_rng(9), **kw)
        assert np.allclose(y_trt - y_ctrl, 1.0 + 0.7 * pi - 0.3 * x)

    def test_sigma_tau_couples_effect_to_control_outcome(self):
        pi = np.zeros(6)
        x = np.zeros(6)
        kw = dict(psi0=0.0, psi1=0.0, dgp="normal")
        y0 = generate_potential_outcomes(pi, np.zeros(6), x, sigma_tau=0.0,
                                         rng=np.random.default_rng(3), **kw)
        y1 = generate_potential_outcomes(pi, np.ones(6), x, sigma_tau=2.0,
                                         rng=np.random.default_rng(3), **kw)
        assert np.allclose(y1 - y0, 1.0 + 2.0 * y0)


class TestOracleNull:
    @staticmethod
    def _by_hand(family, psi0, psi1):
        # each family's effect values written out over exposures {0, 1}
        # and covariate levels {0, 1}
        if family == "constant_all":
            return NullSpec.constant(1.0)
        if family == "by_exposure":
            return NullSpec.per_exposure({v: 1.0 + psi0 * v for v in (0, 1)})
        return NullSpec.per_cell({(v, l): 1.0 + psi0 * v + psi1 * l
                                  for v in (0, 1) for l in (0, 1)})

    @pytest.mark.parametrize("table", ["1", "2", "3", "4", "5", "6"])
    def test_matches_the_model_effects_of_each_table(self, table):
        # the cells come from the replication's mapping and covariate
        cfg = _TABLES[table]
        n = cfg["n_units"]
        ds = Dataset(y=np.zeros(n), t=np.arange(n) % 2,
                     graph=generate_regular_graph(n, 5, np.random.default_rng(0)),
                     x=np.arange(n) % 2)
        got = _oracle_null(cfg["family"], cfg["psi0"], cfg["psi1"],
                           FractionThreshold(0.5, ">").values, ds.x_levels)
        assert got == self._by_hand(cfg["family"], cfg["psi0"], cfg["psi1"])


class TestScenarioRunner:
    CFG = dict(family="constant_all", stat="combined", psi0=0.0, psi1=0.0,
               n_units=100, epsilon=0.1, b=19, degree=3)

    def test_seed_determinism(self):
        cfg = ScenarioConfig(**self.CFG)
        a = run_scenario(cfg, seed=11, reps=4, techniques=("oracle",))
        b = run_scenario(cfg, seed=11, reps=4, techniques=("oracle",))
        assert a == b

    def test_rows_independent_of_technique_set(self):
        # stream slots are fixed, so adding a technique must not move
        # the draws used by another one
        cfg = ScenarioConfig(**self.CFG)
        alone = run_scenario(cfg, seed=11, reps=4, techniques=("oracle",))
        both = run_scenario(cfg, seed=11, reps=4,
                            techniques=("oracle", "plugin"))
        assert alone[0] == [r for r in both if r.technique == "oracle"][0]

    def test_multiple_mode_row_shape(self):
        cfg = ScenarioConfig(family="by_exposure", stat="multiple", psi0=1.0,
                             psi1=0.0, n_units=100, epsilon=0.1, b=19, degree=3)
        rows = run_scenario(cfg, seed=11, reps=4, techniques=("ss",))
        (row,) = rows
        assert row.reps_done + row.failures == 4
        assert set(row.cell_rates) == {"pi0", "pi1"}
        assert row.fwer is not None and row.combined_rate is None

    def test_combined_mode_row_shape(self):
        cfg = ScenarioConfig(**self.CFG)
        (row,) = run_scenario(cfg, seed=11, reps=4, techniques=("oracle",))
        assert row.combined_rate is not None and row.fwer is None
        assert row.cell_rates == {}


class TestTableResult:
    def _result(self):
        rows = [
            TableRow("oracle", "normal", 0.0, 200, 100, 0,
                     {"pi0": 0.05, "pi1": 0.06}, 0.09, None),
            TableRow("ss", "lognormal", 1.0, 200, 98, 2, {}, None, 0.44),
        ]
        return TableResult(table="1", seed=3, reps=100, rows=rows)

    def test_to_records(self):
        recs = self._result().to_records()
        assert recs[0]["reject_pi0"] == 0.05
        assert recs[0]["fwer"] == 0.09
        assert "reject_combined" not in recs[0]
        assert recs[1]["reject_combined"] == 0.44
        assert recs[1]["failures"] == 2

    def test_write_csv_round_trip(self, tmp_path):
        path = tmp_path / "rates.csv"
        self._result().write_csv(path)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert got[0]["technique"] == "oracle"
        assert float(got[0]["reject_pi1"]) == 0.06
        assert got[1]["reject_pi0"] == ""

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            run_table("7", seed=0, reps=1)


class TestRunTable:
    def test_small_table_run_shape(self):
        res = run_table("2", seed=5, reps=2, techniques=("oracle",),
                        dgps=("normal",), sigma_taus=(0.0, 1.0),
                        n_units=100, epsilon=0.1, b=19, degree=3)
        assert res.table == "2"
        assert [r.sigma_tau for r in res.rows] == [0.0, 1.0]
        assert all(r.technique == "oracle" for r in res.rows)

    def test_fig2_uses_ss_per_size(self):
        res = run_table("fig2", seed=5, reps=2, epsilon=0.1, b=19, degree=3,
                        fig2_sizes=(100, 120))
        assert [r.n_units for r in res.rows] == [100, 120]
        assert all(r.technique == "ss" for r in res.rows)
        assert all(r.dgp == "lognormal" for r in res.rows)

    def test_workers_match_serial(self):
        cfg = ScenarioConfig(family="constant_all", stat="combined", psi0=0.0,
                             psi1=0.0, n_units=100, epsilon=0.1, b=19, degree=3)
        serial = run_scenario(cfg, seed=13, reps=6, techniques=("oracle",))
        parallel = run_scenario(cfg, seed=13, reps=6, techniques=("oracle",),
                                workers=2)
        assert serial == parallel


def test_mapping_used_by_tables_is_majority_threshold():
    m = FractionThreshold(threshold=0.5, comparator=">")
    assert m.values == (0, 1)
