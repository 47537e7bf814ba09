"""Variance-ratio statistics: conventions, combination weights, the batch
kernel, and the scalar reference path it is checked against."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fixtures import (TEN_PI_OBS, TEN_T_OBS, TEN_Y, TOY12_EPS, TOY12_MAPPING,
                      imputed_stats, make_ten, make_toy12, oracle_cell_stat, oracle_var)
from netrand.assignment import CompleteRandomization
from netrand.conditioning import cell_mask
from netrand.errors import DataError, TooFewUnits
from netrand import stats as stats_module
from netrand.inference import run_oracle_test
from netrand.nullspec import NullSpec
from netrand.stats import (arm_rhs, combined_stat, conditional_variance,
                           masked_arm_variances, ratio_stat_rows,
                           ts_per_exposure, variance_ratio)


class TestConditionalVariance:
    def test_hand_values(self):
        y = np.array([1.0, 2.0, 3.0, 10.0, 30.0, 50.0])
        t = np.array([1, 1, 1, 0, 0, 0])
        focal = np.ones(6, dtype=bool)
        assert conditional_variance(y, t, focal, 1) == pytest.approx(1.0)
        assert conditional_variance(y, t, focal, 0) == pytest.approx(400.0)

    def test_focal_restriction(self):
        y = np.array([1.0, 2.0, 3.0, 100.0])
        t = np.array([1, 1, 1, 1])
        focal = np.array([True, True, True, False])
        assert conditional_variance(y, t, focal, 1) == pytest.approx(1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=9)
        t = np.array([1, 0] * 4 + [1])
        focal = rng.random(9) < 0.8
        focal[:4] = True  # keep both arms populated
        got = conditional_variance(y, t, focal, 1)
        want = oracle_var([y[i] for i in range(9) if focal[i] and t[i] == 1])
        assert got == pytest.approx(want)

    def test_too_few_units(self):
        y = np.array([1.0, 2.0, 3.0])
        t = np.array([1, 0, 0])
        with pytest.raises(TooFewUnits):
            conditional_variance(y, t, np.ones(3, dtype=bool), 1)


class TestVarianceRatio:
    def test_orientation_free(self):
        assert variance_ratio(1.0, 400.0) == pytest.approx(400.0)
        assert variance_ratio(400.0, 1.0) == pytest.approx(400.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v1, v0 = rng.uniform(0.01, 10.0, size=2)
            assert variance_ratio(v1, v0) >= 1.0

    def test_zero_conventions(self):
        assert variance_ratio(0.0, 0.0) == 1.0
        assert variance_ratio(0.0, 2.0) == math.inf
        assert variance_ratio(2.0, 0.0) == math.inf


class TestPerExposure:
    def test_worked_example(self):
        y = np.array([1.0, 2.0, 3.0, 10.0, 30.0, 50.0])
        t = np.array([1, 1, 1, 0, 0, 0])
        s = ts_per_exposure(y, t, np.ones(6, dtype=bool), cell=(0,))
        assert s.value == pytest.approx(400.0)
        assert s.n_treated_used == 3 and s.n_control_used == 3

    def test_fixture_cell_one_whole_superfocal(self):
        # treating the whole super-focal set of exposure cell 1 as focal:
        # treated outcomes {y7, y8}, control {y0, y2, y6} (0-indexed)
        ds = make_ten()
        focal = np.array(TEN_PI_OBS) == 1
        s = ts_per_exposure(ds.y, ds.t, focal, cell=(1,))
        v1 = oracle_var([TEN_Y[7], TEN_Y[8]])
        v0 = oracle_var([TEN_Y[0], TEN_Y[2], TEN_Y[6]])
        assert s.value == pytest.approx(max(v1 / v0, v0 / v1))
        assert s.value == pytest.approx(oracle_cell_stat(
            TEN_Y, TEN_T_OBS, [0, 2, 6, 7, 8]))


def batch_stat(y, t, focal):
    """One draw through the engine's batch kernel: (statistic, n1, n0)."""
    t = np.asarray(t)
    focal = np.asarray(focal, dtype=bool)
    stat = imputed_stats(np.asarray(y, dtype=np.float64), t, t[:, None],
                          focal[:, None], [0.0])[0, 0]
    return stat, int((focal & (t == 1)).sum()), int((focal & (t == 0)).sum())


class TestPerCell:
    """An (exposure, covariate) cell restricts the focal units to its
    covariate level; the batch kernel then scores them as any cell."""

    def test_fixture_covariate_restriction(self):
        ds = make_ten(with_x=True)
        # with all units focal, cell (0, "f") keeps the five x=f units
        # {3, 4, 6, 8, 9}: treated {3, 4, 8}, control {6, 9}
        value, n1, n0 = batch_stat(ds.y, ds.t, ds.x == "f")
        v1 = oracle_var([TEN_Y[3], TEN_Y[4], TEN_Y[8]])
        v0 = oracle_var([TEN_Y[6], TEN_Y[9]])
        assert value == pytest.approx(max(v1 / v0, v0 / v1))
        assert n1 == 3 and n0 == 2

    def test_three_unit_cell_cannot_fill_both_arms(self):
        ds = make_ten(with_x=True)
        # cell (0, "f") restricted to super-focal units is {3, 4, 9}
        focal = cell_mask(np.array(TEN_PI_OBS), (0, "f"), ds.x)
        assert np.flatnonzero(focal).tolist() == [3, 4, 9]
        with pytest.raises(TooFewUnits):
            batch_stat(ds.y, ds.t, focal)

    def test_matches_restricted_per_exposure(self):
        ds = make_ten(with_x=True)
        focal = np.ones(10, dtype=bool)
        t = np.array([1, 0, 1, 1, 0, 0, 1, 1, 0, 0])
        for cell in ((0, "m"), (1, "f")):
            mask = focal & (ds.x == cell[1])
            try:
                want = ts_per_exposure(ds.y, t, mask).value
            except TooFewUnits:
                with pytest.raises(TooFewUnits):
                    batch_stat(ds.y, t, mask)
                continue
            assert batch_stat(ds.y, t, mask)[0] == pytest.approx(want)

    def test_cell_shape_checked(self):
        ds = make_ten(with_x=True)
        with pytest.raises(ValueError):
            cell_mask(np.array(TEN_PI_OBS), (0, "f"), None)
        assert (cell_mask(np.array(TEN_PI_OBS), (0,), ds.x)
                == (np.array(TEN_PI_OBS) == 0)).all()


class TestCombination:
    def test_weighted_mean(self):
        assert combined_stat([0.5, 0.5], [2.0, 4.0]) == pytest.approx(3.0)
        got = combined_stat([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0])
        assert got == pytest.approx(0.1 + 0.4 + 0.9 + 1.6)

    def test_accepts_statistic_objects(self):
        # per-cell statistic rows from the batch kernel combine row-wise
        y, t = np.array([1.0, 2.0, 5.0, 9.0]), np.array([1, 1, 0, 0])
        parts = [np.array([batch_stat(y, t, np.ones(4, dtype=bool))[0]] * 3)
                 for _ in (0, 1)]
        assert parts[0][0] == pytest.approx(
            ts_per_exposure(y, t, np.ones(4, dtype=bool)).value)
        got = combined_stat([0.5, 0.5], parts)
        assert got.shape == (3,)
        assert got == pytest.approx(parts[0])

    def test_weights_must_sum_to_one(self):
        # the engine weighs each cell by its share of the observed units
        ds = make_toy12()
        rep = run_oracle_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                              NullSpec.per_exposure({0: 0.0, 1: 0.0}),
                              epsilon=TOY12_EPS, b=20, stat="combined",
                              rng=np.random.default_rng(0))
        w = rep.combined.weights
        assert w == {(0,): 0.5, (1,): 0.5}
        assert all(v >= 0 for v in w.values()) and sum(w.values()) == 1.0
        assert rep.combined.observed_stat == combined_stat(
            list(w.values()), [c.observed_stat for c in rep.cells])

    def test_infinite_cell_with_positive_weight_dominates(self):
        assert combined_stat([0.5, 0.5], [math.inf, 1.0]) == math.inf
        rows = combined_stat([0.5, 0.5], [np.array([math.inf, 2.0]),
                                          np.array([1.0, 4.0])])
        assert rows.tolist() == [math.inf, 3.0]


class TestBatchPath:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=12)
        t_mat = np.stack([rng.permutation([1] * 6 + [0] * 6) for _ in range(40)])
        focal = np.ones((40, 12), dtype=bool)
        arm1 = focal & (t_mat == 1)
        arm0 = focal & (t_mat == 0)
        z = np.tile(y, (40, 1))
        v1, v0, n1, n0 = masked_arm_variances(z, (arm1, arm0))
        stats = ratio_stat_rows(v1, v0)
        for b in range(40):
            want = ts_per_exposure(y, t_mat[b], focal[b]).value
            assert stats[b] == pytest.approx(want)
        assert (n1 == 6).all() and (n0 == 6).all()

    def test_zero_conventions_vectorized(self):
        stats = ratio_stat_rows(np.array([0.0, 0.0, 2.0, 8.0]),
                                np.array([0.0, 3.0, 0.0, 2.0]))
        assert stats[0] == 1.0
        assert stats[1] == math.inf and stats[2] == math.inf
        assert stats[3] == pytest.approx(4.0)

    def test_underpopulated_arm_raises(self):
        z = np.array([[1.0, 2.0, 3.0]])
        arm1 = np.array([[True, False, False]])
        arm0 = np.array([[False, True, True]])
        v1, v0, _, _ = masked_arm_variances(z, (arm1, arm0))
        with pytest.raises(TooFewUnits):
            ratio_stat_rows(v1, v0)


class TestOutcomeRange:
    """arm_rhs refuses outcomes whose squared deviations from their arm's
    middle value overflow float64, before any statistic reads them."""

    def test_one_huge_outcome_names_itself(self):
        y, t = np.r_[np.arange(9.0), 1e200], np.arange(10) % 2
        with pytest.raises(DataError, match=r"outcome 1e\+200's squared deviation"):
            arm_rhs(y, t)

    def test_a_sum_past_float64_is_refused(self):
        # each arm's middle value is 1.2e154, so every zero deviates by
        # -1.2e154: a finite square of 1.44e308, two of which overflow
        y = np.tile([0.0, 0.0, 1.2e154, 1.2e154, 1.2e154], 2)
        with pytest.raises(DataError, match="the sum of 10 outcomes' squared deviations"):
            arm_rhs(y, np.arange(10) % 2)

    def test_arms_too_far_apart_are_refused(self):
        # no outcome deviates from its arm's middle value, but a draw mixing
        # the observed arms squares their gap of 2e160
        y, t = np.tile([1e160, -1e160], 5), np.arange(10) % 2 == 0
        with pytest.raises(DataError, match="and those values' gap overflows float64"):
            arm_rhs(y, t)

    def test_largest_finite_squares_pass(self):
        y, t = np.r_[np.zeros(9), 1e153], np.zeros(10)
        right, shift = arm_rhs(y, t)
        assert np.isfinite(right).all() and shift.tolist() == [0.0, 0.0]

    def test_engine_raises_a_data_error_not_too_few_units(self):
        ds = make_toy12()
        ds.y[5] = 1e200  # a unit of cell (1,)
        with pytest.raises(DataError, match="squared deviation"):
            run_oracle_test(ds, TOY12_MAPPING, CompleteRandomization(12, 6),
                            NullSpec.constant(0.0), epsilon=TOY12_EPS, b=20,
                            rng=np.random.default_rng(0))


def _scoring_case(seed=3, n=40, b=30):
    """y, t_obs, unit-major (n, b) t_new and focal, and taus."""
    rng = np.random.default_rng(seed)
    t_obs = np.zeros(n, dtype=np.int8)
    t_obs[rng.choice(n, n // 2, replace=False)] = 1
    y = 1e6 + 4.0 * t_obs + rng.standard_normal(n)
    t_new = np.array([rng.permutation(t_obs) for _ in range(b)])
    focal = rng.random((b, n)) < 0.8
    return y, t_obs, t_new.T, focal.T, [0.0, 3.999, -2.5]


def _bits(stats):
    return np.ascontiguousarray(stats).view(np.uint64)


class TestExactSums:
    """The scorer's per-arm sums are exact, so a draw's statistic depends
    only on which units it puts in each arm. Inputs are unit-major: a
    unit's row holds its treatments (and focal flags) over the draws."""

    def test_column_order(self):
        # the order of the units (the columns of a draw-major batch)
        y, t_obs, t_new, focal, taus = _scoring_case()
        base = imputed_stats(y, t_obs, t_new, focal, taus)
        perm = np.random.default_rng(0).permutation(len(y))
        got = imputed_stats(y[perm], t_obs[perm], t_new[perm], focal[perm], taus)
        assert np.array_equal(_bits(got), _bits(base))

    def test_row_position_and_duplicates(self):
        # a draw's position (a row of a draw-major batch), and repeated draws
        y, t_obs, t_new, focal, taus = _scoring_case()
        base = imputed_stats(y, t_obs, t_new, focal, taus)
        idx = np.random.default_rng(1).permutation(np.r_[:t_new.shape[1], 4, 4, 4, 17])
        got = imputed_stats(y, t_obs, t_new[:, idx], focal[:, idx], taus)
        assert np.array_equal(_bits(got), _bits(base[:, idx]))

    def test_split_over_calls(self):
        y, t_obs, t_new, focal, taus = _scoring_case()
        base = imputed_stats(y, t_obs, t_new, focal, taus)
        parts = [imputed_stats(y, t_obs, t_new[:, a:z], focal[:, a:z], taus)
                 for a, z in ((0, 1), (1, 12), (12, 30))]
        assert np.array_equal(_bits(np.hstack(parts)), _bits(base))

    # 1 and 4 units a block (30 draws), and 7, which leaves a short last block
    @pytest.mark.parametrize("block", [1, 3 * 40, 7 * 30])
    def test_block_size(self, monkeypatch, block):
        y, t_obs, t_new, focal, taus = _scoring_case()
        base = imputed_stats(y, t_obs, t_new, focal, taus)
        monkeypatch.setattr(stats_module, "SCORE_BLOCK", block)
        got = imputed_stats(y, t_obs, t_new, focal, taus)
        assert np.array_equal(_bits(got), _bits(base))

    def test_blas_threads(self):
        # one block large enough for OpenBLAS to split it over two threads
        code = ("import numpy as np, netrand.stats as s, test_stats as t\n"
                "s.SCORE_BLOCK = 1 << 30\n"
                "case = t._scoring_case(n=1500, b=400)\n"
                "print(t.imputed_stats(*case).tobytes().hex())\n")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(stats_module.__file__)))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, here]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            out.append(proc.stdout)
        assert out[0] == out[1] and len(out[0]) > 1000
