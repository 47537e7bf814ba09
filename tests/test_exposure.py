"""Exposure mappings: threshold semantics, batch paths, cell counts."""
import numpy as np
import pytest

from fixtures import (TEN_EDGES, TEN_MAPPING, TEN_PI_ALT, TEN_PI_OBS,
                      TEN_T_ALT, TEN_T_OBS, TEN_X, dense_threshold_reference,
                      make_ten, neighbor_lists, oracle_exposure,
                      random_irregular_graph)
from netrand.errors import MappingFailure
from netrand.exposure import (CustomMapping, FractionThreshold,
                              WeightedThreshold, compute_exposures,
                              exposure_cell_counts)
from netrand.graph import build_graph


class TestFractionThreshold:
    def test_fixture_observed_pattern(self):
        ds = make_ten()
        assert TEN_MAPPING.compute(ds.t, ds.graph).tolist() == list(TEN_PI_OBS)

    def test_fixture_permuted_pattern(self):
        ds = make_ten()
        got = TEN_MAPPING.compute(np.array(TEN_T_ALT), ds.graph)
        assert got.tolist() == list(TEN_PI_ALT)

    def test_matches_per_unit_oracle_on_random_vectors(self):
        g = build_graph(10, TEN_EDGES)
        nbrs = neighbor_lists(10, TEN_EDGES)
        rng = np.random.default_rng(3)
        for comparator in (">=", ">"):
            mapping = FractionThreshold(threshold=0.5, comparator=comparator)
            for _ in range(25):
                t = rng.integers(0, 2, size=10)
                want = oracle_exposure(t.tolist(), nbrs, 0.5, comparator)
                assert tuple(mapping.compute(t, g).tolist()) == want

    def test_comparator_at_exact_boundary(self):
        # unit 1 has neighbors {0, 2}; one treated puts the fraction at 1/2
        g = build_graph(3, [(0, 1), (1, 2)])
        t = np.array([1, 0, 0])
        assert FractionThreshold(comparator=">=").compute(t, g)[1] == 1
        assert FractionThreshold(comparator=">").compute(t, g)[1] == 0

    def test_scalar_exposure_agrees_with_compute(self):
        # unit by unit against the per-unit neighbour loop
        g = build_graph(10, TEN_EDGES)
        t = np.array(TEN_T_OBS)
        full = TEN_MAPPING.compute(t, g)
        scalar = oracle_exposure(TEN_T_OBS, neighbor_lists(10, TEN_EDGES), 0.5, ">=")
        for i in range(10):
            assert scalar[i] == full[i]

    def test_batch_agrees_with_row_by_row(self):
        g = build_graph(10, TEN_EDGES)
        rng = np.random.default_rng(9)
        t_mat = rng.integers(0, 2, size=(12, 10))
        batch = TEN_MAPPING.compute_batch(t_mat, g)
        for row, t in zip(batch, t_mat):
            assert row.tolist() == TEN_MAPPING.compute(t, g).tolist()

    def test_isolated_unit_gets_isolated_value(self):
        g = build_graph(4, [(0, 1)])  # units 2, 3 isolated
        t = np.array([1, 1, 1, 1])
        assert FractionThreshold(isolated_value=0).compute(t, g)[2] == 0
        assert FractionThreshold(isolated_value=1).compute(t, g)[3] == 1

    def test_isolated_value_must_be_declared(self):
        with pytest.raises(ValueError):
            FractionThreshold(isolated_value=7)

    def test_comparator_validated(self):
        with pytest.raises(ValueError):
            FractionThreshold(comparator="<")

    def test_values_are_a_class_constant(self):
        assert FractionThreshold.values == FractionThreshold().values == (0, 1)
        with pytest.raises(TypeError):
            FractionThreshold(0.5, ">", 0, (0, 1, 2))

    def test_only_neighbors_matter(self):
        # toggling a non-neighbor leaves the exposure unchanged
        g = build_graph(10, TEN_EDGES)
        t = np.array(TEN_T_OBS)
        base = TEN_MAPPING.compute(t, g)
        for i in range(10):
            nbrs = set(g.neighbors(i).tolist())
            for j in range(10):
                if j == i or j in nbrs:
                    continue
                t2 = t.copy()
                t2[j] = 1 - t2[j]
                assert TEN_MAPPING.compute(t2, g)[i] == base[i]

    def test_relabeling_units_permutes_exposures(self):
        rng = np.random.default_rng(11)
        perm = rng.permutation(10)
        g = build_graph(10, TEN_EDGES)
        g2 = build_graph(10, [(perm[a], perm[b]) for a, b in TEN_EDGES])
        t = np.array(TEN_T_OBS)
        t2 = np.empty(10, dtype=int)
        t2[perm] = t
        before = TEN_MAPPING.compute(t, g)
        after = TEN_MAPPING.compute(t2, g2)
        assert after[perm].tolist() == before.tolist()

    def test_config_is_serializable(self):
        cfg = FractionThreshold(threshold=0.3, comparator=">").config()
        assert cfg["threshold"] == 0.3 and cfg["comparator"] == ">"


class TestWeightedThreshold:
    def test_equal_weights_match_plain_fraction(self):
        g = build_graph(10, TEN_EDGES)
        rng = np.random.default_rng(5)
        w = WeightedThreshold(np.ones(10), threshold=0.5, comparator=">=")
        f = FractionThreshold(threshold=0.5, comparator=">=")
        for _ in range(20):
            t = rng.integers(0, 2, size=10)
            assert w.compute(t, g).tolist() == f.compute(t, g).tolist()

    def test_hand_weighted_share(self):
        # unit 1 sees units 0 (weight 3, treated) and 2 (weight 1, control):
        # share 3/4 clears 0.5 even though only half the neighbors are treated
        g = build_graph(3, [(0, 1), (1, 2)])
        m = WeightedThreshold(np.array([3.0, 1.0, 1.0]), comparator=">")
        assert m.compute(np.array([1, 0, 0]), g)[1] == 1
        assert m.compute_batch(np.array([[1, 0, 0], [0, 0, 1]]), g)[:, 1].tolist() == [1, 0]

    def test_zero_weight_neighborhood_is_isolated(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        m = WeightedThreshold(np.array([0.0, 1.0, 0.0]), isolated_value=1)
        assert m.compute(np.array([1, 1, 1]), g)[1] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_weights_must_be_finite_and_non_negative(self, bad):
        # on the path 0-1-2-3, a NaN weight at unit 1 would read units 0 and 2
        # unexposed whatever their neighbours' treatments
        with pytest.raises(MappingFailure, match=r"^unit 1 has weight "):
            WeightedThreshold(np.array([1.0, bad, 1.0, bad]))
        WeightedThreshold(np.array([1.0, 0.0, -0.0, 1e300]))  # zero and large weights pass

    def test_cached_weighted_degrees_follow_each_mapping(self):
        # two mappings alternating on one hub graph, which caches each one's
        # weighted degrees, give what each gives on a graph of its own
        rng = np.random.default_rng(8)
        graph = random_irregular_graph(rng, 200, hub_degree=150, n_isolated=3)
        weights = rng.integers(0, 4, size=(2, 200)).astype(np.float64)
        maps = [WeightedThreshold(w, 0.4, ">=") for w in weights]
        weights[:] = 1.0  # the mappings keep their own copies
        t_mat = _treatment_rows(rng, 200, 30)
        for m in maps * 2:
            fresh = build_graph(200, sorted(graph.edges))
            assert np.array_equal(m.compute_batch(t_mat, graph), m.compute_batch(t_mat, fresh))
        assert not np.array_equal(*(m.compute_batch(t_mat, graph) for m in maps))
        with pytest.raises(ValueError, match="read-only"):
            maps[0].weights[0] = 2.0

    def test_weight_shape_checked(self):
        g = build_graph(3, [(0, 1)])
        m = WeightedThreshold(np.ones(5))
        with pytest.raises(MappingFailure):
            m.compute(np.array([1, 0, 1]), g)


def _treatment_rows(rng, n, b):
    """Random 0/1 rows at several treated shares, plus all-treated and
    all-control rows."""
    shares = rng.uniform(0.0, 1.0, size=(b, 1))
    rows = (rng.uniform(size=(b, n)) < shares).astype(np.int8)
    return np.vstack([rows, np.ones((1, n), np.int8), np.zeros((1, n), np.int8)])


class TestSlotKernelMatchesDense:
    """The neighbor-slot kernel against the dense ``t @ A`` kernel it
    replaced: outputs must be bit-identical, ties included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fraction_threshold(self, seed):
        rng = np.random.default_rng(seed)
        # degrees 0..~8 with a hub of degree 320: counts past 127 would
        # wrap in an int8 accumulator
        g = random_irregular_graph(rng, 400, hub_degree=320, n_isolated=7)
        assert g.degrees.max() >= 320 and (g.degrees == 0).sum() >= 7
        t_mat = _treatment_rows(rng, g.n_units, 60)
        for threshold in (1 / 3, 0.5):
            for comparator in (">", ">="):
                for isolated in (0, 1):
                    m = FractionThreshold(threshold, comparator, isolated)
                    want = dense_threshold_reference(m, t_mat, g)
                    got = m.compute_batch(t_mat, g)
                    assert got.dtype == np.int8 and got.flags.c_contiguous
                    assert np.array_equal(got, want)
                    assert np.array_equal(m.compute(t_mat[0], g), want[0])

    def test_one_third_tie_is_decided_by_the_comparator(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        t = np.array([[0, 1, 0, 0]])
        assert FractionThreshold(1 / 3, ">=").compute_batch(t, g)[0, 0] == 1
        assert FractionThreshold(1 / 3, ">").compute_batch(t, g)[0, 0] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_threshold(self, seed):
        rng = np.random.default_rng(10 + seed)
        g = random_irregular_graph(rng, 300, hub_degree=300 - 7, n_isolated=6)
        # small integer weights keep every weighted sum exact in float64,
        # so both kernels see the same fractions
        weights = rng.integers(0, 4, size=g.n_units).astype(np.float64)
        weights[rng.choice(g.n_units, 40, replace=False)] = 0.0
        # units 1-3 get zero denominators without being isolated
        for unit in (1, 2, 3):
            weights[g.neighbors(unit)] = 0.0
        t_mat = _treatment_rows(rng, g.n_units, 40)
        for threshold in (1 / 3, 0.5):
            for comparator in (">", ">="):
                for isolated in (0, 1):
                    m = WeightedThreshold(weights, threshold, comparator, isolated)
                    want = dense_threshold_reference(m, t_mat, g)
                    assert np.array_equal(m.compute_batch(t_mat, g), want)
        assert (g.dense() @ weights == 0).sum() >= 6 + 3


# thresholds on float edges: 0.1 + 0.2 is 0.30000000000000004, and the
# neighbors of 0.5 decide ties of c / d = 1/2 against both comparators
EDGE_THRESHOLDS = (0.0, 1 / 3, 2 / 3, 0.1 + 0.2, np.nextafter(0.5, -np.inf),
                   np.nextafter(0.5, np.inf), 1.0)


class TestUnitMajorKernels:
    """Each mapping's one unit-major kernel, compute_units, against the
    per-unit neighbor-loop oracle and against the draw-major wrapper."""

    def test_integer_cutoffs_match_the_neighbor_loop(self):
        rng = np.random.default_rng(21)
        # degrees 0..~8, 5 isolated units and a hub of degree 200, whose
        # count in the all-treated row needs int16
        g = random_irregular_graph(rng, 240, hub_degree=200, n_isolated=5)
        assert g.degrees.max() >= 200 and (g.degrees == 0).sum() >= 5
        assert g.neighbor_sums(np.ones((g.n_units, 1), np.int8)).dtype == np.int16
        nbrs = [g.neighbors(i).tolist() for i in range(g.n_units)]
        t_mat = _treatment_rows(rng, g.n_units, 10)
        for threshold in EDGE_THRESHOLDS:
            for comparator in (">", ">="):
                for isolated in (0, 1):
                    m = FractionThreshold(threshold, comparator, isolated)
                    got = m.compute_units(t_mat.T, g)
                    assert got.shape == (g.n_units, len(t_mat)) and got.dtype == np.int8
                    for row, t in enumerate(t_mat.tolist()):
                        want = oracle_exposure(t, nbrs, threshold, comparator, isolated)
                        assert tuple(got[:, row].tolist()) == want

    def test_cached_cutoffs_match_fresh_graphs(self):
        # a graph caches each config's cut-offs under (threshold, comparator,
        # count type): two configs alternating on one graph, with int8 and
        # with int16 counts (a degree-150 hub), give what each gives alone
        rng = np.random.default_rng(23)
        configs = (FractionThreshold(0.5, ">"), FractionThreshold(1 / 3, ">=", isolated_value=1))
        for hub, width in ((0, 1), (150, 2)):
            g = random_irregular_graph(rng, 200, hub_degree=hub, n_isolated=4)
            assert g.neighbor_sums(np.ones((g.n_units, 1), np.int8)).itemsize == width
            for _ in range(3):
                t_mat = _treatment_rows(rng, g.n_units, 5)
                for m in configs:
                    fresh = build_graph(g.n_units, sorted(g.edges))
                    assert np.array_equal(m.compute_units(t_mat.T, g),
                                          m.compute_units(t_mat.T, fresh))
                    assert np.array_equal(m.compute_batch(t_mat, g),
                                          dense_threshold_reference(m, t_mat, fresh))

    def test_cutoff_ties_on_small_degrees(self):
        # a star whose center has degree d sees c treated leaves, c = 0..d
        for d in range(1, 11):
            g = build_graph(d + 1, [(0, j) for j in range(1, d + 1)])
            t_mat = np.array([[0] + [1] * c + [0] * (d - c) for c in range(d + 1)])
            for threshold in EDGE_THRESHOLDS:
                for comparator, passes in ((">", np.greater), (">=", np.greater_equal)):
                    got = FractionThreshold(threshold, comparator).compute_batch(t_mat, g)[:, 0]
                    want = passes(np.arange(d + 1) / float(d), threshold)
                    assert got.tolist() == want.astype(int).tolist()

    def test_compute_units_is_the_transposed_batch(self):
        rng = np.random.default_rng(22)
        g = random_irregular_graph(rng, 80, hub_degree=40, n_isolated=3)
        t_mat = _treatment_rows(rng, g.n_units, 12)

        def share(i, t, graph):
            nbrs = graph.neighbors(i)
            return "none" if not len(nbrs) else ("most" if t[nbrs].mean() > 0.5 else "few")

        mappings = (FractionThreshold(1 / 3, ">="),
                    WeightedThreshold(rng.integers(0, 4, g.n_units).astype(float), 0.4),
                    CustomMapping(share, ("none", "few", "most")))
        for m in mappings:
            batch = m.compute_batch(t_mat, g)
            units = m.compute_units(t_mat.T, g)
            assert batch.flags.c_contiguous and units.shape == (g.n_units, len(t_mat))
            assert np.array_equal(units, batch.T)
            assert np.array_equal(m.compute(t_mat[1], g), batch[1])
        assert set(np.unique(mappings[2].compute_batch(t_mat, g))) == {"none", "few", "most"}


class TestCustomMapping:
    def test_wraps_rule_failure(self):
        def bad(i, t, g):
            raise RuntimeError("boom")
        m = CustomMapping(bad, values=(0, 1))
        with pytest.raises(MappingFailure):
            m.compute(np.array([0, 1]), build_graph(2, [(0, 1)]))

    def test_undeclared_value_rejected(self):
        m = CustomMapping(lambda i, t, g: 7, values=(0, 1))
        with pytest.raises(MappingFailure):
            m.compute(np.array([0, 1]), build_graph(2, [(0, 1)]))

    def test_can_replicate_threshold_rule(self):
        g = build_graph(10, TEN_EDGES)
        def rule(i, t, g):
            nbrs = g.neighbors(i)
            if len(nbrs) == 0:
                return 0
            return int(t[nbrs].mean() >= 0.5)
        m = CustomMapping(rule, values=(0, 1))
        t = np.array(TEN_T_OBS)
        assert m.compute(t, g).tolist() == list(TEN_PI_OBS)

    def test_values_must_be_nonempty(self):
        with pytest.raises(ValueError):
            CustomMapping(lambda i, t, g: 0, values=())


class TestComputeExposures:
    def test_shape_validated(self):
        ds = make_ten()
        with pytest.raises(MappingFailure):
            compute_exposures(TEN_MAPPING, np.array([0, 1]), ds.graph)


class TestCellCounts:
    def test_fixture_exposure_counts(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        cc = exposure_cell_counts(exp, ds.t)
        assert cc.by_exposure == {0: 5, 1: 5}
        assert cc.by_arm_exposure == {(1, 0): 3, (0, 0): 2, (1, 1): 2, (0, 1): 3}

    def test_fixture_covariate_counts(self):
        ds = make_ten(with_x=True)
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        cc = exposure_cell_counts(exp, ds.t, ds.x)
        assert cc.by_exposure_covariate == {
            (0, "m"): 2, (0, "f"): 3, (1, "m"): 3, (1, "f"): 2}
        # arm-level counts: hand count over the three frozen tuples
        want = {}
        for arm in (0, 1):
            for v in (0, 1):
                for lvl in ("f", "m"):
                    want[(arm, v, lvl)] = sum(
                        1 for i in range(10)
                        if TEN_T_OBS[i] == arm and TEN_PI_OBS[i] == v
                        and TEN_X[i] == lvl)
        assert cc.by_arm_exposure_covariate == want
