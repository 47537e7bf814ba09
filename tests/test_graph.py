"""Graph construction, CSV ingestion, degree diagnostics, overlap check."""
import numpy as np
import pytest

from fixtures import (TEN_EDGES, TEN_MAPPING, TEN_T_OBS, make_line4, make_ten,
                      neighbor_lists, random_irregular_graph)
from netrand.errors import EmptyCell, IndexOutOfRange, ParseError, SelfLoop
from netrand.exposure import FractionThreshold, compute_exposures
from netrand.graph import (Graph, build_graph, degree_diagnostics,
                           overlap_check, read_edge_csv)
from netrand.simulation import generate_regular_graph


class TestBuildGraph:
    def test_fixture_degrees(self):
        g = build_graph(10, TEN_EDGES)
        assert g.degrees.tolist() == [1, 3, 2, 2, 1, 1, 2, 1, 2, 3]
        assert g.n_edges == 9

    def test_neighbors_sorted(self):
        g = build_graph(10, TEN_EDGES)
        assert g.neighbors(1).tolist() == [2, 3, 9]
        assert g.neighbors(0).tolist() == [3]
        assert g.degree(9) == 3

    def test_dedupes_and_symmetrizes(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.n_edges == 2
        # (1, 2) had no mirror pair in the input
        assert g.symmetrized is True

    def test_symmetric_input_not_flagged(self):
        g = build_graph(3, [(0, 1), (1, 0)])
        assert g.symmetrized is False

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(3, [(0, 3)])
        with pytest.raises(IndexOutOfRange):
            build_graph(0, [])

    def test_first_offending_edge_decides_the_error(self):
        with pytest.raises(IndexOutOfRange, match=r"edge \(0, 3\) outside 0..2"):
            build_graph(3, [(0, 1), (0, 3), (2, 2)])
        with pytest.raises(SelfLoop, match="self loop at unit 2"):
            build_graph(3, [(0, 1), (2, 2), (0, 3)])
        with pytest.raises(IndexOutOfRange, match=r"edge \(5, 5\)"):
            build_graph(3, [(5, 5)])

    # Graph itself validates, so a graph built without build_graph (as
    # generate_regular_graph builds one) cannot hold a corrupt edge
    def test_graph_rejects_an_out_of_range_endpoint(self):
        with pytest.raises(IndexOutOfRange, match=r"^edge \(0, 5\) outside 0..2$"):
            Graph(3, [(0, 5)])

    def test_graph_rejects_a_self_loop(self):
        with pytest.raises(SelfLoop, match="^self loop at unit 1$"):
            Graph(3, [(1, 1)])

    def test_graph_rejects_a_negative_endpoint(self):
        with pytest.raises(IndexOutOfRange, match=r"^edge \(-1, 2\) outside 0..2$"):
            Graph(3, np.array([(0, 1), (-1, 2)]))

    def test_graph_rejects_no_units(self):
        with pytest.raises(IndexOutOfRange, match="^n_units must be positive, got 0$"):
            Graph(0, [])

    def test_graph_dedupes_both_orientations(self):
        g = Graph(3, [(1, 0), (0, 1), (0, 1)])
        assert g.n_edges == 1 and g.edges == frozenset({(0, 1)})
        assert g.neighbors(0).tolist() == [1] and g.neighbors(2).tolist() == []

    def test_csr_arrays(self):
        g = build_graph(10, TEN_EDGES)
        nbrs = neighbor_lists(10, TEN_EDGES)
        assert g.indptr.tolist() == np.cumsum([0] + [len(ns) for ns in nbrs]).tolist()
        assert g.indices.tolist() == [j for ns in nbrs for j in sorted(ns)]
        assert g.edges == frozenset((min(a, b), max(a, b)) for a, b in TEN_EDGES)

    def test_neighbor_index_checked(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(IndexOutOfRange):
            g.neighbors(3)

    def test_dense_matches_neighbor_lists(self):
        g = build_graph(10, TEN_EDGES)
        a = g.dense()
        assert (a == a.T).all()
        nbrs = neighbor_lists(10, TEN_EDGES)
        for i in range(10):
            assert sorted(np.nonzero(a[i])[0].tolist()) == sorted(nbrs[i])

    def test_slots_cover_each_neighbor_list_in_order(self):
        g = random_irregular_graph(np.random.default_rng(2), 60, hub_degree=30,
                                   n_isolated=3)
        order, nbrs = g.slots
        assert sorted(order.tolist()) == list(range(60))
        assert np.all(np.diff(g.degrees[order]) <= 0)
        assert len(nbrs) == g.degrees.max()
        for i, unit in enumerate(order):
            got = [int(nbr[i]) for nbr in nbrs if i < len(nbr)]
            assert got == g.neighbors(int(unit)).tolist()

    def test_neighbor_sums_match_dense_products(self):
        # rows come back in unit order; counts use the narrowest signed
        # type holding the largest degree: int8 up to degree 127, int16 for
        # the degree-200 hub, whose count in the all-treated row would
        # overflow int8. The hub graphs' slot order moves units, so their
        # sums are scattered back; where no degree rises with the unit
        # index (the 5-regular graph, and a hub graph relabelled by
        # descending degree, isolated units last) slot order is unit order
        rng = np.random.default_rng(4)
        hub260 = random_irregular_graph(rng, 260, hub_degree=200, n_isolated=2)
        by_degree = np.argsort(np.argsort(-hub260.degrees, kind="stable"))
        cases = ((random_irregular_graph(rng, 50, hub_degree=20, n_isolated=2), np.int8, False),
                 (hub260, np.int16, False),
                 (generate_regular_graph(60, 5, rng), np.int8, True),
                 (build_graph(260, by_degree[np.array(sorted(hub260.edges))]), np.int16, True))
        for g, dtype, in_order in cases:
            n = g.n_units
            assert np.array_equal(g.slots[0], np.arange(n)) == in_order
            t_mat = np.vstack([np.ones(n, np.int64), rng.integers(0, 2, size=(6, n))])
            w = rng.integers(0, 5, size=n).astype(np.float64)
            counts = g.neighbor_sums(t_mat.T)
            assert counts.dtype == dtype and counts.shape == (n, 7)
            assert np.array_equal(counts.T, t_mat @ g.dense())
            assert counts.max() == g.degrees.max()
            assert np.array_equal(g.neighbor_sums(t_mat.T), counts)  # a second call, cached slots
            weighted = g.neighbor_sums(t_mat.T, w)
            assert weighted.dtype == np.float64
            assert np.array_equal(weighted.T, (t_mat * w) @ g.dense())

    def test_edgeless_graph_has_no_slots(self):
        g = build_graph(3, [])
        assert len(g.slots[1]) == 0
        assert g.neighbor_sums(np.ones((3, 2), np.int8)).tolist() == [[0, 0]] * 3


class TestEdgeCsv:
    def test_round_trip_with_header(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("src,dst\n" + "\n".join(f"{a},{b}" for a, b in TEN_EDGES) + "\n")
        g = read_edge_csv(p)
        assert g.n_units == 10
        assert g.edges == build_graph(10, TEN_EDGES).edges

    def test_no_header(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("0,1\n1,2\n")
        g = read_edge_csv(p)
        assert g.n_units == 3 and g.n_edges == 2

    def test_explicit_node_count_keeps_isolated_units(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("0,1\n")
        g = read_edge_csv(p, n_units=5)
        assert g.n_units == 5 and g.degree(4) == 0

    def test_bad_row_raises_with_line_number(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("src,dst\n0,1\n2,oops\n")
        with pytest.raises(ParseError) as exc:
            read_edge_csv(p)
        assert exc.value.line == 3

    def test_endpoint_beyond_int64_is_a_parse_error(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("src,dst\n0,1\n\n0,99999999999999999999\n")
        with pytest.raises(ParseError, match="outside int64") as exc:
            read_edge_csv(p)
        assert exc.value.line == 4

    def test_only_the_first_row_may_be_a_header(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("id, 2\n0, 1\n 1 ,2\n")
        g = read_edge_csv(p)
        assert g.n_units == 3 and g.edges == frozenset({(0, 1), (1, 2)})
        p.write_text("0,1\nsrc,dst\n")
        with pytest.raises(ParseError) as exc:
            read_edge_csv(p)
        assert exc.value.line == 2

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("0\n")
        with pytest.raises(ParseError):
            read_edge_csv(p)


class TestDegreeDiagnostics:
    def test_regular_graph_third_moment_is_k_cubed(self):
        for k, n in ((3, 20), (5, 30)):
            g = generate_regular_graph(n, k, np.random.default_rng(0))
            d = degree_diagnostics(g)
            assert d.third_moment == pytest.approx(k**3)

    def test_path3_density_matches_walk_count(self):
        g = build_graph(10, TEN_EDGES)
        nbrs = neighbor_lists(10, TEN_EDGES)
        # count length-3 walks i -> j -> k -> l with l != i by explicit loops
        walks = 0
        for i in range(10):
            for j in nbrs[i]:
                for k in nbrs[j]:
                    for l in nbrs[k]:
                        if l != i:
                            walks += 1
        d = degree_diagnostics(g)
        assert d.path3_density == pytest.approx(walks / 10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_cube_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 30 + 10 * seed
        g = random_irregular_graph(rng, n, hub_degree=seed * 4, n_isolated=seed % 3 + 1)
        a = g.dense()
        assert np.trace(a @ a @ a) > 0  # the graph has triangles
        a3 = a @ a @ a
        d = degree_diagnostics(g)
        assert d.path3_density == float((a3.sum() - np.trace(a3)) / n)
        assert d.third_moment == float(np.mean(g.degrees.astype(np.float64) ** 3))

    def test_edgeless_graph(self):
        d = degree_diagnostics(build_graph(4, []))
        assert d.path3_density == 0.0 and d.third_moment == 0.0


class TestOverlapCheck:
    def test_fixture_proportions_by_exposure(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        rep = overlap_check(ds, exp, eta=0.1)
        assert rep.passed
        props = {(c.arm, c.cell): c.proportion for c in rep.cells}
        assert props[(1, (0,))] == pytest.approx(0.6)
        assert props[(0, (0,))] == pytest.approx(0.4)
        assert props[(1, (1,))] == pytest.approx(0.4)
        assert props[(0, (1,))] == pytest.approx(0.6)

    def test_fixture_proportions_by_cell(self):
        ds = make_ten(with_x=True)
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        rep = overlap_check(ds, exp, eta=0.1)
        props = {(c.arm, c.cell): c.proportion for c in rep.cells}
        assert props[(1, (0, "m"))] == pytest.approx(0.5)
        assert props[(1, (0, "f"))] == pytest.approx(2 / 3)
        assert props[(1, (1, "m"))] == pytest.approx(1 / 3)
        assert props[(1, (1, "f"))] == pytest.approx(0.5)

    def test_tight_eta_fails(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        rep = overlap_check(ds, exp, eta=0.45)
        assert not rep.passed

    def test_flip_maps_proportions_to_complement(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        flipped = make_ten()
        flipped.t[:] = 1 - np.array(TEN_T_OBS)
        # same strata (exposures held fixed), complementary arms
        rep = overlap_check(ds, exp, eta=0.1)
        rep_f = overlap_check(flipped, exp, eta=0.1)
        before = {(c.arm, c.cell): c.proportion for c in rep.cells}
        after = {(c.arm, c.cell): c.proportion for c in rep_f.cells}
        for (arm, cell), p in before.items():
            assert after[(arm, cell)] == pytest.approx(1.0 - p)

    def test_empty_stratum_raises(self):
        ds = make_line4(t=(0, 0, 1, 1))
        mapping = FractionThreshold(threshold=0.5, comparator=">=")
        exp = compute_exposures(mapping, np.zeros(4, dtype=int), ds.graph)
        ds.t[:] = 0
        with pytest.raises(EmptyCell):
            overlap_check(ds, exp, eta=0.1)

    def test_eta_range_validated(self):
        ds = make_ten()
        exp = compute_exposures(TEN_MAPPING, ds.t, ds.graph)
        with pytest.raises(ValueError):
            overlap_check(ds, exp, eta=0.6)
