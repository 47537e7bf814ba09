"""Dataset validation and CSV ingestion."""
import numpy as np
import pytest

from fixtures import (TEN_EDGES, TEN_T_OBS, TEN_X, TEN_Y, make_ten)
from netrand.data import Dataset, ingest, read_nodes_csv
from netrand.errors import (DataError, MissingColumn, NonBinaryTreatment,
                            ParseError)
from netrand.graph import build_graph


def write_fixture_csvs(tmp_path, with_x=True, with_extras=False):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    header = "id,y,t"
    if with_x:
        header += ",x"
    if with_extras:
        header += ",stratum,weight"
    lines = [header]
    for i in range(10):
        row = f"{i},{TEN_Y[i]},{TEN_T_OBS[i]}"
        if with_x:
            row += f",{TEN_X[i]}"
        if with_extras:
            row += f",s{i % 2},{1.0 + i}"
        lines.append(row)
    nodes.write_text("\n".join(lines) + "\n")
    edges.write_text("src,dst\n" + "\n".join(f"{a},{b}" for a, b in TEN_EDGES) + "\n")
    return nodes, edges


class TestDataset:
    def test_binary_treatment_enforced(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(NonBinaryTreatment):
            Dataset(y=np.zeros(3), t=np.array([0, 1, 2]), graph=g)

    def test_shapes_checked(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(DataError):
            Dataset(y=np.zeros(2), t=np.array([0, 1, 0]), graph=g)
        with pytest.raises(DataError):
            Dataset(y=np.zeros(3), t=np.array([0, 1, 0]), graph=g,
                    x=np.array(["a", "b"], dtype=object))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_outcomes_must_be_finite(self, bad):
        y = np.arange(10.0)
        y[[4, 7]] = bad
        with pytest.raises(DataError, match=f"unit 4 has outcome {bad}; outcomes must be finite"):
            Dataset(y=y, t=np.array(TEN_T_OBS), graph=build_graph(10, TEN_EDGES))

    def test_x_levels_sorted(self):
        ds = make_ten(with_x=True)
        assert ds.x_levels == ("f", "m")
        assert make_ten().x_levels == ()


class TestNodesCsv:
    def test_required_columns(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y\n0,1.0\n")
        with pytest.raises(MissingColumn):
            read_nodes_csv(p)

    def test_ids_must_cover_range(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t\n0,1.0,1\n2,2.0,0\n")
        with pytest.raises(ParseError):
            read_nodes_csv(p)

    def test_rows_reordered_by_id(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t\n1,2.0,0\n0,1.0,1\n")
        cols = read_nodes_csv(p)
        assert cols["y"].tolist() == [1.0, 2.0]
        assert cols["t"].tolist() == [1, 0]

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t\n0,1.0,1\n1,oops,0\n")
        with pytest.raises(ParseError) as exc:
            read_nodes_csv(p)
        assert exc.value.line == 3

    def test_extra_field_reports_line(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t\n0,1.0,0\n1,2.0,1,9\n")
        with pytest.raises(ParseError, match="row has 4 fields, the header has 3") as exc:
            read_nodes_csv(p)
        assert exc.value.line == 3

    def test_blank_lines_count_toward_the_line(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t\n\n\n0,1.0,1\n1,oops,0\n")
        with pytest.raises(ParseError) as exc:
            read_nodes_csv(p)
        assert exc.value.line == 5

    def test_bad_weight_reports_line(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t,weight\n\n1,2.0,0,1.5\n0,1.0,1,heavy\n")
        with pytest.raises(ParseError, match="line 4: bad weight value") as exc:
            read_nodes_csv(p)
        assert exc.value.line == 4

    @pytest.mark.parametrize("text, line", [
        ("id,y,t\n0,1.0,99999999999999999999\n1,2,0\n", 2),
        ("id,y,t,x\n0,1.0,1,3\n\n1,2.0,0,99999999999999999999\n", 4),
        ("id,y,t,stratum\n1,2.0,0,1\n0,1.0,1,-9223372036854775809\n", 3),
    ])
    def test_integer_beyond_int64_is_a_parse_error(self, tmp_path, text, line):
        p = tmp_path / "nodes.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="outside int64") as exc:
            read_nodes_csv(p)
        assert exc.value.line == line

    def test_int64_bounds_stay_integer_labels(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t,x\n0,1.0,1,-9223372036854775808\n1,2.0,0,9223372036854775807\n")
        cols = read_nodes_csv(p)
        assert cols["x"].dtype == np.int64
        assert cols["x"].tolist() == [-(1 << 63), (1 << 63) - 1]

    def test_integer_labels_stay_integers(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t,x\n0,1.0,1,3\n1,2.0,0,5\n")
        cols = read_nodes_csv(p)
        assert cols["x"].dtype == np.int64 and cols["x"].tolist() == [3, 5]

    def test_string_labels_kept_as_objects(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,y,t,x\n0,1.0,1,f\n1,2.0,0,m\n")
        cols = read_nodes_csv(p)
        assert cols["x"].tolist() == ["f", "m"]


class TestIngest:
    def test_fixture_round_trip(self, tmp_path):
        nodes, edges = write_fixture_csvs(tmp_path)
        ds = ingest(nodes, edges)
        want = make_ten(with_x=True)
        assert ds.y.tolist() == want.y.tolist()
        assert ds.t.tolist() == want.t.tolist()
        assert ds.x.tolist() == want.x.tolist()
        assert ds.graph.edges == want.graph.edges
        assert ds.graph.n_units == 10

    def test_optional_columns_carried(self, tmp_path):
        nodes, edges = write_fixture_csvs(tmp_path, with_extras=True)
        ds = ingest(nodes, edges)
        assert ds.strata.tolist() == [f"s{i % 2}" for i in range(10)]
        assert ds.weights.tolist() == [1.0 + i for i in range(10)]

    def test_three_row_toy(self, tmp_path):
        nodes = tmp_path / "n.csv"
        edges = tmp_path / "e.csv"
        nodes.write_text("id,y,t\n0,1.5,1\n1,-2.0,0\n2,0.25,1\n")
        edges.write_text("0,1\n1,2\n")
        ds = ingest(nodes, edges)
        assert ds.n == 3 and ds.graph.n_edges == 2

    def test_nonbinary_treatment_rejected(self, tmp_path):
        nodes = tmp_path / "n.csv"
        edges = tmp_path / "e.csv"
        nodes.write_text("id,y,t\n0,1.5,2\n1,-2.0,0\n")
        edges.write_text("0,1\n")
        with pytest.raises(NonBinaryTreatment):
            ingest(nodes, edges)
