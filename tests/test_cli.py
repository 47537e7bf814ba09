"""Test the command-line interface: exit codes, report output, flags."""
import csv
import json

import pytest

from fixtures import (TEN_EDGES, TEN_T_OBS, TEN_Y, TOY12_EDGES, TOY12_T_OBS,
                      TOY12_Y)
from netrand.cli import main


def write_toy12(tmp_path, with_x=False):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    lines = ["id,y,t,x" if with_x else "id,y,t"]
    for i in range(12):
        row = f"{i},{TOY12_Y[i]},{TOY12_T_OBS[i]}"
        if with_x:
            row += f",{i % 2}"
        lines.append(row)
    nodes.write_text("\n".join(lines) + "\n")
    edges.write_text("src,dst\n" + "\n".join(f"{a},{b}" for a, b in TOY12_EDGES) + "\n")
    return str(nodes), str(edges)


def write_ten(tmp_path):
    nodes = tmp_path / "n10.csv"
    edges = tmp_path / "e10.csv"
    nodes.write_text("id,y,t\n" + "\n".join(
        f"{i},{TEN_Y[i]},{TEN_T_OBS[i]}" for i in range(10)) + "\n")
    edges.write_text("src,dst\n" + "\n".join(f"{a},{b}" for a, b in TEN_EDGES) + "\n")
    return str(nodes), str(edges)


def oracle_args(nodes, edges, **over):
    base = {"--null": "h0", "--technique": "oracle", "--epsilon": "0.21",
            "--b": "99", "--tau": "0.0", "--seed": "3"}
    base.update(over)
    argv = ["test", "--nodes", nodes, "--edges", edges]
    for k, v in base.items():
        if v is None:
            continue
        argv.extend([k, v])
    return argv


class TestTestCommand:
    def test_oracle_h0_runs_and_reports(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        rc = main(oracle_args(nodes, edges))
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["technique"] == "oracle"
        assert rep["b"] == 99
        assert [c["pi"] for c in rep["cells"]] == [0, 1]
        assert all(0.0 <= c["pvalue"] <= 1.0 for c in rep["cells"])
        assert rep["run_config"]["seed"] == 3
        assert rep["run_config"]["mapping"]["threshold"] == 0.5
        assert set(rep["decisions"]) == {"bonferroni", "holm", "unadjusted_any"}

    def test_same_flags_same_bytes(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        main(oracle_args(nodes, edges))
        first = capsys.readouterr().out
        main(oracle_args(nodes, edges))
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout_payload(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        main(oracle_args(nodes, edges))
        from_stdout = json.loads(capsys.readouterr().out)
        out = tmp_path / "report.json"
        rc = main(oracle_args(nodes, edges, **{"--out": str(out)}))
        assert rc == 0
        assert json.loads(out.read_text()) == from_stdout

    def test_tau_map_per_exposure(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        tau_map = tmp_path / "tau.json"
        tau_map.write_text(json.dumps({"0": 0.25, "1": -0.5}))
        rc = main(oracle_args(nodes, edges, **{
            "--null": "hpi", "--tau": None, "--tau-map": str(tau_map)}))
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        taus = {c["pi"]: c["tau"] for c in rep["cells"]}
        assert taus == {0: 0.25, 1: -0.5}

    def test_tau_map_key_must_match_family(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        tau_map = tmp_path / "tau.json"
        tau_map.write_text(json.dumps({"0,1": 0.25, "1,0": -0.5}))
        rc = main(oracle_args(nodes, edges, **{
            "--null": "hpi", "--tau": None, "--tau-map": str(tau_map)}))
        assert rc == 2

    @pytest.mark.parametrize("raw, named", [
        ([1, 2], "not list"),
        ({"0": 1.0, "1": [2]}, "key '1' has a non-numeric value [2]"),
    ], ids=["top-level-list", "list-value"])
    def test_malformed_tau_map_is_a_data_error(self, tmp_path, capsys, raw, named):
        nodes, edges = write_toy12(tmp_path)
        tau_map = tmp_path / "tau.json"
        tau_map.write_text(json.dumps(raw))
        rc = main(oracle_args(nodes, edges, **{
            "--null": "hpi", "--tau": None, "--tau-map": str(tau_map)}))
        assert rc == 2 and named in capsys.readouterr().err

    def test_tau_map_values_may_be_numeric_strings(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        tau_map = tmp_path / "tau.json"
        tau_map.write_text(json.dumps({"0": "0.25", "1": -1}))
        rc = main(oracle_args(nodes, edges, **{
            "--null": "hpi", "--tau": None, "--tau-map": str(tau_map)}))
        assert rc == 0
        assert {c["pi"]: c["tau"] for c in json.loads(capsys.readouterr().out)["cells"]} == {
            0: 0.25, 1: -1.0}

    def test_h0_requires_tau(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        assert main(oracle_args(nodes, edges, **{"--tau": None})) == 2

    def test_tau_and_tau_map_conflict(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        tau_map = tmp_path / "tau.json"
        tau_map.write_text("{}")
        rc = main(oracle_args(nodes, edges, **{"--tau-map": str(tau_map)}))
        assert rc == 2

    def test_plugin_and_ss_techniques_run(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        rc = main(oracle_args(nodes, edges, **{
            "--technique": "plugin", "--null": "hpi", "--tau": None}))
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["diagnostics"]["nuisance"]["provenance"] == "plugin"
        # toy12 strata are too small for a usable split
        rc = main(oracle_args(nodes, edges, **{
            "--technique": "ss", "--null": "hpi", "--tau": None}))
        assert rc == 3


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        assert main([]) == 1
        assert main(["test", "--nodes", nodes, "--edges", edges,
                     "--null", "h0", "--technique", "bogus",
                     "--epsilon", "0.2", "--b", "9", "--seed", "1"]) == 1
        assert main(oracle_args(nodes, edges, **{"--seed": None})) == 1

    def test_missing_file_exits_two(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        assert main(oracle_args(str(tmp_path / "absent.csv"), edges)) == 2

    def test_bad_treatment_exits_two(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y,t\n0,1.0,2\n1,0.5,0\n")
        e2 = tmp_path / "e2.csv"
        e2.write_text("src,dst\n0,1\n")
        assert main(oracle_args(str(bad), str(e2))) == 2

    def test_extra_node_field_exits_two(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,y,t\n0,1.0,0,9\n1,2.0,1\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1\n")
        assert main(oracle_args(str(nodes), str(edges))) == 2
        assert "line 2: row has 4 fields, the header has 3" in capsys.readouterr().err

    @pytest.mark.parametrize("node_text, edge_text, line", [
        ("id,y,t\n0,1.0,99999999999999999999\n1,2,0\n", "0,1\n", 2),
        ("id,y,t\n0,1.0,1\n1,2,0\n", "0,99999999999999999999\n", 1),
    ])
    def test_integer_beyond_int64_exits_two(self, tmp_path, capsys, node_text, edge_text,
                                            line):
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        nodes.write_text(node_text)
        edges.write_text(edge_text)
        assert main(["inspect", "--nodes", str(nodes), "--edges", str(edges)]) == 2
        assert f"line {line}: " in capsys.readouterr().err

    def test_infeasible_conditioning_exits_three(self, tmp_path, capsys):
        nodes, edges = write_ten(tmp_path)
        rc = main(oracle_args(nodes, edges, **{
            "--epsilon": "0.2", "--b": "10", "--max-attempts": "200"}))
        assert rc == 3
        assert "infeasible conditioning" in capsys.readouterr().err

    def test_too_small_focal_selection_exits_three(self, tmp_path, capsys):
        # units 7-9 are isolated and always have exposure 1 (no fraction
        # exceeds 1), so cell (1,) has only 3 units, which cannot hold two
        # per arm
        nodes = tmp_path / "thin.csv"
        t = (1, 0, 1, 0, 1, 0, 0, 1, 0, 1)
        nodes.write_text("id,y,t\n" + "".join(f"{i},{i}.0,{t[i]}\n" for i in range(10)))
        edges = tmp_path / "ring.csv"
        edges.write_text("".join(f"{i},{(i + 1) % 7}\n" for i in range(7)))
        argv = oracle_args(str(nodes), str(edges), **{"--epsilon": "0.2", "--b": "20"})
        rc = main(argv + ["--threshold", "1.0", "--isolated-value", "1"])
        assert rc == 3
        assert "cell (1,): the observed assignment has 1/2 scored" in capsys.readouterr().err

    def test_zero_width_interval_exits_three(self, tmp_path, capsys):
        # constant outcomes over toy12's cell (1,) (units 4-9) leave its
        # Neyman interval no width, which makes the design infeasible
        nodes, edges = write_toy12(tmp_path)
        y = [1.5 if 4 <= i <= 9 else v for i, v in enumerate(TOY12_Y)]
        (tmp_path / "flat.csv").write_text("id,y,t\n" + "".join(
            f"{i},{y[i]},{TOY12_T_OBS[i]}\n" for i in range(12)))
        rc = main(oracle_args(str(tmp_path / "flat.csv"), edges, **{
            "--null": "hpi", "--technique": "ci", "--tau": None}))
        assert rc == 3
        assert ("netrand: infeasible conditioning: effect key (1,): interval width is "
                "degenerate" in capsys.readouterr().err)

    def test_weighted_requires_weight_column(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        argv = oracle_args(nodes, edges) + ["--weighted"]
        assert main(argv) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_weighted_rejects_a_bad_weight(self, tmp_path, capsys, bad):
        _, edges = write_toy12(tmp_path)
        weights = ["1"] * 5 + [bad] + ["1"] * 6
        (tmp_path / "weighted.csv").write_text("id,y,t,weight\n" + "".join(
            f"{i},{TOY12_Y[i]},{TOY12_T_OBS[i]},{weights[i]}\n" for i in range(12)))
        argv = oracle_args(str(tmp_path / "weighted.csv"), edges) + ["--weighted"]
        assert main(argv) == 2
        assert "netrand: error: unit 5 has weight" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ("nan", "unit 5 has outcome nan; outcomes must be finite"),
        ("inf", "unit 5 has outcome inf; outcomes must be finite"),
        ("1e200", "outcome 1e+200's squared deviation from its arm's middle value overflows"),
    ])
    def test_an_unusable_outcome_exits_two(self, tmp_path, capsys, bad, message):
        _, edges = write_toy12(tmp_path)
        y = [bad if i == 5 else v for i, v in enumerate(TOY12_Y)]
        (tmp_path / "outcomes.csv").write_text("id,y,t\n" + "".join(
            f"{i},{y[i]},{TOY12_T_OBS[i]}\n" for i in range(12)))
        assert main(oracle_args(str(tmp_path / "outcomes.csv"), edges)) == 2
        assert f"netrand: error: {message}" in capsys.readouterr().err

    def test_stratified_requires_stratum_column(self, tmp_path):
        nodes, edges = write_toy12(tmp_path)
        argv = oracle_args(nodes, edges) + ["--stratified"]
        assert main(argv) == 2


class TestCheckCommand:
    def test_balanced_design_passes(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        rc = main(["check", "--nodes", nodes, "--edges", edges])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overlap"]["passed"]
        assert payload["epsilon_feasibility_bound"] == pytest.approx(2 / 12)
        assert payload["degree_diagnostics"]["third_moment"] == pytest.approx(27.0)

    def test_tight_band_fails_with_exit_two(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path)
        rc = main(["check", "--nodes", nodes, "--edges", edges,
                   "--eta", "0.45"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert not payload["overlap"]["passed"]
        assert any(not c["passed"] for c in payload["overlap"]["cells"])


class TestInspectCommand:
    def test_summary_fields(self, tmp_path, capsys):
        nodes, edges = write_toy12(tmp_path, with_x=True)
        rc = main(["inspect", "--nodes", nodes, "--edges", edges])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_units"] == 12
        assert payload["n_edges"] == 18
        assert payload["n_treated"] == 6
        assert payload["degrees"] == {"min": 3, "max": 3, "mean": 3.0}
        assert payload["exposure_counts"] == {"0": 6, "1": 6}
        assert payload["arm_exposure_counts"] == {
            "t0,pi0": 2, "t1,pi0": 4, "t0,pi1": 4, "t1,pi1": 2}
        assert payload["has_covariate"]
        assert payload["exposure_covariate_counts"] == {
            "pi0,x0": 3, "pi0,x1": 3, "pi1,x0": 3, "pi1,x1": 3}


class TestSimulateCommand:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["simulate", "--table", "2", "--reps", "2", "--seed", "5",
                   "--techniques", "oracle", "--dgps", "normal",
                   "--sigma-taus", "0", "--n", "100", "--epsilon", "0.1",
                   "--b", "19", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        with open(out / "table_2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["technique"] == "oracle"
        assert "reject_combined" in rows[0]
        payload = json.loads((out / "table_2.json").read_text())
        assert payload["rows"][0]["reps_done"] == 2

    def test_unknown_technique_exits_two(self, tmp_path):
        rc = main(["simulate", "--table", "2", "--reps", "1", "--seed", "5",
                   "--techniques", "bayes"])
        assert rc == 2
