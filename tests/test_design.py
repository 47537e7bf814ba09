"""A test's observed side: prepare builds one Design per test and
check_feasible is the one feasibility check, so every design the engine
cannot test raises an InfeasibleConditioning that names a cell or effect
key, the same one under every technique that scores all units, and the
CLI exits 3 for it."""
import json

import numpy as np
import pytest

from fixtures import (TEN_MAPPING, TOY12_EPS, TOY12_MAPPING, make_ten, make_toy12)
from netrand.assignment import CompleteRandomization
from netrand.cli import main
from netrand.conditioning import Design, cell_mask
from netrand.data import Dataset
from netrand.errors import (EmptySuperFocal, InfeasibleConditioning, SplitInfeasible,
                            TooFewUnits)
from netrand.exposure import FractionThreshold
from netrand.graph import build_graph
from netrand.inference import (TECHNIQUES, SplitResult, check_feasible, family_cells,
                               make_balanced_split, prepare, run_permutation_variant,
                               run_ss_test, run_technique)
from netrand.nullspec import NullSpec, NuisanceParams, effect_key

FAMILIES = {"h0": "constant_all", "hpi": "by_exposure", "hxpi": "by_exposure_covariate"}
# name: (dataset, mapping, its CLI comparator, epsilon)
DESIGNS = {"toy12": (make_toy12(with_x=True), TOY12_MAPPING, "gt", TOY12_EPS),
           "ten": (make_ten(with_x=True), TEN_MAPPING, "ge", 0.1)}
B, SEED = 20, 5


def zero_null(family, mapping, ds):
    keys = {effect_key(family, c) for c in family_cells(family, mapping.values, ds.x_levels)}
    return NullSpec(family, NuisanceParams({k: 0.0 for k in keys}))


def outcome(tech, name, family, stat):
    """The report, or the InfeasibleConditioning the run raised."""
    ds, mapping, _, eps = DESIGNS[name]
    try:
        return run_technique(tech, ds, mapping, CompleteRandomization(ds.n, int(ds.t.sum())),
                             family, np.random.SeedSequence(SEED),
                             null=zero_null(family, mapping, ds), epsilon=eps, b=B, stat=stat)
    except InfeasibleConditioning as exc:
        return exc


def write_design(tmp_path, name):
    ds = DESIGNS[name][0]
    nodes, edges = tmp_path / f"{name}-nodes.csv", tmp_path / f"{name}-edges.csv"
    nodes.write_text("id,y,t,x\n" + "".join(
        f"{i},{float(ds.y[i])!r},{ds.t[i]},{ds.x[i]}\n" for i in range(ds.n)))
    edges.write_text("src,dst\n" + "".join(f"{a},{b}\n" for a, b in sorted(ds.graph.edges)))
    return str(nodes), str(edges)


CASES = [(name, null, stat) for name in DESIGNS for null in FAMILIES
         for stat in ("multiple", "combined")]


class TestPrepare:
    def test_design_holds_each_cell_units_ascending(self):
        ds = make_ten(with_x=True)
        design = prepare(ds, TEN_MAPPING, "by_exposure_covariate")
        assert isinstance(design, Design) and design.family == "by_exposure_covariate"
        assert design.cells == ((0, "f"), (0, "m"), (1, "f"), (1, "m"))
        for c in design.cells:
            want = np.flatnonzero(cell_mask(design.exposures.values, c, ds.x))
            assert design.units[c].tolist() == want.tolist()
        assert design.units[(0, "f")].tolist() == [3, 4, 9]
        scored = np.arange(10) != 4
        assert design.scored((0, "f"), scored).tolist() == [3, 9]
        assert design.scored((0, "f")) is design.units[(0, "f")]

    def test_an_empty_cell_raises(self):
        # no edges: every unit is isolated at exposure 0, so cell (1,) is empty
        ds = Dataset(y=np.zeros(4), t=np.array([1, 1, 0, 0]), graph=build_graph(4, []))
        with pytest.raises(EmptySuperFocal, match=r"^no units with observed cell \(1,\)$"):
            prepare(ds, FractionThreshold(), "by_exposure")


class TestCheckFeasible:
    def test_estimation_side_is_checked_before_the_scored_units(self):
        # toy12 cell (0,) is units 0-3, 10 and 11, of which 0 and 10 are control
        ds = make_toy12()
        design = prepare(ds, TOY12_MAPPING, "by_exposure")
        controls, every = np.isin(np.arange(12), [0, 10]), np.ones(12, dtype=bool)
        with pytest.raises(SplitInfeasible,
                           match=r"^estimation side of cell \(0,\) has no arm-0 units$"):
            check_feasible(design, ds.t, SplitResult(~controls, controls, []))
        with pytest.raises(SplitInfeasible,
                           match=r"^estimation side of cell \(0,\) has no arm-1 units$"):
            check_feasible(design, ds.t, SplitResult(controls, every, []))
        with pytest.raises(TooFewUnits, match=r"^cell \(0,\): the observed assignment "
                                              r"has 1/4 scored"):
            check_feasible(design, ds.t, SplitResult(every, np.arange(12) != 0, []))
        check_feasible(design, ds.t)  # every unit scored: 2/4 and 4/2


class TestEveryTechniqueFamilyAndStat:
    @pytest.mark.parametrize("name,null,stat", CASES)
    def test_report_or_an_error_naming_a_cell_or_effect_key(self, name, null, stat):
        ds, mapping, _, _ = DESIGNS[name]
        family = FAMILIES[null]
        cells = family_cells(family, mapping.values, ds.x_levels)
        names = [f"cell {c}" for c in cells] + [f"effect key {effect_key(family, c)}"
                                               for c in cells]
        for tech in TECHNIQUES:
            got = outcome(tech, name, family, stat)
            if isinstance(got, InfeasibleConditioning):
                assert any(n in str(got) for n in names), (tech, got)
            else:
                assert [c.cell for c in got.cells] == cells

    @pytest.mark.parametrize("name,null,stat", CASES)
    def test_oracle_plugin_and_ci_fail_alike(self, name, null, stat):
        # none of them scores a subset, so one design fails them the same way
        got = [outcome(tech, name, FAMILIES[null], stat) for tech in ("oracle", "plugin", "ci")]
        errors = [(type(g), str(g)) for g in got if isinstance(g, InfeasibleConditioning)]
        assert errors == [] or errors == [errors[0]] * 3

    @pytest.mark.parametrize("name,null,stat", CASES)
    def test_the_cli_exits_3_with_the_same_error(self, tmp_path, capsys, name, null, stat):
        ds, mapping, comparator, eps = DESIGNS[name]
        nodes, edges = write_design(tmp_path, name)
        family = FAMILIES[null]
        taus = tmp_path / "taus.json"
        taus.write_text(json.dumps({",".join(map(str, k)): v for k, v in
                                    zero_null(family, mapping, ds).nuisance.values.items()}))
        for tech in TECHNIQUES:
            want = outcome(tech, name, family, stat)
            if not isinstance(want, InfeasibleConditioning):
                continue
            argv = ["test", "--nodes", nodes, "--edges", edges, "--null", null,
                    "--technique", tech, "--stat", stat, "--epsilon", str(eps),
                    "--b", str(B), "--seed", str(SEED), "--comparator", comparator]
            if tech == "oracle":
                argv += ["--tau", "0.0"] if null == "h0" else ["--tau-map", str(taus)]
            capsys.readouterr()
            assert main(argv) == 3, (tech, want)
            assert capsys.readouterr().err == f"netrand: infeasible conditioning: {want}\n"


class TestSplitTechniquesAgree:
    """run_ss_test and run_permutation_variant make the same check on the
    same split: make_ten's covariate cells fail it on the estimation side
    with split seed 7 and on the inference side with split seed 20."""

    @pytest.mark.parametrize("seed,error,message", [
        (7, SplitInfeasible, "estimation side of cell (0, 'f') has no arm-0 units"),
        (20, TooFewUnits, "cell (0, 'f'): the observed assignment has 0/1 scored "
                          "super-focal units in arms 0/1; every draw needs >= 2 per arm"),
    ])
    def test_same_class_and_message(self, seed, error, message):
        ds, family = make_ten(with_x=True), "by_exposure_covariate"
        exposures = prepare(ds, TEN_MAPPING, family).exposures
        split = make_balanced_split(ds, exposures, family, np.random.default_rng(seed))
        with pytest.raises(error) as perm:
            run_permutation_variant(ds, TEN_MAPPING, family, split, 10,
                                    np.random.default_rng(0))
        with pytest.raises(error) as ss:
            run_ss_test(ds, TEN_MAPPING, CompleteRandomization(10, 5), family, epsilon=0.1,
                        b=10, split_rng=np.random.default_rng(seed),
                        rng=np.random.default_rng(0))
        assert str(perm.value) == str(ss.value) == message
