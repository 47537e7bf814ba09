"""Null hypotheses, and the outcome imputation they license, checked on
the fixture oracles the engine's draws are compared with."""
import pytest

from fixtures import (TEN_MAPPING, TEN_PI_ALT, TEN_PI_OBS, TEN_T_ALT, TEN_T_OBS,
                      TEN_Y, make_ten, oracle_focal, oracle_imputed)
from netrand.errors import MissingParameter
from netrand.exposure import compute_exposures
from netrand.nullspec import NullSpec, NuisanceParams

TAU = 0.75  # dyadic so additions below are exact in float64


class TestNullSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NullSpec("weird", NuisanceParams({(): 0.0}))

    def test_testable_family_requires_nuisance(self):
        with pytest.raises(MissingParameter):
            NullSpec("constant_all")

    def test_constant_lookup(self):
        null = NullSpec.constant(TAU)
        assert null.tau_for(0) == TAU
        assert null.tau_for(1, "m") == TAU

    def test_per_exposure_lookup_accepts_scalar_keys(self):
        null = NullSpec.per_exposure({0: 1.0, 1: 2.5})
        assert null.tau_for(0) == 1.0
        assert null.tau_for(1) == 2.5
        with pytest.raises(MissingParameter):
            null.tau_for(3)

    def test_per_cell_lookup_needs_covariate(self):
        null = NullSpec.per_cell({(0, "m"): 1.0, (0, "f"): 2.0,
                                  (1, "m"): 3.0, (1, "f"): 4.0})
        assert null.tau_for(1, "f") == 4.0
        with pytest.raises(MissingParameter):
            null.tau_for(1)

    def test_general_is_representable_but_carries_no_values(self):
        null = NullSpec.general("effects uncorrelated with degree")
        assert null.descriptor
        with pytest.raises(MissingParameter):
            null.tau_for(0)


def science_table(null, t_new, pi_new):
    """The outcome column the scorer imputes under t_new: each cell's focal
    units (exposure unchanged) get y + tau (t_new - t_obs) at the cell's
    effect value; every other unit leaves the science table (None)."""
    table = [None] * 10
    for v in (0, 1):
        imputed = oracle_imputed(TEN_Y, TEN_T_OBS, t_new, null.tau_for(v))
        for i in oracle_focal(t_new, pi_new, TEN_PI_OBS, v):
            table[i] = imputed[i]
    return table


class TestImputation:
    def test_science_table_under_permuted_vector(self):
        # Only units whose exposure survives the new assignment are
        # imputable; the rest leave the observed science table.
        null = NullSpec.constant(TAU)
        want = [TEN_Y[0] + TAU, None, TEN_Y[2] + TAU, None, None,
                TEN_Y[5] - TAU, None, None, None, TEN_Y[9]]
        assert science_table(null, TEN_T_ALT, TEN_PI_ALT) == want

    def test_science_table_per_exposure_null(self):
        taus = {0: 0.5, 1: 2.0}
        null = NullSpec.per_exposure(taus)
        want = [TEN_Y[0] + 2.0, None, TEN_Y[2] + 2.0, None, None,
                TEN_Y[5] - 0.5, None, None, None, TEN_Y[9]]
        assert science_table(null, TEN_T_ALT, TEN_PI_ALT) == want

    def test_per_cell_uses_covariate_level(self):
        null = NullSpec.per_cell({(0, "m"): 1.0, (0, "f"): -1.0,
                                  (1, "m"): 2.0, (1, "f"): -2.0})
        got_m = oracle_imputed([5.0], [0], [1], null.tau_for(1, "m"))
        got_f = oracle_imputed([5.0], [0], [1], null.tau_for(1, "f"))
        assert got_m == [7.0] and got_f == [3.0]

    def test_exposure_change_is_not_imputable_even_under_constant(self):
        # a unit observed at exposure 0 that moves to exposure 1 is focal
        # in neither cell, so no effect value is ever applied to it
        for v in (0, 1):
            assert oracle_focal((1,), (1,), (0,), v) == ()

    def test_identity_check_on_fixture(self):
        # imputing every unit at its own observed assignment returns y
        ds = make_ten(with_x=True)
        pi = compute_exposures(TEN_MAPPING, ds.t, ds.graph).values
        for null in (NullSpec.constant(TAU),
                     NullSpec.per_exposure({0: 1.0, 1: 2.0}),
                     NullSpec.per_cell({(v, l): float(v + 1)
                                        for v in (0, 1) for l in ("m", "f")})):
            x = ds.x if null.family == "by_exposure_covariate" else [None] * 10
            got = [oracle_imputed(TEN_Y, TEN_T_OBS, TEN_T_OBS,
                                  null.tau_for(pi[i], x[i]))[i] for i in range(10)]
            assert got == list(TEN_Y)
