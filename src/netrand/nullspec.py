"""Null hypotheses about treatment effects and the imputation they license.

A null fixes the effect of own-treatment within an exposure (or
exposure-covariate) cell, which lets outcomes be imputed across arms as
long as a new treatment vector leaves the unit's exposure unchanged.
Changing the exposure leads off the observed science table: the result is
NotImputable (returned as None), a value rather than an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import MissingParameter

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset
    from .exposure import ExposureVector

CONSTANT_ALL = "constant_all"
BY_EXPOSURE = "by_exposure"
BY_EXPOSURE_COVARIATE = "by_exposure_covariate"
GENERAL = "general"

FAMILIES = (CONSTANT_ALL, BY_EXPOSURE, BY_EXPOSURE_COVARIATE, GENERAL)

# provenance tags for nuisance values
ORACLE = "oracle"
PLUGIN = "plugin"
SPLIT_ESTIMATE = "split_estimate"


@dataclass(frozen=True)
class NuisanceParams:
    """Effect values keyed by cell: () for a single constant, (pi,) per
    exposure, (pi, x) per exposure-covariate cell."""

    values: Mapping[tuple, float]
    provenance: str = ORACLE

    def get(self, key: tuple) -> float:
        try:
            return float(self.values[key])
        except KeyError:
            raise MissingParameter(f"no effect value for cell {key!r}") from None


@dataclass(frozen=True)
class NullSpec:
    """A testable (or merely representable) hypothesis about effects.

    ``general`` carries a free-form descriptor; it can be stated but not
    used for imputation, so every impute call under it returns None.
    """

    family: str
    nuisance: NuisanceParams | None = None
    descriptor: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != GENERAL and self.nuisance is None:
            raise MissingParameter(f"family {self.family!r} requires nuisance values")

    @classmethod
    def constant(cls, tau: float) -> "NullSpec":
        return cls(CONSTANT_ALL, NuisanceParams({(): float(tau)}))

    @classmethod
    def per_exposure(cls, taus: Mapping, provenance: str = ORACLE) -> "NullSpec":
        vals = {(k if isinstance(k, tuple) else (k,)): float(v) for k, v in taus.items()}
        return cls(BY_EXPOSURE, NuisanceParams(vals, provenance))

    @classmethod
    def per_cell(cls, taus: Mapping[tuple, float], provenance: str = ORACLE) -> "NullSpec":
        return cls(BY_EXPOSURE_COVARIATE, NuisanceParams(dict(taus), provenance))

    @classmethod
    def general(cls, descriptor: str) -> "NullSpec":
        return cls(GENERAL, None, descriptor=descriptor)

    def tau_for(self, pi, x=None) -> float:
        if self.family == CONSTANT_ALL:
            return self.nuisance.get(())
        if self.family == BY_EXPOSURE:
            return self.nuisance.get((pi,))
        if self.family == BY_EXPOSURE_COVARIATE:
            if x is None:
                raise MissingParameter("family needs a covariate level for lookup")
            return self.nuisance.get((pi, x))
        raise MissingParameter("general hypotheses carry no effect values")


def impute_outcome(null: NullSpec, y_obs: float, t_obs: int, pi_obs,
                   t_new: int, pi_new, x=None) -> float | None:
    """Outcome the unit would show under (t_new, pi_new), or None.

    Imputable only when pi_new == pi_obs, in which case the null pins the
    cross-arm difference: y_obs + tau * (t_new - t_obs).
    """
    if null.family == GENERAL:
        return None
    if pi_new != pi_obs:
        return None
    tau = null.tau_for(pi_obs, x)
    return float(y_obs) + tau * (int(t_new) - int(t_obs))


def observed_outcome_identity_check(dataset: "Dataset",
                                    exposures: "ExposureVector",
                                    null: NullSpec) -> bool:
    """Imputing every unit at its own observed (t, pi) must return y_obs."""
    pi = np.asarray(exposures.values)
    for i in range(dataset.n):
        xi = dataset.x[i] if dataset.x is not None else None
        got = impute_outcome(null, dataset.y[i], int(dataset.t[i]), pi[i],
                             int(dataset.t[i]), pi[i], xi)
        if got is None or got != dataset.y[i]:
            return False
    return True
