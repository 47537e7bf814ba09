"""Null hypotheses about treatment effects and the effect values they fix.

A null fixes the effect of own-treatment within an exposure (or
exposure-covariate) cell, which lets outcomes be imputed across arms as
long as a new treatment vector leaves the unit's exposure unchanged. The
scorer (``inference._score_grid``) scores only focal units, those whose
exposure a draw leaves unchanged, on the imputed y + tau (t_new - t_obs):
within an arm that is a quadratic in tau, so it takes each arm's moments
once per draw and evaluates every tau from them (``stats.arm_variances``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import MissingParameter

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
    tested, because it fixes no effect value to impute with.
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
