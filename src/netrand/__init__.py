"""Conditional randomization tests for treatment-effect heterogeneity
under network interference."""

from .assignment import CompleteRandomization, StratifiedComplete
from .conditioning import (ConditioningConfig, Draws, SuperFocalSet, arm_counts,
                           cell_mask, epsilon_feasibility, family_cells,
                           relative_frequency, sample_conditioning_set,
                           select_observed_focal, superfocal_for_cell)
from .data import Dataset, ingest, read_nodes_csv
from .exposure import (CustomMapping, ExposureVector, FractionThreshold,
                       WeightedThreshold, compute_exposures,
                       exposure_cell_counts)
from .graph import (DegreeDiagnostics, Graph, build_graph, degree_diagnostics,
                    overlap_check, read_edge_csv)
from .inference import (CIConfig, TestReport, adjust_multiple,
                        empirical_pvalue, estimate_tau_plugin,
                        make_balanced_split, neyman_interval, run_ci_test,
                        run_oracle_test, run_permutation_variant,
                        run_plugin_test, run_ss_test)
from .nullspec import NullSpec, NuisanceParams
from .simulation import (generate_potential_outcomes, generate_regular_graph,
                         run_scenario, run_table)
from .stats import (TestStatisticValue, conditional_variance, ts_per_exposure,
                    variance_ratio)
from . import errors

__all__ = [
    "CompleteRandomization", "StratifiedComplete",
    "ConditioningConfig", "Draws", "SuperFocalSet", "arm_counts", "cell_mask",
    "epsilon_feasibility", "relative_frequency",
    "sample_conditioning_set", "select_observed_focal", "superfocal_for_cell",
    "Dataset", "ingest", "read_nodes_csv",
    "CustomMapping", "ExposureVector", "FractionThreshold", "WeightedThreshold",
    "compute_exposures", "exposure_cell_counts",
    "DegreeDiagnostics", "Graph", "build_graph", "degree_diagnostics",
    "overlap_check", "read_edge_csv",
    "CIConfig", "TestReport", "adjust_multiple", "empirical_pvalue",
    "estimate_tau_plugin", "family_cells", "make_balanced_split",
    "neyman_interval", "run_ci_test", "run_oracle_test",
    "run_permutation_variant", "run_plugin_test", "run_ss_test",
    "NullSpec", "NuisanceParams",
    "generate_potential_outcomes", "generate_regular_graph", "run_scenario",
    "run_table",
    "TestStatisticValue", "conditional_variance", "ts_per_exposure",
    "variance_ratio",
    "errors",
]
__version__ = "0.1.0"
