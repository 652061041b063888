"""Threshold cascades on random graphs with overlapping communities.

The graph model places each individual in a random number of communities and
projects every community onto a clique; the contagion activates a vertex when
the fraction of its active neighbours strictly exceeds a rational threshold.
The package computes the exact within-community cascade law, the mean matrix
of the induced multi-type branching process, and its Perron root, which
decides whether a global cascade is possible; a Monte Carlo engine
cross-checks every closed form.
"""

from .analytic_graph import (
    BranchingCriterion,
    ClusteringResult,
    ExtinctionReport,
    clustering_coefficient,
    extinction_probability,
    root_degree_pmf,
    smallest_fixed_point,
    survival_criterion,
)
from .cascade_matrix import (
    MeanMatrix,
    Verdict,
    VerdictKind,
    VerdictReason,
    cascade_verdict,
    mean_active_of_type,
    mean_matrix,
    spectral_radius,
    strongly_connected_components,
)
from .clique_dynamics import clique_pgf
from .dist_core import (
    ModelParams,
    Pmf,
    Threshold,
    child_count_pmf,
    pgf_compose,
)
from .errors import (
    AssumptionViolated,
    CascadeError,
    CensusOverflow,
    ConfigInvalid,
    EmptySupport,
    EnumerationTooLarge,
    InvalidOutcome,
    MassNotOne,
    NegativeProbability,
    NoConvergence,
    UnsortedInput,
    ZeroMean,
)
from .mc_sim import (
    LocalGraph,
    SimConfig,
    SimReport,
    estimate,
    run_contagion,
    sample_local_graph,
    survival_by_threshold,
)
from .verification import (
    CliqueOutcome,
    OracleCheck,
    activation_requirement,
    brute_force_clique_law,
    clique_cascade_size,
    oracle_equivalence_checks,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated",
    "BranchingCriterion",
    "CascadeError",
    "CensusOverflow",
    "CliqueOutcome",
    "ClusteringResult",
    "ConfigInvalid",
    "EmptySupport",
    "EnumerationTooLarge",
    "ExtinctionReport",
    "InvalidOutcome",
    "LocalGraph",
    "MassNotOne",
    "MeanMatrix",
    "ModelParams",
    "NegativeProbability",
    "NoConvergence",
    "OracleCheck",
    "Pmf",
    "SimConfig",
    "SimReport",
    "Threshold",
    "UnsortedInput",
    "Verdict",
    "VerdictKind",
    "VerdictReason",
    "ZeroMean",
    "activation_requirement",
    "brute_force_clique_law",
    "cascade_verdict",
    "child_count_pmf",
    "clique_cascade_size",
    "clique_pgf",
    "clustering_coefficient",
    "estimate",
    "extinction_probability",
    "mean_active_of_type",
    "mean_matrix",
    "oracle_equivalence_checks",
    "pgf_compose",
    "root_degree_pmf",
    "run_contagion",
    "sample_local_graph",
    "smallest_fixed_point",
    "spectral_radius",
    "strongly_connected_components",
    "survival_by_threshold",
    "survival_criterion",
]
