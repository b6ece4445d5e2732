"""hafkit: Gaussian hafnian estimation and its supporting toolbox.

Core pieces: exact hafnian / perfect-matching oracles for small graphs, a
counter-based reproducible Monte Carlo determinant estimator, symmetric
doubly stochastic scaling, graph expansion checkers, the biased-estimator
counterexample construction, and a desk-scale experiment harness.
"""

__version__ = "0.1.0"

from .counterexample import (
    BiasReport,
    CounterexampleSpec,
    build_counterexample,
    check_weak_expansion_structural,
    run_bias_experiment,
)
from .errors import InputError, NumericalError
from .estimator import (
    EstimatorSummary,
    barvinok_envelope,
    estimate,
    sample_log_det,
    sample_log_dets,
    sample_w,
)
from .exact import HafnianValue, count_perfect_matchings, hafnian_exact, matching_exists
from .experiments import (
    complete_graph,
    concentration_error,
    eigenvalue_density,
    random_regular_graph,
    smallest_sv_tail,
)
from .graphs import (
    ExpansionReport,
    GraphEdgeList,
    HypothesisReport,
    boundary,
    check_strong_expansion,
    check_theorem_hypotheses,
    check_weak_expansion,
    connected_components_within,
    large_entries_graph,
    min_degree,
)
from .linalg import (
    SkewMatrix,
    SpectrumReport,
    SymMatrix,
    log_det_skew,
    pfaffian_log,
    pfaffian_log_stack,
    spectrum,
)
from .scaling import (
    ScalingAudit,
    ScalingResult,
    audit_entry_bounds,
    scale_symmetric,
)

__all__ = [
    "__version__",
    "InputError",
    "NumericalError",
    "SymMatrix",
    "SkewMatrix",
    "SpectrumReport",
    "pfaffian_log",
    "pfaffian_log_stack",
    "log_det_skew",
    "spectrum",
    "HafnianValue",
    "hafnian_exact",
    "count_perfect_matchings",
    "matching_exists",
    "EstimatorSummary",
    "sample_w",
    "sample_log_det",
    "sample_log_dets",
    "estimate",
    "barvinok_envelope",
    "ScalingResult",
    "ScalingAudit",
    "scale_symmetric",
    "audit_entry_bounds",
    "GraphEdgeList",
    "ExpansionReport",
    "HypothesisReport",
    "large_entries_graph",
    "boundary",
    "connected_components_within",
    "min_degree",
    "check_strong_expansion",
    "check_weak_expansion",
    "check_theorem_hypotheses",
    "CounterexampleSpec",
    "BiasReport",
    "build_counterexample",
    "check_weak_expansion_structural",
    "run_bias_experiment",
    "complete_graph",
    "random_regular_graph",
    "smallest_sv_tail",
    "eigenvalue_density",
    "concentration_error",
]
