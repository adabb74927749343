"""Stronger random baselines for classification results that reuse a validation set.

When the best of ``t`` prompts or classifiers is reported on the same
``n``-example validation set, the fair chance bar is the expected best
accuracy of ``t`` random classifiers, not the usual ``1/m``.  This
package computes that baseline exactly, with p-values, threshold
solvers, simulation oracles, and an auditing pipeline for published
results.
"""

from .audit import (
    AuditSummary,
    AuditVerdict,
    CategoryCounts,
    ExperimentRecord,
    GroupCounts,
    LoadResult,
    PredictionEvaluation,
    PredictorStats,
    RowError,
    aggregate,
    categorize_observation,
    classify,
    empirical_expected_max,
    empirical_expected_maxima,
    evaluate_prediction,
    pr_points,
    read_records,
    roc_points,
)
from .dist import (
    CountDistribution,
    LabelScheme,
    PerExampleLabels,
    UniformLabels,
    binomial_cdf_beta,
    binomial_distribution,
    count_distribution,
    poisson_binomial_distribution,
)
from .errors import ConvergenceError, DomainError, FeasibilityError, MaxrandError
from .oracle import (
    SimulationConfig,
    SimulationResult,
    enumerate_max_pmf,
    simulate_expected_max,
)
from .orderstat import (
    BaselineReport,
    MaxOrderDistribution,
    TaskSpec,
    accuracy_to_count,
    baseline_report,
    expected_max_accuracies,
    expected_max_accuracy,
    expected_standard_accuracy,
    max_order_distribution,
    min_accuracy_at_significance,
    min_accuracy_beating_max,
    p_value_max,
    p_value_standard,
    tail_probability_max,
    tail_probability_standard,
)

__version__ = "0.1.0"

__all__ = [
    "AuditSummary",
    "AuditVerdict",
    "BaselineReport",
    "CategoryCounts",
    "ConvergenceError",
    "CountDistribution",
    "DomainError",
    "ExperimentRecord",
    "FeasibilityError",
    "GroupCounts",
    "LabelScheme",
    "LoadResult",
    "MaxOrderDistribution",
    "MaxrandError",
    "PerExampleLabels",
    "PredictionEvaluation",
    "PredictorStats",
    "RowError",
    "SimulationConfig",
    "SimulationResult",
    "TaskSpec",
    "UniformLabels",
    "accuracy_to_count",
    "aggregate",
    "baseline_report",
    "binomial_cdf_beta",
    "binomial_distribution",
    "categorize_observation",
    "classify",
    "count_distribution",
    "empirical_expected_max",
    "empirical_expected_maxima",
    "enumerate_max_pmf",
    "evaluate_prediction",
    "expected_max_accuracies",
    "expected_max_accuracy",
    "expected_standard_accuracy",
    "max_order_distribution",
    "min_accuracy_at_significance",
    "min_accuracy_beating_max",
    "p_value_max",
    "p_value_standard",
    "poisson_binomial_distribution",
    "pr_points",
    "read_records",
    "roc_points",
    "simulate_expected_max",
    "tail_probability_max",
    "tail_probability_standard",
]
