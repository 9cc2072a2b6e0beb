"""Variance-controlled batch sizing for finite-sum stochastic gradient descent.

The library covers the full loop: finite-sum problems with per-component
gradients, seeded batch sampling with and without replacement, closed-form
batch-gradient variances with exact enumeration oracles, tolerance-driven
minimal batch-size rules, an SGD driver with telemetry, and a CLI for
verification sweeps, growth curves, and training runs.
"""
from .finite_sum import (
    DatasetFormatError,
    EvaluationError,
    FiniteSumProblem,
    GradientStats,
    batch_gradient,
    component_gradient_variance,
    full_gradient,
    gradient_matrix,
    gradient_stats,
    load_dataset,
    make_least_squares,
    make_logistic,
    objective_value,
)
from .optimizer import (
    IterationRow,
    LearningRateSchedule,
    RunConfig,
    RunRecord,
    learning_rate_at,
    run,
)
from .sampling import (
    DEFAULT_ENUMERATION_CAP,
    Batch,
    EnumerationCapError,
    Scheme,
    SeededRng,
    batch_probability,
    count_batches,
    enumerate_batches,
    make_batch,
    sample_with_replacement,
    sample_without_replacement,
)
from .scheduler import (
    BatchSizeRule,
    EpsilonSchedule,
    VarianceCap,
    batch_bound_with_replacement,
    batch_bound_without_replacement,
    batch_sizes,
    epsilon_at,
    min_batch_with_replacement,
    min_batch_without_replacement,
    next_batch_size,
)
from .variance import (
    analytic_variance,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    average_batch_covariance,
    empirical_batch_variance,
    exact_batch_variance,
    exact_batch_variances,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BatchSizeRule",
    "DEFAULT_ENUMERATION_CAP",
    "DatasetFormatError",
    "EnumerationCapError",
    "EpsilonSchedule",
    "EvaluationError",
    "FiniteSumProblem",
    "GradientStats",
    "IterationRow",
    "LearningRateSchedule",
    "RunConfig",
    "RunRecord",
    "Scheme",
    "SeededRng",
    "VarianceCap",
    "analytic_variance",
    "analytic_variance_with_replacement",
    "analytic_variance_without_replacement",
    "average_batch_covariance",
    "batch_bound_with_replacement",
    "batch_bound_without_replacement",
    "batch_gradient",
    "batch_probability",
    "batch_sizes",
    "component_gradient_variance",
    "count_batches",
    "empirical_batch_variance",
    "enumerate_batches",
    "epsilon_at",
    "exact_batch_variance",
    "exact_batch_variances",
    "full_gradient",
    "gradient_matrix",
    "gradient_stats",
    "learning_rate_at",
    "load_dataset",
    "make_batch",
    "make_least_squares",
    "make_logistic",
    "min_batch_with_replacement",
    "min_batch_without_replacement",
    "next_batch_size",
    "objective_value",
    "run",
    "sample_with_replacement",
    "sample_without_replacement",
]
