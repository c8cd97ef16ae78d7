"""Total variation distance between discrete product distributions.

Estimate tv(P, Q) to a target relative accuracy by importance sampling from
the greedy coordinate-wise coupling's conditional disagreement law, with an
exhaustive-enumeration oracle and a plain Monte Carlo baseline for
verification.
"""

from .coupling import GreedyCouplingStats, build_stats, sample_pi_batch
from .distributions import (
    Assignment,
    CategoricalMarginal,
    ProductDistribution,
    are_identical,
    coordinate_tv,
    validate,
)
from .errors import (
    BudgetExceeded,
    DegenerateConditional,
    DomainMismatch,
    EmptyInput,
    EstimatorOutOfRange,
    IdenticalDistributions,
    IndexOutOfRange,
    InstanceFormatError,
    InternalInvariantError,
    InvalidParameter,
    MarginalNotNormalized,
    NegativeProbability,
    TvdistError,
    ValidationError,
    ZeroDenominator,
)
from .estimator import (
    EstimateResult,
    EstimatorConfig,
    estimate_tv,
    estimator_f,
    naive_estimate_tv,
    sample_count,
)
from .oracle import (
    EnumerationBudget,
    exact_expectation_f,
    exact_pi,
    exact_sum_positive_part,
    exact_tv,
    random_instance_pair,
    random_instances,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BudgetExceeded",
    "CategoricalMarginal",
    "DegenerateConditional",
    "DomainMismatch",
    "EmptyInput",
    "EnumerationBudget",
    "EstimateResult",
    "EstimatorConfig",
    "EstimatorOutOfRange",
    "GreedyCouplingStats",
    "IdenticalDistributions",
    "IndexOutOfRange",
    "InstanceFormatError",
    "InternalInvariantError",
    "InvalidParameter",
    "MarginalNotNormalized",
    "NegativeProbability",
    "ProductDistribution",
    "TvdistError",
    "ValidationError",
    "ZeroDenominator",
    "are_identical",
    "build_stats",
    "coordinate_tv",
    "estimate_tv",
    "estimator_f",
    "exact_expectation_f",
    "exact_pi",
    "exact_sum_positive_part",
    "exact_tv",
    "naive_estimate_tv",
    "random_instance_pair",
    "random_instances",
    "sample_count",
    "sample_pi_batch",
    "validate",
]
