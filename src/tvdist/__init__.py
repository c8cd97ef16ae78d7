"""Total variation distance between discrete product distributions.

Estimate tv(P, Q) to a target relative accuracy by importance sampling from
the greedy coordinate-wise coupling's conditional disagreement law, with an
exhaustive-enumeration oracle and a plain Monte Carlo baseline for
verification.
"""

import importlib

from .distributions import (
    GreedyCouplingStats,
    ProductDistribution,
    are_identical,
    build_stats,
    sample_count,
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
    SlackOnlyDifference,
    TvdistError,
    ValidationError,
    ZeroDenominator,
)

__version__ = "0.1.0"

#: Names and submodules imported on first access, so numpy loads only to draw.
_ON_DEMAND = {
    name: module
    for module, names in {
        "coupling": "coupling sample_pi_batch EstimateResult EstimatorConfig estimate_tv "
        "estimator_f naive_estimate_tv",
        "oracle": "exact_expectation_f exact_pi exact_tv",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_ON_DEMAND[name]}", __name__)
    return module if name == _ON_DEMAND[name] else getattr(module, name)


__all__ = [
    "BudgetExceeded",
    "DegenerateConditional",
    "DomainMismatch",
    "EmptyInput",
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
    "SlackOnlyDifference",
    "TvdistError",
    "ValidationError",
    "ZeroDenominator",
    "are_identical",
    "build_stats",
    "estimate_tv",
    "estimator_f",
    "exact_expectation_f",
    "exact_pi",
    "exact_tv",
    "naive_estimate_tv",
    "sample_count",
    "sample_pi_batch",
    "validate",
]
