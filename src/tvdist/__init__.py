"""Total variation distance between discrete product distributions.

Estimate tv(P, Q) to a target relative accuracy by importance sampling from
the greedy coordinate-wise coupling's conditional disagreement law, with an
exhaustive-enumeration oracle and a plain Monte Carlo baseline for
verification.
"""

from .coupling import GreedyCouplingStats, build_stats, sample_pi_batch
from .distributions import ProductDistribution, are_identical, validate
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
from .estimator import (
    EstimateResult,
    EstimatorConfig,
    estimate_tv,
    estimator_f,
    naive_estimate_tv,
    sample_count,
)

__version__ = "0.1.0"

#: The oracle's names, imported on first access: CLI commands other than
#: ``exact`` then never load ``fractions`` and ``decimal``.
_ORACLE_NAMES = frozenset(
    "EnumerationBudget exact_expectation_f exact_pi exact_tv".split()
)


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)


__all__ = [
    "BudgetExceeded",
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
