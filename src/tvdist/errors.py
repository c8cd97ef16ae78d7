"""Exception hierarchy for tvdist.

Input-contract violations derive from both :class:`TvdistError` and
:class:`ValueError` so callers may catch either. Internal invariant
violations signal a bug in this library (or corrupted state), never bad
user input, and map to a distinct CLI exit code.
"""

from __future__ import annotations


class TvdistError(Exception):
    """Base class for all tvdist errors."""


class ValidationError(TvdistError, ValueError):
    """Inputs violate the documented contract."""


class EmptyInput(ValidationError):
    """A distribution with no coordinates, or a coordinate with no categories."""


class NegativeProbability(ValidationError):
    """A probability entry is negative. Coordinates and categories are 1-based."""

    def __init__(self, coordinate: int, category: int, value: float):
        self.coordinate = coordinate
        self.category = category
        self.value = value
        super().__init__(
            f"coordinate {coordinate}, category {category}: "
            f"probability {value!r} is negative"
        )


class MarginalNotNormalized(ValidationError):
    """A marginal's entries do not sum to 1 within tolerance."""

    def __init__(self, coordinate: int, total: float):
        self.coordinate = coordinate
        self.total = total
        super().__init__(
            f"coordinate {coordinate}: probabilities sum to {total!r}, not 1"
        )


class SlackOnlyDifference(ValidationError):
    """A coordinate's two marginals differ only by their normalization slack.

    Q is at least P wherever P is positive, which two vectors that both sum
    to 1 allow only when they are equal. The coupling can then put no
    disagreement on the coordinate, although its half-L1 distance is
    positive, so its quantities would contradict each other.
    """

    def __init__(self, coordinate: int, distance: float):
        self.coordinate = coordinate
        self.distance = distance
        super().__init__(
            f"coordinate {coordinate}: Q >= P wherever P > 0, so the marginals "
            f"differ only by normalization slack (half-L1 distance {distance!r})"
        )


class DomainMismatch(ValidationError):
    """Two distributions (or marginals) disagree on shape."""

    def __init__(self, message: str, coordinate: int | None = None):
        self.coordinate = coordinate
        super().__init__(message)


class IndexOutOfRange(ValidationError):
    """An assignment names a category outside {1, ..., q_i}."""

    def __init__(self, coordinate: int, value: int, domain_size: int):
        self.coordinate = coordinate
        self.value = value
        self.domain_size = domain_size
        super().__init__(
            f"coordinate {coordinate}: category {value} outside 1..{domain_size}"
        )


class InvalidParameter(ValidationError):
    """A configuration value (epsilon, delta, seed, ...) is out of range."""


class InstanceFormatError(ValidationError):
    """An instance document or probability vector has the wrong structure.

    ``coordinate`` and ``category`` (1-based) name the offending entry when
    there is one, such as a probability given as a bool or a string.
    """

    def __init__(
        self, message: str, coordinate: int | None = None, category: int | None = None
    ):
        self.coordinate = coordinate
        self.category = category
        super().__init__(message)


class IdenticalDistributions(TvdistError):
    """The two distributions are identical, so the conditional law is undefined."""


class BudgetExceeded(TvdistError):
    """Exhaustive enumeration would visit more states than allowed."""

    def __init__(self, states: int, max_states: int):
        self.states = states
        self.max_states = max_states
        super().__init__(
            f"instance has {states} states, above the enumeration cap {max_states}"
        )


class InternalInvariantError(TvdistError):
    """A quantity that is provably in range came out of range: a bug, not bad input."""


class DegenerateConditional(InternalInvariantError):
    """A conditional sampling step has a non-positive or inconsistent normalizer."""


class EstimatorOutOfRange(InternalInvariantError):
    """The per-sample estimate left [0, 1] by more than the rounding guard."""


class ZeroDenominator(InternalInvariantError):
    """The per-sample estimate was requested for an outcome with zero sampling mass."""
