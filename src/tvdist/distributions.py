"""Discrete product distributions and per-coordinate total variation distances.

A product distribution over ``{1..q_1} x ... x {1..q_n}`` is given by one
categorical marginal per coordinate; coordinates are independent and domain
sizes may differ. Categories are 1-based throughout the public API.

Construct distributions through :func:`validate`, which checks
non-negativity and normalization. Stored probability vectors are kept
exactly as given (no silent renormalization).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    EmptyInput,
    IndexOutOfRange,
    InstanceFormatError,
    MarginalNotNormalized,
    NegativeProbability,
)

#: Absolute tolerance on |sum(probs) - 1| accepted by validation. Chosen to
#: admit hand-written decimal inputs while rejecting malformed vectors.
NORMALIZATION_TOL = 1e-9

#: Entry types :func:`validate` converts without a closer look; any other
#: type is checked for bools and strings, which ``float`` would accept.
_PLAIN_NUMBERS = frozenset((float, int))


@dataclass(frozen=True)
class CategoricalMarginal:
    """Probability vector of one coordinate, over categories ``{1, ..., q}``."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))

    @property
    def domain_size(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class ProductDistribution:
    """Ordered marginals of an n-coordinate product distribution."""

    marginals: tuple[CategoricalMarginal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def n(self) -> int:
        return len(self.marginals)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(m.domain_size for m in self.marginals)

    def state_count(self) -> int:
        return math.prod(self.domain_sizes)


@dataclass(frozen=True)
class Assignment:
    """One outcome: ``values[i]`` is the 1-based category of coordinate ``i + 1``."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


def validate(p_raw: Sequence[Sequence[float]]) -> ProductDistribution:
    """Build a :class:`ProductDistribution` from raw probability vectors.

    The dimension count and per-coordinate domain sizes are taken from the
    input shape. Entries must be non-negative numbers and each vector must
    sum to 1 within :data:`NORMALIZATION_TOL`; the vectors are then stored
    as given.

    Raises:
        InstanceFormatError: an entry is a bool or a string, which ``float``
            would otherwise turn into a probability.
        EmptyInput: no coordinates, or a coordinate with no categories.
        NegativeProbability: an entry is below zero.
        MarginalNotNormalized: a vector's sum is off by more than the
            tolerance (also raised for non-finite entries).
    """
    vectors = []
    for i, raw in enumerate(p_raw, start=1):
        raw = tuple(raw)
        if not _PLAIN_NUMBERS.issuperset(map(type, raw)):
            for c, entry in enumerate(raw, start=1):
                if isinstance(entry, (bool, str)):
                    raise InstanceFormatError(
                        f"coordinate {i}, category {c}: probability must be a "
                        f"number, got {entry!r}",
                        coordinate=i,
                        category=c,
                    )
        vectors.append(tuple(map(float, raw)))
    if not vectors:
        raise EmptyInput("a product distribution needs at least one coordinate")
    marginals = []
    for i, vec in enumerate(vectors, start=1):
        if not vec:
            raise EmptyInput(f"coordinate {i} has no categories")
        for c, value in enumerate(vec, start=1):
            if value < 0.0:
                raise NegativeProbability(i, c, value)
        total = math.fsum(vec)
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise MarginalNotNormalized(i, total)
        marginals.append(CategoricalMarginal(vec))
    return ProductDistribution(tuple(marginals))


def require_same_shape(p: ProductDistribution, q: ProductDistribution) -> None:
    """Raise :class:`DomainMismatch` unless ``p`` and ``q`` have identical shape."""
    if p.n != q.n:
        raise DomainMismatch(f"dimension mismatch: {p.n} vs {q.n} coordinates")
    for i, (pm, qm) in enumerate(zip(p.marginals, q.marginals), start=1):
        if pm.domain_size != qm.domain_size:
            raise DomainMismatch(
                f"coordinate {i}: domain sizes differ "
                f"({pm.domain_size} vs {qm.domain_size})",
                coordinate=i,
            )


def check_assignment(dist: ProductDistribution, assignments: np.ndarray) -> np.ndarray:
    """Check an ``(m, n)`` array of 1-based outcomes against ``dist``.

    Returns the array as ``intp``. Raises :class:`DomainMismatch` unless it
    is an integer array with one column per coordinate, and
    :class:`IndexOutOfRange` naming the first coordinate with an entry
    outside its categories.
    """
    values = np.asarray(assignments)
    if values.ndim != 2 or values.shape[1] != dist.n or values.dtype.kind not in "iu":
        raise DomainMismatch(
            f"assignments must be an integer (m, {dist.n}) array, "
            f"got {values.dtype} of shape {values.shape}"
        )
    sizes = np.array(dist.domain_sizes)
    bad = (values < 1) | (values > sizes)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise IndexOutOfRange(i + 1, int(values[np.argmax(bad[:, i]), i]), int(sizes[i]))
    return values.astype(np.intp, copy=False)


def coordinate_tv(p_i: CategoricalMarginal, q_i: CategoricalMarginal) -> float:
    """Total variation distance between two marginals: half their L1 distance.

    Exact-sum accumulation keeps the result exactly 0.0 for identical
    vectors, which the identity short-circuit relies on.
    """
    if p_i.domain_size != q_i.domain_size:
        raise DomainMismatch(
            f"domain sizes differ ({p_i.domain_size} vs {q_i.domain_size})"
        )
    half_l1 = 0.5 * math.fsum(abs(a - b) for a, b in zip(p_i.probs, q_i.probs))
    # Validation tolerance can push disjoint-support pairs a hair above 1.
    return min(half_l1, 1.0)


def are_identical(p: ProductDistribution, q: ProductDistribution) -> bool:
    """True iff every coordinate's TV distance is exactly zero.

    The comparison is exact (no epsilon): a tolerance here would silently
    change what is being estimated downstream.
    """
    require_same_shape(p, q)
    return all(
        coordinate_tv(pm, qm) == 0.0 for pm, qm in zip(p.marginals, q.marginals)
    )
