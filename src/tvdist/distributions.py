"""Discrete product distributions and per-coordinate total variation distances.

A product distribution over ``{1..q_1} x ... x {1..q_n}`` is given by one
categorical marginal per coordinate; coordinates are independent and domain
sizes may differ. Categories are 1-based throughout the public API.

Construct distributions through :func:`validate`, which checks
non-negativity and normalization. Stored probability vectors are kept
exactly as given (no silent renormalization).

This module owns every input check, of instances and of parameters alike
(``check_seed``, ``check_count``, ``check_epsilon``, ``check_delta``): the
estimator, sampler, oracle and CLI flags call these, and copy none.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    EmptyInput,
    IndexOutOfRange,
    InstanceFormatError,
    InvalidParameter,
    MarginalNotNormalized,
    NegativeProbability,
)

#: Absolute tolerance on |sum(probs) - 1| accepted by validation. Chosen to
#: admit hand-written decimal inputs while rejecting malformed vectors.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProductDistribution:
    """An n-coordinate product distribution, built by :func:`validate`.

    ``probs`` is one read-only float64 array of every coordinate's vector in
    turn: coordinate ``k`` (0-based) owns ``probs[offsets[k]:offsets[k + 1]]``,
    of length ``domain_sizes[k]``.
    """

    probs: np.ndarray
    offsets: np.ndarray
    domain_sizes: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductDistribution) and (
            self.domain_sizes == other.domain_sizes
            and np.array_equal(self.probs, other.probs)
        )

    def __hash__(self) -> int:
        return hash(tuple(self.probs.tolist()))

    @property
    def n(self) -> int:
        return len(self.domain_sizes)

    def state_count(self) -> int:
        return math.prod(self.domain_sizes)


def _row_floats(i: int, raw: Sequence[float]) -> tuple[float, ...]:
    """Coordinate ``i``'s entries as floats, naming a row or entry that is not one."""
    c, entry = None, raw
    try:
        row = tuple(raw)
        if {float}.issuperset(map(type, row)):
            return row
        values = []
        for c, entry in enumerate(row, start=1):
            if isinstance(entry, (bool, str)):
                raise TypeError  # float() would take it
            values.append(float(entry))
        return tuple(values)
    except (TypeError, ValueError, OverflowError):
        if c is None:
            where, what = f"coordinate {i}", "probabilities must be a sequence"
        else:
            where, what = f"coordinate {i}, category {c}", "probability must be a number"
        raise InstanceFormatError(
            f"{where}: {what}, got {entry!r}", coordinate=i, category=c
        ) from None


def validate(p_raw: Sequence[Sequence[float]]) -> ProductDistribution:
    """Build a :class:`ProductDistribution` from raw probability vectors.

    The dimension count and per-coordinate domain sizes are taken from the
    input shape. Entries must be non-negative numbers and each vector must
    sum to 1 within :data:`NORMALIZATION_TOL`; the vectors are then stored
    as given. Format errors are raised first, in row order; then the first
    row that is empty, has a negative entry or a bad sum.

    Raises:
        InstanceFormatError: ``p_raw`` is not a sequence of rows (a number,
            ``None``, a string or a mapping), a row is not a sequence, or an
            entry is a bool, a string or anything else ``float`` rejects.
        EmptyInput: no coordinates, or a coordinate with no categories.
        NegativeProbability: an entry is below zero.
        MarginalNotNormalized: a vector's sum is off by more than the
            tolerance or is not finite (``inf`` if finite entries overflow).
    """
    if isinstance(p_raw, (str, bytes, Mapping)) or not isinstance(p_raw, Iterable):
        kind = type(p_raw).__name__
        raise InstanceFormatError(f"a distribution must be a list of rows, got {kind}")
    rows = [_row_floats(i, raw) for i, raw in enumerate(p_raw, start=1)]
    if not rows:
        raise EmptyInput("a product distribution needs at least one coordinate")
    sizes = tuple(map(len, rows))
    offsets = np.cumsum((0, *sizes), dtype=np.intp)
    probs = np.fromiter(itertools.chain.from_iterable(rows), np.float64, int(offsets[-1]))
    checked = sizes.index(0) if 0 in sizes else len(rows)
    head, starts = probs[: offsets[checked]], offsets[:checked]
    with np.errstate(over="ignore", invalid="ignore"):
        rough = np.add.reduceat(head, starts)
    # near 1, a rounded sum of q non-negative entries is within q * 2**-52 of
    # the exact one; every other row is checked entry by entry, in row order
    margin = np.diff(offsets[: checked + 1]) * 2.0**-50
    suspect = np.logical_or.reduceat(head < 0.0, starts)
    suspect |= ~(np.abs(rough - 1.0) <= NORMALIZATION_TOL - margin)
    for k in np.flatnonzero(suspect).tolist():
        for c, value in enumerate(rows[k], start=1):
            if value < 0.0:
                raise NegativeProbability(k + 1, c, value)
        try:
            total = math.fsum(rows[k])
        except OverflowError:  # finite entries whose sum passes the largest double
            total = math.inf
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise MarginalNotNormalized(k + 1, total)
    if checked < len(rows):
        raise EmptyInput(f"coordinate {checked + 1} has no categories")
    probs.flags.writeable = offsets.flags.writeable = False
    return ProductDistribution(probs, offsets, sizes)


def require_same_shape(p: ProductDistribution, q: ProductDistribution) -> None:
    """Raise :class:`DomainMismatch` unless ``p`` and ``q`` have identical shape."""
    if p.n != q.n:
        raise DomainMismatch(f"dimension mismatch: {p.n} vs {q.n} coordinates")
    for i, (a, b) in enumerate(zip(p.domain_sizes, q.domain_sizes), start=1):
        if a != b:
            raise DomainMismatch(
                f"coordinate {i}: domain sizes differ ({a} vs {b})", coordinate=i
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


def coordinate_tvs(p: ProductDistribution, q: ProductDistribution) -> tuple[float, ...]:
    """Each coordinate's TV distance: half the L1 distance of its two vectors.

    Summed exactly, and only where P and Q differ, so identical vectors
    give exactly 0.0, which the identity short-circuit relies on. Capped at
    1, which the validation tolerance can pass on disjoint supports.
    """
    require_same_shape(p, q)
    gap, bounds = np.abs(p.probs - q.probs), p.offsets.tolist()
    d = [0.0] * p.n
    for k in np.flatnonzero(np.logical_or.reduceat(gap > 0, p.offsets[:-1])).tolist():
        d[k] = min(0.5 * math.fsum(memoryview(gap)[bounds[k] : bounds[k + 1]]), 1.0)
    return tuple(d)


def are_identical(p: ProductDistribution, q: ProductDistribution) -> bool:
    """True iff every coordinate's TV distance is exactly zero.

    The comparison is exact (no epsilon): a tolerance here would silently
    change what is being estimated downstream.
    """
    require_same_shape(p, q)
    # an exact sum of |P - Q| is zero only where every term is
    return bool(np.array_equal(p.probs, q.probs))


def _check_integer(name: str, value: int) -> int:
    """Return a Python or numpy integer (not a bool) as a plain int."""
    if isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got bool")
    try:
        return operator.index(value)
    except TypeError:
        kind = type(value).__name__
        raise InvalidParameter(f"{name} must be an integer, got {kind}") from None


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    seed = _check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise InvalidParameter(f"seed must be in [0, 2**64), got {seed}")
    return seed


def check_count(name: str, value: int) -> int:
    """Validate a positive count and return it as a plain int."""
    count = _check_integer(name, value)
    if count < 1:
        raise InvalidParameter(f"{name} must be >= 1, got {count}")
    return count


def _check_real(name: str, value: float) -> float:
    """Return a Python or numpy real number (not a bool) as a plain float."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        kind = type(value).__name__
        raise InvalidParameter(f"{name} must be a real number, got {kind}")
    try:
        return float(value)
    except OverflowError:  # an integer past double range
        return math.inf if value > 0 else -math.inf


def check_epsilon(epsilon: float) -> float:
    """Validate a finite positive relative error and return it as a plain float."""
    value = _check_real("epsilon", epsilon)
    if math.isnan(value) or value == math.inf:
        raise InvalidParameter(f"epsilon must be finite, got {epsilon!r}")
    if not value > 0.0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon!r}")
    return value


def check_delta(delta: float) -> float:
    """Validate a failure probability in (0, 1) and return it as a plain float."""
    value = _check_real("delta", delta)
    if not 0.0 < value < 1.0:
        raise InvalidParameter(f"delta must be in (0, 1), got {delta!r}")
    return value
