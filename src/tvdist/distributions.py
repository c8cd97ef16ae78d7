"""Discrete product distributions and per-coordinate total variation distances.

A product distribution over ``{1..q_1} x ... x {1..q_n}`` is given by one
categorical marginal per coordinate; coordinates are independent and domain
sizes may differ. Categories are 1-based throughout the public API.

Construct distributions through :func:`validate`, which checks
non-negativity and normalization. Stored probability vectors are kept
exactly as given (no silent renormalization).

This module owns every input check, of instances and of parameters alike
(``check_seed``, ``check_count``, ``check_epsilon``, ``check_delta``): the
estimator, sampler, oracle and CLI flags call these, and copy none. The
work before the first draw (:func:`build_stats`, :func:`sample_count`) is
here too, in plain Python: this module imports no numpy.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .errors import (
    DomainMismatch,
    EmptyInput,
    InstanceFormatError,
    InvalidParameter,
    MarginalNotNormalized,
    NegativeProbability,
    SlackOnlyDifference,
)

#: Absolute tolerance on |sum(probs) - 1| accepted by validation. Chosen to
#: admit hand-written decimal inputs while rejecting malformed vectors.
NORMALIZATION_TOL = 1e-9

_entries = itertools.chain.from_iterable


class ProductDistribution(NamedTuple):
    """An n-coordinate product distribution, built by :func:`validate`.

    ``rows[k]`` is coordinate ``k``'s (0-based) vector of floats.
    """

    rows: tuple[tuple[float, ...], ...]
    domain_sizes: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.domain_sizes)

    def state_count(self) -> int:
        return math.prod(self.domain_sizes)


def _row_floats(i: int, raw: Sequence[float]) -> tuple[float, ...]:
    """Coordinate ``i``'s entries as floats, naming a row or entry that is not one."""
    c, entry, values = None, raw, []
    try:
        for c, entry in enumerate(tuple(raw), start=1):
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
            ``None``, a string, a mapping or a built record), a row is not a
            sequence, or an entry is a bool, a string or anything else
            ``float`` rejects.
        EmptyInput: no coordinates, or a coordinate with no categories.
        NegativeProbability: an entry is below zero.
        MarginalNotNormalized: a vector's sum is off by more than the
            tolerance or is not finite (``inf`` if finite entries overflow).
    """
    # a built record iterates as its fields, which are not rows
    not_rows = (str, bytes, Mapping, ProductDistribution, GreedyCouplingStats)
    if isinstance(p_raw, not_rows) or not isinstance(p_raw, Iterable):
        kind = type(p_raw).__name__
        raise InstanceFormatError(f"a distribution must be a list of rows, got {kind}")
    raws, rows = list(p_raw), []
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        for raw in raws:
            rows.append(tuple(raw))
    if len(rows) < len(raws) or not {float}.issuperset(map(type, _entries(rows))):
        # names the first row or entry that is not a float, in row order
        rows = [_row_floats(i, raw) for i, raw in enumerate(rows + raws[len(rows) :], 1)]
    if not rows:
        raise EmptyInput("a product distribution needs at least one coordinate")
    sizes = tuple(map(len, rows))
    # all rows at once, where a float sum of q non-negative entries is within
    # q * 2**-52 of the exact one near 1; any doubt sends them to the exact checks
    bound = NORMALIZATION_TOL - max(sizes) * 2.0**-50
    clean = 0 not in sizes and min(_entries(rows)) >= 0.0
    clean = clean and all(abs(total - 1.0) <= bound for total in map(sum, rows))
    for i, row in enumerate([] if clean else rows, start=1):
        if not row:
            raise EmptyInput(f"coordinate {i} has no categories")
        for c, value in enumerate(row, start=1):
            if value < 0.0:
                raise NegativeProbability(i, c, value)
        try:
            total = math.fsum(row)
        except OverflowError:  # finite entries whose sum passes the largest double
            total = math.inf
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise MarginalNotNormalized(i, total)
    return ProductDistribution(tuple(rows), sizes)


def require_same_shape(p: ProductDistribution, q: ProductDistribution) -> None:
    """Raise :class:`DomainMismatch` unless ``p`` and ``q`` have identical shape."""
    if p.domain_sizes == q.domain_sizes:
        return
    if p.n != q.n:
        raise DomainMismatch(f"dimension mismatch: {p.n} vs {q.n} coordinates")
    for i, (a, b) in enumerate(zip(p.domain_sizes, q.domain_sizes), start=1):
        if a != b:
            raise DomainMismatch(
                f"coordinate {i}: domain sizes differ ({a} vs {b})", coordinate=i
            )


def coordinate_tvs(p: ProductDistribution, q: ProductDistribution) -> tuple[float, ...]:
    """Each coordinate's TV distance: half the L1 distance of its two vectors.

    Summed exactly, and only where P and Q differ, so identical vectors
    give exactly 0.0, which the identity short-circuit relies on. Capped at
    1, which the validation tolerance can pass on disjoint supports.
    """
    require_same_shape(p, q)
    return tuple(
        min(0.5 * math.fsum(map(abs, map(operator.sub, a, b))), 1.0) if a != b else 0.0
        for a, b in zip(p.rows, q.rows)
    )


def are_identical(p: ProductDistribution, q: ProductDistribution) -> bool:
    """True iff every coordinate's TV distance is exactly zero.

    The comparison is exact (no epsilon): a tolerance here would silently
    change what is being estimated downstream.
    """
    require_same_shape(p, q)
    return p.rows == q.rows


class GreedyCouplingStats(NamedTuple):
    """Aggregate quantities of the greedy coupling for one (P, Q) pair.

    ``suffix_log[k]`` is the log of ``B_k = prod_{i>k} (1 - d_i)`` for
    ``k = 0..n`` (so ``suffix_log[n] = 0`` and ``pr_diff = 1 - B_0``). It is
    ``-inf`` wherever a ``d_i = 1`` coordinate lies in the suffix, making
    ``B_k`` exactly 0: the zero flag the sampling tables use too.
    """

    d: tuple[float, ...]
    pr_diff: float
    suffix_log: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.d)


def build_stats(p: ProductDistribution, q: ProductDistribution) -> GreedyCouplingStats:
    """Per-coordinate TV distances, suffix products, and Pr[X != Y].

    ``pr_diff`` is computed as ``-expm1(sum_i log1p(-d_i))`` so it stays
    accurate when every ``d_i`` is tiny; a coordinate with ``d_i = 1`` adds
    a log of ``-inf``, so ``pr_diff`` is exactly 1.

    Raises :class:`SlackOnlyDifference` for a coordinate with ``d_i > 0``
    whose Q is at least P wherever P is positive: the coupling cannot
    disagree there, so ``pr_diff`` would count mass the conditional law
    never reaches.
    """
    d = coordinate_tvs(p, q)
    for k in itertools.compress(range(len(d)), d):  # the d_k > 0 coordinates
        if not any(map(operator.lt, q.rows[k], p.rows[k])):
            raise SlackOnlyDifference(k + 1, d[k])
    # summed from the last coordinate down; log1p(-1) would raise
    logs = [math.log1p(-x) if x < 1.0 else -math.inf for x in reversed(d)]
    suffix_log = tuple(itertools.accumulate(logs, initial=0.0))[::-1]
    pr_diff = -math.expm1(suffix_log[0]) + 0.0
    return GreedyCouplingStats(d=d, pr_diff=pr_diff, suffix_log=suffix_log)


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
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
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


def sample_count(n: int, epsilon: float, delta: float) -> int:
    """Number of draws needed for a (1 +- epsilon) answer with confidence 1 - delta.

    Evaluates ``ceil((n^2 / epsilon^2) * ln(1/delta')) + 1`` with natural
    log and ``delta' = min(delta, 1/2)``; the clamp keeps the concentration
    argument valid for large delta at the cost of extra samples. Raises
    :class:`InvalidParameter` where that count is past the range of a double.
    """
    n = check_count("n", n)
    epsilon, delta = check_epsilon(epsilon), check_delta(delta)
    target = min(delta, 0.5)
    try:
        return math.ceil((n * n) / (epsilon * epsilon) * math.log(1.0 / target)) + 1
    except (ZeroDivisionError, OverflowError):  # epsilon**2 underflows to 0, or m to inf
        raise InvalidParameter(
            f"n={n}, epsilon={epsilon!r}, delta={delta!r} need a count past double range"
        ) from None
