"""Brute-force ground truth on small instances.

Everything here enumerates the full state space, so calls are gated by an
:class:`EnumerationBudget`. Enumeration runs in exact rational arithmetic
(every stored probability is a binary float, hence an exact rational), so
oracle values carry no rounding of their own and stay meaningful even for
near-identical inputs; they are converted to float only on return. This
keeps the oracle fully independent of the log-space paths it is used to
check. Expect rational arithmetic to slow down near the default budget.

Also home to the seeded random-instance generator used by the property
suites, so cross-module checks are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .coupling import check_count
from .distributions import (
    Assignment,
    ProductDistribution,
    are_identical,
    require_same_shape,
    validate,
)
from .errors import BudgetExceeded, IdenticalDistributions
from .estimator import estimator_f

DEFAULT_MAX_STATES = 1 << 20


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the number of states an oracle call may enumerate."""

    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_states", check_count("max_states", self.max_states))


def _check_budget(p: ProductDistribution, budget: EnumerationBudget | None) -> None:
    limit = (budget if budget is not None else EnumerationBudget()).max_states
    states = p.state_count()
    if states > limit:
        raise BudgetExceeded(states, limit)


def _fraction_columns(dist: ProductDistribution) -> list[list[Fraction]]:
    return [[Fraction(x) for x in m.probs] for m in dist.marginals]


def _min_columns(
    p_cols: list[list[Fraction]], q_cols: list[list[Fraction]]
) -> list[list[Fraction]]:
    return [[min(a, b) for a, b in zip(pc, qc)] for pc, qc in zip(p_cols, q_cols)]


def _iter_states(
    columns: Sequence[list[list[Fraction]]],
) -> Iterator[tuple[tuple[int, ...], list[Fraction]]]:
    """Odometer over the product space with incremental prefix products.

    Yields ``(digits, products)`` where ``digits`` are 0-based category
    picks (last coordinate varying fastest) and ``products[s]`` is the
    product of set ``s``'s chosen entries.
    """
    n = len(columns[0])
    sizes = [len(col) for col in columns[0]]
    nsets = len(columns)
    digits = [0] * n
    prefix = [[Fraction(1)] * (n + 1) for _ in range(nsets)]
    for i in range(n):
        for s in range(nsets):
            prefix[s][i + 1] = prefix[s][i] * columns[s][i][0]
    while True:
        yield tuple(digits), [prefix[s][n] for s in range(nsets)]
        i = n - 1
        while i >= 0 and digits[i] == sizes[i] - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        for j in range(i, n):
            c = digits[j]
            for s in range(nsets):
                prefix[s][j + 1] = prefix[s][j] * columns[s][j][c]


def _coordinate_tv_exact(p_col: list[Fraction], q_col: list[Fraction]) -> Fraction:
    return sum((abs(a - b) for a, b in zip(p_col, q_col)), Fraction(0)) / 2


def exact_tv(
    p: ProductDistribution,
    q: ProductDistribution,
    budget: EnumerationBudget | None = None,
) -> float:
    """Total variation distance, exactly: half the L1 distance over all states."""
    require_same_shape(p, q)
    _check_budget(p, budget)
    total = Fraction(0)
    for _, (mass_p, mass_q) in _iter_states(
        [_fraction_columns(p), _fraction_columns(q)]
    ):
        total += abs(mass_p - mass_q)
    return float(total / 2)


def exact_sum_positive_part(
    p: ProductDistribution,
    q: ProductDistribution,
    budget: EnumerationBudget | None = None,
) -> float:
    """Sum of ``max{0, P(omega) - Q(omega)}``; equals the TV distance."""
    require_same_shape(p, q)
    _check_budget(p, budget)
    total = Fraction(0)
    for _, (mass_p, mass_q) in _iter_states(
        [_fraction_columns(p), _fraction_columns(q)]
    ):
        if mass_p > mass_q:
            total += mass_p - mass_q
    return float(total)


def _disagreement_states(
    p: ProductDistribution, q: ProductDistribution
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Per-state disagreement mass ``P(omega) - prod_i min(P_i, Q_i)(w_i)``.

    The mass is non-negative for every state (the agreement product is a
    product of pointwise-smaller factors); states with positive mass are
    exactly the support of the conditional law.
    """
    p_cols = _fraction_columns(p)
    q_cols = _fraction_columns(q)
    if all(
        _coordinate_tv_exact(pc, qc) == 0 for pc, qc in zip(p_cols, q_cols)
    ):
        raise IdenticalDistributions(
            "the distributions are identical; the conditional law is undefined"
        )
    for digits, (mass_p, agree_mass) in _iter_states(
        [p_cols, _min_columns(p_cols, q_cols)]
    ):
        yield digits, mass_p - agree_mass


def exact_pi(
    p: ProductDistribution,
    q: ProductDistribution,
    budget: EnumerationBudget | None = None,
) -> dict[Assignment, float]:
    """The conditional disagreement law as an explicit table over all states.

    ``pi(omega)`` is the state's disagreement mass divided by the total
    over all states, so the entries sum to 1 exactly. (For marginals that
    sum to exactly 1 the total equals ``1 - prod_i (1 - d_i)``.) Requires
    P != Q.
    """
    require_same_shape(p, q)
    _check_budget(p, budget)
    entries = list(_disagreement_states(p, q))
    total = sum((gap for _, gap in entries), Fraction(0))
    if total == 0:
        raise IdenticalDistributions(
            "no disagreement mass: the inputs differ by less than their "
            "normalization slack"
        )
    return {
        Assignment(tuple(c + 1 for c in digits)): float(gap / total)
        for digits, gap in entries
    }


def exact_expectation_f(
    p: ProductDistribution,
    q: ProductDistribution,
    budget: EnumerationBudget | None = None,
) -> float:
    """Mean of the per-sample estimate under the exact conditional law.

    Sums ``pi(omega) * f(omega)`` over the exact support in rational
    arithmetic, with every ``f(omega)`` from one
    :func:`~tvdist.estimator.estimator_f` call, which runs the sampling
    kernel's own f stage. Equals ``exact_tv / pr_diff`` up to the float
    rounding inside ``f``.
    """
    require_same_shape(p, q)
    _check_budget(p, budget)
    support = [(digits, gap) for digits, gap in _disagreement_states(p, q) if gap > 0]
    if not support:
        raise IdenticalDistributions(
            "no disagreement mass: the inputs differ by less than their "
            "normalization slack"
        )
    f = estimator_f(p, q, np.array([digits for digits, _ in support]) + 1)
    total = weighted = Fraction(0)
    for (_, gap), value in zip(support, f.tolist()):
        total += gap
        weighted += gap * Fraction(value)
    return float(weighted / total)


_MARGINAL_KINDS = ("independent", "identical", "near", "disjoint", "sparse")


def _random_marginal_pair(
    rng: np.random.Generator, size: int
) -> tuple[list[float], list[float]]:
    if size == 1:
        return [1.0], [1.0]
    kind = _MARGINAL_KINDS[int(rng.integers(len(_MARGINAL_KINDS)))]
    if kind == "identical":
        a = rng.dirichlet(np.ones(size))
        b = a.copy()
    elif kind == "near":
        a = rng.dirichlet(np.ones(size))
        scale = 10.0 ** rng.uniform(-12.0, -6.0)
        b = np.clip(a * (1.0 + scale * rng.standard_normal(size)), 0.0, None)
        b /= b.sum()
    elif kind == "disjoint":
        cut = int(rng.integers(1, size))
        order = rng.permutation(size)
        a = np.zeros(size)
        b = np.zeros(size)
        a[order[:cut]] = rng.dirichlet(np.ones(cut))
        b[order[cut:]] = rng.dirichlet(np.ones(size - cut))
    elif kind == "sparse":
        a = rng.dirichlet(np.ones(size))
        b = rng.dirichlet(np.ones(size))
        for vec in (a, b):
            drop = rng.random(size) < 0.4
            if drop.all():
                drop[int(rng.integers(size))] = False
            vec[drop] = 0.0
            vec /= vec.sum()
    else:
        a = rng.dirichlet(np.ones(size))
        b = rng.dirichlet(np.ones(size))
    return a.tolist(), b.tolist()


def random_instance_pair(
    rng: np.random.Generator, max_n: int = 6, max_q: int = 4
) -> tuple[ProductDistribution, ProductDistribution]:
    """Seeded random (P, Q) pair for property suites, with P != Q guaranteed.

    Mixes plain random, identical, near-identical, disjoint-support, and
    sparse marginals; domain sizes vary per coordinate. Deterministic given
    the generator's state.
    """
    n = int(rng.integers(1, max_n + 1))
    sizes = [int(rng.integers(1, max_q + 1)) for _ in range(n)]
    if all(s == 1 for s in sizes):
        sizes[int(rng.integers(n))] = 2
    while True:
        left = []
        right = []
        for s in sizes:
            a, b = _random_marginal_pair(rng, s)
            left.append(a)
            right.append(b)
        p = validate(left)
        q = validate(right)
        if not are_identical(p, q):
            return p, q


def random_instances(
    seed: int, count: int, max_n: int = 6, max_q: int = 4
) -> list[tuple[ProductDistribution, ProductDistribution]]:
    """Fixed-seed batch of instances; the protocol pinning all property suites."""
    rng = np.random.default_rng(seed)
    return [random_instance_pair(rng, max_n, max_q) for _ in range(count)]
