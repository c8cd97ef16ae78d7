"""Brute-force ground truth on small instances.

Everything here enumerates the full state space, so each call takes a
``max_states`` cap, :data:`DEFAULT_MAX_STATES` unless given. Enumeration
runs in exact rational arithmetic (every stored probability is a binary
float, hence an exact rational), so oracle values carry no rounding of
their own and stay meaningful even for near-identical inputs; they are
converted to float only on return. This keeps the oracle fully independent
of the log-space paths it is used to check. Expect rational arithmetic to
slow down near the default cap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .distributions import ProductDistribution, check_count, require_same_shape
from .errors import BudgetExceeded, IdenticalDistributions

#: States an oracle call may enumerate unless its ``max_states`` says otherwise.
DEFAULT_MAX_STATES = 1 << 20


def _checked_columns(
    p: ProductDistribution, q: ProductDistribution, max_states: int
) -> list[list[list[Fraction]]]:
    """Both inputs' columns as exact rationals, once the cap, shapes and size pass."""
    limit = check_count("max_states", max_states)
    require_same_shape(p, q)
    states = p.state_count()
    if states > limit:
        raise BudgetExceeded(states, limit)
    return [[list(map(Fraction, row)) for row in dist.rows] for dist in (p, q)]


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


def exact_tv(
    p: ProductDistribution,
    q: ProductDistribution,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Total variation distance, exactly: half the L1 distance over all states."""
    total = Fraction(0)
    for _, (mass_p, mass_q) in _iter_states(_checked_columns(p, q, max_states)):
        total += abs(mass_p - mass_q)
    return float(total / 2)


def _disagreement_states(
    p: ProductDistribution, q: ProductDistribution, max_states: int
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Per-state disagreement mass ``P(omega) - prod_i min(P_i, Q_i)(w_i)``.

    The mass is non-negative for every state (the agreement product is a
    product of pointwise-smaller factors); states with positive mass are
    exactly the support of the conditional law. Raises
    :class:`IdenticalDistributions` if the inputs are equal, or if every
    state's mass is zero.
    """
    p_cols, q_cols = _checked_columns(p, q, max_states)
    if p_cols == q_cols:
        raise IdenticalDistributions(
            "the distributions are identical; the conditional law is undefined"
        )
    entries = [
        (digits, mass_p - agree_mass)
        for digits, (mass_p, agree_mass) in _iter_states(
            [p_cols, [list(map(min, pc, qc)) for pc, qc in zip(p_cols, q_cols)]]
        )
    ]
    if not any(gap for _, gap in entries):
        raise IdenticalDistributions(
            "no disagreement mass: the inputs differ by less than their "
            "normalization slack"
        )
    return entries


def exact_pi(
    p: ProductDistribution,
    q: ProductDistribution,
    max_states: int = DEFAULT_MAX_STATES,
) -> dict[tuple[int, ...], float]:
    """The conditional disagreement law as an explicit table over all states.

    Keys are tuples of 1-based categories, as ``tuple(row)`` of a
    :func:`~tvdist.coupling.sample_pi_batch` row gives them.
    ``pi(omega)`` is the state's disagreement mass divided by the total
    over all states, so the entries sum to 1 exactly. (For marginals that
    sum to exactly 1 the total equals ``1 - prod_i (1 - d_i)``.) Requires
    P != Q.
    """
    entries = _disagreement_states(p, q, max_states)
    total = sum((gap for _, gap in entries), Fraction(0))
    return {tuple(c + 1 for c in digits): float(gap / total) for digits, gap in entries}


def exact_expectation_f(
    p: ProductDistribution,
    q: ProductDistribution,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Mean of the per-sample estimate under the exact conditional law.

    Sums ``pi(omega) * f(omega)`` over the exact support in rational
    arithmetic, with every ``f(omega)`` from one
    :func:`~tvdist.coupling.estimator_f` call, which runs the sampling
    kernel's own f stage. Equals ``exact_tv / pr_diff`` up to the float
    rounding inside ``f``.
    """
    # imported here: the sampling kernel (and numpy) serves this function alone
    from .coupling import estimator_f

    support = [entry for entry in _disagreement_states(p, q, max_states) if entry[1]]
    f = estimator_f(p, q, [[c + 1 for c in digits] for digits, _ in support])
    total = weighted = Fraction(0)
    for (_, gap), value in zip(support, f.tolist()):
        total += gap
        weighted += gap * Fraction(value)
    return float(weighted / total)
