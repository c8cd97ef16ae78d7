"""Seeded workload inputs and independent references for the tvdist benchmark.

Everything here is built from the workload seed alone, with plain numpy and
exact rational arithmetic; no value is computed by the package under test,
so a reference never flows through the code it checks. The one exception is
the enumeration oracle (``tvdist.exact_tv``), which the benchmark itself calls
on small sub-instances and times as the ``oracle`` layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DELTA = 0.05

#: Chance that one Hoeffding-bounded check fails on a correct estimate.
FALSE_ALARM = 1e-9

#: Coordinates of a mixed instance that differ moderately (domain size <= 4),
#: that differ by about ``TINY_D``, and the size of that difference.
MODERATE = 8
TINY = 20
TINY_D = 1e-12

#: Binary workloads are cross-checked against the oracle on this many
#: leading coordinates.
ORACLE_PREFIX = 12


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the four workloads."""

    guarantee_n: int = 30
    guarantee_epsilon: float = 0.1
    wide_n: int = 1000
    wide_samples: int = 8192
    mixed_n: int = 200
    mixed_samples: int = 8192
    cli_n: int = 5000
    cli_samples: int = 512


FULL = Sizes()

#: Reduced sizes for the benchmark's own tests.
SMOKE = Sizes(
    guarantee_n=6,
    guarantee_epsilon=0.5,
    wide_n=40,
    wide_samples=2048,
    mixed_n=40,
    mixed_samples=2048,
    cli_n=120,
    cli_samples=256,
)


@dataclass(frozen=True)
class Instance:
    """A generated (P, Q) pair with what is needed to check estimates on it.

    ``oracle_p``/``oracle_q`` are the coordinates handed to the enumeration
    oracle. For a binary instance they are a prefix whose oracle value must
    match ``prefix_tv``, the closed form; ``reference`` is then the closed
    form on all coordinates. For a mixed instance they are the coordinates
    that differ by more than ``TINY_D`` and ``reference`` is ``None``: the
    oracle's value is the reference, off from tv(P, Q) by at most
    ``reference_slack`` (the distance of the coordinates left out).
    """

    p: list[list[float]]
    q: list[list[float]]
    oracle_p: list[list[float]]
    oracle_q: list[list[float]]
    reference: float | None
    prefix_tv: float | None
    reference_slack: float

    @property
    def n(self) -> int:
        return len(self.p)


def input_rng(seed: int, tag: str) -> np.random.Generator:
    """Generator for the inputs of one workload, independent across workloads."""
    return np.random.default_rng([seed, *tag.encode()])


def binomial_tv(n: int, p_pair: list[float], q_pair: list[float]) -> float:
    """Exact tv between n i.i.d. copies of two binary marginals.

    Both products depend on an outcome only through its count k of first
    categories, so tv = 1/2 sum_k C(n, k) |p1^k p2^(n-k) - q1^k q2^(n-k)|,
    evaluated on the exact rationals of the given floats.
    """
    (p1, p2), p_den = _over_common_denominator(p_pair)
    (q1, q2), q_den = _over_common_denominator(q_pair)
    p_first, p_second = _powers(p1, n), _powers(p2, n)
    q_first, q_second = _powers(q1, n), _powers(q2, n)
    p_scale, q_scale = q_den**n, p_den**n
    total = sum(
        math.comb(n, k)
        * abs(p_first[k] * p_second[n - k] * p_scale - q_first[k] * q_second[n - k] * q_scale)
        for k in range(n + 1)
    )
    return float(Fraction(total, 2 * (p_den * q_den) ** n))


def _over_common_denominator(values: list[float]) -> tuple[list[int], int]:
    """Integer numerators of the exact rationals of ``values`` over one denominator."""
    fractions = [Fraction(x) for x in values]
    den = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (den // f.denominator) for f in fractions], den


def _powers(base: int, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def paper_draws(n: int, epsilon: float, delta: float) -> int:
    """The paper's fixed draw count m = ceil(n^2/epsilon^2 * ln(1/delta)) + 1, delta <= 1/2."""
    return math.ceil(n * n / (epsilon * epsilon) * math.log(1.0 / delta)) + 1


def coupling_pr_diff(p: list[list[float]], q: list[list[float]]) -> float:
    """Pr[X != Y] under the greedy coupling, 1 - prod_i (1 - d_i)."""
    d = [0.5 * math.fsum(abs(a - b) for a, b in zip(pv, qv)) for pv, qv in zip(p, q)]
    if max(d) >= 1.0:
        return 1.0
    return -math.expm1(math.fsum(math.log1p(-x) for x in d))


def hoeffding_halfwidth(samples: int) -> float:
    """Half-width h with Pr[|mean - E| > h] <= FALSE_ALARM for draws in [0, 1]."""
    return math.sqrt(math.log(2.0 / FALSE_ALARM) / (2.0 * samples))


def binary_instance(n: int, p_pair: list[float], q_pair: list[float]) -> Instance:
    prefix = min(n, ORACLE_PREFIX)
    return Instance(
        p=[list(p_pair) for _ in range(n)],
        q=[list(q_pair) for _ in range(n)],
        oracle_p=[list(p_pair) for _ in range(prefix)],
        oracle_q=[list(q_pair) for _ in range(prefix)],
        reference=binomial_tv(n, p_pair, q_pair),
        prefix_tv=binomial_tv(prefix, p_pair, q_pair),
        reference_slack=0.0,
    )


def _normalise(weights: np.ndarray) -> list[float]:
    """Divide by the sum, as a user turning weights into probabilities would."""
    return (weights / weights.sum()).tolist()


def mixed_instance(n: int, rng: np.random.Generator) -> Instance:
    """Mixed-domain instance: few moderate differences, some tiny, rest equal.

    The multiset of domain sizes depends on n alone (moderate coordinates
    cycle through 2..4, the others through 2..16), so the work per draw is
    the same for every seed; the seed sets their order and the values.
    About a third of the larger marginals carry a zero shared by P and Q.
    One moderate coordinate has a zero in Q only and one a zero in P only,
    which exercises the kernel's zero flags.
    """
    if n < MODERATE + TINY:
        raise ValueError(f"a mixed instance needs n >= {MODERATE + TINY}, got {n}")
    kinds = ["moderate"] * MODERATE + ["tiny"] * TINY + ["same"] * (n - MODERATE - TINY)
    sizes = [2 + i % 3 for i in range(MODERATE)] + [2 + i % 15 for i in range(n - MODERATE)]
    order = rng.permutation(n)
    kinds = [kinds[i] for i in order]
    sizes = [sizes[i] for i in order]

    p_rows, q_rows, oracle_p, oracle_q = [], [], [], []
    slack = 0.0
    moderate_seen = 0
    for kind, size in zip(kinds, sizes):
        p_w = rng.dirichlet(np.ones(size))
        if size >= 3 and kind != "moderate" and rng.random() < 0.33:
            p_w[int(rng.integers(size))] = 0.0
        q_w = p_w.copy()
        if kind == "tiny":
            a, b = rng.choice(np.flatnonzero(p_w), size=2, replace=False)
            total = p_w.sum()
            q_w[a] += TINY_D * total
            q_w[b] -= TINY_D * total
        elif kind == "moderate":
            q_w = p_w * np.exp(0.15 * rng.standard_normal(size))
            if moderate_seen == 0:
                q_w[int(np.argmin(p_w))] = 0.0
            elif moderate_seen == 1:
                p_w[int(np.argmin(q_w))] = 0.0
            moderate_seen += 1
        p_row = _normalise(p_w)
        q_row = _normalise(q_w)
        p_rows.append(p_row)
        q_rows.append(q_row)
        if kind == "moderate":
            oracle_p.append(p_row)
            oracle_q.append(q_row)
        else:
            slack += 0.5 * math.fsum(abs(a - b) for a, b in zip(p_row, q_row))
    return Instance(
        p=p_rows,
        q=q_rows,
        oracle_p=oracle_p,
        oracle_q=oracle_q,
        reference=None,
        prefix_tv=None,
        reference_slack=2.0 * slack,
    )
