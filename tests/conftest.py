"""Shared instances and independent brute-force helpers for the test suite.

The helpers here deliberately use plain floats and itertools enumeration
so expected values never flow through the code paths under test.
"""

from __future__ import annotations

import itertools
import math

import pytest

import tvdist as tv

BERNOULLI_P = [[0.7, 0.3], [0.7, 0.3]]
BERNOULLI_Q = [[0.4, 0.6], [0.4, 0.6]]

#: name -> (P rows, Q rows): one coordinate whose Q/P ratio is far from 1,
#: with ordinary coordinates (one of them identical) around it. At
#: Q/P = 2e-17, (Q - P)/P rounds to -1; at P = 5e-324 it overflows.
FAR_RATIO_PAIRS = {
    "tiny_q_ratio": (
        [[0.6, 0.4], [0.5, 0.5], [0.3, 0.7], [0.25, 0.75]],
        [[0.55, 0.45], [1 - 1e-17, 1e-17], [0.35, 0.65], [0.25, 0.75]],
    ),
    "subnormal_p": (
        [[0.6, 0.4], [5e-324, 1 - 5e-324], [0.3, 0.7], [0.25, 0.75]],
        [[0.55, 0.45], [0.5, 0.5], [0.35, 0.65], [0.25, 0.75]],
    ),
}


@pytest.fixture(scope="session")
def bernoulli_pair() -> tuple[tv.ProductDistribution, tv.ProductDistribution]:
    return tv.validate(BERNOULLI_P), tv.validate(BERNOULLI_Q)


def all_states(sizes) -> itertools.product:
    """All assignments (1-based tuples), last coordinate varying fastest."""
    return itertools.product(*[range(1, s + 1) for s in sizes])


def brute_point_mass(vectors, state) -> float:
    out = 1.0
    for vec, value in zip(vectors, state):
        out *= vec[value - 1]
    return out


def brute_tv(p_vectors, q_vectors) -> float:
    """Half-L1 distance by direct enumeration over the product space."""
    sizes = [len(v) for v in p_vectors]
    total = 0.0
    for state in all_states(sizes):
        total += abs(
            brute_point_mass(p_vectors, state) - brute_point_mass(q_vectors, state)
        )
    return 0.5 * total


def brute_subset_gap(p_vec, q_vec) -> float:
    """Max event-probability gap over all category subsets (TV's event form)."""
    q = len(p_vec)
    best = 0.0
    for mask in range(1 << q):
        gap = math.fsum(
            p_vec[i] - q_vec[i] for i in range(q) if (mask >> i) & 1
        )
        best = max(best, abs(gap))
    return best
