"""Shared instances, CLI fixtures and independent brute-force helpers.

The brute-force helpers deliberately use plain floats and itertools
enumeration so expected values never flow through the code paths under
test. The seeded random-instance generator pins every property suite, so
cross-module checks are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
from importlib import resources

import numpy as np
import pytest

import tvdist as tv
from tvdist import cli
from tvdist.distributions import ProductDistribution, are_identical, validate

BERNOULLI_P = [[0.7, 0.3], [0.7, 0.3]]
BERNOULLI_Q = [[0.4, 0.6], [0.4, 0.6]]

#: name -> (P rows, Q rows): one coordinate whose Q/P ratio is far from 1,
#: with ordinary coordinates (one of them identical) around it. At
#: Q/P = 2e-17, (Q - P)/P rounds to -1; at P = 5e-324 it overflows. In
#: ``zero_q_beside_overflow`` three Q/P factors of 5e199 overflow their
#: product while the last coordinate's second category has Q = 0.
FAR_RATIO_PAIRS = {
    "tiny_q_ratio": (
        [[0.6, 0.4], [0.5, 0.5], [0.3, 0.7], [0.25, 0.75]],
        [[0.55, 0.45], [1 - 1e-17, 1e-17], [0.35, 0.65], [0.25, 0.75]],
    ),
    "subnormal_p": (
        [[0.6, 0.4], [5e-324, 1 - 5e-324], [0.3, 0.7], [0.25, 0.75]],
        [[0.55, 0.45], [0.5, 0.5], [0.35, 0.65], [0.25, 0.75]],
    ),
    "zero_q_beside_overflow": (
        [[0.6, 0.4]] + [[1e-200, 1 - 1e-200]] * 3 + [[0.5, 0.5]],
        [[0.55, 0.45]] + [[0.5, 0.5]] * 3 + [[1.0, 0.0]],
    ),
}


def run_cli(capsys, argv):
    """Run ``cli.main(argv)`` in-process: exit code, parsed report (or None), stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture(scope="session")
def schema():
    """The run-report JSON schema shipped with the package."""
    text = (resources.files("tvdist") / "schemas" / "run-report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def bernoulli_file(tmp_path):
    """The Bernoulli instance written as a CLI instance file."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"p": BERNOULLI_P, "q": BERNOULLI_Q}))
    return str(path)


@pytest.fixture(scope="session")
def bernoulli_pair() -> tuple[tv.ProductDistribution, tv.ProductDistribution]:
    return tv.validate(BERNOULLI_P), tv.validate(BERNOULLI_Q)


def rows(dist) -> list[tuple[float, ...]]:
    """Each coordinate's stored probability vector."""
    return list(dist.rows)


def reference_coordinate_tv(p_row, q_row) -> float:
    """Half the L1 distance of two vectors: one exact sum, capped at 1."""
    return min(0.5 * math.fsum(abs(a - b) for a, b in zip(p_row, q_row)), 1.0)


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


def brute_positive_part(p_vectors, q_vectors) -> float:
    """Sum of ``max{0, P(omega) - Q(omega)}`` over the product space; equals TV."""
    sizes = [len(v) for v in p_vectors]
    total = 0.0
    for state in all_states(sizes):
        total += max(
            0.0, brute_point_mass(p_vectors, state) - brute_point_mass(q_vectors, state)
        )
    return total


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


# --- seeded random instances ------------------------------------------------


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
