"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; without
`-s`, pytest shows the lines for failing criteria only. Tolerances are
pinned here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

import tvdist as tv

from conftest import (
    BERNOULLI_P,
    BERNOULLI_Q,
    brute_tv,
    random_instance_pair,
    random_instances,
)


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def instance_suite():
    """100 seeded instances (n <= 6, q_i <= 4) with exact reference values."""
    rows = []
    for p, q in random_instances(20260810, 100):
        rows.append(
            {
                "p": p,
                "q": q,
                "stats": tv.build_stats(p, q),
                "expectation": tv.exact_expectation_f(p, q),
                "tv": tv.exact_tv(p, q),
            }
        )
    return rows


def test_criterion_1_relative_error_guarantee():
    p = tv.validate(BERNOULLI_P)
    q = tv.validate(BERNOULLI_Q)
    assert tv.exact_tv(p, q) == pytest.approx(0.33, abs=1e-12)
    outside = 0
    for seed in range(200):
        config = tv.EstimatorConfig(epsilon=0.1, delta=0.05, seed=seed)
        result = tv.estimate_tv(p, q, config)
        assert result.samples_used == 1200
        if not 0.297 <= result.estimate <= 0.363:
            outside += 1
    fraction = outside / 200
    _criterion(
        1,
        fraction <= 0.10,
        f"{outside}/200 runs outside [0.297, 0.363] "
        f"(fraction {fraction:.3f}, allowed 0.10; m=1200 per run)",
    )


def _small_tv_runs(name, p, q, exact, budget):
    """Run the estimator and the naive baseline on seeds 0..99.

    Returns the estimator's hits within (1 +- 0.2) * exact, the naive runs
    that returned 0 or missed by more than 100%, and a detail line that also
    gives the naive zero count and median relative error.
    """
    estimator_hits = 0
    naive_failures = 0
    naive_zeros = 0
    naive_errors = []
    for seed in range(100):
        config = tv.EstimatorConfig(epsilon=0.2, delta=0.1, seed=seed)
        estimate = tv.estimate_tv(p, q, config).estimate
        if 0.8 * exact <= estimate <= 1.2 * exact:
            estimator_hits += 1
        baseline = tv.naive_estimate_tv(p, q, budget, seed).estimate
        error = abs(baseline - exact) / exact
        naive_errors.append(error)
        if baseline == 0.0:
            naive_zeros += 1
        if baseline == 0.0 or error > 1.0:
            naive_failures += 1
    detail = (
        f"{name} (tv={exact:.3g}): estimator within (1+-0.2)*exact in "
        f"{estimator_hits}/100 runs; naive returned 0 in {naive_zeros}/100, "
        f"0 or relative error > 1 in {naive_failures}/100, "
        f"median relative error {np.median(naive_errors):.3g}"
    )
    return estimator_hits, naive_failures, detail


def test_criterion_2_small_tv_regime():
    # Uniform tiny distance: the naive integrand max{0, 1 - Q/P} is ~1e-7 on
    # every outcome, so the unbiased baseline is accurate here and only the
    # estimator clause is asserted.
    p = tv.validate([[0.5, 0.5]] * 10)
    q = tv.validate([[0.5 + 1e-7, 0.5 - 1e-7]] * 10)
    exact = tv.exact_tv(p, q)
    assert 0.0 < exact < 1e-6
    # Rare support: the integrand is 0 on the all-first outcome (P-mass
    # ~1 - 2e-7, where Q > P) and ~1/2 elsewhere, so a naive run sees almost
    # no nonzero draw. This is the regime the baseline cannot handle.
    rare_p_vectors = [[1 - 2e-8, 2e-8]] * 10
    rare_q_vectors = [[1 - 1e-8, 1e-8]] * 10
    rare_p = tv.validate(rare_p_vectors)
    rare_q = tv.validate(rare_q_vectors)
    rare_exact = tv.exact_tv(rare_p, rare_q)
    assert 0.0 < rare_exact < 1e-6
    assert rare_exact == pytest.approx(
        brute_tv(rare_p_vectors, rare_q_vectors), rel=1e-6
    )
    budget = tv.sample_count(10, 0.2, 0.1)
    off_mode_draws = budget * (1.0 - math.prod(vec[0] for vec in rare_p_vectors))
    assert off_mode_draws < 0.01, (
        f"rare-support instance expects {off_mode_draws:.3g} off-mode draws "
        f"per run of m={budget}; it is no longer rare-support"
    )
    hits, _, detail = _small_tv_runs("uniform", p, q, exact, budget)
    rare_hits, rare_failures, rare_detail = _small_tv_runs(
        "rare-support", rare_p, rare_q, rare_exact, budget
    )
    _criterion(
        2,
        hits >= 85 and rare_hits >= 85 and rare_failures > 50,
        f"{detail}; {rare_detail} ({off_mode_draws:.2g} off-mode draws "
        f"expected per run). Need estimator >= 85/100 on both and naive "
        f"failing in a majority on rare-support, at the same budget m={budget}",
    )


def test_criterion_3_conditional_mean_times_pr_diff_is_exact_tv(instance_suite):
    worst = 0.0
    for row in instance_suite:
        gap = abs(row["expectation"] * row["stats"].pr_diff - row["tv"])
        worst = max(worst, gap)
    _criterion(
        3,
        worst <= 1e-10,
        f"max |E f * pr_diff - exact_tv| = {worst:.3e} over 100 instances "
        "(allowed 1e-10)",
    )


def test_criterion_4_expectation_bounds(instance_suite):
    violations = 0
    for row in instance_suite:
        lower = 1.0 / row["p"].n - 1e-12
        upper = 1.0 + 1e-12
        if not lower <= row["expectation"] <= upper:
            violations += 1
    _criterion(
        4,
        violations == 0,
        f"{violations}/100 instances violate 1/n <= E f <= 1 "
        "(1e-12 endpoint tolerance)",
    )


def test_criterion_5_estimate_range_on_full_support(instance_suite):
    out_of_range = 0
    range_errors = 0
    checked = 0
    for row in instance_suite:
        for omega, mass in tv.exact_pi(row["p"], row["q"]).items():
            if mass <= 0.0:
                continue
            checked += 1
            try:
                (value,) = tv.estimator_f(row["p"], row["q"], np.array([omega]))
            except tv.EstimatorOutOfRange:
                range_errors += 1
                continue
            if not 0.0 <= value <= 1.0:
                out_of_range += 1
    _criterion(
        5,
        out_of_range == 0 and range_errors == 0,
        f"{checked} support outcomes checked: {out_of_range} outside [0, 1], "
        f"{range_errors} range errors raised",
    )


def test_criterion_6_sampler_exactness():
    p = tv.validate(
        [[0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]]
    )
    q = tv.validate(
        [[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]]
    )
    assert p.state_count() == 64
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, 20260, 10**6, check_invariants=True)
    table = tv.exact_pi(p, q)
    exact = np.array(
        [
            table[state]
            for state in itertools.product(*[range(1, s + 1) for s in p.domain_sizes])
        ]
    )
    flat = np.ravel_multi_index((draws - 1).T, p.domain_sizes)
    empirical = np.bincount(flat, minlength=p.state_count()) / draws.shape[0]
    distance = 0.5 * float(np.abs(empirical - exact).sum())
    _criterion(
        6,
        distance <= 0.005,
        f"empirical vs exact conditional law: TV = {distance:.5f} over 1e6 draws "
        "(allowed 0.005; weight-sum identity verified at every step)",
    )


def test_criterion_7_tiny_distance_stability():
    d = 1e-12
    n = 100
    p = tv.validate([[d, 0.0, 1.0 - d]] * n)
    q = tv.validate([[0.0, d, 1.0 - d]] * n)
    stats = tv.build_stats(p, q)
    assert stats.d == (d,) * n
    reference = n * d * (1.0 - 49.5 * d)
    library_error = abs(stats.pr_diff - reference) / reference
    plain_product = 1.0 - float(np.prod(1.0 - np.full(n, d)))
    plain_error = abs(plain_product - reference) / reference
    _criterion(
        7,
        library_error <= 1e-6 and plain_error > 1e-6,
        f"library pr_diff relative error {library_error:.2e} (allowed 1e-6); "
        f"plain-product reference loses it with relative error {plain_error:.2e}",
    )


def test_criterion_8_determinism_and_merge():
    rng = np.random.default_rng(4242)
    p, q = random_instance_pair(rng, max_n=6, max_q=4)

    def run(workers):
        config = tv.EstimatorConfig(
            epsilon=0.1, delta=0.05, seed=987, samples_override=20000, workers=workers
        )
        return tv.estimate_tv(p, q, config)

    first = run(1)
    again = run(1)
    parallel = run(8)
    identical = (
        first.estimate == again.estimate == parallel.estimate
        and first.mean_f == parallel.mean_f
    )
    _criterion(
        8,
        identical,
        f"workers=1 twice and workers=8 all returned {first.estimate!r} "
        f"bit-identically: {identical}",
    )


def test_criterion_9_runtime_scaling():
    samples = 16384
    per_unit = {}
    for n in (10, 100, 1000):
        p = tv.validate([[0.6, 0.4]] * n)
        q = tv.validate([[0.4, 0.6]] * n)
        config = tv.EstimatorConfig(
            epsilon=0.1, delta=0.05, seed=1, samples_override=samples
        )
        tv.estimate_tv(p, q, config)  # warm up caches and allocator
        best = min(tv.estimate_tv(p, q, config).elapsed_seconds for _ in range(3))
        per_unit[n] = best / (n * samples)
    spread = max(per_unit.values()) / min(per_unit.values())
    detail = ", ".join(f"n={n}: {v * 1e9:.2f} ns" for n, v in per_unit.items())
    _criterion(
        9,
        spread <= 2.0,
        f"time per coordinate-sample [{detail}] varies by {spread:.2f}x "
        "(allowed 2x) at fixed m",
    )
