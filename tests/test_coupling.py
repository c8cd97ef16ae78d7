import math

import numpy as np
import pytest

import tvdist as tv
from tvdist.errors import (
    DegenerateConditional,
    IdenticalDistributions,
    InvalidParameter,
)

from conftest import all_states


# --- stats ------------------------------------------------------------------


def test_build_stats_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    assert stats.d == pytest.approx((0.3, 0.3))
    assert stats.suffix == pytest.approx((0.49, 0.7, 1.0), rel=1e-12)
    assert stats.pr_diff == pytest.approx(0.51, rel=1e-12)


def test_build_stats_identical():
    p = tv.validate([[0.3, 0.7], [0.5, 0.5]])
    stats = tv.build_stats(p, p)
    assert stats.d == (0.0, 0.0)
    assert stats.pr_diff == 0.0


def test_build_stats_disjoint_coordinate_forces_certain_disagreement():
    p = tv.validate([[1.0, 0.0], [0.5, 0.5]])
    q = tv.validate([[0.0, 1.0], [0.5, 0.5]])
    stats = tv.build_stats(p, q)
    assert stats.pr_diff == 1.0
    assert stats.suffix[0] == 0.0
    assert stats.suffix[1] == 1.0  # the d = 1 coordinate is not in this suffix


def test_suffix_recurrence_and_bounds():
    for p, q in tv.random_instances(1101, 100):
        stats = tv.build_stats(p, q)
        n = stats.n
        assert stats.suffix[n] == 1.0
        for k in range(n):
            expected = (1.0 - stats.d[k]) * stats.suffix[k + 1]
            assert stats.suffix[k] == pytest.approx(expected, abs=1e-12)
        assert 0.0 < stats.pr_diff <= 1.0
        # coupling inequalities, with slack for the exp/log round trip
        assert max(stats.d) <= stats.pr_diff * (1.0 + 1e-12)
        assert stats.pr_diff <= min(1.0, math.fsum(stats.d)) * (1.0 + 1e-12)


def test_pr_diff_accurate_for_tiny_distances():
    d = 1e-12
    n = 100
    p = tv.validate([[d, 0.0, 1.0 - d]] * n)
    q = tv.validate([[0.0, d, 1.0 - d]] * n)
    stats = tv.build_stats(p, q)
    assert stats.d == (d,) * n
    expected = n * d * (1.0 - 49.5 * d)
    assert abs(stats.pr_diff - expected) / expected <= 1e-6


# --- conditional weights ----------------------------------------------------


def test_conditional_weights_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    weights = tv.conditional_weights(1, 1.0, stats, p.marginals[0], q.marginals[0])
    assert weights == pytest.approx([0.42, 0.09], rel=1e-12)
    assert tv.step_normalizer(1, 1.0, stats) == pytest.approx(0.51, rel=1e-12)
    assert math.fsum(weights) == pytest.approx(
        tv.step_normalizer(1, 1.0, stats), abs=1e-12
    )


def test_conditional_weights_zero_prefix_reduces_to_p(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    weights = tv.conditional_weights(2, 0.0, stats, p.marginals[1], q.marginals[1])
    assert weights == pytest.approx(p.marginals[1].probs)


def test_conditional_weights_zero_probability_category():
    p = tv.validate([[0.0, 1.0], [0.5, 0.5]])
    q = tv.validate([[0.5, 0.5], [0.4, 0.6]])
    stats = tv.build_stats(p, q)
    weights = tv.conditional_weights(1, 1.0, stats, p.marginals[0], q.marginals[0])
    assert weights[0] == 0.0


def test_step_normalizer_degenerate_on_identical():
    p = tv.validate([[0.5, 0.5]])
    stats = tv.build_stats(p, p)
    with pytest.raises(DegenerateConditional):
        tv.step_normalizer(1, 1.0, stats)


def test_prefix_ratio_round_trip():
    a = tv.PrefixRatio.from_value(0.25)
    assert a.value == pytest.approx(0.25, rel=1e-15)
    assert tv.PrefixRatio.from_value(0.0).is_zero
    assert tv.UNIT_PREFIX.value == 1.0
    with pytest.raises(InvalidParameter):
        tv.PrefixRatio.from_value(1.5)


def _chain_probability(p, q, stats, state):
    """Multiply the normalized conditionals along one full path."""
    prefix = tv.UNIT_PREFIX
    probability = 1.0
    for k, category in enumerate(state, start=1):
        p_k = p.marginals[k - 1]
        q_k = q.marginals[k - 1]
        try:
            normalizer = tv.step_normalizer(k, prefix, stats)
        except DegenerateConditional:
            return 0.0
        weights = tv.conditional_weights(k, prefix, stats, p_k, q_k)
        probability *= weights[category - 1] / normalizer
        prefix = tv.extend_prefix(prefix, p_k, q_k, category)
    return probability


def test_chain_consistency_with_exact_law():
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        p, q = tv.random_instance_pair(rng, max_n=4, max_q=4)
        stats = tv.build_stats(p, q)
        table = tv.exact_pi(p, q)
        for state in all_states(p.domain_sizes):
            chained = _chain_probability(p, q, stats, state)
            assert chained == pytest.approx(
                table[tv.Assignment(state)], abs=1e-10
            )


# --- sampling ---------------------------------------------------------------


def test_sample_pi_identical_distributions_raises():
    p = tv.validate([[0.5, 0.5], [0.3, 0.7]])
    stats = tv.build_stats(p, p)
    assert stats.pr_diff == 0.0
    with pytest.raises(IdenticalDistributions):
        tv.sample_pi(p, p, stats, 1)
    with pytest.raises(IdenticalDistributions):
        tv.sample_pi_batch(p, p, stats, 1, 10)


def test_sample_pi_deterministic_point():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.0, 1.0]])
    stats = tv.build_stats(p, q)
    for seed in range(5):
        assert tv.sample_pi(p, q, stats, seed) == tv.Assignment((1,))


def test_sample_pi_seed_determinism(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    a = tv.sample_pi(p, q, stats, 123)
    b = tv.sample_pi(p, q, stats, 123)
    c = tv.sample_pi(p, q, stats, 124)
    assert a == b
    assert isinstance(c, tv.Assignment)


def test_sample_pi_batch_block_prefix_stability(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    short = tv.sample_pi_batch(p, q, stats, 5, 4096)
    longer = tv.sample_pi_batch(p, q, stats, 5, 5000)
    assert np.array_equal(longer[:4096], short)


def test_sample_pi_batch_empirical_frequency(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, 42, 10**6)
    freq = float(np.mean((draws[:, 0] == 1) & (draws[:, 1] == 1)))
    expected = tv.exact_pi(p, q)[tv.Assignment((1, 1))]
    assert expected == pytest.approx(0.33 / 0.51, rel=1e-12)
    assert abs(freq - expected) <= 0.003


def test_sample_pi_batch_invariant_checks_pass():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        p, q = tv.random_instance_pair(rng, max_n=5, max_q=4)
        stats = tv.build_stats(p, q)
        draws = tv.sample_pi_batch(p, q, stats, 77, 2000, check_invariants=True)
        assert draws.shape == (2000, p.n)
        for i, size in enumerate(p.domain_sizes):
            column = draws[:, i]
            assert column.min() >= 1
            assert column.max() <= size


def test_sample_pi_batch_rejects_bad_arguments(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    with pytest.raises(InvalidParameter):
        tv.sample_pi_batch(p, q, stats, 1, 0)
    with pytest.raises(InvalidParameter):
        tv.sample_pi_batch(p, q, stats, -1, 10)
    with pytest.raises(InvalidParameter):
        tv.sample_pi_batch(p, q, stats, 2**64, 10)


def test_samples_avoid_zero_probability_categories():
    p = tv.validate([[0.0, 0.6, 0.4], [0.5, 0.5]])
    q = tv.validate([[0.2, 0.2, 0.6], [0.9, 0.1]])
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, 11, 5000, check_invariants=True)
    assert not np.any(draws[:, 0] == 1)


def test_unit_domain_coordinates():
    p = tv.validate([[1.0], [0.7, 0.3]])
    q = tv.validate([[1.0], [0.4, 0.6]])
    stats = tv.build_stats(p, q)
    assert stats.d[0] == 0.0
    draws = tv.sample_pi_batch(p, q, stats, 3, 2000, check_invariants=True)
    assert np.all(draws[:, 0] == 1)
    # a single effective coordinate makes the greedy coupling optimal
    assert tv.exact_expectation_f(p, q) == pytest.approx(1.0, abs=1e-12)


def _reference_selection(weights, u):
    """Inverse CDF over a (q, m) weight matrix: count of cumulative weights
    <= u * total, clamped to the last positive weight."""
    cum = np.cumsum(weights, axis=0)
    threshold = u * cum[-1]
    count = (cum <= threshold).sum(axis=0)
    q = weights.shape[0]
    last_positive = q - 1 - np.argmax((weights > 0.0)[::-1], axis=0)
    return np.minimum(count, last_positive), cum, threshold


def test_select_matches_reference_selection():
    """The row-wise selection equals the reference, including draws whose
    threshold reaches a tiny total and must be clamped."""
    from tvdist.coupling import _select

    rng = np.random.default_rng(2024)
    top = 1.0 - 2.0**-53  # the largest uniform the generator returns
    m = 512
    clamped = 0
    for q in (1, 2, 3, 5, 16):
        for unit in (0.1, 1e-300, 2.0**-1022 / 4, 5e-324):
            weights = np.floor(rng.random((q, m)) * 4) * unit
            weights[-1, : m // 2] = 0.0  # last category empty for half the draws
            weights[0] += unit  # every draw has a positive total
            u = rng.random(m)
            u[: m // 4] = top
            expected, cum, threshold = _reference_selection(weights, u)
            out = np.empty(m, dtype=np.intp)
            _select(cum, threshold, float(cum[-1].min()), out, np.empty(m, dtype=bool))
            assert np.array_equal(out, expected), (q, unit)
            clamped += int(np.sum((threshold >= cum[-1]) & (weights[-1] == 0.0)))
    assert clamped > 0  # the clamp was exercised
    # u * total rounds up to the total when the total is the smallest normal
    weights = np.zeros((3, 4))
    weights[0] = 2.0**-1022
    expected, cum, threshold = _reference_selection(weights, np.full(4, top))
    out = np.empty(4, dtype=np.intp)
    _select(cum, threshold, float(cum[-1].min()), out, np.empty(4, dtype=bool))
    assert np.array_equal(out, expected) and not out.any()
