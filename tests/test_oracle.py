import math

import numpy as np
import pytest

import tvdist as tv
from tvdist.errors import BudgetExceeded, IdenticalDistributions, InvalidParameter

from conftest import (
    BERNOULLI_P,
    BERNOULLI_Q,
    all_states,
    brute_positive_part,
    brute_tv,
    random_instance_pair,
    random_instances,
    rows,
)


def test_exact_tv_identical_is_zero():
    p = tv.validate([[0.2, 0.8], [0.5, 0.5]])
    assert tv.exact_tv(p, p) == 0.0


def test_exact_tv_bernoulli(bernoulli_pair):
    p, q = bernoulli_pair
    value = tv.exact_tv(p, q)
    assert value == pytest.approx(0.33, rel=1e-12)
    assert value == pytest.approx(brute_tv(BERNOULLI_P, BERNOULLI_Q), abs=1e-14)


def test_exact_tv_single_coordinate():
    p = tv.validate([[0.7, 0.3]])
    q = tv.validate([[0.4, 0.6]])
    assert tv.exact_tv(p, q) == pytest.approx(0.3, rel=1e-12)


def test_exact_tv_budget():
    p = tv.validate([[0.5, 0.5]] * 25)
    q = tv.validate([[0.4, 0.6]] * 25)
    with pytest.raises(BudgetExceeded):
        tv.exact_tv(p, q)  # 2**25 states > default 2**20 cap
    small_p = tv.validate([[0.5, 0.5]] * 3)
    small_q = tv.validate([[0.4, 0.6]] * 3)
    with pytest.raises(BudgetExceeded):
        tv.exact_tv(small_p, small_q, max_states=4)
    assert tv.exact_tv(small_p, small_q, max_states=8) > 0.0


@pytest.mark.parametrize("cap", ["x", None, 2.5, True, 0, -5], ids=repr)
def test_budget_rejects_a_cap_that_is_not_a_positive_integer(cap):
    # the cap is checked before the shapes, which differ here
    p, q = tv.validate([[0.5, 0.5]]), tv.validate([[0.5, 0.5]] * 2)
    for oracle in (tv.exact_tv, tv.exact_pi, tv.exact_expectation_f):
        with pytest.raises(InvalidParameter, match="max_states must be"):
            oracle(p, q, max_states=cap)


def test_budget_takes_a_numpy_integer_cap():
    p, q = tv.validate([[0.5, 0.5]] * 3), tv.validate([[0.4, 0.6]] * 3)
    assert tv.exact_tv(p, q, max_states=np.int64(8)) == tv.exact_tv(p, q)
    with pytest.raises(BudgetExceeded) as info:
        tv.exact_tv(p, q, max_states=np.int64(4))
    assert type(info.value.max_states) is int and info.value.max_states == 4


def test_brute_positive_part(bernoulli_pair):
    p, q = map(rows, bernoulli_pair)
    assert brute_positive_part(p, p) == 0.0
    forward = brute_positive_part(p, q)
    assert forward == pytest.approx(0.33, rel=1e-12)
    assert forward == pytest.approx(brute_positive_part(q, p), abs=1e-14)


def test_exact_pi_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    table = tv.exact_pi(p, q)
    assert len(table) == 4
    assert table[1, 1] == pytest.approx(0.33 / 0.51, rel=1e-12)
    assert table[2, 2] == 0.0
    assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_pi_point_mass():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.0, 1.0]])
    table = tv.exact_pi(p, q)
    assert table[(1,)] == 1.0
    assert table[(2,)] == 0.0


def test_exact_pi_identical_raises():
    p = tv.validate([[0.5, 0.5]])
    with pytest.raises(IdenticalDistributions):
        tv.exact_pi(p, p)
    with pytest.raises(IdenticalDistributions):
        tv.exact_expectation_f(p, p)


def test_exact_pi_slack_only_difference_raises():
    """Q differs from P by normalization slack alone, so no state has
    disagreement mass, although the inputs are not equal."""
    p = tv.validate([[0.5, 0.5]])
    q = tv.validate([[0.5 + 1e-10, 0.5]])
    with pytest.raises(IdenticalDistributions, match="no disagreement mass"):
        tv.exact_pi(p, q)
    with pytest.raises(IdenticalDistributions, match="no disagreement mass"):
        tv.exact_expectation_f(p, q)


def test_exact_pi_sums_to_one_on_random_instances():
    for p, q in random_instances(2202, 20):
        table = tv.exact_pi(p, q)
        assert len(table) == p.state_count()
        assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_expectation_bernoulli(bernoulli_pair):
    p, q = bernoulli_pair
    assert tv.exact_expectation_f(p, q) == pytest.approx(0.33 / 0.51, rel=1e-10)


def test_exact_expectation_single_coordinate_is_one():
    # with one coordinate the greedy coupling is optimal, so the mean is 1
    p = tv.validate([[0.7, 0.1, 0.2]])
    q = tv.validate([[0.2, 0.5, 0.3]])
    assert tv.exact_expectation_f(p, q) == pytest.approx(1.0, abs=1e-12)


def test_exact_expectation_unchanged_by_identical_coordinates(bernoulli_pair):
    p, q = bernoulli_pair
    base = tv.exact_expectation_f(p, q)
    extended_p = tv.validate(BERNOULLI_P + [[0.5, 0.5], [0.25, 0.75]])
    extended_q = tv.validate(BERNOULLI_Q + [[0.5, 0.5], [0.25, 0.75]])
    assert tv.exact_expectation_f(extended_p, extended_q) == pytest.approx(
        base, abs=1e-12
    )


def test_oracle_self_consistency_and_sandwich():
    for p, q in random_instances(3303, 100):
        exact = tv.exact_tv(p, q)
        assert brute_positive_part(rows(p), rows(q)) == pytest.approx(exact, abs=1e-12)
        stats = tv.build_stats(p, q)
        # coupling inequalities; slack covers float conversion of exact values
        assert max(stats.d) <= exact * (1.0 + 1e-12) + 1e-15
        assert exact <= stats.pr_diff * (1.0 + 1e-12) + 1e-15


def test_generator_is_deterministic_and_nondegenerate():
    first = random_instances(919, 25)
    second = random_instances(919, 25)
    assert first == second
    for p, q in first:
        assert not tv.are_identical(p, q)
        assert 1 <= p.n <= 6
        assert all(1 <= s <= 4 for s in p.domain_sizes)


def test_generator_covers_required_marginal_kinds():
    distances = [
        d
        for p, q in random_instances(20260810, 100)
        for d in tv.build_stats(p, q).d
    ]
    assert any(d == 0.0 for d in distances)  # identical coordinates
    assert any(0.0 < d < 1e-6 for d in distances)  # near-identical
    assert any(d == 1.0 for d in distances)  # disjoint supports


def test_exact_pi_keys_cover_all_states():
    p = tv.validate([[0.5, 0.5], [0.2, 0.3, 0.5]])
    q = tv.validate([[0.4, 0.6], [0.2, 0.3, 0.5]])
    table = tv.exact_pi(p, q)
    assert set(table) == set(all_states(p.domain_sizes))


def test_exact_values_match_brute_force_on_random_instances():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p, q = random_instance_pair(rng, max_n=4, max_q=3)
        assert tv.exact_tv(p, q) == pytest.approx(
            brute_tv(rows(p), rows(q)), abs=1e-12
        )
