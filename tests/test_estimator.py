import math

import numpy as np
import pytest

import tvdist as tv
from tvdist.errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidParameter,
    ZeroDenominator,
)

from conftest import BERNOULLI_P, BERNOULLI_Q, brute_tv


# --- sample count -----------------------------------------------------------


def test_sample_count_hand_values():
    assert tv.sample_count(2, 0.1, 0.05) == 1200
    assert tv.sample_count(1, 1.0, 0.5) == 2


def test_sample_count_clamps_large_delta():
    assert tv.sample_count(1, 1.0, 0.9) == tv.sample_count(1, 1.0, 0.5) == 2


def test_sample_count_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        tv.sample_count(0, 0.1, 0.1)
    with pytest.raises(InvalidParameter):
        tv.sample_count(2, 0.0, 0.1)
    with pytest.raises(InvalidParameter):
        tv.sample_count(2, 0.1, 1.0)


# --- per-sample estimate ----------------------------------------------------


def test_estimator_f_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    f = tv.estimator_f(p, q, np.array([[1, 1], [2, 2]]))
    assert f.shape == (2,)
    assert f[0] == pytest.approx(1.0, rel=1e-12)
    assert f[1] == 0.0


def test_estimator_f_disjoint_coordinate():
    p = tv.validate([[0.6, 0.4], [1.0, 0.0]])
    q = tv.validate([[0.5, 0.5], [0.0, 1.0]])
    # Q vanishes on the path and min = Q at both coordinates
    assert tv.estimator_f(p, q, np.array([[1, 1]])).tolist() == [1.0]


def test_estimator_f_outside_p_support():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.5, 0.5]])
    with pytest.raises(ZeroDenominator):
        tv.estimator_f(p, q, np.array([[2]]))


def test_estimator_f_invalid_assignment(bernoulli_pair):
    p, q = bernoulli_pair
    with pytest.raises(IndexOutOfRange):
        tv.estimator_f(p, q, np.array([[3, 1]]))
    for wrong in ([[1]], [1, 1], [[1.0, 1.0]]):
        with pytest.raises(DomainMismatch):
            tv.estimator_f(p, q, np.array(wrong))
    p = tv.validate([[0.5, 0.5]])
    q = tv.validate([[0.4, 0.6]])
    with pytest.raises(IndexOutOfRange) as info:
        tv.estimator_f(p, q, np.array([[1], [3]]))
    assert info.value.coordinate == 1


def test_estimator_f_in_range_on_support():
    for seed in (31, 32, 33):
        rng = np.random.default_rng(seed)
        p, q = tv.random_instance_pair(rng, max_n=4, max_q=4)
        support = [omega.values for omega, mass in tv.exact_pi(p, q).items() if mass > 0.0]
        f = tv.estimator_f(p, q, np.array(support))
        assert f.shape == (len(support),)
        assert np.all((0.0 <= f) & (f <= 1.0))


#: Pairs for the engine check; the second has d_i = 0 coordinates, which
#: estimate_tv leaves out of its kernel steps.
ENGINE_PAIRS = {
    "bernoulli": (BERNOULLI_P, BERNOULLI_Q),
    "identical_coordinates": (
        [[0.5, 0.5], [0.2, 0.3, 0.5], [0.6, 0.4], [0.1, 0.9], [0.25, 0.0, 0.75]],
        [[0.5, 0.5], [0.25, 0.3, 0.45], [0.6, 0.4], [0.15, 0.85], [0.25, 0.0, 0.75]],
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_PAIRS))
@pytest.mark.parametrize("workers", [1, 2])
def test_engine_f_matches_batch_estimator(name, workers):
    """Same seed and count: estimate_tv and sample_pi_batch draw the same
    outcomes, so estimator_f over the draws, one fsum per block merged in
    block order, gives estimate_tv's mean bit for bit."""
    p, q = (tv.validate(rows) for rows in ENGINE_PAIRS[name])
    count = 9000
    draws = tv.sample_pi_batch(p, q, tv.build_stats(p, q), 2024, count)
    f = tv.estimator_f(p, q, draws)
    block = tv.coupling.SAMPLE_BLOCK
    partials = [math.fsum(f[start : start + block]) for start in range(0, count, block)]
    expected = math.fsum(partials) / count
    config = tv.EstimatorConfig(
        0.1, 0.05, seed=2024, samples_override=count, workers=workers
    )
    assert tv.estimate_tv(p, q, config).mean_f.hex() == expected.hex()


# --- estimate_tv ------------------------------------------------------------


def test_estimate_identical_short_circuits():
    p = tv.validate([[0.3, 0.7], [0.5, 0.5]])
    result = tv.estimate_tv(p, p, tv.EstimatorConfig(0.1, 0.05, seed=1))
    assert result.estimate == 0.0
    assert result.samples_used == 0
    assert result.pr_diff == 0.0


def test_estimate_bernoulli_within_guarantee(bernoulli_pair):
    p, q = bernoulli_pair
    result = tv.estimate_tv(p, q, tv.EstimatorConfig(0.1, 0.05, seed=7))
    assert result.samples_used == 1200
    assert 0.297 <= result.estimate <= 0.363
    assert brute_tv(BERNOULLI_P, BERNOULLI_Q) == pytest.approx(0.33)


def test_estimate_point_masses_exact():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.0, 1.0]])
    result = tv.estimate_tv(p, q, tv.EstimatorConfig(0.5, 0.25, seed=3))
    assert result.estimate == 1.0
    assert result.mean_f == 1.0
    assert result.pr_diff == 1.0


def test_estimate_result_identity_and_fields(bernoulli_pair):
    p, q = bernoulli_pair
    result = tv.estimate_tv(
        p, q, tv.EstimatorConfig(0.2, 0.1, seed=11, samples_override=5000)
    )
    assert result.estimate == result.mean_f * result.pr_diff
    assert 0.0 <= result.mean_f <= 1.0
    assert result.samples_used == 5000
    assert result.per_coordinate_tv == tuple(
        tv.coordinate_tv(pm, qm) for pm, qm in zip(p.marginals, q.marginals)
    )
    assert result.elapsed_seconds >= 0.0


def test_estimate_deterministic_and_worker_invariant():
    rng = np.random.default_rng(555)
    p, q = tv.random_instance_pair(rng, max_n=5, max_q=3)
    runs = [
        tv.estimate_tv(
            p, q, tv.EstimatorConfig(0.1, 0.05, seed=99, samples_override=12000, workers=w)
        )
        for w in (1, 1, 4)
    ]
    assert runs[0].estimate == runs[1].estimate == runs[2].estimate
    assert runs[0].mean_f == runs[2].mean_f


def test_estimate_unbiased_against_oracle():
    for seed in (41, 42, 43):
        rng = np.random.default_rng(seed)
        p, q = tv.random_instance_pair(rng, max_n=4, max_q=4)
        stats = tv.build_stats(p, q)
        expectation = tv.exact_expectation_f(p, q)
        assert abs(expectation * stats.pr_diff - tv.exact_tv(p, q)) <= 1e-10
        assert 1.0 / p.n - 1e-12 <= expectation <= 1.0 + 1e-12


def test_estimator_config_validation():
    with pytest.raises(InvalidParameter):
        tv.EstimatorConfig(epsilon=0.0, delta=0.1, seed=1)
    with pytest.raises(InvalidParameter):
        tv.EstimatorConfig(epsilon=0.1, delta=1.0, seed=1)
    with pytest.raises(InvalidParameter):
        tv.EstimatorConfig(epsilon=0.1, delta=0.1, seed=-1)
    with pytest.raises(InvalidParameter):
        tv.EstimatorConfig(epsilon=0.1, delta=0.1, seed=1, samples_override=0)
    with pytest.raises(InvalidParameter):
        tv.EstimatorConfig(epsilon=0.1, delta=0.1, seed=1, workers=0)


# --- naive baseline ---------------------------------------------------------


def test_naive_identical_is_exactly_zero():
    p = tv.validate([[0.4, 0.6], [0.2, 0.8]])
    result = tv.naive_estimate_tv(p, p, 1000, 5)
    assert result.estimate == 0.0


def test_naive_point_masses():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.0, 1.0]])
    result = tv.naive_estimate_tv(p, q, 17, 5)
    assert result.estimate == 1.0


def test_naive_bernoulli_concentrates(bernoulli_pair):
    p, q = bernoulli_pair
    result = tv.naive_estimate_tv(p, q, 10**5, seed=7)
    assert abs(result.estimate - 0.33) <= 0.005
    assert result.pr_diff == 1.0
    assert result.estimate == result.mean_f * result.pr_diff
    assert result.samples_used == 10**5


def test_naive_deterministic(bernoulli_pair):
    p, q = bernoulli_pair
    a = tv.naive_estimate_tv(p, q, 5000, seed=8)
    b = tv.naive_estimate_tv(p, q, 5000, seed=8)
    assert a.estimate == b.estimate


def test_naive_rejects_bad_arguments(bernoulli_pair):
    p, q = bernoulli_pair
    with pytest.raises(InvalidParameter):
        tv.naive_estimate_tv(p, q, 0, 1)
    with pytest.raises(InvalidParameter):
        tv.naive_estimate_tv(p, q, 10, -2)
