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

from conftest import (
    BERNOULLI_P,
    BERNOULLI_Q,
    FAR_RATIO_PAIRS,
    brute_tv,
    random_instance_pair,
    reference_coordinate_tv,
    rows,
)


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


@pytest.mark.parametrize(
    "epsilon, delta", [(1e-320, 0.05), (1e-160, 0.05), (5e-324, 0.05), (0.1, 5e-324)]
)
def test_sample_count_rejects_a_count_past_double_range(epsilon, delta):
    """epsilon**2 underflows to 0 below about 1e-162; above it the count
    can overflow to inf, as 1/delta does at the smallest double."""
    with pytest.raises(InvalidParameter) as info:
        tv.sample_count(2, epsilon, delta)
    message = f"n=2, epsilon={epsilon!r}, delta={delta!r} need a count past double range"
    assert str(info.value) == message


def test_sample_count_keeps_finite_counts_past_memory():
    assert tv.sample_count(2, 1e-150, 0.05) == math.ceil(4 / 1e-300 * math.log(20.0)) + 1
    assert tv.sample_count(30, 0.1, 0.05) == 269617


@pytest.mark.parametrize("n", [2.5, True, "3"], ids=repr)
def test_sample_count_rejects_an_n_that_is_not_an_integer(n):
    with pytest.raises(InvalidParameter, match="n must be an integer"):
        tv.sample_count(n, 0.1, 0.05)


def test_sample_count_takes_a_numpy_integer_n():
    assert tv.sample_count(np.int64(3), 0.1, 0.05) == 2698
    assert tv.sample_count(3, 0.1, 0.05) == 2698
    with pytest.raises(InvalidParameter, match=r"^n must be >= 1, got 0$"):
        tv.sample_count(np.int64(0), 0.1, 0.05)


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


def test_estimator_f_zero_q_factor_beside_overflowing_product():
    """A Q = 0 factor makes f 1 even where the other Q/P factors overflow;
    without it the overflowing product makes f 0."""
    p_rows, q_rows = FAR_RATIO_PAIRS["zero_q_beside_overflow"]
    p, q = tv.validate(p_rows), tv.validate(q_rows)
    outcomes = np.array([[1, 1, 1, 1, 2], [1, 1, 1, 1, 1]])
    assert tv.estimator_f(p, q, outcomes).tolist() == [1.0, 0.0]


def test_estimator_f_outside_p_support():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.5, 0.5]])
    with pytest.raises(ZeroDenominator):
        tv.estimator_f(p, q, np.array([[2]]))
    # outside in coordinates 3 and 2: the error names the first, 2
    p = tv.validate([[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
    q = tv.validate([[0.4, 0.6], [0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ZeroDenominator, match="^coordinate 2:"):
        tv.estimator_f(p, q, np.array([[1, 1, 2], [1, 2, 1]]))


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
        p, q = random_instance_pair(rng, max_n=4, max_q=4)
        support = [omega for omega, mass in tv.exact_pi(p, q).items() if mass > 0.0]
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
        map(reference_coordinate_tv, rows(p), rows(q))
    )
    assert result.elapsed_seconds >= 0.0


def test_estimate_deterministic_and_worker_invariant():
    rng = np.random.default_rng(555)
    p, q = random_instance_pair(rng, max_n=5, max_q=3)
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
        p, q = random_instance_pair(rng, max_n=4, max_q=4)
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


#: Every entry point's epsilon and delta, as a call on ``(name, value)``
#: returning what it made of them.
ACCURACY_ENTRIES = {
    "EstimatorConfig": lambda name, value: getattr(
        tv.EstimatorConfig(**{"epsilon": 0.1, "delta": 0.05, name: value}, seed=1), name
    ),
    "sample_count": lambda name, value: tv.sample_count(
        2, **{"epsilon": 0.1, "delta": 0.05, name: value}
    ),
}


@pytest.mark.parametrize("entry", ACCURACY_ENTRIES)
@pytest.mark.parametrize("name", ["epsilon", "delta"])
@pytest.mark.parametrize(
    "value", [True, False, np.True_, "0.1", None, 0.1j, [0.1]], ids=repr
)
def test_accuracy_rejects_bools_and_non_reals(entry, name, value):
    kind = type(value).__name__
    with pytest.raises(InvalidParameter) as info:
        ACCURACY_ENTRIES[entry](name, value)
    assert str(info.value) == f"{name} must be a real number, got {kind}"


@pytest.mark.parametrize("entry", ACCURACY_ENTRIES)
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("epsilon", 0.0, "epsilon must be positive, got 0.0"),
        ("epsilon", -1, "epsilon must be positive, got -1"),
        ("epsilon", math.inf, "epsilon must be finite, got inf"),
        ("epsilon", math.nan, "epsilon must be finite, got nan"),
        ("epsilon", -math.inf, "epsilon must be positive, got -inf"),
        pytest.param(
            "epsilon", -(10**400), f"epsilon must be positive, got {-(10**400)}", id="-1e400"
        ),
        ("delta", 1, "delta must be in (0, 1), got 1"),
        ("delta", 0.0, "delta must be in (0, 1), got 0.0"),
        ("delta", math.nan, "delta must be in (0, 1), got nan"),
        pytest.param("delta", 10**400, f"delta must be in (0, 1), got {10**400}", id="1e400"),
    ],
)
def test_accuracy_out_of_range_keeps_its_message(entry, name, value, message):
    with pytest.raises(InvalidParameter) as info:
        ACCURACY_ENTRIES[entry](name, value)
    assert str(info.value) == message


def test_accuracy_takes_numpy_and_integer_reals_as_plain_floats():
    config = tv.EstimatorConfig(epsilon=np.float64(0.1), delta=np.float32(0.25), seed=1)
    assert (type(config.epsilon), type(config.delta)) == (float, float)
    assert (config.epsilon, config.delta) == (0.1, float(np.float32(0.25)))
    assert type(tv.EstimatorConfig(epsilon=np.int64(1), delta=0.05, seed=1).epsilon) is float
    assert tv.sample_count(2, np.float64(0.1), np.float64(0.05)) == 1200
    assert tv.sample_count(1, np.int64(1), 0.5) == tv.sample_count(1, 1, 0.5) == 2


#: Every entry point's draw or worker count, as a call on ``(p, q, n)``
#: returning the count it used.
COUNT_ENTRIES = {
    "samples_override": lambda p, q, n: tv.estimate_tv(
        p, q, tv.EstimatorConfig(0.1, 0.05, seed=4, samples_override=n)
    ).samples_used,
    "workers": lambda p, q, n: tv.EstimatorConfig(0.1, 0.05, seed=4, workers=n).workers,
    "naive samples": lambda p, q, n: tv.naive_estimate_tv(p, q, n, 4).samples_used,
    "count": lambda p, q, n: len(tv.sample_pi_batch(p, q, tv.build_stats(p, q), 4, n)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize(
    "value", [True, False, np.True_, 100.0, 3.0, "5", 0, -3, np.int64(0)], ids=repr
)
def test_counts_reject_bools_non_integers_and_non_positive(bernoulli_pair, entry, value):
    with pytest.raises(InvalidParameter, match="must be"):
        COUNT_ENTRIES[entry](*bernoulli_pair, value)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_counts_take_numpy_integers_as_plain_ints(bernoulli_pair, entry):
    got = COUNT_ENTRIES[entry](*bernoulli_pair, np.int64(5))
    assert type(got) is int and got == 5


#: Every entry point's seed, as a call on ``(p, q, seed)`` returning the
#: bits of its result.
SEED_ENTRIES = {
    "EstimatorConfig": lambda p, q, s: tv.estimate_tv(
        p, q, tv.EstimatorConfig(0.1, 0.05, seed=s, samples_override=5000)
    ).mean_f.hex(),
    "naive_estimate_tv": lambda p, q, s: tv.naive_estimate_tv(p, q, 5000, s).mean_f.hex(),
    "sample_pi_batch": lambda p, q, s: tv.sample_pi_batch(
        p, q, tv.build_stats(p, q), s, 500
    ).tobytes(),
}


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_seeds_take_numpy_integers_as_plain_ints(bernoulli_pair, entry):
    run = SEED_ENTRIES[entry]
    for plain, kinds in ((3, (np.int64, np.uint64, np.int32)), (2**64 - 1, (np.uint64,))):
        expected = run(*bernoulli_pair, plain)
        for kind in kinds:
            assert run(*bernoulli_pair, kind(plain)) == expected, (plain, kind)
    config = tv.EstimatorConfig(0.1, 0.05, seed=np.uint64(3))
    assert type(config.seed) is int and config.seed == 3


@pytest.mark.parametrize("entry", SEED_ENTRIES)
@pytest.mark.parametrize("value", [True, np.True_, 3.0, "5", -1, 2**64], ids=repr)
def test_seeds_reject_bools_non_integers_and_out_of_range(bernoulli_pair, entry, value):
    with pytest.raises(InvalidParameter, match="seed must be"):
        SEED_ENTRIES[entry](*bernoulli_pair, value)


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


def test_naive_skips_a_coordinate_that_differs_only_in_slack():
    """A coordinate whose Q differs from P only where P = 0 leaves every
    value as it is when Q equals P there."""
    p = tv.validate([[0.6, 0.4], [0.5, 0.5, 0.0]])
    slack = tv.validate([[0.5, 0.5], [0.5, 0.5, 1e-10]])
    same = tv.validate([[0.5, 0.5], [0.5, 0.5, 0.0]])
    a = tv.naive_estimate_tv(p, slack, 5000, 9)
    b = tv.naive_estimate_tv(p, same, 5000, 9)
    assert a.estimate.hex() == b.estimate.hex()


def test_naive_rejects_bad_arguments(bernoulli_pair):
    p, q = bernoulli_pair
    with pytest.raises(InvalidParameter):
        tv.naive_estimate_tv(p, q, 0, 1)
    with pytest.raises(InvalidParameter):
        tv.naive_estimate_tv(p, q, 10, -2)
