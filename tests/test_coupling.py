import dataclasses
import hashlib
import itertools
import math
import sys
import threading
from contextlib import closing

import numpy as np
import pytest

import tvdist as tv
from tvdist.errors import (
    DegenerateConditional,
    IdenticalDistributions,
    InvalidParameter,
)

from conftest import FAR_RATIO_PAIRS, all_states, random_instance_pair, random_instances, rows
from test_stats_parity import BATCHES


# --- stats ------------------------------------------------------------------


def suffix(stats) -> tuple[float, ...]:
    """The suffix products ``B_k`` themselves, from ``stats.suffix_log``."""
    return tuple(math.exp(s) for s in stats.suffix_log)


def test_build_stats_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    assert stats.d == pytest.approx((0.3, 0.3))
    assert suffix(stats) == pytest.approx((0.49, 0.7, 1.0), rel=1e-12)
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
    assert suffix(stats)[0] == 0.0
    assert suffix(stats)[1] == 1.0  # the d = 1 coordinate is not in this suffix
    # the zero flag: a log of -inf from the d = 1 coordinate down
    assert stats.suffix_log == (-math.inf, 0.0, 0.0)
    # a d = 1 coordinate third: every suffix that holds it is flagged
    p = tv.validate([[0.5, 0.5], [0.3, 0.7], [1.0, 0.0], [0.6, 0.4]])
    q = tv.validate([[0.4, 0.6], [0.3, 0.7], [0.0, 1.0], [0.5, 0.5]])
    stats = tv.build_stats(p, q)
    assert stats.suffix_log == (-math.inf,) * 3 + (math.log1p(-stats.d[3]), 0.0)
    assert suffix(stats)[:3] == (0.0,) * 3
    assert stats.pr_diff == 1.0


def test_suffix_recurrence_and_bounds():
    for p, q in random_instances(1101, 100):
        stats = tv.build_stats(p, q)
        n, products = stats.n, suffix(stats)
        assert products[n] == 1.0
        for k in range(n):
            expected = (1.0 - stats.d[k]) * products[k + 1]
            assert products[k] == pytest.approx(expected, abs=1e-12)
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


def _kernel_weights(p, q, k, log_a):
    """Conditional weights of coordinate ``k`` (0-based) from the kernel's
    weight fill on its step record, one column per prefix log ratio in
    ``log_a``, and their totals."""
    from tvdist.coupling import _step_records, _step_weights

    record = _step_records(p, q, tv.build_stats(p, q), list(range(p.n)))[k]
    log_a = np.asarray(log_a, dtype=float)
    cum = np.empty((p.domain_sizes[k], 1, log_a.size))
    _step_weights(record, log_a, cum, np.empty(log_a.size))
    cum = cum[:, 0]
    return np.diff(cum, axis=0, prepend=0.0), cum[-1]


def test_conditional_weights_hand_values(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    weights, total = _kernel_weights(p, q, 0, [0.0])
    assert weights[:, 0] == pytest.approx([0.42, 0.09], rel=1e-12)
    assert total[0] == pytest.approx(0.51, rel=1e-12)
    assert total[0] == pytest.approx(-math.expm1(stats.suffix_log[0]), abs=1e-12)


def test_conditional_weights_zero_prefix_reduces_to_p(bernoulli_pair):
    p, q = bernoulli_pair
    weights, _ = _kernel_weights(p, q, 1, [-math.inf])
    assert weights[:, 0] == pytest.approx(rows(p)[1])


def test_conditional_weights_zero_probability_category():
    p = tv.validate([[0.0, 1.0], [0.5, 0.5]])
    q = tv.validate([[0.5, 0.5], [0.4, 0.6]])
    weights, _ = _kernel_weights(p, q, 0, [0.0])
    assert weights[0, 0] == 0.0


def _hex_record(record):
    """A step record with every float as its hex string and the arrays as bytes."""
    k, log_b, log_qp, gap, neg_agree = record
    return k, log_b.hex(), log_qp.tobytes(), gap.tobytes(), neg_agree.tobytes()


def test_tables_of_some_coordinates_are_the_full_tables_there():
    """The log-ratio rows over a subset of coordinates are, bit for bit,
    the rows over every coordinate there; so are the kernel's step records
    built over them."""
    from tvdist.coupling import _log_ratios, _step_records

    for p, q in random_instances(4040, 30, max_n=8, max_q=5):
        stats = tv.build_stats(p, q)
        every = list(range(p.n))
        full = _log_ratios(p, q, every)
        assert [row.size for row in full] == list(p.domain_sizes)
        steps = [k for k, d in enumerate(stats.d) if d != 0.0]
        part = _log_ratios(p, q, steps)
        assert [row.tobytes() for row in part] == [full[k].tobytes() for k in steps]
        full_records = list(map(_hex_record, _step_records(p, q, stats, every)))
        part_records = list(map(_hex_record, _step_records(p, q, stats, steps)))
        assert part_records == [full_records[k] for k in steps]


def test_log_ratio_rows_follow_the_rule_entry_by_entry():
    """Every log-ratio entry is, by ``float.hex``, the rule applied to that
    entry alone with the same numpy functions: 0 where P = 0,
    ``log1p((Q - P)/P)`` where that quotient is above -1 and finite, and
    ``log Q - log P`` otherwise (Q/P below about 2^-54, Q = 0, or a
    subnormal P). Every branch occurs."""
    from tvdist.coupling import _log_ratios

    def reference(a: float, b: float) -> tuple[str, float]:
        pv, qv = np.array([a]), np.array([b])
        if a == 0.0:
            return "zero", 0.0
        with np.errstate(over="ignore"):
            rel = (qv - pv) / pv
        if -1.0 < rel[0] < np.inf:
            return "near", float(np.log1p(rel)[0])
        with np.errstate(divide="ignore"):
            return "far", float((np.log(qv) - np.log(pv))[0])

    named = [tuple(map(tv.validate, pair)) for pair in FAR_RATIO_PAIRS.values()]
    batches = [random_instances(*batch) for batch in BATCHES]
    seen = set()
    for p, q in itertools.chain(named, *batches):
        for k, row in enumerate(_log_ratios(p, q, list(range(p.n)))):
            for c, (a, b) in enumerate(zip(p.rows[k], q.rows[k])):
                branch, want = reference(a, b)
                assert float(row[c]).hex() == want.hex(), (k, c, branch)
                seen.add(branch)
    assert seen == {"zero", "near", "far"}


def test_step_sums_are_plain_running_sums():
    """Each step record's ``gap`` and ``neg_agree`` columns are, bit for bit,
    the running sums of ``max(p - q, 0.0)`` and, negated, of ``min(p, q)``
    over the plain rows, in category order."""
    from tvdist.coupling import _step_records

    # a zero-probability category and a d_i = 1 coordinate beside ordinary ones
    named = (
        tv.validate([[0.0, 0.3, 0.7], [1.0, 0.0], [0.5, 0.5]]),
        tv.validate([[0.2, 0.0, 0.8], [0.0, 1.0], [0.4, 0.6]]),
    )
    batches = [random_instances(*batch) for batch in BATCHES]
    zero_seen = disjoint_seen = False
    for p, q in itertools.chain([named], *batches):
        stats = tv.build_stats(p, q)
        steps = list(range(p.n))
        records = _step_records(p, q, stats, steps)
        assert [record[0] for record in records] == steps
        for k, log_b, _, gap_col, neg_agree in records:
            p_row, q_row = p.rows[k], q.rows[k]
            gap = itertools.accumulate(max(a - b, 0.0) for a, b in zip(p_row, q_row))
            agree = itertools.accumulate(min(a, b) for a, b in zip(p_row, q_row))
            assert gap_col.shape == neg_agree.shape == (len(p_row), 1, 1), k
            assert [float(g).hex() for g in gap_col.ravel()] == [g.hex() for g in gap], k
            assert [float(a).hex() for a in neg_agree.ravel()] == [(-a).hex() for a in agree], k
            assert log_b.hex() == stats.suffix_log[k + 1].hex()
            zero_seen |= 0.0 in p_row
            disjoint_seen |= stats.d[k] == 1.0
    assert zero_seen and disjoint_seen


def test_step_normalizer_degenerate_on_identical():
    """The kernel rejects a step whose weights sum to 0."""
    from tvdist.coupling import _sample_panels, _step_records

    p = tv.validate([[0.5, 0.5]])
    stats = tv.build_stats(p, p)
    panels = _sample_panels(_step_records(p, p, stats, [0]), stats, 7, 4, want_assignments=False)
    with pytest.raises(DegenerateConditional):
        next(panels)


def _chain_probabilities(p, q, states):
    """Multiply the kernel's normalized weights along each full path of the
    ``(S, n)`` array of 1-based ``states``, with each step's prefix log
    ratio gathered from the kernel's log-ratio rows."""
    from tvdist.coupling import _log_ratios

    log_ratios = _log_ratios(p, q, list(range(p.n)))
    count = len(states)
    log_a = np.zeros(count)
    probability = np.ones(count)
    for k, column in enumerate(states.T - 1):
        weights, total = _kernel_weights(p, q, k, log_a)
        chosen = weights[column, np.arange(count)]
        # a prefix with no conditional mass (total 0) is never reached
        probability *= np.divide(chosen, total, out=np.zeros(count), where=total > 0.0)
        log_a = log_a + np.minimum(log_ratios[k][column], 0.0)
    return probability


def test_chain_consistency_with_exact_law():
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        p, q = random_instance_pair(rng, max_n=4, max_q=4)
        table = tv.exact_pi(p, q)
        states = np.array(list(all_states(p.domain_sizes)))
        chained = _chain_probabilities(p, q, states)
        for state, probability in zip(states, chained):
            assert probability == pytest.approx(
                table[tuple(state.tolist())], abs=1e-10
            )


# --- sampling ---------------------------------------------------------------


def test_sample_pi_identical_distributions_raises():
    p = tv.validate([[0.5, 0.5], [0.3, 0.7]])
    stats = tv.build_stats(p, p)
    assert stats.pr_diff == 0.0
    with pytest.raises(IdenticalDistributions):
        tv.sample_pi_batch(p, p, stats, 1, 1)
    with pytest.raises(IdenticalDistributions):
        tv.sample_pi_batch(p, p, stats, 1, 10)


def test_sample_pi_batch_rejects_stats_of_another_pair(bernoulli_pair):
    p = tv.validate([[0.5, 0.5], [0.3, 0.7], [0.2, 0.8]])
    q = tv.validate([[0.4, 0.6], [0.3, 0.7], [0.1, 0.9]])
    other = tv.validate([[0.4, 0.6], [0.2, 0.8], [0.1, 0.9]])
    # a 2-coordinate pair's stats (an IndexError once), another 3-coordinate
    # pair's (once drawn from silently), then a plain tuple of the right fields
    own = tv.build_stats(p, q)
    foreign = (own.d, own.pr_diff, own.suffix_log)
    for stats in (tv.build_stats(*bernoulli_pair), tv.build_stats(p, other), foreign):
        with pytest.raises(InvalidParameter, match="stats must be build_stats"):
            tv.sample_pi_batch(p, q, stats, 1, 10)
    assert tv.sample_pi_batch(p, q, own, 1, 10).shape == (10, 3)


def test_sample_pi_deterministic_point():
    p = tv.validate([[1.0, 0.0]])
    q = tv.validate([[0.0, 1.0]])
    stats = tv.build_stats(p, q)
    for seed in range(5):
        assert tv.sample_pi_batch(p, q, stats, seed, 1).tolist() == [[1]]


def test_sample_pi_seed_determinism(bernoulli_pair):
    p, q = bernoulli_pair
    stats = tv.build_stats(p, q)
    a = tv.sample_pi_batch(p, q, stats, 123, 1)
    b = tv.sample_pi_batch(p, q, stats, 123, 1)
    c = tv.sample_pi_batch(p, q, stats, 124, 1)
    assert np.array_equal(a, b)
    assert c.shape == (1, 2) and np.all((c >= 1) & (c <= 2))


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
    expected = tv.exact_pi(p, q)[1, 1]
    assert expected == pytest.approx(0.33 / 0.51, rel=1e-12)
    assert abs(freq - expected) <= 0.003


def test_sample_pi_batch_invariant_checks_pass():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        p, q = random_instance_pair(rng, max_n=5, max_q=4)
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
    # counts whose (count, n) output numpy cannot shape, so nothing is allocated
    for count in (10**20, 2**62):
        with pytest.raises(InvalidParameter, match=f"count={count} draws of n=2 "):
            tv.sample_pi_batch(p, q, stats, 1, count)


def test_samples_avoid_zero_probability_categories():
    p = tv.validate([[0.0, 0.6, 0.4], [0.5, 0.5]])
    q = tv.validate([[0.2, 0.2, 0.6], [0.9, 0.1]])
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, 11, 5000, check_invariants=True)
    assert not np.any(draws[:, 0] == 1)


def test_subnormal_step_total_clamps_to_its_one_positive_weight():
    """Coordinate 2's step total is the subnormal 1e-322, all of it on
    category 2; about 2.5% of thresholds round up to it, and the clamp
    must send those draws to category 2, not past it."""
    p = tv.validate([[0.5, 0.5], [1.0, 1e-322, 0.0], [0.3, 0.7]])
    q = tv.validate([[0.5, 0.5], [1.0, 0.0, 1e-322], [0.3, 0.7]])
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, 11, 20000, check_invariants=True)
    assert np.all(draws[:, 1] == 2)
    config = tv.EstimatorConfig(0.1, 0.1, seed=11, samples_override=5000)
    assert tv.estimate_tv(p, q, config).estimate == tv.exact_tv(p, q) == 1e-322


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


def _counts(q, m):
    """Count rows of the narrowest unsigned type for ``q`` categories and of
    uint16, as in a run whose widest coordinate has over 256 categories."""
    return [np.empty(m, dtype) for dtype in {np.min_scalar_type(q - 1), np.dtype(np.uint16)}]


def test_select_matches_reference_selection():
    """The whole-block selection equals the reference, for every count type,
    including draws whose threshold reaches a tiny total and must be
    clamped."""
    from tvdist.coupling import _select

    rng = np.random.default_rng(2024)
    top = 1.0 - 2.0**-53  # the largest uniform the generator returns
    m = 512
    clamped = 0
    for q in (1, 2, 3, 5, 16, 300):
        for unit in (0.1, 1e-300, 2.0**-1022 / 4, 5e-324):
            weights = np.floor(rng.random((q, m)) * 4) * unit
            weights[-1, : m // 2] = 0.0  # last category empty for half the draws
            weights[0] += unit  # every draw has a positive total
            u = rng.random(m)
            u[: m // 4] = top
            expected, cum, threshold = _reference_selection(weights, u)
            for out in _counts(q, m):
                _select(cum, threshold, float(cum[-1].min()), np.empty((q, m), bool), out)
                assert np.array_equal(out, expected), (q, unit, out.dtype)
            clamped += int(np.sum((threshold >= cum[-1]) & (weights[-1] == 0.0)))
    assert clamped > 0  # the clamp was exercised
    # u * total rounds up to the total when the total is the smallest normal
    weights = np.zeros((3, 4))
    weights[0] = 2.0**-1022
    expected, cum, threshold = _reference_selection(weights, np.full(4, top))
    out = np.empty(4, dtype=np.uint8)
    _select(cum, threshold, float(cum[-1].min()), np.empty((3, 4), bool), out)
    assert np.array_equal(out, expected) and not out.any()


def test_select_matches_reference_on_kernel_rows():
    """Selection over rows in the kernel's form ``gap[c] + y * -agree[c]``
    (running sums shared by all draws, one y in [-1, 0] per draw) equals the
    count of rows <= u * total clamped to the last row that grew, down to
    subnormal totals where the products round, for every count type; the
    caller's threshold is left as it was."""
    from tvdist.coupling import _select

    rng = np.random.default_rng(2025)
    top = 1.0 - 2.0**-53  # the largest uniform the generator returns
    m = 512
    clamped = 0
    for q in (1, 2, 3, 5, 16, 300):
        for unit in (0.1, 1e-300, 2.0**-1022 / 4, 5e-324):
            for scale in (0.25, 1.0):
                gap_w = np.floor(rng.random(q) * 4) * unit
                gap_w[0] += unit  # every draw has a positive total
                agree_w = np.floor(rng.random(q) * 4) * scale
                if q > 1 and rng.random() < 0.5:
                    gap_w[-1] = agree_w[-1] = 0.0  # last category empty
                # tiny 1 - A * B as well as ordinary ones
                y = -rng.random(m) * np.where(rng.random(m) < 0.5, unit, 1.0)
                cum = np.empty((q, m))
                for row, gap, agree in zip(cum, np.cumsum(gap_w), np.cumsum(agree_w)):
                    np.add(np.multiply(y, -agree), gap, out=row)
                u = rng.random(m)
                u[: m // 4] = top
                threshold = u * cum[-1]
                grew = np.diff(cum, axis=0, prepend=0.0) > 0.0
                last_grew = q - 1 - np.argmax(grew[::-1], axis=0)
                expected = np.minimum((cum <= threshold).sum(axis=0), last_grew)
                given = threshold.copy()
                for out in _counts(q, m):
                    _select(cum, threshold, float(cum[-1].min()), np.empty((q, m), bool), out)
                    assert np.array_equal(out, expected), (q, unit, scale, out.dtype)
                    assert np.array_equal(threshold, given), (q, unit, scale)
                clamped += int(np.sum((threshold >= cum[-1]) & ~grew[-1]))
    assert clamped > 0  # draws past the total whose last row did not grow


def test_skipping_the_smallest_total_keeps_every_bit(monkeypatch):
    """A step takes the smallest of its totals only when its last gap sum is
    not above the smallest normal double. Forcing that path on every step
    (which also clamps every threshold) gives the same checked selections
    and estimate bits, on the seeded batches and on a pair whose last gap
    sum is subnormal."""
    from tvdist import coupling

    subnormal = (tv.validate([[1e-310, 1.0]]), tv.validate([[0.0, 1.0]]))
    pairs = [subnormal, *itertools.chain(*(random_instances(*batch) for batch in BATCHES))]

    def run(p, q):
        draws = tv.sample_pi_batch(p, q, tv.build_stats(p, q), 5, 300, check_invariants=True)
        config = tv.EstimatorConfig(0.1, 0.1, 5, samples_override=4099)
        return hashlib.sha256(draws.tobytes()).hexdigest(), tv.estimate_tv(p, q, config).estimate.hex()

    skipped = [run(p, q) for p, q in pairs]
    monkeypatch.setattr(coupling, "_SMALLEST_NORMAL", math.inf)
    assert [run(p, q) for p, q in pairs] == skipped


# --- block merge ------------------------------------------------------------


def test_block_mean_is_the_fsum_of_block_fsums():
    """The exact level sums give, by ``float.hex``, ``math.fsum`` of each
    block's values, then ``fsum`` of those in block order, over the count:
    on extreme values, wide exponent spreads, sparse and short blocks, and
    panels of different shapes merged in one run."""
    from tvdist.coupling import _block_mean

    rng = np.random.default_rng(2408)
    u = rng.random((4, 4096))
    panels = {
        "ones": np.ones((4, 4096)),
        "largest below 1": np.full((4, 4096), 1.0 - 2.0**-53),
        "smallest subnormal": np.full((4, 4096), 5e-324),
        "1e-300 spread": 1e-300 * u,
        "exp(-700 u)": np.exp(-700.0 * u),
        "half zeros": np.where(rng.random((4, 4096)) < 0.5, 0.0, u**8),
        "short block": rng.random((1, 977)),
        "one block": rng.random((1, 4096)),
    }

    def reference(*arrays):
        block_sums = [math.fsum(block) for values in arrays for block in values]
        return math.fsum(block_sums) / sum(values.size for values in arrays)

    def merged(*arrays):
        pairs = [(values.copy(), np.empty_like(values)) for values in arrays]
        return _block_mean(pairs, sum(values.size for values in arrays))

    for name, values in panels.items():
        assert merged(values).hex() == reference(values).hex(), name
    run = list(panels.values())
    assert merged(*run).hex() == reference(*run).hex()


# --- uniform stream ---------------------------------------------------------


def _random_plan(rng: np.random.Generator) -> list[bool]:
    """Alternating needed and skipped runs of 0-40 coordinates."""
    needed: list[bool] = []
    for run in range(int(rng.integers(1, 8))):
        needed += [run % 2 == 0] * int(rng.integers(0, 41))
    return needed


def test_uniform_chunks_match_plain_generator(monkeypatch):
    """Rows of the needed coordinates equal plain ``Generator.random`` rows
    in every block of a panel, and each stream ends where drawing every row
    would have left it, for skipped stretches of any length and alignment."""
    from tvdist import coupling

    block_rng = coupling.block_rng
    streams: list[np.random.Generator] = []

    def recorded_block_rng(seed, block):
        streams.append(block_rng(seed, block))
        return streams[-1]

    monkeypatch.setattr(coupling, "block_rng", recorded_block_rng)
    rng = np.random.default_rng(77)
    unaligned = 0
    for trial in range(200):
        needed = _random_plan(rng)
        n = len(needed)
        size = int(rng.choice([1, 2, 3, 4, 5, 7, 13]))
        blocks = int(rng.integers(1, 4))
        references = [block_rng(trial, b) for b in range(blocks)]
        expected = [r.random((n, size))[needed] for r in references]
        after = [r.random(9) for r in references]
        steps = [k for k, need in enumerate(needed) if need]
        # one panel of `blocks` blocks of `size` draws, read 1-4 rows a chunk
        monkeypatch.setattr(coupling, "SAMPLE_BLOCK", size)
        monkeypatch.setattr(coupling, "UNIFORM_CHUNK", blocks * size * int(rng.integers(1, 5)))
        streams.clear()
        plan = coupling._draw_panels(trial, blocks * size, steps, n, floats=1, picks=1)
        with closing(plan):
            rows, *_ = next(plan)
            got = [row.copy() for row in rows]
        assert len(streams) == blocks, trial
        assert all(row.shape == (blocks, size) for row in got), trial
        for b in range(blocks):
            block_rows = np.reshape([row[b] for row in got], (-1, size))
            assert np.array_equal(block_rows, expected[b]), (trial, b)
            assert np.array_equal(streams[b].random(9), after[b]), (trial, b)
        unaligned += any(
            need and not prev and k * size % 4 for k, (prev, need) in
            enumerate(zip([True, *needed], needed))
        )
    assert unaligned > 50  # many plans resume mid counter step


@pytest.mark.parametrize("prefetch", [False, True])
def test_stream_rows_match_plain_generator_across_blocks(monkeypatch, prefetch):
    """The run plan's reader gives every block's needed rows, panel after
    panel, with and without prefetching, also when its chunk buffers must be
    reused many times and hold a single panel row."""
    from tvdist import coupling

    monkeypatch.setattr(coupling, "UNIFORM_CHUNK", 3 * 7)
    monkeypatch.setattr(coupling, "SAMPLE_BLOCK", 7)
    needed = [True, False, False, True, True, True, False, True, True, False]
    steps = [k for k, need in enumerate(needed) if need]
    # a full panel of 4 beside one of 1, then a short block, as 40 draws are
    # planned; the chunks hold one row of the full panel
    panels = list(coupling._panels(40))
    assert panels == [(0, 4, 7), (4, 1, 7), (5, 1, 5)]
    sizes = [7] * 5 + [5]
    block_rows = [
        coupling.block_rng(5, block).random((len(needed), size))[needed]
        for block, size in enumerate(sizes)
    ]
    got = {block: [] for block in range(len(sizes))}
    plan = coupling._draw_panels(
        5, 40, steps, len(needed), floats=1, picks=1, prefetch=prefetch
    )
    with closing(plan):
        for first, blocks, size in panels:
            rows, *_ = next(plan)
            for _ in steps:
                row = next(rows)
                assert row.shape == (blocks, size)
                for block, block_row in zip(range(first, first + blocks), row, strict=True):
                    got[block].append(block_row.copy())
        assert next(rows, None) is None
        assert next(plan, None) is None
    for block, expected in enumerate(block_rows):
        assert np.array_equal(np.reshape(got[block], expected.shape), expected), block


def _grouped_block_sizes(sizes: list[int]) -> list[tuple[int, int, int]]:
    """``(first block, blocks, size)`` panels of any list of block sizes: up
    to ``PANEL_BLOCKS`` consecutive blocks of equal size each."""
    panels: list[tuple[int, int, int]] = []
    for block, size in enumerate(sizes):
        if panels and panels[-1][2] == size and panels[-1][1] < tv.coupling.PANEL_BLOCKS:
            first, blocks, _ = panels[-1]
            panels[-1] = (first, blocks + 1, size)
        else:
            panels.append((block, 1, size))
    return panels


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 16384, 16385, 20483, 269617])
def test_panels_group_the_blocks_of_a_count(count):
    from tvdist import coupling

    panels = list(coupling._panels(count))
    assert panels == _grouped_block_sizes(coupling.block_sizes(count))
    # the run plan's buffers hold the widest panel exactly; the float rows
    # share their allocation with one uniform chunk
    width = max(blocks * size for _, blocks, size in panels)
    plan = coupling._draw_panels(1, count, [], 1, floats=1, picks=1)
    with closing(plan):
        for (_, blocks, size), (_, floats, picks, _) in zip(panels, plan, strict=True):
            assert floats.shape == picks.shape == (1, blocks, size)
            assert picks.base.shape == (1, width)
            assert floats.base.shape == (width + max(coupling.UNIFORM_CHUNK, width),)


def test_draw_plan_of_a_count_past_memory_starts_drawing():
    from tvdist import coupling

    plan = coupling._draw_panels(3, 10**20, [0], 1, floats=1, picks=1)
    rows, floats, picks, _ = next(plan)
    assert floats.shape == picks.shape == (1, 4, 4096)
    row = next(rows)
    assert row.shape == (4, 4096)
    assert np.array_equal(row[1], coupling.block_rng(3, 1).random(4096))
    plan.close()
    assert next(plan, None) is None
    assert next(rows, None) is None


def _identical_coordinates_pair():
    p_rows = [[0.5, 0.5], [0.2, 0.3, 0.5], [0.6, 0.4], [0.1, 0.9]] * 8
    q_rows = [[0.5, 0.5], [0.25, 0.3, 0.45], [0.6, 0.4], [0.15, 0.85]] * 8
    return tv.validate(p_rows), tv.validate(q_rows)


def test_single_worker_starts_no_thread(monkeypatch):
    started: list[str] = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    p, q = _identical_coordinates_pair()
    config = tv.EstimatorConfig(0.1, 0.05, seed=3, samples_override=9001, workers=1)
    one = tv.estimate_tv(p, q, config)
    tv.naive_estimate_tv(p, q, 9001, 3)
    tv.sample_pi_batch(p, q, tv.build_stats(p, q), 3, 5000)
    assert started == []
    two = tv.estimate_tv(p, q, dataclasses.replace(config, workers=2))
    assert len(started) == 1
    assert (two.estimate.hex(), two.mean_f.hex()) == (one.estimate.hex(), one.mean_f.hex())


def test_filling_thread_error_reaches_caller_and_stops(monkeypatch):
    from tvdist import coupling

    block_rng = coupling.block_rng
    raised_on = []

    def failing_block_rng(seed, block):
        if block == 1:
            raised_on.append(threading.current_thread())
            raise RuntimeError("fill failed")
        return block_rng(seed, block)

    monkeypatch.setattr(coupling, "block_rng", failing_block_rng)
    p, q = _identical_coordinates_pair()
    before = set(threading.enumerate())
    config = tv.EstimatorConfig(0.1, 0.05, seed=3, samples_override=3 * 4096, workers=2)
    with pytest.raises(RuntimeError, match="fill failed"):
        tv.estimate_tv(p, q, config)
    assert raised_on and raised_on[0] is not threading.main_thread()
    assert set(threading.enumerate()) == before


def test_reader_error_stops_filling_thread(monkeypatch):
    """A kernel error on the calling thread leaves no filling thread running."""
    from tvdist import coupling
    from tvdist.errors import ZeroDenominator

    def failing_weights(*_):  # called once the step's row has been read
        raise ZeroDenominator("kernel failed")

    monkeypatch.setattr(coupling, "_step_weights", failing_weights)
    p = tv.validate([[0.5, 0.5]] * 100)
    q = tv.validate([[0.52, 0.48]] * 100)
    before = set(threading.enumerate())
    config = tv.EstimatorConfig(0.1, 0.05, seed=3, samples_override=8192, workers=2)
    with pytest.raises(ZeroDenominator, match="kernel failed"):
        tv.estimate_tv(p, q, config)
    assert set(threading.enumerate()) == before


def test_closing_kernel_early_stops_filling_thread():
    """Closing the kernel after its first panel, with the next chunk being
    filled ahead, leaves no filling thread running."""
    from tvdist.coupling import _sample_panels, _step_records

    def uniform_threads():
        return [t for t in threading.enumerate() if t.name.startswith("tvdist-uniforms")]

    p = tv.validate([[0.5, 0.5]] * 100)
    q = tv.validate([[0.52, 0.48]] * 100)
    stats = tv.build_stats(p, q)
    records = _step_records(p, q, stats, list(range(100)))
    panels = _sample_panels(records, stats, 3, 9 * 4096, want_assignments=False, prefetch=True)
    assert next(panels)[0].shape == (4, 4096)
    assert len(uniform_threads()) == 1
    panels.close()
    assert uniform_threads() == []


def test_prefetch_stress_keeps_bits(monkeypatch):
    """Concurrent prefetching estimates with one-row chunks and a tiny
    switch interval give the bits of the single-thread path."""
    from tvdist import coupling

    monkeypatch.setattr(coupling, "UNIFORM_CHUNK", coupling.SAMPLE_BLOCK)
    p, q = _identical_coordinates_pair()
    config = tv.EstimatorConfig(0.1, 0.05, seed=8, samples_override=9001, workers=1)
    expected = tv.estimate_tv(p, q, config).mean_f.hex()
    results: list[str] = []

    def run():
        result = tv.estimate_tv(p, q, dataclasses.replace(config, workers=2))
        results.append(result.mean_f.hex())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run) for _ in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [expected] * 3
