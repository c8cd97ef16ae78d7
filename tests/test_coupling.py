import dataclasses
import math
import sys
import threading

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


def _kernel_weights(p, q, k, log_a):
    """Conditional weights of coordinate ``k`` (0-based) from the kernel's
    weight fill, one column per prefix log ratio in ``log_a``, and their
    totals."""
    from tvdist.coupling import _PairTables, _step_weights

    stats = tv.build_stats(p, q)
    log_b = -math.inf if stats.suffix_zero[k + 1] else stats.suffix_log[k + 1]
    log_a = np.asarray(log_a, dtype=float)
    cum = np.empty((p.domain_sizes[k], log_a.size))
    scratch = np.empty((2, log_a.size))
    _step_weights(_PairTables(p, q), k, log_a, log_b, cum, *scratch)
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
    assert weights[:, 0] == pytest.approx(p.marginals[1].probs)


def test_conditional_weights_zero_probability_category():
    p = tv.validate([[0.0, 1.0], [0.5, 0.5]])
    q = tv.validate([[0.5, 0.5], [0.4, 0.6]])
    weights, _ = _kernel_weights(p, q, 0, [0.0])
    assert weights[0, 0] == 0.0


def test_step_normalizer_degenerate_on_identical():
    """The kernel rejects a step whose weights sum to 0."""
    from tvdist.coupling import _kernel_workspace, _PairTables, _sample_block

    p = tv.validate([[0.5, 0.5]])
    stats = tv.build_stats(p, p)
    tables = _PairTables(p, p)
    work = _kernel_workspace(tables, stats, 4, want_assignments=False)
    with pytest.raises(DegenerateConditional):
        _sample_block(
            tables,
            stats,
            [0],
            iter([np.full((1, 4), 0.5)]),
            (1, 4),
            work=work,
            want_assignments=False,
            want_f=True,
            check_invariants=False,
        )


def _chain_probabilities(p, q, states):
    """Multiply the kernel's normalized weights along each full path of the
    ``(S, n)`` array of 1-based ``states``, with each step's prefix log
    ratio gathered from the kernel's tables."""
    from tvdist.coupling import _PairTables

    tables = _PairTables(p, q)
    count = len(states)
    log_a = np.zeros(count)
    probability = np.ones(count)
    for k, column in enumerate(states.T - 1):
        weights, total = _kernel_weights(p, q, k, log_a)
        chosen = weights[column, np.arange(count)]
        # a prefix with no conditional mass (total 0) is never reached
        probability *= np.divide(chosen, total, out=np.zeros(count), where=total > 0.0)
        log_a = log_a + tables.log_r[tables.bounds[k] + column]
    return probability


def test_chain_consistency_with_exact_law():
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        p, q = tv.random_instance_pair(rng, max_n=4, max_q=4)
        table = tv.exact_pi(p, q)
        states = np.array(list(all_states(p.domain_sizes)))
        chained = _chain_probabilities(p, q, states)
        for state, probability in zip(states, chained):
            assert probability == pytest.approx(
                table[tv.Assignment(tuple(state))], abs=1e-10
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


# --- uniform stream ---------------------------------------------------------


def _random_plan(rng: np.random.Generator) -> list[bool]:
    """Alternating needed and skipped runs of 0-40 coordinates."""
    needed: list[bool] = []
    for run in range(int(rng.integers(1, 8))):
        needed += [run % 2 == 0] * int(rng.integers(0, 41))
    return needed


def test_uniform_chunks_match_plain_generator():
    """Rows of the needed coordinates equal plain ``Generator.random`` rows
    in every block of a panel, and each stream ends where drawing every row
    would have left it, for skipped stretches of any length and alignment."""
    from tvdist.coupling import _stream_runs, _uniform_chunks, block_rng

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
        flat = np.empty(blocks * size * int(rng.integers(1, 5)))
        streams = [block_rng(trial, b) for b in range(blocks)]
        got = [
            row.copy()
            for rows in _uniform_chunks(streams, size, _stream_runs(steps, n), lambda: flat)
            for row in rows
        ]
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
    """The panel reader gives every block's needed rows, panel after panel,
    with and without prefetching, also when its chunk buffers must be
    reused many times and hold a single panel row."""
    from tvdist import coupling

    monkeypatch.setattr(coupling, "UNIFORM_CHUNK", 3 * 7)
    needed = [True, False, False, True, True, True, False, True, True, False]
    steps = [k for k, need in enumerate(needed) if need]
    # a short block in the middle, and a full panel of 4 beside one of 1
    for sizes, grouping in (
        ([7, 7, 5, 7], [[0, 1], [2], [3]]),
        ([7] * 5 + [5], [[0, 1, 2, 3], [4], [5]]),
    ):
        block_rows = [
            coupling.block_rng(5, block).random((len(needed), size))[needed]
            for block, size in enumerate(sizes)
        ]
        panels = coupling._panels(sizes)
        assert [list(range(first, first + blocks)) for first, blocks, _ in panels] == grouping
        runs = coupling._stream_runs(steps, len(needed))
        rows = coupling._panel_rows(5, panels, runs, prefetch=prefetch)
        got = {block: [] for block in range(len(sizes))}
        for group in grouping:
            for _ in steps:
                row = next(rows)
                assert row.shape == (len(group), sizes[group[0]])
                for block, block_row in zip(group, row, strict=True):
                    got[block].append(block_row.copy())
        assert next(rows, None) is None
        rows.close()
        for block, expected in enumerate(block_rows):
            assert np.array_equal(np.reshape(got[block], expected.shape), expected), block


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
    from tvdist import estimator
    from tvdist.errors import ZeroDenominator

    def failing_block(tables, stats, steps, rows, shape, **_):
        next(rows)
        raise ZeroDenominator("kernel failed")

    monkeypatch.setattr(estimator, "_sample_block", failing_block)
    p = tv.validate([[0.5, 0.5]] * 100)
    q = tv.validate([[0.52, 0.48]] * 100)
    before = set(threading.enumerate())
    config = tv.EstimatorConfig(0.1, 0.05, seed=3, samples_override=8192, workers=2)
    with pytest.raises(ZeroDenominator, match="kernel failed"):
        tv.estimate_tv(p, q, config)
    assert set(threading.enumerate()) == before


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
