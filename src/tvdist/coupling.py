"""Greedy coordinate-wise coupling, exact sampling from its disagreement law,
and the Monte Carlo estimator of tv(P, Q) built on them.

Couple each coordinate pair (P_i, Q_i) optimally and independently. Under
that coupling the chance that the two joint samples agree factorizes, so

    pr_diff = Pr[X != Y] = 1 - prod_i (1 - d_i),      d_i = tv(P_i, Q_i),

is computable exactly (:func:`~tvdist.distributions.build_stats`). This
module draws exact samples from the conditional law ``pi(omega) =
Pr[X = omega | X != Y]`` one coordinate at a time: after fixing a prefix,
the chance that the pair still agrees is the prefix's product ``A_{k-1}``
of ``min(P_i, Q_i)/P_i`` ratios times a suffix product ``B_k`` of
``(1 - d_i)`` factors, which gives closed-form conditional weights

    w_k(c) = max(P_k - Q_k, 0)(c) + (1 - A_{k-1} * B_k) * min(P_k, Q_k)(c),
    sum_c w_k(c) = 1 - A_{k-1} * B_{k-1}.

Both terms are non-negative, so nothing cancels, and a step takes one
``expm1`` per draw. All products over coordinates are held as sums of
logs, and ``1 - x`` quantities go through ``log1p``/``expm1``, because the
interesting regime is exponentially small per-coordinate distances where
naive products lose everything to rounding. One log-ratio row per
coordinate holds the log ``Q_i/P_i`` ratios (:func:`_log_ratios`); capped
at 0 they are the log ``min(P_i, Q_i)/P_i`` ones. Every zero factor
(``d_i = 1`` in a suffix product, a zero ``Q_i/P_i`` ratio) is a log of
``-inf``, its zero flag.

Randomness: a run is identified by a 64-bit ``seed``; work unit ``b``
(a block of up to :data:`SAMPLE_BLOCK` consecutive draws) uses the
counter-based generator ``Philox(SeedSequence([seed, b]))``. Its stream
holds one uniform per draw per coordinate, in coordinate order: coordinate
``k`` owns outputs ``k * size`` to ``(k + 1) * size`` of a block of
``size`` draws, the row one ``Generator.random`` call per coordinate would
fill. Coordinates whose step a run leaves out (``d_i = 0`` on the estimate
path) have their stretch of the stream advanced over, and every later
position is unchanged, so every coordinate's uniforms are the same
whichever outputs a run asks for. The mapping from draw index to block is
fixed by the block size alone, so results never depend on whether the
uniforms are filled on the calling thread or ahead of it on another one.

Blocks stay the unit of randomness and of summation. The run plan,
:func:`_draw_panels`, only groups up to :data:`PANEL_BLOCKS` consecutive
equal-size blocks into a panel, which the kernel, :func:`_sample_panels`,
steps side by side as ``(blocks, size)`` arrays, to pay its per-call costs
once per panel instead of once per block; each block keeps its own
stream, and its values are summed on their own.

The estimator, :func:`estimate_tv`, averages per drawn outcome ``omega``

    f(omega) = max{0, (1 - prod_i Q_i(w_i)/P_i(w_i))
                      / (1 - prod_i min(P_i, Q_i)(w_i)/P_i(w_i))},

which lies in [0, 1] and has mean tv(P, Q) / pr_diff, so it reports
``mean(f) * pr_diff``, with the draw count from
:func:`~tvdist.distributions.sample_count`. The values get an error-free
sum per block (exact level sums), and the block sums another in block
order, so a result is bit-identical for a fixed configuration whatever
the worker count. The
baseline, :func:`naive_estimate_tv`, averages ``max{0, 1 - Q(omega)/P(omega)}``
over draws from P: ``f`` with a denominator of 1, from the same f stage. It
is unbiased, but its relative error degrades as the distance shrinks, which
is the regime the conditional sampler is built for.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .distributions import (
    GreedyCouplingStats,
    ProductDistribution,
    build_stats,
    check_count,
    check_delta,
    check_epsilon,
    check_seed,
    coordinate_tvs,
    require_same_shape,
    sample_count,
)
from .errors import (
    DegenerateConditional,
    DomainMismatch,
    EstimatorOutOfRange,
    IdenticalDistributions,
    IndexOutOfRange,
    InvalidParameter,
    ZeroDenominator,
)

#: Draws per RNG work unit; fixed so that results are worker-count invariant.
SAMPLE_BLOCK = 4096

#: Consecutive equal-size blocks the kernel steps side by side (a panel).
PANEL_BLOCKS = 4

#: Doubles per uniform chunk (two in flight when filled ahead).
UNIFORM_CHUNK = 2**16

#: Allowed |sum of weights - normalizer| in the diagnostic identity check.
WEIGHT_SUM_TOL = 1e-12

#: Rounding excursions of the per-sample estimate beyond [0, 1] up to this
#: size are clamped; anything larger aborts.
F_RANGE_TOL = 1e-12

#: Smallest positive normal double (see :func:`_select`).
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def block_rng(seed: int, block: int) -> Generator:
    """Counter-based generator for work unit ``block`` of a run seeded ``seed``."""
    return Generator(Philox(SeedSequence([check_seed(seed), int(block)])))


def block_sizes(count: int) -> list[int]:
    """Split ``count`` draws into fixed-size blocks (last one may be short)."""
    full, rest = divmod(count, SAMPLE_BLOCK)
    return [SAMPLE_BLOCK] * full + ([rest] if rest else [])


def _pass_over(bits: Philox, drawn: int, count: int) -> None:
    """Move a Philox stream past its next ``count`` outputs, ``drawn`` being drawn.

    Philox makes outputs four per counter step, and ``advance`` moves the
    counter but drops the outputs still buffered. So the up to 3 buffered
    ones are drawn first, whole steps are advanced over, and the remainder
    is drawn.
    """
    head = min(count, -drawn % 4)
    rest = count - head
    if head:
        bits.random_raw(head, output=False)
    if rest >= 4:
        bits.advance(rest // 4)
    if rest % 4:
        bits.random_raw(rest % 4, output=False)


def _panels(count: int) -> Iterator[tuple[int, int, int]]:
    """``(first block, blocks, size)`` of each panel of a run of ``count`` draws.

    The full blocks go side by side, :data:`PANEL_BLOCKS` to a panel (the
    last may hold fewer); a short last block is a panel of its own.
    """
    full, rest = divmod(count, SAMPLE_BLOCK)
    for first in range(0, full, PANEL_BLOCKS):
        yield first, min(PANEL_BLOCKS, full - first), SAMPLE_BLOCK
    if rest:
        yield full, 1, rest


def _draw_panels(
    seed: int,
    count: int,
    steps: list[int],
    n: int,
    *,
    floats: int,
    picks: int,
    flags: int = 0,
    prefetch: bool = False,
) -> Iterator[tuple[Iterator[np.ndarray], np.ndarray, np.ndarray, np.ndarray]]:
    """The run plan of ``count`` draws over ``n`` coordinates, panel by panel.

    Yields ``(rows, floats, picks, flags)`` per panel (see :func:`_panels`).
    ``rows``, one reader for the whole run, yields a ``(blocks, size)`` row
    of uniforms for each coordinate in ``steps``, panel after panel: that
    coordinate's row of every block in the panel. The others are
    ``(rows, blocks, size)`` views of buffers, allocated once per run, with
    that many rows of doubles, of counts to ``flags`` and of bools.

    The reader fills a chunk at a time: the rows of as many consecutive
    needed coordinates as fit in :data:`UNIFORM_CHUNK` doubles, or one row
    of the widest panel if that is more, each block filling its own slab
    with one ``rng.random`` call. Every block passes over the coordinates
    not in ``steps``, so each stream ends where drawing every row would have
    left it. A row is overwritten once a later chunk is asked for. Without
    ``prefetch`` chunks are filled on the calling thread into one reused
    buffer. With it, one pool thread fills the next chunk while the caller
    reads the current one, two buffers alternating, across panel
    boundaries; its errors are raised to the caller. Closing this generator
    closes the reader, which waits for the fill in flight.
    """
    # the widest panel: up to PANEL_BLOCKS full blocks, or else the short one
    width = SAMPLE_BLOCK * min(count // SAMPLE_BLOCK, PANEL_BLOCKS) or count
    capacity = max(UNIFORM_CHUNK, width)
    # The float rows, flag rows and uniform chunks share one allocation, which
    # on the f paths outweighs the run's others together. glibc's malloc keeps
    # its heap pages while a run frees less than twice its largest block, so
    # later runs reuse them; with the chunks apart, a 16384-draw run over
    # binary coordinates faulted in about 290 fresh pages.
    head, tail = floats * width, floats * width + -(-flags * width // 8)
    doubles = np.empty(tail + (1 + prefetch) * capacity)
    flats = itertools.cycle(np.split(doubles[tail:], 1 + prefetch))
    bools = doubles[head:tail].view(np.bool_)[: flags * width]
    counts = np.empty((picks, width), np.min_scalar_type(flags))
    buffers = [b.reshape(-1, width) for b in (doubles[:head], counts, bools)]
    # consecutive coordinates that all need uniforms, or all are passed over
    needed = set(steps).__contains__
    runs = [(need, list(run)) for need, run in itertools.groupby(range(n), needed)]

    def chunks() -> Iterator[np.ndarray]:
        for first, blocks, size in _panels(count):
            rngs = [block_rng(seed, first + b) for b in range(blocks)]
            fit = capacity // (blocks * size)
            for need, run in runs:
                if not need:
                    for rng in rngs:
                        _pass_over(rng.bit_generator, run[0] * size, len(run) * size)
                    continue
                for start in range(0, len(run), fit):
                    rows = min(fit, len(run) - start)
                    chunk = next(flats)[: blocks * rows * size].reshape(blocks, rows, size)
                    for rng, slab in zip(rngs, chunk):
                        rng.random(out=slab)
                    yield chunk.swapaxes(0, 1)

    def read() -> Iterator[np.ndarray]:
        if not prefetch:
            for chunk in chunks():
                yield from chunk
            return
        # imported here: only a prefetching run needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tvdist-uniforms") as pool:
            source = chunks()
            ahead = pool.submit(next, source, None)
            while (chunk := ahead.result()) is not None:
                ahead = pool.submit(next, source, None)
                yield from chunk

    with closing(read()) as rows:
        for _, blocks, size in _panels(count):
            views = (b[:, : blocks * size].reshape(-1, blocks, size) for b in buffers)
            yield (rows, *views)


def _log_ratios(
    p: ProductDistribution, q: ProductDistribution, steps: list[int]
) -> list[np.ndarray]:
    """The log ``Q/P`` row of each coordinate in ``steps``, in that order.

    Entry ``c`` of coordinate ``k``'s row is the log of ``Q_k(c)/P_k(c)``
    (0 where ``P = 0``: such a category is never drawn); its minimum with 0
    is the log of the ``min(P, Q)/P`` ratio. The log ratio is built from
    ``log1p((Q - P)/P)`` so near-identical marginals keep full relative
    accuracy, except where ``(Q - P)/P`` rounds to -1 or overflows (Q/P
    below about 2^-54, ``Q = 0``, or a subnormal P): there ``log Q - log P``
    keeps the ratio. A zero ratio is stored as a log of ``-inf``, which is
    its zero flag. Every other log is finite (``|log Q/P|`` is at most about
    745), so a sum with a zero factor stays ``-inf``, and ``-expm1(-inf)``
    is exactly the 1 that ``1 - 0`` gives. The rows are views of one array.
    """
    # one pass over the categories of every step, laid back to back
    entries = itertools.chain.from_iterable
    pv = np.fromiter(entries(p.rows[k] for k in steps), np.float64)
    qv = np.fromiter(entries(q.rows[k] for k in steps), np.float64)
    pos = pv > 0.0
    with np.errstate(over="ignore"):
        rel = (qv - pv) / np.where(pos, pv, 1.0)
    far = pos & ~((rel > -1.0) & (rel < np.inf))
    log_qp = np.log1p(np.where(pos & ~far, rel, 0.0))
    with np.errstate(divide="ignore"):
        log_qp[far] = np.log(qv[far]) - np.log(pv[far])
    bounds = itertools.accumulate((p.domain_sizes[k] for k in steps), initial=0)
    return [log_qp[lo:hi] for lo, hi in itertools.pairwise(bounds)]


def _step_records(
    p: ProductDistribution, q: ProductDistribution, stats: GreedyCouplingStats, steps: list[int]
) -> list[tuple[int, float, np.ndarray, np.ndarray, np.ndarray]]:
    """``(k, log B_k, log Q/P row, gap, neg_agree)`` per ``k`` in ``steps``.
    ``gap`` and ``neg_agree`` are ``(q_k, 1, 1)`` columns of the running
    sums (``itertools.accumulate``) over ``0..c`` of ``max(P - Q, 0)`` and,
    negated, of ``min(P, Q)``: what :func:`_step_weights` multiplies by.
    """
    def running(term):
        sums = (itertools.accumulate(map(term, p.rows[k], q.rows[k])) for k in steps)
        return np.fromiter(itertools.chain.from_iterable(sums), np.float64).reshape(-1, 1, 1)

    gap, neg_agree = running(lambda a, b: max(a - b, 0.0)), np.negative(running(min))
    bounds = itertools.accumulate((p.domain_sizes[k] for k in steps), initial=0)
    return [
        (k, stats.suffix_log[k + 1], row, gap[lo:hi], neg_agree[lo:hi])
        for k, row, (lo, hi) in zip(steps, _log_ratios(p, q, steps), itertools.pairwise(bounds))
    ]


def _select(
    cum: np.ndarray, threshold: np.ndarray, total_low: float, flags: np.ndarray, out: np.ndarray
) -> None:
    """Inverse-CDF selection, scanning categories in ascending order.

    ``cum`` holds cumulative weights with one row per category, each row
    either shaped like ``threshold`` (one value per draw) or one value
    shared by all draws, and non-decreasing from row to row; ``threshold``
    is ``u * cum[-1]`` per draw with ``u`` in [0, 1), ``total_low`` at most
    the smallest ``cum[-1]`` and ``flags`` bool scratch rows. ``out`` (unsigned)
    receives ``#(cum <= threshold)``, clamped to the last category of positive
    weight, which absorbs residual rounding mass. ``threshold`` is not written.
    """
    # The rows do not decrease in floating point: the kernel's
    # gap[c] + y * -agree[c] (y <= 0, see _step_weights) and the naive
    # baseline's cumsum add non-negative terms, and rounding is monotone.
    # Every row past the last positive weight equals the total. For a total
    # above the smallest normal double and u < 1, the rounded u * total is
    # below the total, so only a tiny total can be reached; there the
    # threshold is lowered to just below the total, and the count stops at
    # the first row that reaches it, the last category of positive weight.
    if not total_low > _SMALLEST_NORMAL:
        threshold = np.minimum(threshold, np.nextafter(cum[-1], 0.0))
    # every threshold is now below the total, so the last row would add 0
    below = np.less_equal(cum[:-1], threshold, out=flags[: len(cum) - 1])
    np.add.reduce(below.view(np.uint8), axis=0, out=out)


def _step_weights(record: tuple, log_a: np.ndarray, cum: np.ndarray, y: np.ndarray) -> None:
    """Cumulative conditional weights of coordinate ``k``, per draw.

    Row ``c`` of ``cum`` receives ``w_k(0) + ... + w_k(c)``, that is
    ``gap[c] + (1 - A_{k-1} * B_k) * agree[c]`` from the step ``record``
    (:func:`_step_records`): one broadcast product, then one broadcast sum.
    ``log_a`` holds log A_{k-1} per draw (``-inf`` for a zero prefix); ``y``
    receives ``expm1(log A_{k-1} + log B_k)``.
    """
    _, log_b, _, gap, neg_agree = record
    np.add(log_a, log_b, out=y)
    np.expm1(y, out=y)
    # y * -agree equals (1 - A * B) * agree bit for bit
    np.multiply(y, neg_agree, out=cum[: len(gap)])
    np.add(cum[: len(gap)], gap, out=cum[: len(gap)])


def _f_stage(log_a: np.ndarray, t_qp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-draw estimate ``f`` from the log products of each draw's ratios.

    ``log_a`` holds log prod min(P, Q)/P and ``t_qp`` log prod Q/P, each
    ``-inf`` where a factor is 0. ``f = (1 - prod Q/P) / (1 - prod min(P, Q)/P)``
    where the numerator is positive, else 0, is written to ``out`` and
    returned; ``log_a`` and ``t_qp`` are overwritten. Raises
    :class:`ZeroDenominator` for an outcome with a positive numerator and no
    disagreement mass (one that is never drawn), and
    :class:`EstimatorOutOfRange` for a value above 1 by more than
    :data:`F_RANGE_TOL`; smaller excursions are clamped.
    """
    # in place: numer = 1 - prod Q/P, which is -inf (so f = 0) where the Q/P
    # product overflows
    with np.errstate(over="ignore"):
        numer = np.negative(np.expm1(t_qp, out=t_qp), out=t_qp)
    denom = np.negative(np.expm1(log_a, out=log_a), out=log_a)
    live = numer > 0.0
    if not np.all(denom > 0.0, where=live):
        raise ZeroDenominator("an outcome's disagreement mass is zero")
    out.fill(0.0)
    np.divide(numer, denom, out=out, where=live)
    excess = float(out.max(initial=0.0)) - 1.0
    if excess > F_RANGE_TOL:
        raise EstimatorOutOfRange(f"estimate exceeded 1 by {excess:g}")
    return np.clip(out, 0.0, 1.0, out=out)


def _sample_panels(
    records: list[tuple[int, float, np.ndarray, np.ndarray, np.ndarray]],
    stats: GreedyCouplingStats,
    seed: int,
    count: int,
    *,
    want_assignments: bool,
    check_invariants: bool = False,
    prefetch: bool = False,
) -> Iterator[np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Draw ``count`` outcomes from the conditional disagreement law.

    Runs the plan of :func:`_draw_panels` and yields, for each panel of
    ``(blocks, size)`` draws, either its 0-based ``(n, blocks, size)``
    selections (one row per coordinate) when ``want_assignments`` is set,
    or its per-sample estimate values ``f`` and a spent float row for
    :func:`_block_mean`; all are views the next panel overwrites. Every
    operation acts on each draw alone, so a draw's result does not depend
    on the panel it is stepped in. ``records`` (:func:`_step_records`) holds
    one record per coordinate to step, ascending by its 0-based ``k``; each
    step consumes one row of uniforms, which it overwrites. A step is a fixed
    handful of whole-panel numpy calls whatever its category count (weights,
    :func:`_step_weights`; count, :func:`_select`; one gather of the chosen log
    ``Q/P`` ratios); a binary coordinate costs three rows and one comparison.
    :func:`_f_stage` turns the log sums into ``f``. ``check_invariants`` is
    as in :func:`sample_pi_batch`; ``prefetch`` fills uniforms on a pool thread.

    Assignments and invariant checks need every coordinate stepped. When
    only ``f`` is requested, coordinates with ``d_k = 0`` may be left out:
    every ratio there is exactly 1 (log ``+0.0``), so neither ``f`` nor a
    later weight can change, and the step's total equals the disagreement
    factor the previous step chose, which is positive.
    """
    steps = [record[0] for record in records]
    max_q = max(len(record[3]) for record in records)
    # float rows: log A, y, on the f path the log Q/P sum, then the weights
    heads = 2 if want_assignments else 3
    for rows, floats, picks, flags in _draw_panels(
        seed,
        count,
        steps,
        stats.n,
        floats=heads + max_q,
        picks=stats.n if want_assignments else 1,
        flags=max_q - 1,
        prefetch=prefetch,
    ):
        log_a, y = floats[:2]
        cum = floats[heads:]
        log_a.fill(0.0)
        if not want_assignments:
            t_qp = floats[2]
            t_qp.fill(0.0)

        for record, uniform in zip(records, rows):
            k, _, log_qp, gap, _ = record
            _step_weights(record, log_a, cum, y)
            total = cum[len(gap) - 1]
            # y * -agree >= 0, so no total is below gap[-1]: only a tiny one needs the min
            total_low = gap[-1, 0, 0] if gap[-1, 0, 0] > _SMALLEST_NORMAL else total.min()
            if not total_low > 0.0:
                raise DegenerateConditional(
                    f"step {k + 1}: conditional weights sum to a non-positive value"
                )
            if check_invariants:
                normalizer = -np.expm1(log_a + stats.suffix_log[k])
                error = float(np.abs(total - normalizer).max())
                if error > WEIGHT_SUM_TOL or not np.all(normalizer > 0.0):
                    raise DegenerateConditional(
                        f"step {k + 1}: weight sum deviates from its normalizer by {error:g}"
                    )

            threshold = np.multiply(uniform, total, out=uniform)
            picked = picks[k] if want_assignments else picks[0]
            _select(cum[: len(gap)], threshold, total_low, flags, picked)
            # y is spent once the weights are filled: it takes the chosen ratios
            log_qp.take(picked, out=y, mode="clip")
            if not want_assignments:
                np.add(t_qp, y, out=t_qp)
            np.add(log_a, np.minimum(y, 0.0, out=y), out=log_a)

        yield picks if want_assignments else (_f_stage(log_a, t_qp, y), log_a)


def sample_pi_batch(
    p: ProductDistribution,
    q: ProductDistribution,
    stats: GreedyCouplingStats,
    seed: int,
    count: int,
    *,
    check_invariants: bool = False,
) -> np.ndarray:
    """Draw ``count`` independent conditional outcomes as a ``(count, n)`` array.

    Rows are draws; entries are 1-based categories, and ``tuple(row)`` is
    the key :func:`~tvdist.oracle.exact_pi` gives that outcome. ``stats``
    must be ``build_stats(p, q)``; another pair's raises
    :class:`InvalidParameter`. With ``check_invariants`` every sampling step
    verifies that its weights sum to the analytic normalizer within
    :data:`WEIGHT_SUM_TOL`.
    """
    # build_stats raises DomainMismatch first if shapes differ; a plain tuple
    # of the same fields compares equal but is not the record
    if stats != build_stats(p, q) or not isinstance(stats, GreedyCouplingStats):
        raise InvalidParameter("stats must be build_stats(p, q) of the pair sampled")
    check_seed(seed)
    count = check_count("count", count)
    if stats.pr_diff == 0.0:
        raise IdenticalDistributions(
            "the distributions are identical; the conditional law is undefined"
        )
    try:
        out = np.empty((count, p.n), dtype=np.int64)
    except ValueError:  # a shape numpy cannot make; a true MemoryError propagates
        msg = f"count={count} draws of n={p.n} coordinates do not fit in one array"
        raise InvalidParameter(msg) from None
    records = _step_records(p, q, stats, list(range(p.n)))
    offset = 0
    for picks in _sample_panels(
        records, stats, seed, count, want_assignments=True, check_invariants=check_invariants
    ):
        drawn = picks[0].size
        np.add(picks.reshape(p.n, drawn).T, 1, out=out[offset : offset + drawn], dtype=out.dtype)
        offset += drawn
    return out


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy targets and reproducibility knobs for :func:`estimate_tv`.

    ``samples_override`` replaces the derived sample count when set. With
    ``workers >= 2`` one other thread fills the uniforms ahead of the calling
    thread's arithmetic, which pays off only when many coordinates need
    uniforms and a second core is free; more than 2 adds nothing while that
    arithmetic holds the interpreter lock. The worker count never changes
    the result.
    """

    epsilon: float
    delta: float
    seed: int
    samples_override: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        # stored as plain numbers, so a numpy scalar reports like any other
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        object.__setattr__(self, "delta", check_delta(self.delta))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.samples_override is not None:
            samples = check_count("samples_override", self.samples_override)
            object.__setattr__(self, "samples_override", samples)
        object.__setattr__(self, "workers", check_count("workers", self.workers))


@dataclass(frozen=True)
class EstimateResult:
    """Estimate plus the diagnostics needed to audit it.

    ``estimate == mean_f * pr_diff`` holds exactly as computed. For the
    naive baseline the scale factor is 1, so ``pr_diff`` is reported as 1.0
    and ``mean_f`` holds its sample mean.
    """

    estimate: float
    mean_f: float
    samples_used: int
    pr_diff: float
    per_coordinate_tv: tuple[float, ...]
    elapsed_seconds: float


def _block_mean(panels: Iterable[tuple[np.ndarray, np.ndarray]], count: int) -> float:
    """Mean of ``count`` values in [0, 1], given as ``(blocks, size)`` panels.

    The one merge of both estimators: one error-free sum per block, then
    one over the block sums in block order, so the result never depends on
    how blocks were grouped into panels. Each panel comes with scratch of
    its shape; both are overwritten.

    A block sums in exact levels (after Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 31(1), 2008): from ``sigma = 2**13``, ``part = (rest + sigma) -
    sigma``, ``rest -= part``, ``sigma *= 2**-40``. While ``|rest| <=
    2**-13 * sigma``, both are exact, ``part`` is a multiple of ``g = sigma
    * 2**-53`` up to ``(2**40 + 1) g`` and the new ``rest`` at most ``g``;
    so a level's partial sums over at most ``2**12`` values stay under
    ``2**53 g``, exact in any order, and ``fsum`` of the level sums is
    ``fsum(block)``. At ``sigma = 2**-1027``, ``rest + sigma`` is subnormal
    and exact: 27 levels at most.
    """
    sums = []
    for rest, part in panels:
        levels, sigma = [], 2.0**13
        while np.count_nonzero(rest):
            np.subtract(np.add(rest, sigma, out=part), sigma, out=part)
            levels.append(part.sum(axis=1))
            rest -= part
            sigma *= 2.0**-40
        sums += map(math.fsum, zip(*levels))
    return math.fsum(sums) / count


def check_assignment(dist: ProductDistribution, assignments: np.ndarray) -> np.ndarray:
    """Return an ``(m, n)`` array of 1-based outcomes of ``dist`` as ``intp``.

    Raises :class:`DomainMismatch` unless it is an integer array with one
    column per coordinate, and :class:`IndexOutOfRange` naming the first
    coordinate with an entry outside its categories.
    """
    values = np.asarray(assignments)
    if values.ndim != 2 or values.shape[1] != dist.n or values.dtype.kind not in "iu":
        raise DomainMismatch(
            f"assignments must be an integer (m, {dist.n}) array, "
            f"got {values.dtype} of shape {values.shape}"
        )
    sizes = np.array(dist.domain_sizes)
    bad = (values < 1) | (values > sizes)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise IndexOutOfRange(i + 1, int(values[np.argmax(bad[:, i]), i]), int(sizes[i]))
    return values.astype(np.intp, copy=False)


def estimator_f(
    p: ProductDistribution, q: ProductDistribution, assignments: np.ndarray
) -> np.ndarray:
    """Per-sample estimate ``f`` of each row of an ``(m, n)`` outcome array.

    Rows hold 1-based categories, as :func:`sample_pi_batch` returns them;
    the result is an ``(m,)`` array in [0, 1]. The ratios are gathered,
    coordinate by coordinate, from the sampling kernel's log-ratio rows
    (:func:`_log_ratios`) and passed through its f stage, so each value has
    the bits the kernel gives the same outcome in :func:`estimate_tv`.

    Raises:
        DomainMismatch, IndexOutOfRange: the array does not fit ``p``.
        ZeroDenominator: an outcome lies outside the support of P, or has no
            disagreement mass under the coupling (so it is never drawn).
        EstimatorOutOfRange: a value left [0, 1] by more than the rounding
            guard, which indicates a bug.
    """
    require_same_shape(p, q)
    values = check_assignment(p, assignments)
    m = len(values)
    log_a, t_qp = np.zeros(m), np.zeros(m)
    for k, log_qp in enumerate(_log_ratios(p, q, list(range(p.n)))):
        picked = values[:, k] - 1
        if (np.asarray(p.rows[k])[picked] == 0.0).any():
            raise ZeroDenominator(f"coordinate {k + 1}: outcome lies outside the support of P")
        ratios = log_qp[picked]
        np.add(log_a, np.minimum(ratios, 0.0), out=log_a)
        np.add(t_qp, ratios, out=t_qp)
    return _f_stage(log_a, t_qp, np.empty(m))


def estimate_tv(
    p: ProductDistribution, q: ProductDistribution, config: EstimatorConfig
) -> EstimateResult:
    """Estimate tv(P, Q) to relative error epsilon with confidence 1 - delta.

    Identical inputs short-circuit to an exact 0 with no sampling.
    Otherwise the kernel (:func:`_sample_panels`) draws ``m`` outcomes
    (derived via :func:`sample_count` unless overridden) in fixed blocks;
    block ``b`` uses the RNG stream derived from ``(seed, b)`` and
    contributes an error-free partial sum, merged in block order by
    :func:`_block_mean`. The result is therefore reproducible and
    independent of ``workers``, which only decides whether the uniforms are
    filled ahead on a second thread. Coordinates with ``d_i = 0`` are not
    stepped, and one with ``d_i = 1`` makes its suffix logs ``-inf`` and
    ``pr_diff`` exactly 1.
    """
    start = time.perf_counter()
    stats = build_stats(p, q)
    if stats.pr_diff == 0.0:
        return EstimateResult(
            estimate=0.0,
            mean_f=0.0,
            samples_used=0,
            pr_diff=0.0,
            per_coordinate_tv=stats.d,
            elapsed_seconds=time.perf_counter() - start,
        )
    m = config.samples_override or sample_count(p.n, config.epsilon, config.delta)
    # d_k = 0 coordinates cannot change f (see _sample_panels)
    steps = [k for k, d in enumerate(stats.d) if d != 0.0]
    records = _step_records(p, q, stats, steps)
    prefetch = config.workers > 1
    f_panels = _sample_panels(
        records, stats, config.seed, m, want_assignments=False, prefetch=prefetch
    )
    with closing(f_panels):
        mean_f = _block_mean(f_panels, m)
    return EstimateResult(
        estimate=mean_f * stats.pr_diff,
        mean_f=mean_f,
        samples_used=m,
        pr_diff=stats.pr_diff,
        per_coordinate_tv=stats.d,
        elapsed_seconds=time.perf_counter() - start,
    )


def naive_estimate_tv(
    p: ProductDistribution, q: ProductDistribution, samples: int, seed: int
) -> EstimateResult:
    """Baseline: average ``max{0, 1 - Q(omega)/P(omega)}`` over draws from P.

    Unbiased for tv(P, Q) but with no relative-error guarantee: when the
    distance is tiny and carried by rare outcomes, typical runs return 0.
    Each value is the f stage's with a zero ``min(P, Q)/P`` product, whose
    denominator is exactly 1. Uses the block/stream layout and the steps
    (``d_i != 0``) of :func:`estimate_tv`, pairing each step's log-ratio
    row (:func:`_log_ratios`) with its cumulative P column, both built once
    per run, and reports the mean of :func:`_block_mean` with a scale factor
    of 1 (``pr_diff`` field set to 1.0).
    """
    start = time.perf_counter()
    d = coordinate_tvs(p, q)
    check_seed(seed)
    samples = check_count("samples", samples)
    steps = [k for k, d_k in enumerate(d) if d_k != 0.0]
    ratios = _log_ratios(p, q, steps)
    records = [(row, np.cumsum(p.rows[k]).reshape(-1, 1, 1)) for k, row in zip(steps, ratios)]
    flags = max(map(len, ratios), default=1) - 1

    def g_panels() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for rows, (log_a, log_qp, g), (chosen,), below in _draw_panels(
            seed, samples, steps, p.n, floats=3, picks=1, flags=flags
        ):
            log_a.fill(-np.inf)
            log_qp.fill(0.0)
            for (row, cum), uniform in zip(records, rows):
                threshold = np.multiply(uniform, cum[-1], out=uniform)
                _select(cum, threshold, cum[-1, 0, 0], below, chosen)
                log_qp += row[chosen]
            yield _f_stage(log_a, log_qp, g), log_a

    mean_g = _block_mean(g_panels(), samples)
    return EstimateResult(
        estimate=mean_g,
        mean_f=mean_g,
        samples_used=samples,
        pr_diff=1.0,
        per_coordinate_tv=d,
        elapsed_seconds=time.perf_counter() - start,
    )
