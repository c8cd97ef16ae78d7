"""Greedy coordinate-wise coupling and exact sampling from its disagreement law.

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
naive products lose everything to rounding. One table holds the log
``Q_i/P_i`` ratios; capped at 0 they are the log ``min(P_i, Q_i)/P_i``
ones. Every zero factor (``d_i = 1`` in a suffix product, a zero
``Q_i/P_i`` ratio) is a log of ``-inf``, its zero flag.

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
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from .distributions import (
    GreedyCouplingStats,
    ProductDistribution,
    _entries,
    build_stats,
    check_count,
    check_seed,
)
from .errors import (
    DegenerateConditional,
    EstimatorOutOfRange,
    IdenticalDistributions,
    InvalidParameter,
    ZeroDenominator,
)

if TYPE_CHECKING:
    from numpy.random import Generator, Philox

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
    from numpy.random import Generator, Philox, SeedSequence

    return Generator(Philox(SeedSequence([check_seed(seed), int(block)])))


def block_sizes(count: int) -> list[int]:
    """Split ``count`` draws into fixed-size blocks (last one may be short)."""
    full, rest = divmod(count, SAMPLE_BLOCK)
    return [SAMPLE_BLOCK] * full + ([rest] if rest else [])


def _stream_runs(steps: list[int], n: int) -> list[tuple[int, int]]:
    """``(skip, take)`` coordinate runs covering a block's ``n`` coordinates.

    ``steps`` lists the 0-based coordinates that need uniforms, ascending;
    each run passes over ``skip`` coordinates, then fills rows for the next
    ``take``.
    """
    runs: list[tuple[int, int]] = []
    pos = 0
    for k in steps:
        if runs and k == pos:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((k - pos, 1))
        pos = k + 1
    if pos < n:
        runs.append((n - pos, 0))
    return runs


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


def _uniform_chunks(
    rngs: list[Generator],
    size: int,
    runs: list[tuple[int, int]],
    take_buffer: Callable[[], np.ndarray],
) -> Iterator[np.ndarray]:
    """Uniform rows of a panel's needed coordinates, a chunk of rows at a time.

    ``rngs`` holds the generators of the panel's blocks. A chunk is a
    ``(rows, blocks, size)`` view of the flat buffer ``take_buffer()``
    returns, holding the rows of as many consecutive needed coordinates as
    fit; each block fills its own slab with one ``rng.random`` call.
    Skipped coordinates are passed over in every block, and each stream
    ends where drawing every row would have left it.
    """
    blocks = len(rngs)
    drawn = 0
    for skip, take in runs:
        if skip:
            for rng in rngs:
                _pass_over(rng.bit_generator, drawn, skip * size)
            drawn += skip * size
        while take:
            flat = take_buffer()
            rows = min(take, flat.size // (blocks * size))
            chunk = flat[: blocks * rows * size].reshape(blocks, rows, size)
            for rng, slab in zip(rngs, chunk):
                rng.random(out=slab)
            yield chunk.swapaxes(0, 1)
            take -= rows
            drawn += rows * size


def _panel_rows(
    seed: int,
    panels: Iterable[tuple[int, int, int]],
    width: int,
    runs: list[tuple[int, int]],
    *,
    prefetch: bool,
) -> Iterator[np.ndarray]:
    """Uniform rows of the needed coordinates, panel after panel.

    Each row is a ``(blocks, size)`` view holding one coordinate's row of
    every block in the panel; it is overwritten once a later chunk is asked
    for. Chunks hold :data:`UNIFORM_CHUNK` doubles, or one row of the widest
    panel (``width`` draws) if that is more. Without ``prefetch`` they are
    filled on the calling thread into one reused buffer. With it, one pool
    thread fills the next chunk while the caller reads the current one, two
    buffers alternating, across panel boundaries; its errors are raised to
    the caller, and closing the iterator waits for the fill in flight.
    """
    capacity = max(UNIFORM_CHUNK, width)
    buffers = itertools.cycle([np.empty(capacity) for _ in range(1 + prefetch)])
    chunks = (
        chunk
        for first, blocks, size in panels
        for chunk in _uniform_chunks(
            [block_rng(seed, first + b) for b in range(blocks)],
            size,
            runs,
            buffers.__next__,
        )
    )
    if not prefetch:
        for chunk in chunks:
            yield from chunk
        return
    # imported here: only a prefetching run needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tvdist-uniforms") as pool:
        ahead = pool.submit(next, chunks, None)
        while (chunk := ahead.result()) is not None:
            ahead = pool.submit(next, chunks, None)
            yield from chunk


def _draw_panels(
    seed: int,
    count: int,
    steps: list[int],
    n: int,
    *,
    floats: int,
    flags: int,
    picks: int,
    prefetch: bool = False,
) -> Iterator[tuple[Iterator[np.ndarray], np.ndarray, np.ndarray, np.ndarray]]:
    """The run plan of ``count`` draws over ``n`` coordinates, panel by panel.

    Yields ``(rows, floats, flags, picks)`` per panel (see :func:`_panels`):
    ``rows`` yields a ``(blocks, size)`` row of uniforms for each coordinate
    in ``steps`` (see :func:`_panel_rows`), and the others are
    ``(rows, blocks, size)`` views of buffers with that many rows of
    doubles, bools and indices. The buffers are allocated once per run, so
    a run touches fresh pages once, not once per panel. Closing this
    generator closes the row reader.
    """
    # the widest panel: up to PANEL_BLOCKS full blocks, or else the short one
    width = SAMPLE_BLOCK * min(count // SAMPLE_BLOCK, PANEL_BLOCKS) or count
    kinds = ((floats, np.float64), (flags, bool), (picks, np.intp))
    buffers = [np.empty((height, width), dtype) for height, dtype in kinds]
    runs = _stream_runs(steps, n)
    reader = _panel_rows(seed, _panels(count), width, runs, prefetch=prefetch)
    with closing(reader) as rows:
        for _, blocks, size in _panels(count):
            views = (b[:, : blocks * size].reshape(-1, blocks, size) for b in buffers)
            yield (rows, *views)


class _PairTables:
    """Per-category lookup tables shared by the sampling and estimate kernels.

    Categories of the ``steps`` coordinates lie back to back; coordinate ``k``
    (0-based) owns ``bounds[k]:bounds[k + 1]`` of each array (empty if not stepped):
      - ``p``: ``P_k(c)``,
      - ``log_qp``: log of the ``Q/P`` ratio (0 where ``P = 0``: such a
        category is never drawn); its minimum with 0 is the log of the
        ``min(P, Q)/P`` ratio,
      - ``gap`` and ``agree``: running sums over categories ``0..c``, in
        category order, of ``max(P - Q, 0)`` and of ``min(P, Q)``.
    The log ratio is built from ``log1p((Q - P)/P)`` so near-identical
    marginals keep full relative accuracy, except where ``(Q - P)/P``
    rounds to -1 or overflows (Q/P below about 2^-54, ``Q = 0``, or a
    subnormal P): there ``log Q - log P`` keeps the ratio. A zero ratio is
    stored as a log of ``-inf``, which is its zero flag. Every other log is
    finite (``|log Q/P|`` is at most about 745), so a sum with a zero factor
    stays ``-inf``, and ``-expm1(-inf)`` is exactly the 1 that ``1 - 0``
    gives.
    """

    __slots__ = ("p", "log_qp", "gap", "agree", "bounds", "max_q")

    def __init__(self, p: ProductDistribution, q: ProductDistribution, steps: list[int]):
        stepped = set(steps)
        widths = [size * (k in stepped) for k, size in enumerate(p.domain_sizes)]
        self.bounds = list(itertools.accumulate(widths, initial=0))
        self.max_q = max(widths)
        self.p = pv = np.fromiter(_entries(p.rows[k] for k in steps), np.float64)
        qv = np.fromiter(_entries(q.rows[k] for k in steps), np.float64)
        pos = pv > 0.0
        with np.errstate(over="ignore"):
            rel = (qv - pv) / np.where(pos, pv, 1.0)
        far = pos & ~((rel > -1.0) & (rel < np.inf))
        self.log_qp = np.log1p(np.where(pos & ~far, rel, 0.0))
        with np.errstate(divide="ignore"):
            self.log_qp[far] = np.log(qv[far]) - np.log(pv[far])

        def running_sums(terms: np.ndarray) -> np.ndarray:
            flat, bounds = terms.tolist(), self.bounds
            sums = (itertools.accumulate(flat[bounds[k] : bounds[k + 1]]) for k in steps)
            return np.fromiter(_entries(sums), np.float64, len(flat))

        self.gap = running_sums(np.maximum(pv - qv, 0.0))
        self.agree = running_sums(np.minimum(pv, qv))


def _select(
    cum: np.ndarray,
    threshold: np.ndarray,
    total_low: float,
    out: np.ndarray,
    flag: np.ndarray,
) -> None:
    """Inverse-CDF selection, scanning categories in ascending order.

    ``cum`` holds cumulative weights with one row per category, each row
    either shaped like ``threshold`` (one value per draw) or one value
    shared by all draws; ``threshold`` is ``u * cum[-1]`` per draw with
    ``u`` in [0, 1), and ``total_low`` the smallest ``cum[-1]``. ``out``
    receives ``#(cum <= threshold)``, clamped to the last category of
    positive weight, which absorbs residual rounding mass; ``flag`` is
    scratch space.
    """
    q = len(cum)
    if q == 1:
        out.fill(0)
        return
    # The last row is left out of the count: it is counted only where
    # threshold >= total, and those draws are set by the clamp below.
    np.less_equal(cum[0], threshold, out=out)
    for c in range(1, q - 1):
        np.less_equal(cum[c], threshold, out=flag)
        np.add(out, flag, out=out)
    # Below the total the count stops at a positive weight. For a total
    # above the smallest normal double and u < 1, the rounded u * total is
    # below the total, so only tiny totals can need the clamp. The kernel's
    # rows are gap + y * agree (see _step_weights): when the total is
    # subnormal every row is a subnormal and every add is exact, and a row
    # grows only where max(P - Q, 0) > 0, or where min(P, Q) > 0 with
    # y > 0, so a row that grows marks a positive weight. Draws are indexed
    # in the flattened order of ``threshold``.
    if not total_low > _SMALLEST_NORMAL:
        over = np.flatnonzero(threshold >= np.broadcast_to(cum[-1], threshold.shape))
        if over.size:
            rows = np.broadcast_to(np.reshape(cum, (q, -1)), (q, threshold.size))
            grew = np.diff(rows[:, over], axis=0, prepend=0.0) > 0.0
            np.put(out, over, q - 1 - np.argmax(grew[::-1], axis=0))


def _step_weights(
    tables: _PairTables,
    k: int,
    log_a: np.ndarray,
    log_b: float,
    cum: np.ndarray,
    y: np.ndarray,
) -> None:
    """Cumulative conditional weights of coordinate ``k`` (0-based), per draw.

    Row ``c`` of ``cum`` receives ``w_k(0) + ... + w_k(c)``, that is
    ``gap[c] + (1 - A_{k-1} * B_k) * agree[c]`` from the tables' running
    sums; ``log_a`` holds log A_{k-1} per draw (``-inf`` for a zero prefix)
    and ``log_b`` is log B_k (``-inf`` for a zero suffix). ``y`` receives
    ``expm1(log A_{k-1} + log B_k)``, the negated disagreement factor.
    """
    lo, hi = tables.bounds[k], tables.bounds[k + 1]
    np.add(log_a, log_b, out=y)
    np.expm1(y, out=y)
    # y * -agree equals (1 - A * B) * agree bit for bit
    categories = zip(tables.gap[lo:hi].tolist(), tables.agree[lo:hi].tolist())
    for row, (gap, agree) in zip(cum, categories):
        np.multiply(y, -agree, out=row)
        np.add(row, gap, out=row)


def _f_stage(
    log_a: np.ndarray,
    t_qp: np.ndarray,
    flag: np.ndarray,
    scratch: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Per-draw estimate ``f`` from the log products of each draw's ratios.

    ``log_a`` holds log prod min(P, Q)/P and ``t_qp`` log prod Q/P, each
    ``-inf`` where a factor is 0. ``f = (1 - prod Q/P) / (1 - prod min(P, Q)/P)``
    where the numerator is positive, else 0, is written to ``out`` and
    returned; ``log_a``, ``t_qp``, ``flag`` and ``scratch`` (bools) are
    overwritten. Raises :class:`ZeroDenominator` for an outcome with a
    positive numerator and no disagreement mass (one that is never drawn),
    and :class:`EstimatorOutOfRange` for a value above 1 by more than
    :data:`F_RANGE_TOL`; smaller excursions are clamped.
    """
    # in place: numer = 1 - prod Q/P, which is -inf (so f = 0) where the Q/P
    # product overflows
    with np.errstate(over="ignore"):
        numer = np.negative(np.expm1(t_qp, out=t_qp), out=t_qp)
    denom = np.negative(np.expm1(log_a, out=log_a), out=log_a)
    live = np.greater(numer, 0.0, out=flag)
    if not np.all(np.greater(denom, 0.0, out=scratch), where=live):
        raise ZeroDenominator("an outcome's disagreement mass is zero")
    out.fill(0.0)
    np.divide(numer, denom, out=out, where=live)
    excess = float(out.max(initial=0.0)) - 1.0
    if excess > F_RANGE_TOL:
        raise EstimatorOutOfRange(f"estimate exceeded 1 by {excess:g}")
    return np.clip(out, 0.0, 1.0, out=out)


def _sample_panels(
    tables: _PairTables,
    stats: GreedyCouplingStats,
    steps: list[int],
    seed: int,
    count: int,
    *,
    want_assignments: bool,
    check_invariants: bool = False,
    prefetch: bool = False,
) -> Iterator[np.ndarray]:
    """Draw ``count`` outcomes from the conditional disagreement law.

    Runs the plan of :func:`_draw_panels` and yields, for each panel of
    ``(blocks, size)`` draws, either its 0-based ``(n, blocks, size)``
    selections (one row per coordinate) when ``want_assignments`` is set, or
    its per-sample estimate values ``f``; both are views the next panel
    overwrites. Every operation acts on each draw alone, so a draw's result
    does not depend on the panel it is stepped in. ``steps`` lists the
    0-based coordinates to step, ascending, each consuming one row of
    uniforms, which the step overwrites. A step fills one disagreement row
    and the cumulative weights (:func:`_step_weights`), one row per category,
    selects, and gathers the chosen log ``Q/P`` ratios once for both log
    sums; a binary coordinate costs three rows and one comparison.
    :func:`_f_stage` turns the log sums into ``f``. ``check_invariants`` is
    as in :func:`sample_pi_batch`; ``prefetch`` fills uniforms on a pool thread.

    Assignments and invariant checks need every coordinate stepped. When
    only ``f`` is requested, coordinates with ``d_k = 0`` may be left out:
    every ratio there is exactly 1 (log ``+0.0``), so neither ``f`` nor a
    later weight can change, and the step's total equals the disagreement
    factor the previous step chose, which is positive.
    """
    suffix_log = stats.suffix_log
    for rows, floats, (flag, spare), picks in _draw_panels(
        seed,
        count,
        steps,
        stats.n,
        floats=4 + tables.max_q,
        flags=2,
        picks=stats.n if want_assignments else 1,
        prefetch=prefetch,
    ):
        log_a, t_qp, y, ratio = floats[:4]
        cum = floats[4:]
        log_a.fill(0.0)
        if not want_assignments:
            t_qp.fill(0.0)

        for k, uniform in zip(steps, rows):
            lo, hi = tables.bounds[k], tables.bounds[k + 1]
            _step_weights(tables, k, log_a, suffix_log[k + 1], cum, y)
            q_k = hi - lo
            total = cum[q_k - 1]
            total_low = float(total.min())
            if not total_low > 0.0:
                raise DegenerateConditional(
                    f"step {k + 1}: conditional weights sum to a non-positive value"
                )
            if check_invariants:
                normalizer = -np.expm1(log_a + suffix_log[k])
                error = float(np.abs(total - normalizer).max())
                if error > WEIGHT_SUM_TOL or not np.all(normalizer > 0.0):
                    raise DegenerateConditional(
                        f"step {k + 1}: weight sum deviates from its normalizer by {error:g}"
                    )

            threshold = np.multiply(uniform, total, out=uniform)
            picked = picks[k] if want_assignments else picks[0]
            _select(cum[:q_k], threshold, total_low, picked, flag)
            tables.log_qp[lo:hi].take(picked, out=ratio, mode="clip")
            if not want_assignments:
                np.add(t_qp, ratio, out=t_qp)
            np.add(log_a, np.minimum(ratio, 0.0, out=ratio), out=log_a)

        yield picks if want_assignments else _f_stage(log_a, t_qp, flag, spare, y)


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
    if stats != build_stats(p, q):  # raises DomainMismatch first if shapes differ
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
    steps = list(range(p.n))
    offset = 0
    for selections in _sample_panels(
        _PairTables(p, q, steps),
        stats,
        steps,
        seed,
        count,
        want_assignments=True,
        check_invariants=check_invariants,
    ):
        drawn = selections[0].size
        np.add(selections.reshape(p.n, drawn).T, 1, out=out[offset : offset + drawn])
        offset += drawn
    return out
