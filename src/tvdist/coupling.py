"""Greedy coordinate-wise coupling and exact sampling from its disagreement law.

Couple each coordinate pair (P_i, Q_i) optimally and independently. Under
that coupling the chance that the two joint samples agree factorizes, so

    pr_diff = Pr[X != Y] = 1 - prod_i (1 - d_i),      d_i = tv(P_i, Q_i),

is computable exactly. This module also draws exact samples from the
conditional law ``pi(omega) = Pr[X = omega | X != Y]`` one coordinate at a
time: after fixing a prefix, the chance that the pair still agrees is the
prefix's product of ``min(P_i, Q_i)/P_i`` ratios times a suffix product of
``(1 - d_i)`` factors, which gives closed-form conditional weights

    w_k(c) = P_k(c) * (1 - A_{k-1} * r_k(c) * B_k),
    sum_c w_k(c) = 1 - A_{k-1} * B_{k-1}.

All products over coordinates are held as sums of logs with explicit zero
flags (the sampling kernel flags a zero ``min(P_i, Q_i)/P_i`` factor by a
log of ``-inf``), and ``1 - x`` quantities go through ``log1p``/``expm1``,
because the interesting regime is exponentially small per-coordinate
distances where naive products lose everything to rounding.

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

Blocks stay the unit of randomness and of summation. The kernel only
groups up to :data:`PANEL_BLOCKS` consecutive equal-size blocks into a
panel and steps them side by side, as ``(blocks, size)`` arrays, to pay
its per-call costs once per panel instead of once per block; each block
keeps its own stream, and its values are summed on their own.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .distributions import ProductDistribution, coordinate_tv, require_same_shape
from .errors import (
    DegenerateConditional,
    EstimatorOutOfRange,
    IdenticalDistributions,
    InvalidParameter,
    SlackOnlyDifference,
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

_MAX_SEED = 2**64

#: Smallest positive normal double (see :func:`_select`).
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidParameter(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _MAX_SEED:
        raise InvalidParameter(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def block_rng(seed: int, block: int) -> Generator:
    """Counter-based generator for work unit ``block`` of a run seeded ``seed``."""
    return Generator(Philox(SeedSequence([check_seed(seed), int(block)])))


def block_sizes(count: int, block: int = SAMPLE_BLOCK) -> list[int]:
    """Split ``count`` draws into fixed-size blocks (last one may be short)."""
    full, rest = divmod(count, block)
    return [block] * full + ([rest] if rest else [])


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


def _panels(sizes: list[int]) -> list[tuple[int, int, int]]:
    """``(first block, blocks, size)`` of each panel of a run's blocks.

    A panel groups up to :data:`PANEL_BLOCKS` consecutive blocks of equal
    size, which the kernel steps side by side.
    """
    panels: list[tuple[int, int, int]] = []
    for block, size in enumerate(sizes):
        if panels and panels[-1][2] == size and panels[-1][1] < PANEL_BLOCKS:
            first, blocks, _ = panels[-1]
            panels[-1] = (first, blocks + 1, size)
        else:
            panels.append((block, 1, size))
    return panels


def _widest(panels: list[tuple[int, int, int]]) -> int:
    """Draws in the widest panel."""
    return max(blocks * size for _, blocks, size in panels)


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
    panels: list[tuple[int, int, int]],
    runs: list[tuple[int, int]],
    *,
    prefetch: bool,
) -> Iterator[np.ndarray]:
    """Uniform rows of the needed coordinates, panel after panel.

    Each row is a ``(blocks, size)`` view holding one coordinate's row of
    every block in the panel; it is overwritten once a later chunk is asked
    for. Chunks hold :data:`UNIFORM_CHUNK` doubles, or one panel row if that
    is more. Without ``prefetch`` they are filled on the calling thread into
    one reused buffer. With it, one pool thread fills the next chunk while
    the caller reads the current one, two buffers alternating, across panel
    boundaries; its errors are raised to the caller, and closing the
    iterator waits for the fill in flight.
    """
    capacity = max(UNIFORM_CHUNK, _widest(panels))
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


@dataclass(frozen=True)
class GreedyCouplingStats:
    """Aggregate quantities of the greedy coupling for one (P, Q) pair.

    ``suffix[k]`` is ``B_k = prod_{i>k} (1 - d_i)`` for ``k = 0..n`` (so
    ``suffix[n] = 1`` and ``pr_diff = 1 - suffix[0]``). ``suffix_log`` and
    ``suffix_zero`` carry the same products in log space: the log sums run
    over the factors with ``d_i < 1`` and the flag records whether any
    ``d_i = 1`` coordinate lies in the suffix (making ``B_k`` exactly 0).
    """

    d: tuple[float, ...]
    suffix: tuple[float, ...]
    pr_diff: float
    suffix_log: tuple[float, ...]
    suffix_zero: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.d)


def build_stats(p: ProductDistribution, q: ProductDistribution) -> GreedyCouplingStats:
    """Per-coordinate TV distances, suffix products, and Pr[X != Y].

    ``pr_diff`` is computed as ``-expm1(sum_i log1p(-d_i))`` so it stays
    accurate when every ``d_i`` is tiny; coordinates with ``d_i = 1`` are
    carried by the zero flags.

    Raises :class:`SlackOnlyDifference` for a coordinate with ``d_i > 0``
    whose Q is at least P wherever P is positive: the coupling cannot
    disagree there, so ``pr_diff`` would count mass the conditional law
    never reaches.
    """
    require_same_shape(p, q)
    d = tuple(coordinate_tv(pm, qm) for pm, qm in zip(p.marginals, q.marginals))
    for i, (d_i, pm, qm) in enumerate(zip(d, p.marginals, q.marginals), start=1):
        if d_i > 0.0 and not any(b < a for a, b in zip(pm.probs, qm.probs)):
            raise SlackOnlyDifference(i, d_i)
    n = len(d)
    suffix_log = [0.0] * (n + 1)
    suffix_zero = [False] * (n + 1)
    for k in range(n - 1, -1, -1):
        d_next = d[k]
        if d_next >= 1.0:
            suffix_zero[k] = True
            suffix_log[k] = suffix_log[k + 1]
        else:
            suffix_zero[k] = suffix_zero[k + 1]
            suffix_log[k] = suffix_log[k + 1] + math.log1p(-d_next)
    suffix = tuple(
        0.0 if z else math.exp(s) for z, s in zip(suffix_zero, suffix_log)
    )
    pr_diff = 1.0 if suffix_zero[0] else -math.expm1(suffix_log[0]) + 0.0
    return GreedyCouplingStats(
        d=d,
        suffix=suffix,
        pr_diff=pr_diff,
        suffix_log=tuple(suffix_log),
        suffix_zero=tuple(suffix_zero),
    )


class _PairTables:
    """Per-category lookup tables shared by the sampling and estimate kernels.

    Categories of all coordinates are laid out back to back; coordinate
    ``k`` (0-based) owns ``bounds[k]:bounds[k + 1]`` of each flat array:
      - ``p``: ``P_k(c)``,
      - ``log_r``: log of the ``min(P, Q)/P`` ratio,
      - ``log_qp``/``q_zero``: log of the ``Q/P`` ratio and its zero flag
        (set where ``Q = 0 < P``; a category with ``P = 0`` is never drawn).
    ``q_zero_in[k]`` tells whether coordinate ``k`` has a flagged category.
    Both ratios are built from ``log1p((Q - P)/P)`` so near-identical
    marginals keep full relative accuracy, except where ``(Q - P)/P``
    rounds to -1 or overflows (Q/P below about 2^-54, or a subnormal P):
    there ``log Q - log P`` keeps the ratio. A zero ``min(P, Q)/P`` ratio is
    stored as a log of ``-inf``, which is its zero flag: every ``log_r`` and
    suffix log is at most 0, so a sum with a zero factor stays ``-inf``, and
    ``-expm1(-inf)`` is exactly the 1 that ``1 - 0`` gives. ``Q/P`` needs
    the explicit flag, as it can overflow to ``+inf``.
    """

    __slots__ = ("p", "log_r", "log_qp", "q_zero", "q_zero_in", "bounds", "max_q")

    def __init__(self, p: ProductDistribution, q: ProductDistribution) -> None:
        pv = np.array([x for m in p.marginals for x in m.probs], dtype=np.float64)
        qv = np.array([x for m in q.marginals for x in m.probs], dtype=np.float64)
        pos = pv > 0.0
        q_zero = qv == 0.0
        live = pos & ~q_zero
        with np.errstate(over="ignore"):
            rel = (qv - pv) / np.where(pos, pv, 1.0)
        far = live & ~((rel > -1.0) & (rel < np.inf))
        self.p = pv
        self.log_qp = np.log1p(np.where(live & ~far, rel, 0.0))
        self.log_qp[far] = np.log(qv[far]) - np.log(pv[far])
        self.log_r = np.minimum(self.log_qp, 0.0)
        self.q_zero = pos & q_zero
        self.log_r[self.q_zero] = -np.inf
        self.bounds = [0, *np.cumsum(p.domain_sizes).tolist()]
        self.q_zero_in = np.logical_or.reduceat(self.q_zero, self.bounds[:-1]).tolist()
        self.max_q = max(p.domain_sizes)


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
    # below the total, so only tiny totals can need the clamp. Their
    # cumulative sums are multiples of the subnormal spacing and exact, so
    # a row that grows marks a positive weight. Draws are indexed in the
    # flattened order of ``threshold``.
    if not total_low > _SMALLEST_NORMAL:
        over = np.flatnonzero(threshold >= np.broadcast_to(cum[-1], threshold.shape))
        if over.size:
            rows = np.broadcast_to(np.reshape(cum, (q, -1)), (q, threshold.size))
            grew = np.diff(rows[:, over], axis=0, prepend=0.0) > 0.0
            np.put(out, over, q - 1 - np.argmax(grew[::-1], axis=0))


class _Workspace:
    """Buffers for panels of up to ``width`` draws, allocated once per run.

    Rows of doubles, flags and category indices; :meth:`panel` views the
    leading entries of every row in a panel's shape, so a run touches fresh
    pages once rather than once per panel.
    """

    __slots__ = ("floats", "flags", "picks")

    def __init__(self, width: int, *, floats: int, flags: int, picks: int) -> None:
        self.floats = np.empty((floats, width))
        self.flags = np.empty((flags, width), dtype=bool)
        self.picks = np.empty((picks, width), dtype=np.intp)

    def panel(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(floats, flags, picks)``, each ``(rows, *shape)``, for one panel."""
        count = shape[0] * shape[1]
        return (
            self.floats[:, :count].reshape(-1, *shape),
            self.flags[:, :count].reshape(-1, *shape),
            self.picks[:, :count].reshape(-1, *shape),
        )


def _kernel_workspace(
    tables: _PairTables, stats: GreedyCouplingStats, width: int, *, want_assignments: bool
) -> _Workspace:
    """The buffers :func:`_sample_block` needs for panels of up to ``width`` draws."""
    picks = 1 + stats.n if want_assignments else 1
    return _Workspace(width, floats=5 + tables.max_q, flags=2, picks=picks)


def _step_weights(
    tables: _PairTables,
    k: int,
    log_a: np.ndarray,
    log_b: float,
    cum: np.ndarray,
    exponent: np.ndarray,
    shared: np.ndarray,
) -> None:
    """Cumulative conditional weights of coordinate ``k`` (0-based), per draw.

    Row ``c`` of ``cum`` receives ``w_k(0) + ... + w_k(c)``, with
    ``w_k(c) = P_k(c) * (1 - A_{k-1} * r_k(c) * B_k)`` accumulated in
    category order; ``log_a`` holds log A_{k-1} per draw (``-inf`` for a
    zero prefix) and ``log_b`` is log B_k (``-inf`` for a zero suffix).
    Categories with ``Q >= P`` (a ``min(P, Q)/P`` ratio of exactly 1) share
    one disagreement row, computed once into ``shared``; ``exponent`` is
    scratch space.
    """
    lo, hi = tables.bounds[k], tables.bounds[k + 1]
    # expm1(x) * -P equals P * -expm1(x) bit for bit
    have_shared = False
    categories = zip(tables.p[lo:hi].tolist(), tables.log_r[lo:hi].tolist())
    for c, (p_c, log_r) in enumerate(categories):
        row = cum[c]
        if log_r == 0.0:
            if not have_shared:
                np.add(log_a, log_b, out=shared)
                np.expm1(shared, out=shared)
                have_shared = True
            em = shared
        else:
            np.add(log_a, log_r, out=exponent)
            np.add(exponent, log_b, out=exponent)
            np.expm1(exponent, out=exponent)
            em = exponent
        np.multiply(em, -p_c, out=row)
        if c:
            np.add(cum[c - 1], row, out=row)


def _f_stage(
    log_a: np.ndarray,
    t_qp: np.ndarray,
    qp_any: np.ndarray,
    flag: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Per-draw estimate ``f`` from the log products of each draw's ratios.

    ``log_a`` holds log prod min(P, Q)/P (``-inf`` for a zero factor),
    ``t_qp`` log prod Q/P over the nonzero Q/P factors, and ``qp_any``
    whether a Q/P factor is 0. ``f = (1 - prod Q/P) / (1 - prod min(P, Q)/P)``
    where the numerator is positive, else 0, is written to ``out`` and
    returned; ``log_a``, ``t_qp``, ``qp_any`` and ``flag`` are overwritten.
    Raises :class:`ZeroDenominator` for an outcome with a positive numerator
    and no disagreement mass (one that is never drawn), and
    :class:`EstimatorOutOfRange` for a value above 1 by more than
    :data:`F_RANGE_TOL`; smaller excursions are clamped.
    """
    # in place: numer = 1 where a Q/P factor is 0, else 1 - prod Q/P, which
    # is -inf (so f = 0) where the Q/P product overflows
    with np.errstate(over="ignore"):
        numer = np.negative(np.expm1(t_qp, out=t_qp), out=t_qp)
    np.copyto(numer, 1.0, where=qp_any)
    denom = np.negative(np.expm1(log_a, out=log_a), out=log_a)
    live = np.greater(numer, 0.0, out=flag)
    if not np.all(np.greater(denom, 0.0, out=qp_any), where=live):
        raise ZeroDenominator("an outcome's disagreement mass is zero")
    out.fill(0.0)
    np.divide(numer, denom, out=out, where=live)
    excess = float(out.max(initial=0.0)) - 1.0
    if excess > F_RANGE_TOL:
        raise EstimatorOutOfRange(f"estimate exceeded 1 by {excess:g}")
    return np.clip(out, 0.0, 1.0, out=out)


def _sample_block(
    tables: _PairTables,
    stats: GreedyCouplingStats,
    steps: list[int],
    rows: Iterator[np.ndarray],
    shape: tuple[int, int],
    *,
    work: _Workspace,
    want_assignments: bool,
    want_f: bool,
    check_invariants: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Draw a panel of outcomes from the conditional disagreement law.

    ``shape`` is ``(blocks, size)``: the panel's blocks of ``size`` draws
    each, stepped side by side. Every operation acts on each draw alone, so
    a draw's result does not depend on the panel it is stepped in. Returns
    ``(assignments, f)`` where ``assignments`` is a 0-based ``(n, *shape)``
    selection array (one row per coordinate) and ``f`` the per-sample
    estimate values, each only when requested; both are views into
    ``work`` (see :func:`_kernel_workspace`) and are overwritten by the
    next call. ``steps`` lists the 0-based coordinates to step, ascending,
    and ``rows`` yields one ``shape`` array of uniforms for each, which the
    step overwrites. A step fills the cumulative weights
    (:func:`_step_weights`), one row per category, and selects; a binary
    coordinate costs two weight rows and one comparison. :func:`_f_stage`
    turns the accumulated log ratios into ``f``.

    Assignments and invariant checks need every coordinate stepped. When
    only ``f`` is requested, coordinates with ``d_k = 0`` may be left out:
    every ratio there is exactly 1 (log ``+0.0``), so neither ``f`` nor a
    later weight can change, and the step's total equals the disagreement
    factor the previous step chose, which is positive.
    """
    suffix = [
        -math.inf if zero else log
        for zero, log in zip(stats.suffix_zero, stats.suffix_log)
    ]
    floats, (flag, qp_any), picks = work.panel(shape)
    log_a, t_qp, exponent, shared, scratch = floats[:5]
    cum = floats[5:]
    chosen = picks[0]
    selections = picks[1:] if want_assignments else None
    log_a.fill(0.0)
    if want_f:
        t_qp.fill(0.0)
        qp_any.fill(False)

    for k, uniform in zip(steps, rows):
        lo, hi = tables.bounds[k], tables.bounds[k + 1]
        _step_weights(tables, k, log_a, suffix[k + 1], cum, exponent, shared)
        q_k = hi - lo
        total = cum[q_k - 1]
        total_low = float(total.min())
        if not total_low > 0.0:
            raise DegenerateConditional(
                f"step {k + 1}: conditional weights sum to a non-positive value"
            )
        if check_invariants:
            normalizer = -np.expm1(log_a + suffix[k])
            gap = float(np.abs(total - normalizer).max())
            if gap > WEIGHT_SUM_TOL or not np.all(normalizer > 0.0):
                raise DegenerateConditional(
                    f"step {k + 1}: weight sum deviates from its normalizer by {gap:g}"
                )

        threshold = np.multiply(uniform, total, out=uniform)
        picked = selections[k] if want_assignments else chosen
        _select(cum[:q_k], threshold, total_low, picked, flag)
        log_r_k = tables.log_r[lo:hi]
        np.add(log_a, log_r_k.take(picked, out=scratch, mode="clip"), out=log_a)
        if want_f:
            log_qp_k = tables.log_qp[lo:hi]
            np.add(t_qp, log_qp_k.take(picked, out=scratch, mode="clip"), out=t_qp)
            if tables.q_zero_in[k]:
                q_zero_k = tables.q_zero[lo:hi].take(picked, out=flag, mode="clip")
                np.logical_or(qp_any, q_zero_k, out=qp_any)

    f = _f_stage(log_a, t_qp, qp_any, flag, exponent) if want_f else None
    return selections, f


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

    Rows are draws; entries are 1-based categories, matching
    :class:`~tvdist.distributions.Assignment`. With ``check_invariants``
    every sampling step verifies that its weights sum to the analytic
    normalizer within :data:`WEIGHT_SUM_TOL`.
    """
    require_same_shape(p, q)
    check_seed(seed)
    if count < 1:
        raise InvalidParameter(f"count must be positive, got {count}")
    if stats.pr_diff == 0.0:
        raise IdenticalDistributions(
            "the distributions are identical; the conditional law is undefined"
        )
    tables = _PairTables(p, q)
    out = np.empty((count, p.n), dtype=np.int64)
    steps = list(range(p.n))
    panels = _panels(block_sizes(count))
    work = _kernel_workspace(tables, stats, _widest(panels), want_assignments=True)
    rows = _panel_rows(seed, panels, _stream_runs(steps, p.n), prefetch=False)
    offset = 0
    for _, blocks, size in panels:
        selections, _ = _sample_block(
            tables,
            stats,
            steps,
            rows,
            (blocks, size),
            work=work,
            want_assignments=True,
            want_f=False,
            check_invariants=check_invariants,
        )
        drawn = blocks * size
        np.add(selections.reshape(p.n, drawn).T, 1, out=out[offset : offset + drawn])
        offset += drawn
    return out
