"""Monte Carlo estimation of the total variation distance between products.

The estimator draws outcomes from the greedy coupling's conditional
disagreement law and averages, per outcome ``omega``,

    f(omega) = max{0, (1 - prod_i Q_i(w_i)/P_i(w_i))
                      / (1 - prod_i min(P_i, Q_i)(w_i)/P_i(w_i))},

which lies in [0, 1] and has mean tv(P, Q) / pr_diff, so the final report
is ``mean(f) * pr_diff`` (``pr_diff`` and the draw count come from
:mod:`tvdist.distributions`). Both products are evaluated as log sums, a
zero factor being a log of ``-inf`` (see :mod:`tvdist.coupling`); the
sample mean is accumulated with error-free summation per block and across
blocks, so results are bit-identical for a fixed configuration regardless
of worker count.

A direct baseline, :func:`naive_estimate_tv`, averages
``max{0, 1 - Q(omega)/P(omega)}`` over draws from P: ``f`` with a
denominator of 1, from the same f stage. It is unbiased but its relative
error degrades as the distance shrinks, which is the regime the
conditional sampler is built for.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .coupling import _draw_panels, _f_stage, _PairTables, _sample_panels, _select
from .distributions import (
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
from .errors import DomainMismatch, IndexOutOfRange, ZeroDenominator

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


def _block_mean(panels: Iterable[np.ndarray], count: int) -> float:
    """Mean of ``count`` values given as ``(blocks, size)`` panels.

    The one merge of both estimators: one error-free sum per block, then
    one over the block sums in block order, so the result never depends on
    how blocks were grouped into panels.
    """
    sums = (math.fsum(memoryview(block)) for panel in panels for block in panel)
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

    Rows hold 1-based categories, as :func:`~tvdist.coupling.sample_pi_batch`
    returns them; the result is an ``(m,)`` array in [0, 1]. The ratios are
    gathered from the sampling kernel's tables in coordinate order and
    passed through its f stage, so each value has the bits the kernel gives
    the same outcome in :func:`estimate_tv`.

    Raises:
        DomainMismatch, IndexOutOfRange: the array does not fit ``p``.
        ZeroDenominator: an outcome lies outside the support of P, or has no
            disagreement mass under the coupling (so it is never drawn).
        EstimatorOutOfRange: a value left [0, 1] by more than the rounding
            guard, which indicates a bug.
    """
    require_same_shape(p, q)
    values = check_assignment(p, assignments)
    tables = _PairTables(p, q, list(range(p.n)))
    # flat table index of each outcome's category, one row per coordinate
    picked = (values - 1 + tables.bounds[:-1]).T
    outside = tables.p[picked] == 0.0
    if outside.any():
        i = int(np.argmax(outside.any(axis=1))) + 1
        raise ZeroDenominator(f"coordinate {i}: outcome lies outside the support of P")
    m = len(values)
    log_a, t_qp = np.zeros(m), np.zeros(m)
    for row in picked:
        np.add(log_a, np.minimum(tables.log_qp[row], 0.0), out=log_a)
        np.add(t_qp, tables.log_qp[row], out=t_qp)
    return _f_stage(log_a, t_qp, *np.empty((2, m), dtype=bool), np.empty(m))


def estimate_tv(
    p: ProductDistribution, q: ProductDistribution, config: EstimatorConfig
) -> EstimateResult:
    """Estimate tv(P, Q) to relative error epsilon with confidence 1 - delta.

    Identical inputs short-circuit to an exact 0 with no sampling.
    Otherwise the kernel (:func:`~tvdist.coupling._sample_panels`) draws
    ``m`` outcomes (derived via :func:`sample_count` unless overridden) in
    fixed blocks; block ``b`` uses the RNG stream derived from ``(seed, b)``
    and contributes an error-free partial sum, merged in block order by
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
    tables = _PairTables(p, q, steps)
    prefetch = config.workers > 1
    f_panels = _sample_panels(
        tables, stats, steps, config.seed, m, want_assignments=False, prefetch=prefetch
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
    (``d_i != 0``) of :func:`estimate_tv`, and reports the mean with a
    scale factor of 1 (``pr_diff`` field set to 1.0).
    """
    start = time.perf_counter()
    d = coordinate_tvs(p, q)
    check_seed(seed)
    samples = check_count("samples", samples)
    steps = [k for k, d_k in enumerate(d) if d_k != 0.0]
    tables = _PairTables(p, q, steps)
    bounds = list(zip(tables.bounds, tables.bounds[1:]))
    cums = {k: np.cumsum(tables.p[slice(*bounds[k])]) for k in steps}

    def g_panels() -> Iterator[np.ndarray]:
        for rows, (log_a, log_qp, g), (flag, spare), (chosen,) in _draw_panels(
            seed, samples, steps, p.n, floats=3, flags=2, picks=1
        ):
            log_a.fill(-np.inf)
            log_qp.fill(0.0)
            for k, uniform in zip(steps, rows):
                (lo, hi), cum = bounds[k], cums[k]
                threshold = np.multiply(uniform, cum[-1], out=uniform)
                _select(cum, threshold, cum[-1], chosen, flag)
                log_qp += tables.log_qp[lo:hi][chosen]
            yield _f_stage(log_a, log_qp, flag, spare, g)

    mean_g = _block_mean(g_panels(), samples)
    return EstimateResult(
        estimate=mean_g,
        mean_f=mean_g,
        samples_used=samples,
        pr_diff=1.0,
        per_coordinate_tv=d,
        elapsed_seconds=time.perf_counter() - start,
    )
