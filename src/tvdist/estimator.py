"""Monte Carlo estimation of the total variation distance between products.

The estimator draws outcomes from the greedy coupling's conditional
disagreement law and averages, per outcome ``omega``,

    f(omega) = max{0, (1 - prod_i Q_i(w_i)/P_i(w_i))
                      / (1 - prod_i min(P_i, Q_i)(w_i)/P_i(w_i))},

which lies in [0, 1] and has mean tv(P, Q) / pr_diff, so the final report
is ``mean(f) * pr_diff``. Both products are evaluated as log sums with
zero flags (see :mod:`tvdist.coupling`); the sample mean is accumulated
with error-free summation per block and across blocks, so results are
bit-identical for a fixed configuration regardless of worker count.

A direct baseline, :func:`naive_estimate_tv`, averages
``max{0, 1 - Q(omega)/P(omega)}`` over draws from P. It is unbiased but
its relative error degrades as the distance shrinks, which is the regime
the conditional sampler is built for.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .coupling import (
    _f_stage,
    _kernel_workspace,
    _PairTables,
    _panel_rows,
    _panels,
    _sample_block,
    _select,
    _stream_runs,
    _widest,
    _Workspace,
    block_sizes,
    build_stats,
    check_seed,
)
from .distributions import (
    ProductDistribution,
    check_assignment,
    coordinate_tv,
    require_same_shape,
)
from .errors import InvalidParameter, ZeroDenominator

@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy targets and reproducibility knobs for :func:`estimate_tv`.

    ``samples_override`` replaces the derived sample count when set.
    With ``workers >= 2`` the calling thread runs the sampling arithmetic
    while one other thread fills its uniforms ahead of it; more than 2 adds
    nothing while that arithmetic is bound by the interpreter lock. The
    worker count never changes the result.
    """

    epsilon: float
    delta: float
    seed: int
    samples_override: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameter(f"epsilon must be positive, got {self.epsilon!r}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParameter(f"delta must be in (0, 1), got {self.delta!r}")
        check_seed(self.seed)
        if self.samples_override is not None and (
            not isinstance(self.samples_override, int) or self.samples_override < 1
        ):
            raise InvalidParameter(
                f"samples_override must be a positive int, got {self.samples_override!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise InvalidParameter(f"workers must be an int >= 1, got {self.workers!r}")


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


def sample_count(n: int, epsilon: float, delta: float) -> int:
    """Number of draws needed for a (1 +- epsilon) answer with confidence 1 - delta.

    Evaluates ``ceil((n^2 / epsilon^2) * ln(1/delta')) + 1`` with natural
    log and ``delta' = min(delta, 1/2)``; the clamp keeps the concentration
    argument valid for large delta at the cost of extra samples.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidParameter(f"epsilon must be positive, got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must be in (0, 1), got {delta!r}")
    target = min(delta, 0.5)
    return math.ceil((n * n) / (epsilon * epsilon) * math.log(1.0 / target)) + 1


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
    tables = _PairTables(p, q)
    # flat table index of each outcome's category, one row per coordinate
    picked = (values - 1 + np.array(tables.bounds[:-1])).T
    outside = tables.p[picked] == 0.0
    if outside.any():
        i = int(np.argmax(outside.any(axis=1))) + 1
        raise ZeroDenominator(f"coordinate {i}: outcome lies outside the support of P")
    m = len(values)
    log_a, t_qp, qp_any = np.zeros(m), np.zeros(m), np.zeros(m, dtype=bool)
    for row in picked:
        np.add(log_a, tables.log_r[row], out=log_a)
        np.add(t_qp, tables.log_qp[row], out=t_qp)
        np.logical_or(qp_any, tables.q_zero[row], out=qp_any)
    return _f_stage(log_a, t_qp, qp_any, np.empty(m, dtype=bool), np.empty(m))


def estimate_tv(
    p: ProductDistribution, q: ProductDistribution, config: EstimatorConfig
) -> EstimateResult:
    """Estimate tv(P, Q) to relative error epsilon with confidence 1 - delta.

    Identical inputs short-circuit to an exact 0 with no sampling.
    Otherwise ``m`` draws (derived via :func:`sample_count` unless
    overridden) are processed in fixed blocks; block ``b`` uses the RNG
    stream derived from ``(seed, b)`` and contributes an error-free partial
    sum, merged in block order. The result is therefore reproducible and
    independent of ``workers``, which only decides whether the uniforms are
    filled ahead on a second thread.
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
    m = (
        config.samples_override
        if config.samples_override is not None
        else sample_count(p.n, config.epsilon, config.delta)
    )
    tables = _PairTables(p, q)
    panels = _panels(block_sizes(m))
    work = _kernel_workspace(tables, stats, _widest(panels), want_assignments=False)
    # d_k = 0 coordinates cannot change f (see _sample_block)
    steps = [k for k, d in enumerate(stats.d) if d != 0.0]
    runs = _stream_runs(steps, p.n)
    partials = []
    prefetch = config.workers > 1
    with closing(_panel_rows(config.seed, panels, runs, prefetch=prefetch)) as rows:
        for _, blocks, size in panels:
            _, f = _sample_block(
                tables,
                stats,
                steps,
                rows,
                (blocks, size),
                work=work,
                want_assignments=False,
                want_f=True,
                check_invariants=False,
            )
            # one error-free sum per block, in block order
            partials.extend(math.fsum(memoryview(block)) for block in f)
    mean_f = math.fsum(partials) / m
    estimate = mean_f * stats.pr_diff
    return EstimateResult(
        estimate=estimate,
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
    Uses the same block/stream layout as :func:`estimate_tv` and reports
    the mean with a scale factor of 1 (``pr_diff`` field set to 1.0).
    """
    start = time.perf_counter()
    require_same_shape(p, q)
    check_seed(seed)
    if samples < 1:
        raise InvalidParameter(f"samples must be positive, got {samples}")
    d = tuple(coordinate_tv(pm, qm) for pm, qm in zip(p.marginals, q.marginals))
    tables = _PairTables(p, q)
    bounds = list(zip(tables.bounds, tables.bounds[1:]))
    # a coordinate whose Q/P ratios are all exactly 1 cannot change g
    steps = [
        k
        for k, (lo, hi) in enumerate(bounds)
        if tables.q_zero_in[k] or tables.log_qp[lo:hi].any()
    ]
    cums = [np.cumsum(tables.p[lo:hi]) for lo, hi in bounds]
    panels = _panels(block_sizes(samples))
    work = _Workspace(_widest(panels), floats=1, flags=2, picks=1)
    rows = _panel_rows(seed, panels, _stream_runs(steps, p.n), prefetch=False)
    partials = []
    for _, blocks, size in panels:
        (log_qp,), (q_zero, flag), (chosen,) = work.panel((blocks, size))
        log_qp.fill(0.0)
        q_zero.fill(False)
        for k, uniform in zip(steps, rows):
            (lo, hi), cum = bounds[k], cums[k]
            threshold = np.multiply(uniform, cum[-1], out=uniform)
            _select(cum, threshold, cum[-1], chosen, flag)
            q_zero |= tables.q_zero[lo:hi][chosen]
            log_qp += tables.log_qp[lo:hi][chosen]
        with np.errstate(over="ignore"):
            g = np.where(q_zero, 1.0, np.maximum(-np.expm1(log_qp), 0.0))
        partials.extend(math.fsum(memoryview(block)) for block in g)
    mean_g = math.fsum(partials) / samples
    return EstimateResult(
        estimate=mean_g,
        mean_f=mean_g,
        samples_used=samples,
        pr_diff=1.0,
        per_coordinate_tv=d,
        elapsed_seconds=time.perf_counter() - start,
    )
