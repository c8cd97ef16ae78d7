"""Tests of the benchmark itself, at reduced sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SHOWN_END_TO_END = (
    "setup_s", "solve_s", "solve_calls", "ns_per_coord_sample",
    "draws", "peak_rss_mb", "error_rate",
)  # fmt: skip


def smoke(name: str, trace: bool) -> run.Outcome:
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, sizes=workloads.SMOKE)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric_with_its_unit(name: str, trace: bool) -> None:
    outcome = smoke(name, trace)
    assert outcome.failures == []
    assert outcome.result["correct"] and outcome.result["failed"] == 0
    assert outcome.result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(outcome.result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = outcome.result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and reported["value"] > 0
    if not trace:
        assert set(SHOWN_END_TO_END) <= set(outcome.shown)
        assert ("naive_s" in outcome.shown) == (name == "mixed-sparse")


def test_guarantee_uses_the_paper_draw_count() -> None:
    assert workloads.paper_draws(30, 0.1, 0.05) == 269617
    n, eps = workloads.SMOKE.guarantee_n, workloads.SMOKE.guarantee_epsilon
    outcome = smoke("guarantee", trace=False)
    assert outcome.result["metrics"]["draws"]["value"] == workloads.paper_draws(n, eps, 0.05)


def test_binomial_closed_form_matches_enumeration() -> None:
    p, q = run.tvdist.validate([[0.3, 0.7]] * 5), run.tvdist.validate([[0.35, 0.65]] * 5)
    assert workloads.binomial_tv(5, [0.3, 0.7], [0.35, 0.65]) == pytest.approx(
        run.tvdist.exact_tv(p, q), rel=1e-14
    )


def test_inputs_depend_on_the_seed_alone() -> None:
    a = workloads.mixed_instance(40, workloads.input_rng(7, "mixed-sparse"))
    b = workloads.mixed_instance(40, workloads.input_rng(7, "mixed-sparse"))
    c = workloads.mixed_instance(40, workloads.input_rng(8, "mixed-sparse"))
    assert a == b and a.p != c.p
    assert sorted(map(len, a.p)) == sorted(map(len, c.p))


def error_rate(outcome: run.Outcome) -> float:
    return outcome.shown["error_rate"][0]


def test_corrupted_closed_form_counts_as_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "binomial_tv", lambda n, p, q: 0.5)
    outcome = smoke("guarantee", trace=False)
    assert error_rate(outcome) > 0 and not outcome.result["correct"]


def test_corrupted_oracle_reference_counts_as_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(run.tvdist, "exact_tv", lambda p, q: 0.999)
    outcome = smoke("mixed-sparse", trace=False)
    assert error_rate(outcome) > 0 and not outcome.result["correct"]


@pytest.mark.parametrize("name", ["guarantee", "wide-binary", "cli-wide"])
def test_worker_mismatch_counts_as_failure(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    real = run.tvdist.estimate_tv

    def skewed(p, q, config):
        result = real(p, q, config)
        if config.workers == 2:
            result = dataclasses.replace(result, mean_f=np.nextafter(result.mean_f, 2.0))
        return result

    monkeypatch.setattr(run.tvdist, "estimate_tv", skewed)
    outcome = smoke(name, trace=False)
    assert error_rate(outcome) > 0
    assert any("worker counts disagree" in failure for failure in outcome.failures)
