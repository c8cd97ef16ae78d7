"""Recorded outcomes of ``build_stats``, ``validate`` and the kernel, pinned bit for bit.

``parity_pins.json`` holds, for each instance below, the hex of every
``d_i``, of ``pr_diff`` and of every suffix log (a sha256 prefix of them
for the seeded batches, in full for the named pairs), or the class,
coordinate and message of the error raised. For each ``validate`` input of
``test_validate_parity.py`` and of the seeded row generator here it holds
the stored floats' digest or the error's class, coordinate, category and
message. For the first :data:`KERNEL_PER_BATCH` instances of each seeded
batch (a sha256 prefix) and for the far-ratio pairs (in full) it holds a
digest of the selections of :func:`~tvdist.sample_pi_batch` and the hex of
``estimate_tv``'s ``estimate`` and ``mean_f`` and of ``naive_estimate_tv``'s
estimate, at the draw counts of :data:`KERNEL_DRAWS`. A change to any of
these functions that moves one bit or one word of a message fails here.
After an intended change, rewrite the pins with
``PYTHONPATH=src python tests/test_stats_parity.py`` and say why.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

import tvdist as tv

from conftest import FAR_RATIO_PAIRS, random_instances, rows
from test_validate_parity import HAND_CASES, _boundary_rows

PINS = Path(__file__).with_name("parity_pins.json")

#: (seed, count, max_n, max_q) of the seeded batches: those the test suites
#: draw, and one of wider instances.
BATCHES = [
    (919, 25, 6, 4),
    (1101, 100, 6, 4),
    (2202, 20, 6, 4),
    (3303, 100, 6, 4),
    (20260810, 100, 6, 4),
    (4404, 30, 60, 12),
]

#: Draws of the kernel pins: for the sampler a panel of four full blocks and
#: a short one; for the estimators panels of four and of one full block and
#: a short one.
KERNEL_DRAWS = (4 * 4096 + 7, 5 * 4096 + 1)

#: Leading instances of each seeded batch whose kernel results are pinned.
KERNEL_PER_BATCH = 50

#: name -> (P rows, Q rows): pairs that differ by normalization slack.
SLACK_PAIRS = {
    "slack_dominates_tiny_d": (
        [[0.5, 0.5]] * 3,
        [[0.5 + 1e-12, 0.5 - 1e-12 - 5e-10]] * 3,
    ),
    "slack_only_second": ([[0.5, 0.5], [1.0]], [[0.4, 0.6], [1.0 + 5e-11]]),
    "slack_only_third": (
        [[0.5, 0.5], [0.25, 0.25, 0.5], [0.7, 0.3], [0.5, 0.5]],
        [[0.5, 0.5], [0.2, 0.3, 0.5], [0.7 + 5e-10, 0.3], [0.5, 0.5]],
    ),
    "slack_beside_zero": ([[0.5, 0.5, 0.0]], [[0.5, 0.5 - 1e-10, 1e-10]]),
    "slack_both_sides": ([[0.5, 0.5 + 5e-10]], [[0.5 - 5e-10, 0.5]]),
    "identical_with_slack": ([[0.5, 0.5 + 5e-10]], [[0.5, 0.5 + 5e-10]]),
    "negative_zero": ([[-0.0, 1.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]),
}


def generated_rows(seed: int, count: int) -> list[list]:
    """``count`` seeded inputs to ``validate``: near-normalised rows with
    entries shifted, replaced by odd values or retyped, and empty rows."""
    rng = random.Random(seed)
    odd = [0, 1, 2, -0.0, -1e-300, math.nan, math.inf, -math.inf, 1e308, 5e-324, -0.5]
    inputs = []
    for _ in range(count):
        p_raw = []
        for _ in range(rng.randrange(1, 6)):
            size = rng.randrange(5) if rng.random() < 0.1 else rng.randrange(1, 9)
            weights = [rng.choice([0, 0, 1, 2, 3, 7, rng.random()]) for _ in range(size)]
            total = sum(weights) or 1.0
            row = [w / total for w in weights]
            if row and rng.random() < 0.3:
                c = rng.randrange(size)
                row[c] += rng.choice([1e-12, 5e-10, 1e-9, 2e-9, 1e-6, 0.1]) * rng.choice([1, -1])
            if row and rng.random() < 0.15:
                row[rng.randrange(size)] = rng.choice(odd)
            if row and rng.random() < 0.1:
                c = rng.randrange(size)
                row[c] = rng.choice([str(row[c]), True, False, None, [row[c]], int(row[c] > 0.5)])
            if rng.random() < 0.03:
                row = rng.choice([5, None, 0.5])
            p_raw.append(row)
        inputs.append(p_raw)
    return inputs


def validate_inputs() -> dict[str, list]:
    inputs = {f"hand:{name}": raw for name, raw in HAND_CASES.items()}
    for k, row in enumerate(_boundary_rows()):
        inputs[f"edge{k}:after"] = [[0.25, 0.75], row]
        inputs[f"edge{k}:before"] = [row, [1.0]]
    for k, raw in enumerate(generated_rows(1515, 300)):
        inputs[f"gen{k}"] = raw
    return inputs


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _error(exc: Exception) -> dict:
    return {
        "error": type(exc).__name__,
        "coordinate": getattr(exc, "coordinate", None),
        "category": getattr(exc, "category", None),
        "message": str(exc),
    }


def validate_outcome(raw) -> dict:
    try:
        dist = tv.validate(raw)
    except tv.ValidationError as exc:
        return _error(exc)
    return {"stored": _digest([x.hex() for row in rows(dist) for x in row])}


def stats_hex(p_rows, q_rows) -> dict:
    try:
        stats = tv.build_stats(tv.validate(p_rows), tv.validate(q_rows))
    except tv.ValidationError as exc:
        return _error(exc)
    return {
        "d": [x.hex() for x in stats.d],
        "pr_diff": stats.pr_diff.hex(),
        "suffix_log": [x.hex() for x in stats.suffix_log],
    }


def kernel_hex(p, q, seed: int) -> dict:
    """Selections digest and estimate hex of the kernel on ``(p, q)`` at ``seed``."""
    sampled, estimated = KERNEL_DRAWS
    selections = tv.sample_pi_batch(p, q, tv.build_stats(p, q), seed, sampled)
    config = tv.EstimatorConfig(0.1, 0.1, seed, samples_override=estimated)
    result = tv.estimate_tv(p, q, config)
    return {
        "selections": hashlib.sha256(selections.tobytes()).hexdigest()[:16],
        "estimate": [result.estimate.hex(), result.mean_f.hex()],
        "naive": tv.naive_estimate_tv(p, q, estimated, seed).estimate.hex(),
    }


def record() -> dict:
    batches, kernels = {}, {}
    for seed, count, max_n, max_q in BATCHES:
        instances = random_instances(seed, count, max_n, max_q)
        digests = [_digest(stats_hex(rows(p), rows(q))) for p, q in instances]
        batches[f"{seed}x{count}/{max_n}/{max_q}"] = digests
        pinned = enumerate(instances[:KERNEL_PER_BATCH])
        kernels[f"{seed}x{count}/{max_n}/{max_q}"] = [
            _digest(kernel_hex(p, q, k)) for k, (p, q) in pinned
        ]
    pairs = {**FAR_RATIO_PAIRS, **SLACK_PAIRS}
    return {
        "stats_batches": batches,
        "stats_pairs": {name: stats_hex(*pair) for name, pair in sorted(pairs.items())},
        "validate": {name: validate_outcome(raw) for name, raw in validate_inputs().items()},
        "kernel_batches": kernels,
        "kernel_pairs": {
            name: kernel_hex(tv.validate(p_rows), tv.validate(q_rows), 0)
            for name, (p_rows, q_rows) in sorted(FAR_RATIO_PAIRS.items())
        },
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("seed, count, max_n, max_q", BATCHES)
def test_build_stats_bits_on_seeded_batches(pins, seed, count, max_n, max_q):
    expected = pins["stats_batches"][f"{seed}x{count}/{max_n}/{max_q}"]
    for k, (p, q) in enumerate(random_instances(seed, count, max_n, max_q)):
        found = stats_hex(rows(p), rows(q))
        assert _digest(found) == expected[k], (k, found)


@pytest.mark.parametrize("name", sorted({**FAR_RATIO_PAIRS, **SLACK_PAIRS}))
def test_build_stats_bits_on_named_pairs(pins, name):
    pair = FAR_RATIO_PAIRS.get(name) or SLACK_PAIRS[name]
    assert stats_hex(*pair) == pins["stats_pairs"][name]


@pytest.mark.parametrize("seed, count, max_n, max_q", BATCHES)
def test_kernel_bits_on_seeded_batches(pins, seed, count, max_n, max_q):
    expected = pins["kernel_batches"][f"{seed}x{count}/{max_n}/{max_q}"]
    instances = random_instances(seed, count, max_n, max_q)[:KERNEL_PER_BATCH]
    for k, (p, q) in enumerate(instances):
        found = kernel_hex(p, q, k)
        assert _digest(found) == expected[k], (k, found)


@pytest.mark.parametrize("name", sorted(FAR_RATIO_PAIRS))
def test_kernel_bits_on_far_ratio_pairs(pins, name):
    p_rows, q_rows = FAR_RATIO_PAIRS[name]
    found = kernel_hex(tv.validate(p_rows), tv.validate(q_rows), 0)
    assert found == pins["kernel_pairs"][name]


def test_validate_outcomes(pins):
    inputs = validate_inputs()
    assert inputs.keys() == pins["validate"].keys()
    for name, raw in inputs.items():
        assert validate_outcome(raw) == pins["validate"][name], name


if __name__ == "__main__":
    PINS.write_text(json.dumps(record(), indent=1) + "\n")
