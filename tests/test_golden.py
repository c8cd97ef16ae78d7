"""Golden bit pins: fixed seeds must keep producing exactly these results.

Any change to the sampling kernel, the selection rule, the block layout or
the merge order that alters a single bit of an estimate fails here. The
instances are built from plain float arithmetic so their bits do not depend
on any random generator other than the one under test. Floats are pinned by
``float.hex``; selection matrices by the sha256 of their int64 bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import tvdist as tv

from conftest import FAR_RATIO_PAIRS

SAMPLES = 9000  # two full blocks and a short one
#: Short blocks of 1, 2 and 3 draws mod 4: skipping a d_i = 0 coordinate
#: then starts and ends inside one 4-output Philox counter step.
UNALIGNED_SAMPLES = (4096 + 1001, 4096 + 1002, 4096 + 1003)
NAIVE_SAMPLES = 5000
BATCH = 5000
#: 5 full blocks and a 1-draw block: one panel of 4 blocks, one of 1 and a
#: short one, so consecutive blocks are stepped side by side and apart.
PANEL_SAMPLES = 5 * 4096 + 1
#: 4 full blocks and a 7-draw block: one full panel and a short one.
PANEL_BATCH = 4 * 4096 + 7


def _normalise(weights: list[float]) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


def wide_binary() -> tuple[list[list[float]], list[list[float]]]:
    """300 binary coordinates; the side where Q < P alternates."""
    p_rows, q_rows = [], []
    for i in range(300):
        a = 0.2 + 0.6 * ((i * 37) % 101) / 101
        b = a + (0.02 if i % 2 else -0.015)
        p_rows.append([a, 1.0 - a])
        q_rows.append([b, 1.0 - b])
    return p_rows, q_rows


def mixed_domains(disjoint: bool = True) -> tuple[list[list[float]], list[list[float]]]:
    """Domains 2..16 with zeros (shared, Q-only, P-only), 1e-12 distances
    and one disjoint coordinate (d_i = 1) in the middle.

    A disjoint coordinate makes tv exactly 1 and every per-sample value 1,
    so without it (``disjoint=False``) the same domains also pin the bits
    of the f path and of the naive baseline.
    """
    p_rows, q_rows = [], []
    for i in range(45):
        size = 2 + i % 15
        w = [1.0 + ((i * 7 + c * 13) % 17) for c in range(size)]
        if size >= 3 and i % 4 == 1:
            w[(i * 5) % size] = 0.0
        p_row = _normalise(w)
        kind = i % 5
        if disjoint and i == 22:
            p_row, q_row = [1.0, 0.0], [0.0, 1.0]
        elif kind == 0:
            v = [x * (1.0 + 0.1 * ((c * 3 + i) % 5 - 2)) for c, x in enumerate(w)]
            if i == 5:
                v[0] = 0.0  # zero in Q only
            if i == 10:
                w[1] = 0.0  # zero in P only
                p_row = _normalise(w)
            q_row = _normalise(v)
        elif kind == 1:
            support = [c for c, x in enumerate(p_row) if x > 0.0]
            q_row = list(p_row)
            q_row[support[0]] += 1e-12
            q_row[support[-1]] -= 1e-12
        else:
            q_row = list(p_row)
        p_rows.append(p_row)
        q_rows.append(q_row)
    return p_rows, q_rows


def interleaved_identical() -> tuple[list[list[float]], list[list[float]]]:
    """Identical coordinates (first and last included, some with a shared
    zero) interleaved between differing ones."""
    p_rows, q_rows = [], []
    for i in range(30):
        if i % 3 == 1:
            a = 0.3 + 0.01 * i
            p_rows.append([a, 0.5 - a / 2, 0.5 - a / 2])
            q_rows.append([a - 0.05, 0.5 - a / 2 + 0.05, 0.5 - a / 2])
        elif i % 3 == 2:
            p_rows.append([0.25, 0.0, 0.75])
            q_rows.append([0.25, 0.0, 0.75])
        else:
            p_rows.append([0.6, 0.4])
            q_rows.append([0.6, 0.4])
    return p_rows, q_rows


INSTANCES = {
    "wide_binary": wide_binary,
    "mixed_domains": mixed_domains,
    "mixed_domains_no_disjoint": lambda: mixed_domains(disjoint=False),
    "interleaved_identical": interleaved_identical,
}

#: name -> (seed, estimate.hex(), mean_f.hex())
ESTIMATE_PINS = {
    "wide_binary": (11, "0x1.0b42d1cf1ac3dp-2", "0x1.0c9aee94f07fbp-2"),
    "mixed_domains": (12, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "mixed_domains_no_disjoint": (14, "0x1.02c976144819fp-2", "0x1.08cd0b44dcd12p-1"),
    "interleaved_identical": (13, "0x1.3907ce59ac92cp-3", "0x1.860e73b443f9ep-2"),
}

#: (name, samples) -> (seed, estimate.hex(), mean_f.hex()) at unaligned counts
UNALIGNED_PINS = {
    ("interleaved_identical", 5097): (41, "0x1.338b01f2b063ap-3", "0x1.7f37fb35b7e8bp-2"),
    ("interleaved_identical", 5098): (41, "0x1.35b9aa49ed1f7p-3", "0x1.81f01aeafaf6ep-2"),
    ("interleaved_identical", 5099): (41, "0x1.35121c66ee742p-3", "0x1.811f5254e06a1p-2"),
    ("mixed_domains_no_disjoint", 5097): (42, "0x1.02757b6565303p-2", "0x1.08771cf9653d8p-1"),
    ("mixed_domains_no_disjoint", 5098): (42, "0x1.01ce3f67ebe16p-2", "0x1.07cbfe119af9cp-1"),
    ("mixed_domains_no_disjoint", 5099): (42, "0x1.01971a67dfa6cp-2", "0x1.079391004bdaep-1"),
}

#: name -> (seed, estimate.hex(), mean_f.hex()) at PANEL_SAMPLES draws
PANEL_PINS = {
    "wide_binary": (51, "0x1.0716e8397fbd7p-2", "0x1.0869a6013d12dp-2"),
    "mixed_domains_no_disjoint": (52, "0x1.01a810c7f727dp-2", "0x1.07a4ec4a2bfbbp-1"),
}

#: (name, seed, naive estimate.hex()) at PANEL_SAMPLES draws
PANEL_NAIVE_PIN = ("interleaved_identical", 53, "0x1.39421866e3adep-3")

#: (name, seed, sha256 of the int64 selection bytes) at PANEL_BATCH draws
PANEL_BATCH_PIN = (
    "mixed_domains",
    54,
    "608b4b1410af3c598084c402707650f3ab7df6eb2f5563b8d77020d9ab2c699f",
)

#: name -> (seed, naive estimate.hex())
NAIVE_PINS = {
    "wide_binary": (21, "0x1.0c2e3fa0ecba2p-2"),
    "mixed_domains": (22, "0x1.0000000000000p+0"),
    "mixed_domains_no_disjoint": (24, "0x1.f99aa01e5d2c1p-3"),
    "interleaved_identical": (23, "0x1.3cc71f64bdc3dp-3"),
}

#: (name, samples, seed, naive estimate.hex()) at an unaligned count
UNALIGNED_NAIVE_PIN = ("interleaved_identical", 5099, 43, "0x1.3d9ae1fe11f32p-3")

#: FAR_RATIO_PAIRS name -> (seed, estimate.hex(), mean_f.hex(), naive seed,
#: naive estimate.hex()) at SAMPLES and NAIVE_SAMPLES draws
FAR_RATIO_PINS = {
    "tiny_q_ratio": (
        61, "0x1.01d3df575aa17p-1", "0x1.d5d867c3ece2ap-1", 71, "0x1.fe28240b78034p-2"
    ),
    "subnormal_p": (
        62, "0x1.001789439aa46p-1", "0x1.d2aeae54b581fp-1", 72, "0x1.ffee0e3d0cc69p-2"
    ),
}

#: name -> (seed, sha256 of the int64 selection bytes)
BATCH_PINS = {
    "wide_binary": (
        31,
        "b9b09ec4c0aef8ccdb776beba5af6b77adab6a3229f73537563ab1da8e924ba4",
    ),
    "mixed_domains": (
        32,
        "9164f3f601af285e0698bc79a69fd9f576904055b02976b88df2d7b57d656332",
    ),
    "mixed_domains_no_disjoint": (
        34,
        "01f6e7c64514953daac659cca4173f0e6f70d8e5146cc70974c593eecc21fa4e",
    ),
    "interleaved_identical": (
        33,
        "47779dd7440a36f5144cda66a48389d0bdcfc5e7414e8fa6b8de072b2e0d5c86",
    ),
}


def _pair(name: str) -> tuple[tv.ProductDistribution, tv.ProductDistribution]:
    p_rows, q_rows = INSTANCES[name]()
    return tv.validate(p_rows), tv.validate(q_rows)


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_bits_are_pinned(name, workers):
    p, q = _pair(name)
    seed, estimate_hex, mean_hex = ESTIMATE_PINS[name]
    config = tv.EstimatorConfig(
        epsilon=0.1, delta=0.05, seed=seed, samples_override=SAMPLES, workers=workers
    )
    result = tv.estimate_tv(p, q, config)
    assert result.estimate.hex() == estimate_hex
    assert result.mean_f.hex() == mean_hex


@pytest.mark.parametrize("name,samples", sorted(UNALIGNED_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_unaligned_estimate_bits_are_pinned(name, samples, workers):
    assert samples in UNALIGNED_SAMPLES
    p, q = _pair(name)
    seed, estimate_hex, mean_hex = UNALIGNED_PINS[name, samples]
    config = tv.EstimatorConfig(
        epsilon=0.1, delta=0.05, seed=seed, samples_override=samples, workers=workers
    )
    result = tv.estimate_tv(p, q, config)
    assert result.estimate.hex() == estimate_hex
    assert result.mean_f.hex() == mean_hex


def test_unaligned_naive_bits_are_pinned():
    name, samples, seed, estimate_hex = UNALIGNED_NAIVE_PIN
    p, q = _pair(name)
    assert tv.naive_estimate_tv(p, q, samples, seed).estimate.hex() == estimate_hex


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_naive_bits_are_pinned(name):
    p, q = _pair(name)
    seed, estimate_hex = NAIVE_PINS[name]
    result = tv.naive_estimate_tv(p, q, NAIVE_SAMPLES, seed)
    assert result.estimate.hex() == estimate_hex


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_checked_selections_are_pinned(name):
    p, q = _pair(name)
    seed, digest = BATCH_PINS[name]
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, seed, BATCH, check_invariants=True)
    assert draws.shape == (BATCH, p.n)
    raw = np.ascontiguousarray(draws, dtype=np.int64).tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PANEL_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_panel_estimate_bits_are_pinned(name, workers):
    p, q = _pair(name)
    seed, estimate_hex, mean_hex = PANEL_PINS[name]
    config = tv.EstimatorConfig(
        epsilon=0.1, delta=0.05, seed=seed, samples_override=PANEL_SAMPLES, workers=workers
    )
    result = tv.estimate_tv(p, q, config)
    assert result.estimate.hex() == estimate_hex
    assert result.mean_f.hex() == mean_hex


def test_panel_naive_bits_are_pinned():
    name, seed, estimate_hex = PANEL_NAIVE_PIN
    p, q = _pair(name)
    result = tv.naive_estimate_tv(p, q, PANEL_SAMPLES, seed)
    assert result.estimate.hex() == estimate_hex


def test_panel_checked_selections_are_pinned():
    name, seed, digest = PANEL_BATCH_PIN
    p, q = _pair(name)
    stats = tv.build_stats(p, q)
    draws = tv.sample_pi_batch(p, q, stats, seed, PANEL_BATCH, check_invariants=True)
    assert draws.shape == (PANEL_BATCH, p.n)
    raw = np.ascontiguousarray(draws, dtype=np.int64).tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(FAR_RATIO_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_far_ratio_bits_are_pinned(name, workers):
    p_rows, q_rows = FAR_RATIO_PAIRS[name]
    p, q = tv.validate(p_rows), tv.validate(q_rows)
    seed, estimate_hex, mean_hex, naive_seed, naive_hex = FAR_RATIO_PINS[name]
    config = tv.EstimatorConfig(
        epsilon=0.1, delta=0.05, seed=seed, samples_override=SAMPLES, workers=workers
    )
    result = tv.estimate_tv(p, q, config)
    assert result.estimate.hex() == estimate_hex
    assert result.mean_f.hex() == mean_hex
    naive = tv.naive_estimate_tv(p, q, NAIVE_SAMPLES, naive_seed)
    assert naive.estimate.hex() == naive_hex
