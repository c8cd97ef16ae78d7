"""Every pair that ``validate`` accepts ends in a result, never in an
internal-invariant error (which the CLI reports as exit 5).

Marginals are drawn with zero categories, distances down to 1e-12 and a
sum slack of up to ``NORMALIZATION_TOL`` on either side, the corners where
the coupling's normalizers and the vectors as given can disagree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import tvdist as tv
from tvdist import cli
from tvdist.distributions import NORMALIZATION_TOL
from tvdist.errors import IdenticalDistributions, SlackOnlyDifference, ValidationError

_WEIGHTS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0]) | st.floats(0.0, 1.0)


def _normalise(weights: list[float]) -> list[float]:
    if not any(weights):
        weights = [1.0, *weights[1:]]
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def _slack(draw, row: list[float]) -> list[float]:
    """``row`` with one entry moved by up to the normalization tolerance."""
    row = list(row)
    c = draw(st.integers(0, len(row) - 1))
    moved = row[c] + draw(st.floats(-NORMALIZATION_TOL, NORMALIZATION_TOL))
    if moved >= 0.0:
        row[c] = moved
    return row


@st.composite
def _coordinate(draw) -> tuple[list[float], list[float]]:
    size = draw(st.integers(1, 4))
    p = _normalise(draw(st.lists(_WEIGHTS, min_size=size, max_size=size)))
    kind = draw(st.sampled_from(["same", "tiny", "other"]))
    if kind == "same":
        q = list(p)
    elif kind == "tiny":
        q = list(p)
        support = [c for c, x in enumerate(p) if x > 0.0]
        src = draw(st.sampled_from(support))
        dst = draw(st.integers(0, size - 1))
        step = min(draw(st.sampled_from([1e-12, 1e-10, 1e-15])), q[src])
        q[src] -= step
        q[dst] += step
    else:
        q = _normalise(draw(st.lists(_WEIGHTS, min_size=size, max_size=size)))
    if draw(st.booleans()):
        p = draw(_slack(p))
    if draw(st.booleans()):
        q = draw(_slack(q))
    return p, q


@st.composite
def _validated_rows(draw) -> tuple[list[list[float]], list[list[float]]]:
    coordinates = draw(st.lists(_coordinate(), min_size=1, max_size=5))
    return [p for p, _ in coordinates], [q for _, q in coordinates]


def _info_exit_code(p_rows, q_rows) -> int:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "instance.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"p": p_rows, "q": q_rows}, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(["info", path])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_validated_rows(), st.integers(0, 2**64 - 1))
def test_validated_pairs_never_raise_internal_errors(rows, seed):
    """An estimate, or a validation error naming the coordinate (exit 2)."""
    p_rows, q_rows = rows
    try:
        p, q = tv.validate(p_rows), tv.validate(q_rows)
    except ValidationError:
        return
    naive = tv.naive_estimate_tv(p, q, 97, seed)
    assert 0.0 <= naive.estimate <= 1.0
    config = tv.EstimatorConfig(0.1, 0.05, seed=seed, samples_override=97)
    try:
        stats = tv.build_stats(p, q)
    except ValidationError as exc:
        assert exc.coordinate is not None
        with pytest.raises(type(exc)):
            tv.estimate_tv(p, q, config)
        assert _info_exit_code(p_rows, q_rows) == 2
        return
    result = tv.estimate_tv(p, q, config)
    assert 0.0 <= result.estimate <= 1.0
    try:
        draws = tv.sample_pi_batch(p, q, stats, seed, 33)
    except IdenticalDistributions:
        assert stats.pr_diff == 0.0
    else:
        assert draws.shape == (33, p.n)
    assert _info_exit_code(p_rows, q_rows) == 0


def test_slack_only_coordinate_is_rejected_naming_it():
    """Q >= P wherever P > 0 with a positive distance: only slack differs."""
    p = tv.validate([[0.5, 0.5], [1.0]])
    q = tv.validate([[0.4, 0.6], [1.0 + 5e-11]])
    with pytest.raises(SlackOnlyDifference) as info:
        tv.build_stats(p, q)
    assert info.value.coordinate == 2
    assert _info_exit_code([[0.5, 0.5], [1.0]], [[0.4, 0.6], [1.0 + 5e-11]]) == 2
