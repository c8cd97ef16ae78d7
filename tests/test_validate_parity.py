"""``validate`` and the per-coordinate distances against per-row reference loops.

``reference_validate`` is the loop ``validate`` ran one row and one entry
at a time; the tests require the same stored floats, bit for bit, or the
same exception with the same coordinate, category and total. The
distances ``build_stats``, ``naive_estimate_tv`` and ``are_identical`` use
must be those ``reference_coordinate_tv`` gives each coordinate pair.
pytest turns ``RuntimeWarning`` into an error, so a numpy warning on any
of these inputs fails the tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tvdist as tv
from tvdist.distributions import NORMALIZATION_TOL
from tvdist.errors import (
    EmptyInput,
    InstanceFormatError,
    MarginalNotNormalized,
    NegativeProbability,
    SlackOnlyDifference,
)

from conftest import reference_coordinate_tv, rows


def reference_validate(p_raw) -> tuple[tuple[float, ...], ...]:
    """The stored vectors of ``p_raw``, checked one row and one entry at a time."""
    vectors = []
    for i, raw in enumerate(p_raw, start=1):
        raw = tuple(raw)
        if not {float, int}.issuperset(map(type, raw)):
            for c, entry in enumerate(raw, start=1):
                if isinstance(entry, (bool, str)):
                    raise InstanceFormatError(
                        f"coordinate {i}, category {c}: probability must be a "
                        f"number, got {entry!r}",
                        coordinate=i,
                        category=c,
                    )
        vectors.append(tuple(map(float, raw)))
    if not vectors:
        raise EmptyInput("a product distribution needs at least one coordinate")
    for i, vec in enumerate(vectors, start=1):
        if not vec:
            raise EmptyInput(f"coordinate {i} has no categories")
        for c, value in enumerate(vec, start=1):
            if value < 0.0:
                raise NegativeProbability(i, c, value)
        try:
            total = math.fsum(vec)
        except OverflowError:  # finite entries past the largest double
            total = math.inf
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise MarginalNotNormalized(i, total)
    return tuple(vectors)


def _hex(value: float | None) -> str | None:
    return None if value is None else float.hex(value)


def _outcome(validate, rows):
    """Stored floats as hex strings, or what identifies the error raised."""
    try:
        vectors = validate(rows)
    except (ValueError, OverflowError) as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "coordinate", None),
            getattr(exc, "category", None),
            _hex(getattr(exc, "total", None)),
            _hex(getattr(exc, "value", None)),
        )
    return [tuple(map(float.hex, vec)) for vec in vectors]


def _stored(p_raw) -> tuple[tuple[float, ...], ...]:
    vectors = tuple(rows(tv.validate(p_raw)))
    for vec in vectors:
        assert all(type(x) is float for x in vec)
    return vectors


def assert_same_outcome(rows) -> None:
    assert _outcome(_stored, rows) == _outcome(reference_validate, rows)


# --- validate ---------------------------------------------------------------


def _boundary_rows() -> list[list[float]]:
    """Rows whose exact sums lie within a few ulps of 1 +- the tolerance.

    ``x - 0.5`` and ``x - 15/64`` are exact for these ``x``, so each row
    sums to ``x`` exactly while a left-to-right float sum may round.
    """
    rows = []
    for edge in (1.0 + NORMALIZATION_TOL, 1.0 - NORMALIZATION_TOL):
        for ulps in range(-3, 4):
            x = edge
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            rows.append([x - 0.5, 0.5])
            rows.append([2.0**-6] * 15 + [x - 15 * 2.0**-6])
            rows.append([2.0**-6] * 7 + [x - 15 * 2.0**-6] + [2.0**-6] * 8)
    # the largest accepted total, then quarter-ulp entries: a left-to-right
    # sum drops each of them, while their exact sum can cross the edge
    top = 1.0 + NORMALIZATION_TOL
    while top - 1.0 > NORMALIZATION_TOL:
        top = math.nextafter(top, 0.0)
    while math.nextafter(top, 2.0) - 1.0 <= NORMALIZATION_TOL:
        top = math.nextafter(top, 2.0)
    for quarters in (1, 2, 3, 5):
        rows.append([0.5, top - 0.5] + [2.0**-54] * quarters)
    return rows


@pytest.mark.parametrize("row", _boundary_rows())
def test_totals_at_the_tolerance_edge(row):
    assert_same_outcome([[0.25, 0.75], row])
    assert_same_outcome([row, [1.0]])


HAND_CASES = {
    "bool_late_beats_negative_early": [[-0.5, 1.5], [0.5, True]],
    "string_late_beats_sum_early": [[0.7, 0.2], [0.25, 0.75], ["0.5", 0.5]],
    "empty_row_after_bad_row": [[0.7, 0.2], []],
    "empty_row_after_negative_row": [[0.5, 0.5], [1.2, -0.2], []],
    "empty_row_first": [[], [0.7, 0.2]],
    "no_rows": [],
    "negative_beats_sum_in_same_row": [[0.5, -0.1, 0.7]],
    "sum_beats_later_negative": [[0.5, 0.6], [1.5, -0.5]],
    "negative_zero": [[-0.0, 1.0], [0.5, 0.5]],
    "nan": [[float("nan"), 1.0]],
    "nan_after_good_rows": [[0.5, 0.5], [0.25, 0.75], [0.5, float("nan"), 0.5]],
    "inf": [[float("inf"), 0.5]],
    "inf_and_minus_inf": [[float("inf"), -float("inf")]],
    "finite_sum_overflows": [[0.5, 0.5], [1e308, 1e308]],
    "minus_inf": [[0.5, 0.5], [-float("inf"), 1.0]],
    "nan_and_minus_inf": [[float("nan"), 0.5], [-float("inf"), 1.0]],
    "slack_accepted": [[0.5, 0.5 + 5e-10], [0.5 - 5e-10, 0.5]],
    "ints": [[1, 0], [0, 1, 0], [1]],
    "int_row_off": [[1, 1]],
    "large_int_sum": [[2**60, 1 - 2**60]],
    "numpy_scalars": [
        [np.float64(0.25), np.float64(0.75)],
        [np.int64(1), np.int32(0)],
        [np.float32(0.5), np.float16(0.5)],
        [np.bool_(True), np.float32(0.0)],
    ],
    "float32_rounding_rejected": [[np.float32(0.1)] * 10],
    "numpy_row": [np.array([0.3, 0.7]), np.array([0.1, 0.2, 0.7])],
    "tuple_rows": [(0.30000000000000004, 0.7), (1.0,)],
    "subnormal": [[5e-324, 1.0 - 5e-324], [1.0, 5e-324]],
    "wide_row": [[1.0 / 4096] * 4096, [0.5, 0.5]],
}


@pytest.mark.parametrize("rows", HAND_CASES.values(), ids=HAND_CASES.keys())
def test_hand_cases_match_reference(rows):
    assert_same_outcome(rows)


_NORMAL = st.lists(st.integers(0, 9), min_size=1, max_size=16).filter(any).map(
    lambda w: [x / sum(w) for x in w]
)
_SHIFTS = st.sampled_from([0.0, 0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-6, 0.1])
_ODD = st.sampled_from(
    [0, 1, 2, -0.0, -1e-300, float("nan"), float("inf"), -float("inf"), 1e308, 5e-324]
)


@st.composite
def _entry_row(draw) -> list:
    """A near-normalised row, with entries shifted, replaced or retyped."""
    row = draw(_NORMAL)
    c = draw(st.integers(0, len(row) - 1))
    row[c] += draw(_SHIFTS) * draw(st.sampled_from([1.0, -1.0]))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(0, len(row) - 1))
        row[c] = draw(_ODD | st.floats(allow_nan=True, allow_infinity=True))
    kinds = [float, np.float64, np.float32, "int", "bool", "str"]
    for c in range(len(row)):
        kind = draw(st.sampled_from(kinds[:3] * 8 + kinds[3:]))
        value = row[c]
        if kind == "int":
            row[c] = int(value) if math.isfinite(value) else value
        elif kind == "bool":
            row[c] = bool(value == value and value > 0.5)
        elif kind == "str":
            row[c] = repr(value)
        elif kind is np.float32 and not abs(value) < 3e38:
            row[c] = value  # float32 cannot hold it
        else:
            row[c] = kind(value)
    return row


_ROWS = st.lists(_entry_row() | _NORMAL | st.just([]), max_size=5)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ROWS)
def test_validate_matches_reference_loop(rows):
    assert_same_outcome(rows)


# --- per-coordinate distances ------------------------------------------------


@st.composite
def _pair(draw) -> tuple[list[float], list[float]]:
    size = draw(st.integers(1, 16))
    entry = st.sampled_from([0, 0, 1, 2, 3, 7]) | st.integers(0, 1000)
    weights = st.lists(entry, min_size=size, max_size=size).filter(any)

    def normalised() -> list[float]:
        w = draw(weights)
        return [x / sum(w) for x in w]

    p = normalised()
    kind = draw(st.sampled_from(["same", "tiny", "other"]))
    q = list(p)
    if kind == "tiny":
        support = [c for c, x in enumerate(p) if x > 0.0]
        src, dst = draw(st.sampled_from(support)), draw(st.integers(0, size - 1))
        step = min(draw(st.sampled_from([1e-12, 1e-15, 3e-10])), q[src])
        q[src] -= step
        q[dst] += step
    elif kind == "other":
        q = normalised()
    for row in (p, q):
        if draw(st.booleans()):
            c = draw(st.integers(0, size - 1))
            moved = row[:c] + [row[c] + draw(st.floats(-1e-9, 1e-9))] + row[c + 1 :]
            if moved[c] >= 0.0 and abs(math.fsum(moved) - 1.0) <= NORMALIZATION_TOL:
                row[c] = moved[c]
    return p, q


def _reference_d(p, q) -> tuple[float, ...]:
    return tuple(map(reference_coordinate_tv, rows(p), rows(q)))


def _first_slack_only(p, q, d) -> int | None:
    for i, (d_i, pm, qm) in enumerate(zip(d, rows(p), rows(q)), start=1):
        if d_i > 0.0 and not any(b < a for a, b in zip(pm, qm)):
            return i
    return None


def assert_same_distances(p, q) -> None:
    d = _reference_d(p, q)
    bits = tuple(map(float.hex, d))
    assert tv.are_identical(p, q) == all(x == 0.0 for x in d)
    naive = tv.naive_estimate_tv(p, q, 5, 0)
    assert tuple(map(float.hex, naive.per_coordinate_tv)) == bits
    slack = _first_slack_only(p, q, d)
    if slack is not None:
        with pytest.raises(SlackOnlyDifference) as info:
            tv.build_stats(p, q)
        assert info.value.coordinate == slack
        assert float.hex(info.value.distance) == bits[slack - 1]
        return
    stats = tv.build_stats(p, q)
    assert tuple(map(float.hex, stats.d)) == bits


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_pair(), min_size=1, max_size=6))
def test_distances_match_coordinate_tv(pairs):
    p = tv.validate([a for a, _ in pairs])
    q = tv.validate([b for _, b in pairs])
    assert_same_distances(p, q)


def test_slack_only_coordinate_after_a_differing_one():
    p = tv.validate([[0.5, 0.5], [0.25, 0.25, 0.5], [0.7, 0.3], [0.5, 0.5]])
    q = tv.validate([[0.5, 0.5], [0.2, 0.3, 0.5], [0.7 + 5e-10, 0.3], [0.5, 0.5]])
    assert_same_distances(p, q)
    with pytest.raises(SlackOnlyDifference) as info:
        tv.build_stats(p, q)
    assert info.value.coordinate == 3


def test_distances_on_a_wide_mixed_instance():
    rng = np.random.default_rng(2024)
    p_rows, q_rows = [], []
    for _ in range(300):
        size = int(rng.integers(1, 17))
        a = rng.dirichlet(np.ones(size))
        a[rng.random(size) < 0.3] = 0.0
        if not a.any():
            a[0] = 1.0
        a /= a.sum()
        b = a.copy()
        if size > 1 and rng.random() < 0.5:
            src = int(np.flatnonzero(a)[0])
            step = min(10.0 ** rng.uniform(-12, -2), b[src])
            b[src] -= step
            b[(src + 1) % size] += step
        p_rows.append(a.tolist())
        q_rows.append(b.tolist())
    assert_same_distances(tv.validate(p_rows), tv.validate(q_rows))
