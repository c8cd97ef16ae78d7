import numpy as np
import pytest
from hypothesis import given, strategies as st

import tvdist as tv
from tvdist.distributions import coordinate_tvs
from tvdist.coupling import check_assignment
from tvdist.errors import (
    DomainMismatch,
    EmptyInput,
    IndexOutOfRange,
    InstanceFormatError,
    MarginalNotNormalized,
    NegativeProbability,
)

from conftest import brute_subset_gap, rows


# --- validation -------------------------------------------------------------


def test_validate_uniform_bernoulli():
    dist = tv.validate([[0.5, 0.5]])
    assert dist.n == 1
    assert dist.domain_sizes == (2,)


def test_validate_rejects_unnormalized():
    with pytest.raises(MarginalNotNormalized) as info:
        tv.validate([[0.7, 0.2]])
    assert info.value.coordinate == 1
    assert info.value.total == pytest.approx(0.9)


def test_validate_mixed_domain_sizes():
    dist = tv.validate([[0.7, 0.3], [0.25, 0.25, 0.5]])
    assert dist.n == 2
    assert dist.domain_sizes == (2, 3)


def test_validate_empty_input():
    with pytest.raises(EmptyInput):
        tv.validate([])
    with pytest.raises(EmptyInput):
        tv.validate([[0.5, 0.5], []])


@pytest.mark.parametrize(
    "raw",
    [5, None, 0.5, "[[1.0]]", b"[[1.0]]", {"p": [[1.0]]}, {0: [1.0]}]
    # the built records iterate, but not as rows
    + [tv.validate([[1.0]]), tv.build_stats(tv.validate([[1.0]]), tv.validate([[1.0]]))],
    ids=repr,
)
def test_validate_rejects_a_top_level_that_is_not_a_list_of_rows(raw):
    with pytest.raises(InstanceFormatError) as info:
        tv.validate(raw)
    assert info.value.coordinate is None
    kind = type(raw).__name__
    assert str(info.value) == f"a distribution must be a list of rows, got {kind}"


def test_validate_takes_any_iterable_of_rows():
    vectors = [[0.5, 0.5], [0.25, 0.75]]
    expected = tv.validate(vectors)
    for raw in (tuple(map(tuple, vectors)), iter(vectors), np.array(vectors)):
        assert tv.validate(raw) == expected


def test_validate_negative_entry():
    with pytest.raises(NegativeProbability) as info:
        tv.validate([[0.5, 0.5], [1.2, -0.2]])
    assert info.value.coordinate == 2
    assert info.value.category == 2


@pytest.mark.parametrize(
    "rows, coordinate, category",
    [
        ([[True, False]], 1, 1),
        ([[0.5, 0.5], [0.5, True]], 2, 2),
        ([["0.5", 0.5]], 1, 1),
        ([[0.25, 0.75], [0.5, "0.5"]], 2, 2),
        pytest.param([[None, 1.0]], 1, 1, id="none"),
        pytest.param([[0.5, 0.5], [0.5, [0.5]]], 2, 2, id="nested_list"),
        pytest.param([[0.25, 0.75], [10**401, 0.5]], 2, 1, id="int_past_double_range"),
        pytest.param([[0.5, 0.5], [0.5, 0.5, "x", None]], 2, 3, id="first_bad_entry"),
    ],
)
def test_validate_rejects_bool_and_string_entries(rows, coordinate, category):
    with pytest.raises(InstanceFormatError) as info:
        tv.validate(rows)
    assert info.value.coordinate == coordinate
    assert info.value.category == category
    assert f"coordinate {coordinate}, category {category}" in str(info.value)


@pytest.mark.parametrize("row", [0.5, None, pytest.param(10**401, id="huge_int")])
def test_validate_rejects_a_row_that_is_not_a_sequence(row):
    with pytest.raises(InstanceFormatError) as info:
        tv.validate([[0.5, 0.5], row])
    assert info.value.coordinate == 2
    assert info.value.category is None
    assert "coordinate 2: probabilities must be a sequence" in str(info.value)


def test_validate_non_finite_entry():
    with pytest.raises(MarginalNotNormalized):
        tv.validate([[float("nan"), 0.5]])
    with pytest.raises(MarginalNotNormalized):
        tv.validate([[float("inf"), 0.5]])


def test_validate_overflowing_row_sum():
    # finite entries whose exact sum passes the largest double
    with pytest.raises(MarginalNotNormalized) as info:
        tv.validate([[0.5, 0.5], [1e308, 1e308]])
    assert info.value.coordinate == 2
    assert info.value.total == float("inf")


def test_validate_stores_vectors_exactly():
    raw = [0.30000000000000004, 0.7]
    dist = tv.validate([raw])
    assert rows(dist)[0] == tuple(raw)


def test_validate_accepts_tolerance_slack():
    dist = tv.validate([[0.5, 0.5 + 5e-10]])
    assert rows(dist)[0][1] == 0.5 + 5e-10


def test_product_distribution_stays_immutable():
    raw = [[0.25, 0.75], [0.1, 0.2, 0.7], [1.0]]
    p, again = tv.validate(raw), tv.validate(raw)
    tv.build_stats(p, tv.validate([[0.5, 0.5], [0.1, 0.2, 0.7], [1.0]]))
    assert p._fields == ("rows", "domain_sizes")
    assert not hasattr(p, "__dict__")  # no state beyond the fields
    assert p == again and hash(p) == hash(again) and len({p, again}) == 1
    assert p != tv.validate([[0.75, 0.25], [0.1, 0.2, 0.7], [1.0]])
    assert p != raw
    signed = tv.validate([[-0.0, 1.0]])
    assert signed == tv.validate([[0.0, 1.0]])
    assert hash(signed) == hash(tv.validate([[0.0, 1.0]]))
    # the same flat vector split into other coordinates is another distribution
    assert tv.validate([[1.0, 0.0], [1.0]]) != tv.validate([[1.0], [0.0, 1.0]])
    with pytest.raises(AttributeError):
        p.rows = ()
    assert rows(p)[1] == (0.1, 0.2, 0.7)
    assert rows(p) == [tuple(r) for r in raw]


# --- assignment checks ------------------------------------------------------


def test_point_mass_out_of_range():
    dist = tv.validate([[0.5, 0.5]])
    with pytest.raises(IndexOutOfRange) as info:
        check_assignment(dist, np.array([[3]]))
    assert info.value.coordinate == 1
    with pytest.raises(IndexOutOfRange):
        check_assignment(dist, np.array([[0]]))


def test_point_mass_wrong_length():
    dist = tv.validate([[0.5, 0.5]])
    with pytest.raises(DomainMismatch):
        check_assignment(dist, np.array([[1, 1]]))


# --- per-coordinate TV ------------------------------------------------------


def coordinate_tv(a, b) -> float:
    """The distance of one-coordinate ``validate``d pairs, via ``coordinate_tvs``."""
    (d,) = coordinate_tvs(tv.validate([a]), tv.validate([b]))
    return d


def test_coordinate_tv_identical_is_exactly_zero():
    m = (0.5, 0.5)
    assert coordinate_tv(m, m) == 0.0


def test_coordinate_tv_hand_value():
    a = (0.7, 0.3)
    b = (0.4, 0.6)
    assert coordinate_tv(a, b) == pytest.approx(0.3)


def test_coordinate_tv_disjoint():
    a = (1.0, 0.0)
    b = (0.0, 1.0)
    assert coordinate_tv(a, b) == 1.0


def test_coordinate_tv_domain_mismatch():
    a = (1.0,)
    b = (0.5, 0.5)
    with pytest.raises(DomainMismatch):
        coordinate_tv(a, b)


@st.composite
def marginal_pairs(draw):
    q = draw(st.integers(min_value=2, max_value=6))

    def vector():
        weights = draw(
            st.lists(st.integers(0, 1000), min_size=q, max_size=q).filter(
                lambda w: sum(w) > 0
            )
        )
        total = sum(weights)
        return tuple(w / total for w in weights)

    return vector(), vector()


@given(marginal_pairs())
def test_coordinate_tv_symmetric_and_bounded(pair):
    a, b = pair
    d = coordinate_tv(a, b)
    assert d == coordinate_tv(b, a)
    assert 0.0 <= d <= 1.0


@given(marginal_pairs())
def test_coordinate_tv_equals_subset_oracle(pair):
    a, b = pair
    d = coordinate_tv(a, b)
    assert d == pytest.approx(brute_subset_gap(a, b), abs=1e-12)


# --- identity check ---------------------------------------------------------


def test_are_identical_true():
    p = tv.validate([[0.7, 0.3], [0.4, 0.6]])
    q = tv.validate([[0.7, 0.3], [0.4, 0.6]])
    assert tv.are_identical(p, q)


def test_are_identical_no_tolerance():
    p = tv.validate([[0.7, 0.3]])
    q = tv.validate([[0.7 - 1e-12, 0.3 + 1e-12]])
    assert not tv.are_identical(p, q)


def test_are_identical_one_differing_coordinate():
    p = tv.validate([[0.5, 0.5], [1.0, 0.0]])
    q = tv.validate([[0.5, 0.5], [0.0, 1.0]])
    assert not tv.are_identical(p, q)


def test_are_identical_shape_mismatch():
    p = tv.validate([[0.5, 0.5]])
    q = tv.validate([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(DomainMismatch):
        tv.are_identical(p, q)
