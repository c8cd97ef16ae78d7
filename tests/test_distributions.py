import math

import pytest
from hypothesis import given, strategies as st

import tvdist as tv
from tvdist.errors import (
    DomainMismatch,
    EmptyInput,
    IndexOutOfRange,
    InstanceFormatError,
    MarginalNotNormalized,
    NegativeProbability,
)

from conftest import all_states, brute_subset_gap


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
    ],
)
def test_validate_rejects_bool_and_string_entries(rows, coordinate, category):
    with pytest.raises(InstanceFormatError) as info:
        tv.validate(rows)
    assert info.value.coordinate == coordinate
    assert info.value.category == category
    assert f"coordinate {coordinate}, category {category}" in str(info.value)


def test_validate_non_finite_entry():
    with pytest.raises(MarginalNotNormalized):
        tv.validate([[float("nan"), 0.5]])
    with pytest.raises(MarginalNotNormalized):
        tv.validate([[float("inf"), 0.5]])


def test_validate_stores_vectors_exactly():
    raw = [0.30000000000000004, 0.7]
    dist = tv.validate([raw])
    assert dist.marginals[0].probs == tuple(raw)


def test_validate_accepts_tolerance_slack():
    dist = tv.validate([[0.5, 0.5 + 5e-10]])
    assert dist.marginals[0].probs[1] == 0.5 + 5e-10


# --- point mass -------------------------------------------------------------


def test_point_mass_product():
    dist = tv.validate([[0.7, 0.3], [0.4, 0.6]])
    assert tv.point_mass(dist, tv.Assignment((1, 2))) == pytest.approx(0.42)


def test_point_mass_zero_factor():
    dist = tv.validate([[1.0, 0.0], [0.5, 0.5]])
    assert tv.point_mass(dist, tv.Assignment((2, 1))) == 0.0


def test_point_mass_square():
    dist = tv.validate([[0.7, 0.3], [0.7, 0.3]])
    assert tv.point_mass(dist, tv.Assignment((1, 1))) == pytest.approx(0.49)


def test_point_mass_out_of_range():
    dist = tv.validate([[0.5, 0.5]])
    with pytest.raises(IndexOutOfRange) as info:
        tv.point_mass(dist, tv.Assignment((3,)))
    assert info.value.coordinate == 1
    with pytest.raises(IndexOutOfRange):
        tv.point_mass(dist, tv.Assignment((0,)))


def test_point_mass_wrong_length():
    dist = tv.validate([[0.5, 0.5]])
    with pytest.raises(DomainMismatch):
        tv.point_mass(dist, tv.Assignment((1, 1)))


def test_log_point_mass_matches_linear():
    dist = tv.validate([[0.7, 0.3], [0.4, 0.6]])
    is_zero, log_sum = tv.log_point_mass(dist, tv.Assignment((1, 2)))
    assert not is_zero
    assert math.exp(log_sum) == pytest.approx(0.42, rel=1e-15)


def test_log_point_mass_zero_flag():
    dist = tv.validate([[1.0, 0.0], [0.5, 0.5]])
    is_zero, log_sum = tv.log_point_mass(dist, tv.Assignment((2, 1)))
    assert is_zero
    assert log_sum == pytest.approx(math.log(0.5))


def test_point_mass_sums_to_one():
    dist = tv.validate([[0.7, 0.3], [0.25, 0.25, 0.5], [0.1, 0.2, 0.3, 0.4]])
    total = math.fsum(
        tv.point_mass(dist, tv.Assignment(state))
        for state in all_states(dist.domain_sizes)
    )
    assert abs(total - 1.0) <= 1e-12


# --- per-coordinate TV ------------------------------------------------------


def test_coordinate_tv_identical_is_exactly_zero():
    m = tv.CategoricalMarginal((0.5, 0.5))
    assert tv.coordinate_tv(m, m) == 0.0


def test_coordinate_tv_hand_value():
    a = tv.CategoricalMarginal((0.7, 0.3))
    b = tv.CategoricalMarginal((0.4, 0.6))
    assert tv.coordinate_tv(a, b) == pytest.approx(0.3)


def test_coordinate_tv_disjoint():
    a = tv.CategoricalMarginal((1.0, 0.0))
    b = tv.CategoricalMarginal((0.0, 1.0))
    assert tv.coordinate_tv(a, b) == 1.0


def test_coordinate_tv_domain_mismatch():
    a = tv.CategoricalMarginal((1.0,))
    b = tv.CategoricalMarginal((0.5, 0.5))
    with pytest.raises(DomainMismatch):
        tv.coordinate_tv(a, b)


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

    return tv.CategoricalMarginal(vector()), tv.CategoricalMarginal(vector())


@given(marginal_pairs())
def test_coordinate_tv_symmetric_and_bounded(pair):
    a, b = pair
    d = tv.coordinate_tv(a, b)
    assert d == tv.coordinate_tv(b, a)
    assert 0.0 <= d <= 1.0


@given(marginal_pairs())
def test_coordinate_tv_equals_subset_oracle(pair):
    a, b = pair
    d = tv.coordinate_tv(a, b)
    assert d == pytest.approx(brute_subset_gap(a.probs, b.probs), abs=1e-12)


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
