from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as ref
from mgonal import (
    PolygonalForm,
    RepresentationSet,
    ResourceCapError,
    extend_set,
    polygonal_value,
    polygonal_values_up_to,
    represented_set,
    truant,
)

# ---------------------------------------------------------------------------
# single values


def test_triangular_values_both_directions():
    assert [polygonal_value(3, x) for x in (0, 1, -1, 2, -2, 3, -3)] == [
        0, 1, 0, 3, 1, 6, 3,
    ]


def test_square_values_are_squares():
    for x in range(-10, 11):
        assert polygonal_value(4, x) == x * x


def test_octagonal_small_values():
    assert polygonal_value(8, 1) == 1
    assert polygonal_value(8, -1) == 5
    assert polygonal_value(8, 2) == 8
    assert polygonal_value(8, -2) == 16


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=-80, max_value=80))
def test_value_matches_closed_form_and_is_nonnegative(m, x):
    v = polygonal_value(m, x)
    assert 2 * v == (m - 2) * x * x - (m - 4) * x  # numerator is always even
    assert v >= 0


def test_value_rejects_bad_inputs():
    with pytest.raises(ValueError):
        polygonal_value(2, 1)
    with pytest.raises(ValueError):
        polygonal_value(5, 1.5)


# ---------------------------------------------------------------------------
# value lists


def test_values_up_to_frozen_examples():
    assert polygonal_values_up_to(3, 21) == [0, 1, 3, 6, 10, 15, 21]
    assert polygonal_values_up_to(4, 20) == [0, 1, 4, 9, 16]
    # generalized pentagonal numbers interleave the two index directions
    assert polygonal_values_up_to(5, 26) == [0, 1, 2, 5, 7, 12, 15, 22, 26]
    assert polygonal_values_up_to(8, 9) == [0, 1, 5, 8]


@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=150))
def test_values_up_to_matches_naive_scan(m, bound):
    assert polygonal_values_up_to(m, bound) == ref.polygonal_values(m, bound)


@given(st.integers(min_value=0, max_value=400))
def test_hexagonal_values_are_exactly_the_triangular_ones(bound):
    assert polygonal_values_up_to(6, bound) == polygonal_values_up_to(3, bound)


def test_values_up_to_starts_zero_one_then_jumps():
    for m in (5, 9, 14, 23):
        vals = polygonal_values_up_to(m, 1000)
        assert vals[:2] == [0, 1]
        assert vals[2] >= m - 3


def test_values_up_to_rejects_negative_bound():
    with pytest.raises(ValueError):
        polygonal_values_up_to(5, -1)


# ---------------------------------------------------------------------------
# forms


def test_form_of_sorts_and_validates():
    f = PolygonalForm.of(5, 3, 1, 2)
    assert f.coeffs == (1, 2, 3)
    assert f.n == 3
    assert f.content == 1
    assert PolygonalForm.of(7, 4, 6).content == 2
    assert PolygonalForm(5, ()).content == 0


def test_form_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        PolygonalForm(5, (2, 1))
    with pytest.raises(ValueError):
        PolygonalForm(5, (0,))
    with pytest.raises(ValueError):
        PolygonalForm(2, (1,))
    with pytest.raises(ValueError):
        PolygonalForm(3, (True,))


def test_extend_appends_and_keeps_sortedness():
    f = PolygonalForm(6, (1, 3))
    assert f.extend(3).coeffs == (1, 3, 3)
    assert f.extend(7).coeffs == (1, 3, 7)
    with pytest.raises(ValueError):
        f.extend(2)


# ---------------------------------------------------------------------------
# represented sets


def test_two_triangulars_frozen_set():
    rep = represented_set(PolygonalForm.of(3, 1, 1), 8)
    assert rep.values() == [0, 1, 2, 3, 4, 6, 7]
    assert rep.missing() == [5, 8]
    assert rep.truant() == 5
    assert 4 in rep and 5 not in rep
    assert rep.count() == 7


def test_empty_form_represents_only_zero():
    rep = represented_set(PolygonalForm(9, ()), 30)
    assert rep.values() == [0]
    assert rep.truant() == 1
    assert truant(PolygonalForm(9, ()), 30) == 1


def test_three_triangulars_have_no_truant():
    assert truant(PolygonalForm.of(3, 1, 1, 1), 1000) is None


def test_membership_is_bounds_checked():
    rep = represented_set(PolygonalForm.of(4, 1), 10)
    assert 9 in rep
    assert -1 not in rep
    assert 11 not in rep


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=100),
)
def test_represented_set_matches_naive(m, coeffs, bound):
    form = PolygonalForm.of(m, *coeffs)
    rep = represented_set(form, bound)
    assert set(rep.values()) == ref.represented(m, form.coeffs, bound)
    assert rep.missing() == sorted(set(range(bound + 1)) - set(rep.values()))
    assert rep.truant() == ref.naive_truant(m, form.coeffs, bound)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=9),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=80),
)
def test_extend_set_agrees_with_rebuilding(m, coeffs, extra, bound):
    form = PolygonalForm.of(m, *coeffs)
    base = represented_set(form, bound)
    if extra < form.coeffs[-1]:
        extra = form.coeffs[-1]
    extended = extend_set(base, m, extra)
    rebuilt = represented_set(form.extend(extra), bound)
    assert extended == rebuilt


def test_extend_set_rejects_nonpositive_coefficient():
    base = represented_set(PolygonalForm.of(3, 1), 10)
    with pytest.raises(ValueError):
        extend_set(base, 3, 0)


def test_bit_cap_is_enforced():
    with pytest.raises(ResourceCapError):
        represented_set(PolygonalForm.of(3, 1), 100, bit_cap=50)


def test_truant_requires_positive_bound():
    with pytest.raises(ValueError):
        truant(PolygonalForm.of(3, 1), 0)


def test_representation_set_is_a_plain_value():
    rep = RepresentationSet(4, 0b10011)
    assert rep.values() == [0, 1, 4]
    assert rep.missing() == [2, 3]
    assert rep.truant() == 2
    assert rep.count() == 3
