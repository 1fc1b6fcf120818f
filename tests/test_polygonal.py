from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as ref
from mgonal import polygonal
from mgonal import (
    PolygonalForm,
    RepresentationSet,
    ResourceCapError,
    ShiftedDiagonalLattice,
    build_tree,
    density_p_dividing_N,
    extend_set,
    guy_form,
    h_of_ell,
    lower_bound_witness,
    siegel_count_density,
    tau_gauss_sum,
    verify_guy,
    polygonal_value,
    polygonal_values_up_to,
    represented_set,
    truant,
    walk_summary,
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
    with pytest.raises(ValueError, match=r"^index must be an integer, got True$"):
        polygonal_value(5, True)
    with pytest.raises(ValueError, match=r"^index must be an integer, got 1\.0$"):
        polygonal_value(5, 1.0)


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


def test_form_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        PolygonalForm(5, (2, 1))
    with pytest.raises(ValueError):
        PolygonalForm(5, (0,))
    with pytest.raises(ValueError):
        PolygonalForm(2, (1,))
    with pytest.raises(ValueError):
        PolygonalForm(3, (True,))


def test_a_bad_coefficient_is_reported_before_disorder():
    # (2, 0) is also unsorted; the coefficient rule speaks first
    with pytest.raises(ValueError, match=r"^coefficients must be positive integers, got 0$"):
        PolygonalForm(5, (2, 0))
    with pytest.raises(ValueError, match=r"^coefficients must be sorted ascending$"):
        PolygonalForm(5, (2, 1))
    for bad in ((1, 2.0), (True, 2), (1, 1, -3)):
        with pytest.raises(ValueError, match="positive integers"):
            PolygonalForm(5, bad)


def test_int_subclass_coefficients_are_accepted():
    class Count(int):
        pass

    form = PolygonalForm(5, (Count(1), 2, Count(2)))
    assert form.coeffs == (1, 2, 2)
    assert PolygonalForm(5, [1, 3]).coeffs == (1, 3)  # any sequence becomes a tuple


def test_forms_and_nodes_hold_no_instance_dict():
    node = build_tree(3, max_depth=1, bound=10).root
    assert not hasattr(node, "__dict__") and not hasattr(node.form, "__dict__")
    with pytest.raises(AttributeError):
        node.depth_cache = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.form.m = 4


def test_forms_refuse_every_assignment_and_survive_copies():
    form = PolygonalForm(5, (1, 2))
    assert form.__slots__ == ("m", "coeffs")
    for name in ("m", "coeffs", "x"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(form, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(form, name)
    assert form == PolygonalForm(5, (1, 2))
    # extend builds its form without running the checks or the frozen __setattr__
    extended = form.extend(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        extended.x = 1
    for f in (form, extended, PolygonalForm(3, ())):
        copies = [copy.copy(f), copy.deepcopy(f)]
        copies += [pickle.loads(pickle.dumps(f, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for g in copies:
            assert type(g) is PolygonalForm and g == f and hash(g) == hash(f)
            assert (g.m, g.coeffs) == (f.m, f.coeffs)
    assert extended == PolygonalForm(5, (1, 2, 4)) and hash(extended) == hash(PolygonalForm(5, (1, 2, 4)))
    assert form != extended and PolygonalForm(6, (1, 2)) != form
    # a form built by extend prints, compares and hashes as its fields do
    assert repr(extended) == "PolygonalForm(m=5, coeffs=(1, 2, 4))"
    assert hash(extended) == hash((5, (1, 2, 4))) and extended != (5, (1, 2, 4))


def test_extend_appends_and_keeps_sortedness():
    f = PolygonalForm(6, (1, 3))
    assert f.extend(3).coeffs == (1, 3, 3)
    assert f.extend(7) == PolygonalForm(6, (1, 3, 7))
    assert PolygonalForm(6, ()).extend(2) == PolygonalForm(6, (2,))
    with pytest.raises(ValueError, match="coefficients must be sorted ascending"):
        f.extend(2)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="coefficients must be positive integers, got"):
            f.extend(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: polygonal_values_up_to(5, x),
        lambda x: represented_set(PolygonalForm(5, (1, 2)), x),
        lambda x: truant(PolygonalForm(5, (1, 2)), x),
        lambda x: build_tree(3, 2, x),
        lambda x: build_tree(3, x, 100),
        lambda x: build_tree(3, 2, 100, node_cap=x),
        lambda x: verify_guy(guy_form(10, 5), x),
        lambda x: guy_form(4 * x, 5),
        lambda x: guy_form(10, 2 * x),
        lambda x: lower_bound_witness(10, 2 * x),
        lambda x: siegel_count_density(3, (1, 1, 1, 1), 1, x),
        lambda x: tau_gauss_sum(3, x, 1, 3, 1),
        lambda x: ShiftedDiagonalLattice((1, 1), 0, x),
        lambda x: ShiftedDiagonalLattice((1, 1), x - 2, 2),
        lambda x: h_of_ell(PolygonalForm(5, (1, 2)), x),
        lambda x: tau_gauss_sum(3, 1, 1, x, 1),
        lambda x: tau_gauss_sum(3, 1, x, 3, 1),
        lambda x: tau_gauss_sum(3, 1, 1, 3, x),
        lambda x: density_p_dividing_N(3, x),
        lambda x: siegel_count_density(3, (1, 1, 1, 1), 1, 1, N=x),
        lambda x: walk_summary(3, 2, x),
        lambda x: walk_summary(3, x, 100),
        lambda x: walk_summary(3, 2, 100, node_cap=x),
        lambda x: polygonal_value(5, x),
    ],
)
def test_sizes_and_bounds_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call(2.5)


# ---------------------------------------------------------------------------
# represented sets


def test_two_triangulars_frozen_set():
    rep = represented_set(PolygonalForm.of(3, 1, 1), 8)
    assert [k for k in range(9) if k in rep] == [0, 1, 2, 3, 4, 6, 7]
    assert rep.missing() == [5, 8]
    assert rep.truant() == 5
    assert 4 in rep and 5 not in rep
    assert rep.count() == 7


def test_empty_form_represents_only_zero():
    rep = represented_set(PolygonalForm(9, ()), 30)
    assert [k for k in range(31) if k in rep] == [0]
    assert rep.truant() == 1
    assert truant(PolygonalForm(9, ()), 30) == 1


def test_three_triangulars_have_no_truant():
    assert truant(PolygonalForm.of(3, 1, 1, 1), 1000) is None


def test_membership_is_bounds_checked():
    rep = represented_set(PolygonalForm.of(4, 1), 10)
    assert 9 in rep
    assert -1 not in rep
    assert 11 not in rep


def test_only_ints_are_members():
    dense = represented_set(PolygonalForm.of(4, 1), 100)  # the 11 squares
    sparse = represented_set(PolygonalForm.of(4, 1, 1, 1, 1), 100)  # Lagrange
    assert dense._sparse() is None and sparse._sparse() == ()  # held as gaps
    for rep in (dense, sparse):
        for k in (2.5, Fraction(5, 2), 4.0, Fraction(4), "4", None, [4]):
            assert k not in rep
        assert 4 in rep and 0 in rep


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=100),
)
def test_represented_set_matches_naive(m, coeffs, bound):
    form = PolygonalForm.of(m, *coeffs)
    rep = represented_set(form, bound)
    values = [k for k in range(bound + 1) if k in rep]
    assert set(values) == ref.represented(m, form.coeffs, bound)
    assert rep.missing() == sorted(set(range(bound + 1)) - set(values))
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


def _from_values(bound, values):
    # a set made from bits (bit bound - k for the value k), as a fold leaves
    # a dense set; one that misses only a few values peels them on its first
    # fold
    return RepresentationSet._of_mirror(bound, sum(1 << (bound - k) for k in values))


def _assert_reads(rep, expected, bound):
    # every read of a set against its naive values, and equality with the
    # same values made from bits
    gaps = [k for k in range(bound + 1) if k not in expected]
    assert rep.count() == len(expected)
    assert rep.missing() == gaps
    assert rep.truant() == (gaps[0] if gaps else None)
    assert [k for k in range(-2, bound + 3) if k in rep] == sorted(expected)
    assert rep == _from_values(bound, expected)


def _assert_matches_naive(rep, m, coeffs, bound):
    _assert_reads(rep, ref.represented(m, coeffs, bound), bound)


_FORMS_ACROSS_THE_SWITCH = st.one_of(
    # many small coefficients at small bounds end up missing only a few values
    st.tuples(
        st.integers(min_value=3, max_value=12),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12).map(
            lambda c: tuple(sorted(c))
        ),
    ),
    # prefixes of single-gap forms miss many values, then a few, then one
    st.tuples(
        st.integers(min_value=6, max_value=14), st.integers(min_value=1, max_value=40)
    ).flatmap(
        lambda mk: st.integers(min_value=1, max_value=mk[0] - 4).map(
            lambda ell: (mk[0], guy_form(mk[0], ell).form.coeffs[: mk[1]])
        )
    ),
)


@settings(max_examples=150, deadline=None)
@given(_FORMS_ACROSS_THE_SWITCH, st.integers(min_value=0, max_value=300))
def test_both_fold_forms_match_naive(form, bound):
    m, coeffs = form
    rep = represented_set(PolygonalForm(m, coeffs), bound)
    _assert_matches_naive(rep, m, coeffs, bound)
    # the same content held as a bitset, which is folded densely until it
    # is found to miss only a few values
    as_bits = _from_values(bound, [k for k in range(bound + 1) if k in rep])
    assert as_bits == rep
    _assert_matches_naive(as_bits, m, coeffs, bound)
    extra = coeffs[-1] + 1
    assert extend_set(as_bits, m, extra) == extend_set(rep, m, extra)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=6, max_value=14),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=50, max_value=300),
)
def test_extend_set_from_a_sparse_parent_agrees_with_rebuilding(m, ell, extra, bound):
    coeffs = guy_form(m, min(ell, m - 4)).form.coeffs
    parent = represented_set(PolygonalForm(m, coeffs), bound)
    assert len(parent.missing()) <= polygonal.SPARSE_MISSING
    child = PolygonalForm(m, coeffs).extend(coeffs[-1] + extra)
    extended = extend_set(parent, m, child.coeffs[-1])
    assert extended == represented_set(child, bound)
    _assert_matches_naive(extended, m, child.coeffs, bound)


def test_folds_cross_the_sparse_switch():
    # one fold at a time along a single-gap form: the missing count falls
    # through the switch and ends at the designed gap
    gf = guy_form(12, 5)
    bound = 400
    rep = represented_set(PolygonalForm(12, ()), bound)
    counts = []
    for j, a in enumerate(gf.form.coeffs):
        rep = extend_set(rep, 12, a)
        counts.append(len(rep.missing()))
        _assert_matches_naive(rep, 12, gf.form.coeffs[: j + 1], bound)
    assert counts[0] > polygonal.SPARSE_MISSING >= counts[-1]
    assert rep.missing() == [5]
    assert rep == represented_set(gf.form, bound)


def test_sparse_set_from_bits_folds_like_its_content():
    # bits with a handful of gaps, built by hand, fold on the gap list
    rep = _from_values(20, set(range(21)) - {7, 8, 19})
    assert rep.missing() == [7, 8, 19] and rep.truant() == 7 and rep.count() == 18
    assert 8 not in rep and 9 in rep
    # adding P_5 values {0, 1, 2, 5, 7, 12, 15} once: 7 = 6 + 1, 8 = 6 + 2,
    # 19 = 18 + 1
    assert extend_set(rep, 5, 1).missing() == []
    # adding 4 * P_5 = {0, 4, 8, 20}: 7 - 4 = 3, 8 - 8 = 0, 19 - 4 = 15
    assert extend_set(rep, 5, 4) == _from_values(20, range(21))
    # adding 10 * P_5 = {0, 10, 20}: 7 and 8 stay out of reach, 19 - 10 = 9
    assert extend_set(rep, 5, 10).missing() == [7, 8]


# dense parents (more than SPARSE_MISSING values missing) whose extended
# truant lies in each window of the truant-only fold: [0, 2t], [0, 4t],
# [0, 16t], the window clipped to the bound, and nowhere (None)
@pytest.mark.parametrize(
    "m, coeffs, bound, coeff",
    [
        (3, (), 101, 1),  # truant 2 <= 2t
        (5, (), 101, 1),  # truant 3 in (2t, 4t]
        (4, (2,), 101, 1),  # truant 5 in (4t, 16t]
        (5, (2, 5), 101, 1),  # truant 18 past 16t = 16, window clipped to 101
        (3, (1, 1), 101, 1),  # three triangulars: the windows reach the bound
        (4, (1, 1, 1), 301, 1),  # four squares (Lagrange), at an odd bound
        (4, (1, 1, 1), 301, 8),  # coefficient past the escalation range, t = 7
    ],
)
def test_extended_truant_on_dense_parents_matches_naive(m, coeffs, bound, coeff):
    parent = represented_set(PolygonalForm(m, coeffs), bound)
    assert len(parent.missing()) > polygonal.SPARSE_MISSING
    expected = ref.naive_truant(m, coeffs + (coeff,), bound)
    assert polygonal._extended_truants(parent, m, [coeff]) == [expected]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.lists(st.integers(min_value=1, max_value=6), max_size=6),
    st.integers(min_value=1, max_value=400) | st.just(1),
    st.booleans(),
    st.data(),
)
def test_extended_truant_matches_extend_set(m, coeffs, bound, as_bits, data):
    # the truant-only folds against the whole folds, from sparse and dense
    # parents: the whole escalation range [a_n, t] that build_tree asks for,
    # then coefficients drawn in and past it, in any order
    parent = represented_set(PolygonalForm.of(m, *coeffs), bound)
    if as_bits:
        # peels its gaps when first asked
        parent = _from_values(bound, [k for k in range(bound + 1) if k in parent])
    top = parent.truant() or bound
    drawn = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=top + 2)
            | st.integers(min_value=top + 1, max_value=2 * bound + 2),
            max_size=6,
        )
    )
    for ks in (range(max(coeffs, default=1), top + 1), drawn, range(top + 1, top + 4)):
        expected = [extend_set(parent, m, k).truant() for k in ks]
        assert polygonal._extended_truants(parent, m, ks) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.lists(st.integers(min_value=1, max_value=8), max_size=5),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
)
def test_mirrored_folds_match_naive_at_every_small_bound(m, coeffs, ks):
    # every bound 0..140 crosses the byte edges of the buffer that folds {0}
    # and the 30-bit digit edges of Python ints; the fold of {0} is the first
    # fold of every form and the extension of the empty form (a tree root)
    top = 140
    form = PolygonalForm.of(m, *coeffs)
    # the values up to a bound are those up to top cut to the bound
    whole = ref.represented(m, form.coeffs, top)
    extended = {k: ref.represented(m, form.coeffs + (k,), top) for k in ks}
    single = {k: ref.represented(m, (k,), top) for k in ks}
    for bound in range(top + 1):
        expected = {k for k in whole if k <= bound}
        gaps = tuple(k for k in range(bound + 1) if k not in expected)
        folded = represented_set(form, bound)
        parents = [folded, _from_values(bound, expected)]
        if len(gaps) <= polygonal.SPARSE_MISSING:
            parents.append(RepresentationSet._of_missing(bound, gaps))
        for parent in parents:
            _assert_reads(parent, expected, bound)
            assert parent == folded
        for k in ks:
            child = extend_set(folded, m, k)
            _assert_reads(child, {v for v in extended[k] if v <= bound}, bound)
            for parent in parents:
                assert extend_set(parent, m, k) == child
                assert polygonal._extended_truants(parent, m, [k]) == [child.truant()]
        root = represented_set(PolygonalForm(m, ()), bound)
        for k in ks:
            _assert_reads(extend_set(root, m, k), {v for v in single[k] if v <= bound}, bound)
        assert polygonal._extended_truants(root, m, ks) == [
            next((v for v in range(bound + 1) if v not in single[k]), None) for k in ks
        ]


def test_extend_set_rejects_nonpositive_coefficient():
    base = represented_set(PolygonalForm.of(3, 1), 10)
    for coeff in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="coefficients must be positive integers"):
            extend_set(base, 3, coeff)
    with pytest.raises(ValueError, match="number of sides"):
        extend_set(base, 2, 1)  # P_2(x) = x: the negative walk would never end


def test_bit_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(polygonal, "DEFAULT_BIT_CAP", 50)
    form = PolygonalForm.of(3, 1)
    assert represented_set(form, 49).count() == 10  # triangular numbers up to 45
    with pytest.raises(ResourceCapError, match="bitset of 51 bits exceeds cap of 50"):
        represented_set(form, 50)
    with pytest.raises(ResourceCapError):
        represented_set(form, 100)


def test_truant_requires_positive_bound():
    with pytest.raises(ValueError):
        truant(PolygonalForm.of(3, 1), 0)


def test_representation_set_is_a_plain_value():
    rep = _from_values(4, {0, 1, 4})
    assert [k for k in range(5) if k in rep] == [0, 1, 4]
    assert rep.missing() == [2, 3]
    assert rep.truant() == 2
    assert rep.count() == 3
    # equal by content in either layout, unequal on other content or bound
    assert rep == RepresentationSet._of_missing(4, (2, 3))
    assert rep != _from_values(4, {0, 1}) and rep != RepresentationSet._of_missing(4, (2,))
    assert _from_values(4, range(5)) != _from_values(5, range(6))  # none missing
    assert rep != "RepresentationSet"


def test_representation_sets_come_only_from_folds():
    # no public constructor, and no hash: nothing keys a dict or a set on one
    with pytest.raises(TypeError):
        RepresentationSet(5, 1)
    with pytest.raises(TypeError):
        hash(represented_set(PolygonalForm.of(3, 1), 10))


def test_repr_prints_no_decimal_bits():
    # str() of an int past 4300 decimal digits raises ValueError
    rep = represented_set(PolygonalForm.of(3, 1), 100_000)
    assert repr(rep) == "RepresentationSet(bound=100000, count=447, truant=2)"
    assert repr(_from_values(4, range(5))) == (
        "RepresentationSet(bound=4, count=5, truant=None)"
    )
