from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as ref
from mgonal import lattice, polygonal
from mgonal import (
    InternalConsistencyError,
    PolygonalForm,
    ResourceCapError,
    ShiftedDiagonalLattice,
    admissible,
    h_of_ell,
    lattice_from_form,
    representation_count,
    represents_equivalence_check,
    shift_fraction,
)

# ---------------------------------------------------------------------------
# the shift and the target map


def test_shift_fraction_small_m():
    assert shift_fraction(3) == Fraction(-1, 2)
    assert shift_fraction(4) == 0
    assert shift_fraction(5) == Fraction(1, 6)
    assert shift_fraction(6) == Fraction(1, 4)
    assert shift_fraction(7) == Fraction(3, 10)
    assert shift_fraction(8) == Fraction(1, 3)
    assert shift_fraction(12) == Fraction(2, 5)
    for bad in (2, 3.5, "5", True):
        with pytest.raises(ValueError, match="number of sides m must be an integer >= 3"):
            shift_fraction(bad)


def test_lattice_from_form_conductors():
    cases = {3: (1, 2), 4: (0, 1), 5: (1, 6), 7: (3, 10), 8: (1, 3), 12: (2, 5)}
    for m, (c, N) in cases.items():
        X = lattice_from_form(PolygonalForm.of(m, 1, 1))
        assert (X.c, X.N) == (c, N)
        assert X.gram == (1, 1)
    X8 = lattice_from_form(PolygonalForm.of(8, 1, 1))
    assert X8.squared_shift_sum == Fraction(2, 9)


def test_lattice_validation():
    with pytest.raises(ValueError):
        ShiftedDiagonalLattice((1, 1), 3, 3)  # c not below N
    with pytest.raises(ValueError):
        ShiftedDiagonalLattice((1, 1), 2, 4)  # c not coprime to N
    with pytest.raises(ValueError):
        ShiftedDiagonalLattice((0, 1), 0, 1)  # nonpositive gram entry
    for gram in ((True, 1), (1.5, 1), (-1, 1)):
        with pytest.raises(ValueError, match="gram entries must be positive integers, got"):
            ShiftedDiagonalLattice(gram, 0, 1)
    with pytest.raises(ValueError, match=r"^gram must be iterable, got 5$"):
        ShiftedDiagonalLattice(5, 0, 1)


def test_h_of_ell_frozen_values():
    form = PolygonalForm.of(7, 1, 1)
    assert h_of_ell(form, 0) == Fraction(9, 50)
    assert h_of_ell(form, 1) == Fraction(29, 50)
    square_form = PolygonalForm.of(4, 1, 2, 3)
    for ell in range(10):
        assert h_of_ell(square_form, ell) == ell
    with pytest.raises(ValueError, match=r"^ell must be nonnegative$"):
        h_of_ell(form, -1)


@given(
    st.integers(min_value=3, max_value=25),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=100),
)
def test_h_of_ell_is_strictly_increasing_from_the_constant(m, coeffs, ell):
    form = PolygonalForm.of(m, *coeffs)
    X = lattice_from_form(form)
    assert h_of_ell(form, 0) == X.squared_shift_sum
    assert h_of_ell(form, ell + 1) > h_of_ell(form, ell)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_unshifted_means_multiples_of_eight():
    X = ShiftedDiagonalLattice((1, 1, 1, 1), 0, 1)
    assert admissible(X, 8) and admissible(X, 16) and admissible(X, Fraction(24))
    assert not admissible(X, 4)
    assert not admissible(X, 1)


def test_admissible_octagonal_targets_need_ell_divisible_by_eight():
    form = PolygonalForm.of(8, 1, 1, 1)
    X = lattice_from_form(form)
    assert admissible(X, h_of_ell(form, 8))
    assert admissible(X, h_of_ell(form, 0))
    assert not admissible(X, h_of_ell(form, 4))
    assert not admissible(X, h_of_ell(form, 1))


@given(
    st.sampled_from([3, 5, 7, 9, 11, 6]),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=60),
)
def test_admissible_covers_every_target_when_m_is_odd_or_hexagonal(m, coeffs, ell):
    form = PolygonalForm.of(m, *coeffs)
    assert admissible(lattice_from_form(form), h_of_ell(form, ell))


@given(
    st.integers(min_value=3, max_value=30),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=12),
)
def test_admissible_always_holds_on_targets_of_multiples_of_eight(m, coeffs, k):
    form = PolygonalForm.of(m, *coeffs)
    assert admissible(lattice_from_form(form), h_of_ell(form, 8 * k))


# ---------------------------------------------------------------------------
# exact counting


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
)
def test_count_matches_naive_enumeration(gram, N, numerator):
    units = [c for c in range(N) if math.gcd(c, N) == 1]
    c = units[numerator % len(units)]
    X = ShiftedDiagonalLattice(tuple(sorted(gram)), c, N)
    h = Fraction(numerator, N * N)
    assert representation_count(X, h) == ref.shifted_count(X.gram, X.c, X.N, h)


def test_count_frozen_examples():
    # two squares: 25 = (+-3)^2 + (+-4)^2 and permutations, plus (+-5, 0)
    X = ShiftedDiagonalLattice((1, 1), 0, 1)
    assert representation_count(X, 25) == 12
    assert representation_count(X, 3) == 0
    assert representation_count(X, 0) == 1
    # shifted: lambda - 1/2 on both axes, target 1/2 = 4 * (1/4 + 1/4) / 4
    Y = ShiftedDiagonalLattice((1, 1), 1, 2)
    assert representation_count(Y, Fraction(1, 2)) == 4
    # four squares (Jacobi): r4(25) = 8 * 31, r4(2400) = 24 * sigma(75)
    Z = ShiftedDiagonalLattice((1, 1, 1, 1), 0, 1)
    assert representation_count(Z, 25) == 248
    assert representation_count(Z, 2400) == 2976
    # and r4(1000) = 8 * (1 + 2) * (1 + 5 + 25 + 125), r4(7777) = 8 * sigma(7 * 11 * 101),
    # r4(9999) = 8 * sigma(3**2 * 11 * 101)
    r4 = {1: 8, 2: 24, 3: 32, 4: 24, 96: 96, 1000: 8 * 3 * 156, 7777: 8 * 8 * 12 * 102,
          9999: 8 * 13 * 12 * 102}
    for n, count in r4.items():
        assert representation_count(Z, n) == count
    # four triangular numbers summing to ell are the vectors of (Z - 1/2)^4
    # of squared length 2*ell + 1, counted by 16 * sigma(2*ell + 1):
    # sigma(1999) = 2000 (a prime) and sigma(2001) = sigma(3 * 23 * 29) = 4 * 24 * 30
    triangular = PolygonalForm.of(3, 1, 1, 1, 1)
    T = lattice_from_form(triangular)
    assert representation_count(T, h_of_ell(triangular, 999)) == 16 * 2000
    assert representation_count(T, h_of_ell(triangular, 1000)) == 16 * 4 * 24 * 30
    # one long axis is a single square test, whatever the target's size
    assert representation_count(ShiftedDiagonalLattice((1,), 0, 1), 10**14) == 2
    # 10^10 = 10^6 * y^2 + z^2 forces z = 1000 * w with y^2 + w^2 = 10^4,
    # and r2(10^4) = 4 * #{odd divisors of 5^4} = 20
    assert representation_count(ShiftedDiagonalLattice((1, 10**6), 0, 1), 10**10) == 20


def test_count_of_non_lattice_rational_target_is_zero():
    X = ShiftedDiagonalLattice((1, 1), 1, 2)
    assert representation_count(X, Fraction(1, 3)) == 0


def test_count_rejects_negative_targets_and_enforces_the_cap(monkeypatch):
    X = ShiftedDiagonalLattice((1, 1), 0, 1)
    with pytest.raises(ValueError):
        representation_count(X, -1)
    monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", 100)
    with pytest.raises(ResourceCapError):
        representation_count(X, 10**8)


def test_cell_cap_bounds_the_remainder_walk(monkeypatch):
    # Under the default cap: r6(2000) by the divisor-sum formula, and
    # r4(10^4) = 8 * (sum of the divisors of 10^4 not divisible by 4)
    six = ShiftedDiagonalLattice((1,) * 6, 0, 1)
    assert representation_count(six, 2000) == 66_601_392
    assert representation_count(ShiftedDiagonalLattice((1,) * 4, 0, 1), 10**4) == 18_744
    # Axes of 89 points.  The first four are walked: 89 + 89**2 + 2 * 2001 * 89
    # steps, as the remainders are at most the 2001 values in [0, 2000].  The
    # last pair is tabulated within its box of 89**2 points, and each of the
    # 2001 remainders is one lookup.  Walking the fifth axis instead would
    # charge 2001 * 89 steps, more than the box.
    steps = 89 + 89**2 + 2 * 2001 * 89 + 89**2 + 2001
    with pytest.raises(ResourceCapError, match=f"~{steps} steps exceeds cap {steps - 1}"):
        monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", steps - 1)
        representation_count(six, 2000)
    monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", steps)
    assert representation_count(six, 2000) == 66_601_392


def test_cell_cap_bounds_the_walked_path(monkeypatch):
    # 10^10 = 10^6 * y^2 + z^2: the 201 points |y| <= 100 are walked, then
    # the 201 remainders are one square test each.  The pair's box would be
    # 201 * 200_001 points, so the walk is kept.
    X = ShiftedDiagonalLattice((1, 10**6), 0, 1)
    steps = 201 + 201
    with pytest.raises(ResourceCapError, match=f"~{steps} steps exceeds cap {steps - 1}"):
        monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", steps - 1)
        representation_count(X, 10**10)
    monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", steps)
    assert representation_count(X, 10**10) == 20
    # one long axis is one square test
    monkeypatch.setattr(lattice, "DEFAULT_CELL_CAP", 1)
    assert representation_count(ShiftedDiagonalLattice((1,), 0, 1), 10**14) == 2


# (1, 1, 2), (1, 1, 1, 2) and (1, 2, 3, 4) tabulate their last pair on
# nearly every target here; rank 2 always walks it, and so does (1, 2, 5)
# here.  Each target is a value of the lattice, so the counts are not all
# zero, and its two neighbours.
_GRID_GRAMS = ((1, 1), (1, 3), (1, 1, 2), (1, 2, 5), (1, 1, 1, 2), (1, 2, 3, 4))


@pytest.mark.parametrize("gram", _GRID_GRAMS)
def test_count_matches_naive_enumeration_on_a_grid(gram):
    for N in (1, 2, 3, 5, 6):
        for c in sorted({1 % N, (N - 1) % N}):
            y = [N * k - c for k in (3, -2, 1, 2)]
            H = sum(a * v * v for a, v in zip(gram, y))
            for target in (H - 1, H, H + 1):
                h = Fraction(target, N * N)
                assert representation_count(ShiftedDiagonalLattice(gram, c, N), h) == (
                    ref.shifted_count(gram, c, N, h)
                ), (gram, c, N, target)


def test_count_when_the_walk_leaves_no_remainder():
    # y = -1 mod 2: 2 * y**2 = 2 for y = +-1 leaves remainder 0, and the
    # next axis has no odd y with y**2 <= 0, so nothing is left to look up.
    X = ShiftedDiagonalLattice((1, 1, 1, 2), 1, 2)
    assert representation_count(X, Fraction(1, 2)) == 0
    assert ref.shifted_count(X.gram, 1, 2, Fraction(1, 2)) == 0


@pytest.mark.parametrize("target", [25.0, "25", True, False, None, 2 + 0j])
def test_targets_must_be_exact(target):
    X = ShiftedDiagonalLattice((1, 1), 0, 1)
    message = f"target must be an int or a Fraction, got {target!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        representation_count(X, target)
    with pytest.raises(ValueError, match=re.escape(message)):
        admissible(X, target)


def test_count_on_the_empty_lattice():
    X = ShiftedDiagonalLattice((), 0, 1)
    assert representation_count(X, 0) == 1
    assert representation_count(X, 5) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.sampled_from([2, 3, 4, 5]),
    st.integers(min_value=0, max_value=30),
)
def test_count_is_invariant_under_negating_the_shift(gram, N, numerator):
    units = [c for c in range(1, N) if math.gcd(c, N) == 1]
    c = units[numerator % len(units)]
    h = Fraction(numerator, N * N)
    X = ShiftedDiagonalLattice(tuple(sorted(gram)), c, N)
    Y = ShiftedDiagonalLattice(tuple(sorted(gram)), (N - c) % N, N)
    assert representation_count(X, h) == representation_count(Y, h)


# ---------------------------------------------------------------------------
# the two routes agree


def test_equivalence_check_small_grid():
    for m in (3, 5, 7, 8):
        for form in (PolygonalForm.of(m, 1, 2, 3), PolygonalForm.of(m, 1, 2, 3, 5, 8)):
            for ell in range(0, 61):
                assert represents_equivalence_check(form, ell, 100) == (
                    ell in ref.represented(m, form.coeffs, 100)
                )


def test_equivalence_check_validates_the_window():
    with pytest.raises(ValueError):
        represents_equivalence_check(PolygonalForm.of(5, 1), 20, 10)


@pytest.mark.parametrize("ell,bound", [(3, "10"), ("3", 10), (3.0, 10), (True, 10), (3, 10.0)])
def test_equivalence_check_rejects_non_integer_windows(ell, bound):
    with pytest.raises(ValueError, match="must be an integer"):
        represents_equivalence_check(PolygonalForm.of(5, 1), ell, bound)


def test_equivalence_check_folds_only_up_to_ell(monkeypatch):
    # a bitset over [0, bound] would exceed the cap; one over [0, ell] does not
    monkeypatch.setattr(polygonal, "DEFAULT_BIT_CAP", 1000)
    form = PolygonalForm.of(5, 1, 2)  # truant 8; 20 is missing, 22 is P_5(4)
    assert represents_equivalence_check(form, 20, 10**5) is False
    assert represents_equivalence_check(form, 22, 10**5) is True


def test_equivalence_check_raises_on_internal_disagreement(monkeypatch):
    import mgonal.lattice as lat

    monkeypatch.setattr(lat, "representation_count", lambda X, h: 0)
    with pytest.raises(InternalConsistencyError):
        # 1 is represented by every nonempty form, so a zero count must trip
        lat.represents_equivalence_check(PolygonalForm.of(5, 1), 1, 50)
