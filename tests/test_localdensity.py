from __future__ import annotations

import ast
import inspect
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naive_oracles as ref
from mgonal import localdensity
from mgonal import (
    ConformanceRow,
    Density,
    InternalConsistencyError,
    JordanDecomposition,
    PolygonalForm,
    ResourceCapError,
    ShiftedDiagonalLattice,
    WrongDispatchError,
    classify_universality_pattern,
    conformance_csv,
    density_p_dividing_N,
    h_of_ell,
    jordan_decompose,
    lattice_from_form,
    local_density,
    siegel_count_density,
    stabilization_threshold,
    tau_gauss_sum,
    tau_lemma_value,
    verify_case_bounds,
    yang_density_odd,
    yang_density_two,
)

# ---------------------------------------------------------------------------
# Jordan data


def test_jordan_decompose_splits_exponents_and_units():
    jd = jordan_decompose(3, (1, 1, 1, 3))
    assert jd.exponents == (0, 0, 0, 1)
    assert jd.units == (1, 1, 1, 1)
    jd2 = jordan_decompose(2, (1, 2, 4, 12))
    assert jd2.exponents == (0, 1, 2, 2)
    assert jd2.units == (1, 1, 1, 3)
    assert sorted(jd2.gram()) == sorted((1, 2, 4, 12))


def test_jordan_decompose_orders_by_exponent():
    jd = jordan_decompose(5, (50, 3, 1, 25))
    assert jd.exponents == (0, 0, 2, 2)
    assert jd.units == (3, 1, 2, 1)


def test_jordan_requires_a_prime():
    with pytest.raises(ValueError):
        jordan_decompose(4, (1, 1))


@pytest.mark.parametrize(
    "p, entries, message",
    [
        (4, ((0, 1),) * 4, "expected a prime, got 4"),
        (3, ((0, 1), (0, 1), (0, 1), (0, 3)), "b >= 1 prime to 3, got (0, 3)"),
        (3, ((1, 1), (0, 1), (0, 1), (0, 1)), "sorted by exponent, got (1, 0, 0, 0)"),
        (3, ((0, 1.0),) + ((0, 1),) * 3, "got (0, 1.0)"),
        (3, ((0, True),) + ((0, 1),) * 3, "got (0, True)"),
        (3, ((-1, 1),) + ((0, 1),) * 3, "got (-1, 1)"),
        (3, ((0, 0),) + ((0, 1),) * 3, "got (0, 0)"),
        (3, ((0, -1),) + ((0, 1),) * 3, "got (0, -1)"),
        (3, ((0, 1, 1),) + ((0, 1),) * 3, "got (0, 1, 1)"),
        (3, ([0, 1],) + ((0, 1),) * 3, "got [0, 1]"),
        (3, [(0, 1)] * 4, "Jordan entries must be a tuple"),
    ],
)
def test_jordan_decomposition_refuses_malformed_data(p, entries, message):
    # Unchecked, the first three make yang_density_odd(jd, 8) return the
    # wrong densities 75/64, 1 and 4/3, and the fourth raise TypeError.
    with pytest.raises(ValueError, match=re.escape(message)):
        JordanDecomposition(p, entries)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
def test_jordan_decompose_output_is_well_formed(p, gram):
    jd = jordan_decompose(p, gram)
    assert JordanDecomposition(jd.p, jd.entries) == jd


# ---------------------------------------------------------------------------
# gauss sums


def test_tau_lemma_values():
    assert tau_lemma_value(3, 1, 3) == 0
    assert tau_lemma_value(3, 4, 9) == 0
    assert tau_lemma_value(5, 2, 10) == 0
    assert tau_lemma_value(2, 1, 2) == 1
    assert tau_lemma_value(2, 2, 6) == 1
    assert tau_lemma_value(2, 3, 6) == 0
    assert tau_lemma_value(2, 1, 4) == 1
    assert tau_lemma_value(2, 2, 12) == 0
    assert tau_lemma_value(3, 2, 5) is None  # p does not divide N


@pytest.mark.parametrize(
    "args, message",
    [
        ((4, 1, 8), "expected a prime, got 4"),
        ((3, 1.0, 3), "t must be an integer, got 1.0"),
        ((3, 1, 3.0), "N must be an integer, got 3.0"),
        ((3, -1, 3), "t must be >= 1"),
        ((3, 1, 0), "N must be >= 1"),
        ((3, 1, "3"), "N must be an integer, got '3'"),
    ],
)
def test_tau_lemma_value_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tau_lemma_value(*args)


def test_tau_numeric_matches_the_lemma_values():
    cases = {(3, 3): (1, 2), (5, 5): (1, 2, 3, 4), (2, 2): (1,), (2, 4): (1, 3)}
    for (p, N), cs in cases.items():
        for t in (1, 2, 3):
            expected = tau_lemma_value(p, t, N)
            for alpha in range(1, 3 * p):
                if alpha % p == 0:
                    continue
                for c in cs:
                    err = abs(tau_gauss_sum(p, t, alpha, N, c) - expected)
                    assert err < 1e-9


def test_tau_input_validation():
    with pytest.raises(ValueError):
        tau_gauss_sum(3, 0, 1, 3, 1)
    with pytest.raises(ValueError):
        tau_gauss_sum(3, 1, 6, 3, 1)  # alpha not a unit
    with pytest.raises(ValueError):
        tau_gauss_sum(2, 1, 1, 4, 2)  # c shares a factor with N
    for N in (0, -3):
        with pytest.raises(ValueError, match=r"^N must be >= 1$"):
            tau_gauss_sum(3, 1, 1, N, 1)
    with pytest.raises(ValueError, match=r"^N must be >= 1$"):
        tau_gauss_sum(3, 10**7, 1, 0, 1)  # refused before the modulus cap
    with pytest.raises(ResourceCapError):
        tau_gauss_sum(2, 19, 1, 2, 1)


@pytest.mark.parametrize(
    "p, t, call",
    [
        (7, 10**7, lambda: siegel_count_density(7, (1, 1, 1, 1), 1, 10**7)),
        (2, 20000, lambda: siegel_count_density(2, (1, 1, 1, 1), 1, 20000)),
        (7, 10000, lambda: tau_gauss_sum(7, 10000, 1, 7, 1)),
    ],
)
def test_huge_exponents_are_refused_before_the_power(p, t, call):
    # 7**(10**7) takes seconds, and 2**20000 and 7**10000 have more digits
    # than int -> str allows: the cap names such a modulus only as p^t
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=rf"^modulus {p}\^{t} exceeds cap 262144$"):
        call()
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# closed forms on the conductor


def test_closed_form_density_table():
    assert density_p_dividing_N(3, 3).value == Fraction(1, 3)
    assert density_p_dividing_N(3, 45).value == Fraction(1, 9)
    assert density_p_dividing_N(5, 10).value == Fraction(1, 5)
    assert density_p_dividing_N(2, 2).value == Fraction(2)
    assert density_p_dividing_N(2, 6).value == Fraction(2)
    assert density_p_dividing_N(2, 4).value == Fraction(1, 2)
    assert density_p_dividing_N(2, 24).value == Fraction(1, 4)
    d = density_p_dividing_N(7, 49)
    assert d == Density(Fraction(1, 49), "closed_form")
    assert d.t is None and d.stabilized is None


def test_closed_form_density_requires_p_dividing_N():
    with pytest.raises(WrongDispatchError):
        density_p_dividing_N(3, 5)
    with pytest.raises(ValueError):
        density_p_dividing_N(4, 8)
    # a conductor below 1 is refused as such, not as a prime it fails to divide
    for N in (0, -3):
        with pytest.raises(ValueError, match=r"^N must be >= 1$"):
            density_p_dividing_N(3, N)


# ---------------------------------------------------------------------------
# explicit formulas, frozen hand-checked values


def test_six_squares_two_adic_densities():
    jd = jordan_decompose(2, (1,) * 6)
    assert yang_density_two(jd, 1).value == Fraction(3, 4)
    assert yang_density_two(jd, 2).value == Fraction(15, 16)


def test_six_squares_five_adic_density():
    jd = jordan_decompose(5, (1,) * 6)
    d = yang_density_odd(jd, 1)
    assert d.value == Fraction(124, 125)
    assert d.method == "yang_odd"


def test_non_unimodular_three_adic_densities():
    jd = jordan_decompose(3, (1, 1, 1, 3))
    assert yang_density_odd(jd, 1).value == Fraction(2, 3)
    assert yang_density_odd(jd, 3).value == Fraction(10, 9)


def test_yang_input_validation():
    jd4 = jordan_decompose(3, (1, 1, 1, 3))
    with pytest.raises(WrongDispatchError):
        yang_density_odd(jordan_decompose(2, (1, 1, 1, 1)), 1)
    with pytest.raises(WrongDispatchError):
        yang_density_two(jd4, 1)
    with pytest.raises(ValueError):
        yang_density_odd(jd4, 0)
    with pytest.raises(ValueError, match="target must be a 3-adic integer"):
        yang_density_odd(jd4, Fraction(1, 3))
    with pytest.raises(ValueError, match="target must be a 2-adic integer"):
        yang_density_two(jordan_decompose(2, (1, 1, 1, 1)), Fraction(1, 2))
    with pytest.raises(ValueError):
        yang_density_odd(jordan_decompose(3, (1, 1, 1)), 1)
    with pytest.raises(ValueError):
        yang_density_two(jordan_decompose(2, (1, 1, 1, 1, 1)), 1)


# ---------------------------------------------------------------------------
# the counting oracle


@pytest.mark.parametrize(
    "p,t,gram,targets",
    [
        (3, 1, (1, 1, 2), (3, 1, 2)),
        (3, 2, (2, 5), (9, 1, 4, Fraction(1, 5))),
        (2, 2, (1, 3), (4, 1, 2, 3)),
        (2, 3, (1, 2, 3, 4), (1, 5, 8)),
        (5, 1, (1, 2, 3), (5, 2, 4)),
        (2, 4, (1, 3, 5), (Fraction(1, 3),)),
        (3, 3, (1, 2), (Fraction(5, 2),)),
    ],
)
def test_oracle_matches_naive_residue_counting(p, t, gram, targets):
    # Every residue 1..p**t, so each square class is reached: the target
    # p**t is residue 0, and at p = 2 unit parts are keyed mod 2, 4 and 8.
    # h = 0 itself is rejected.  The listed targets add rationals.
    for h in (*range(1, p**t + 1), *targets):
        fast = siegel_count_density(p, gram, h, t).value
        assert fast == ref.residue_density(p, t, gram, h)


def _rows(table) -> list[list[tuple[int, int, int]]]:
    """The pair table regrouped by row, as the naive convolution reads it:
    rows[C] lists (i, j, n) for each entry (C, i, n) of table[j]."""
    rows = [[] for _ in table]
    for j, entries in enumerate(table):
        for C, i, n in entries:
            rows[C].append((i, j, n))
    return rows


@pytest.mark.parametrize(
    "p,t",
    [(2, t) for t in range(1, 13)]
    + [(3, t) for t in range(1, 8)]
    + [(5, t) for t in range(1, 6)]
    + [(7, t) for t in range(1, 5)],
)
def test_class_tables_match_per_residue_counts(p, t):
    index, reps, sizes, table = localdensity._class_tables(p, t)
    orbit, ref_pairs, ref_coordinates = ref.square_class_tables(p, t)
    # Each class of the table must be exactly one unit-square orbit.
    number = {}
    for v in range(p**t):
        C = index[localdensity._square_class(v, p, t)]
        assert number.setdefault(orbit[v], C) == C
    assert sorted(number.values()) == list(range(len(index)))
    assert [number[orbit[r]] for r in reps] == list(range(len(index)))
    M = p**t
    assert Counter(number[orbit[v]] for v in range(M)) == dict(enumerate(sizes))
    pairs = _rows(table)
    for r, counts in ref_pairs.items():
        row = Counter()
        for i, j, n in pairs[number[r]]:
            row[i, j] += n
        assert row == {(number[i], number[j]): n for (i, j), n in counts.items()}
    for a, counts in ref_coordinates.items():
        assert localdensity._class_distribution(p, t, (number[a],)) == tuple(
            n for _, n in sorted((number[C], n) for C, n in counts.items())
        )


@pytest.mark.parametrize("p,t", [(2, 18), (3, 11), (5, 7), (7, 6)])
def test_class_tables_count_every_residue_past_the_naive_reach(p, t):
    # The naive tables stop at 2^12.  Past it, each part of the table must
    # still count every residue mod p^t once: the elements of the classes,
    # the w in the row of each class, and the x behind the one-coefficient
    # row of each class.
    _, _, sizes, table = localdensity._class_tables(p, t)
    M = p**t
    assert sum(sizes) == M
    per_row = Counter()
    for entries in table:
        for C, _, n in entries:
            per_row[C] += n
    assert per_row == dict.fromkeys(range(len(sizes)), M)
    for c in range(len(sizes)):
        row = localdensity._class_distribution(p, t, (c,))
        assert sum(n * size for n, size in zip(row, sizes)) == M, c


SMALL_TABLES = [(p, t) for p in (2, 3, 5, 7, 11, 13) for t in range(1, 13) if p**t <= 4096]


def test_class_distribution_matches_the_naive_convolution_on_every_pair():
    # The scatter over nonzero terms against the plain row sums, for every
    # ordered pair of coefficient classes of every small table.
    for p, t in SMALL_TABLES:
        *_, table = localdensity._class_tables(p, t)
        pairs = _rows(table)
        rows = [localdensity._class_distribution(p, t, (c,)) for c in range(len(table))]
        for a, head in enumerate(rows):
            for b, last in enumerate(rows):
                fast = localdensity._class_distribution(p, t, (a, b))
                assert fast == ref.class_convolution(pairs, head, last), (p, t, a, b)


@pytest.mark.parametrize("p,t", [(2, 10), (2, 14), (3, 11), (5, 7), (7, 6)])
def test_class_distribution_matches_the_naive_convolution_on_random_ranks(p, t):
    # 2^14 is the largest modulus of the densities benchmark; the odd primes
    # take the largest exponent under DEFAULT_ORACLE_MODULUS_CAP.
    *_, table = localdensity._class_tables(p, t)
    pairs = _rows(table)
    rows = [localdensity._class_distribution(p, t, (c,)) for c in range(len(table))]
    rng = random.Random(p * 100 + t)
    for _ in range(12):
        classes = tuple(rng.randrange(len(rows)) for _ in range(rng.randint(3, 6)))
        want = rows[classes[0]]
        for c in classes[1:]:
            want = ref.class_convolution(pairs, want, rows[c])
        assert localdensity._class_distribution(p, t, classes) == want, classes


def test_oracle_stabilizes_at_the_threshold():
    gram = (1, 1, 1, 3)
    t = stabilization_threshold(3, gram, 1)
    assert t == 3
    d = siegel_count_density(3, gram, 1, t)
    assert d.method == "oracle"
    assert d.t == t
    assert d.stabilized
    assert d.value == Fraction(2, 3)


def test_stabilization_threshold_formula():
    assert stabilization_threshold(3, (1, 3, 9), 9) == 2 * 3 + 2 + 1
    assert stabilization_threshold(2, (1, 2), 1) == 2 * 2 + 0 + 1
    assert stabilization_threshold(5, (1, 1), Fraction(25, 2)) == 0 + 2 + 1
    assert stabilization_threshold(3, (1, 1, 1, 1), Fraction(9, 2)) == 0 + 2 + 1


@pytest.mark.parametrize("h", [Fraction(8, 3), Fraction(1, 27), Fraction(1, 3)])
def test_stabilization_threshold_refuses_a_target_that_is_not_a_p_adic_integer(h):
    # as the oracle it sizes does, with the same message
    for call in (
        lambda: stabilization_threshold(3, (1, 1, 1, 1), h),
        lambda: siegel_count_density(3, (1, 1, 1, 1), h, 1),
    ):
        with pytest.raises(ValueError, match=r"^target must be a 3-adic integer$"):
            call()
    assert stabilization_threshold(2, (1, 1, 1, 1), Fraction(8, 3)) == 2 + 3 + 1


def test_oracle_input_validation(monkeypatch):
    with pytest.raises(WrongDispatchError):
        siegel_count_density(3, (1, 1, 1, 1), 1, 2, N=6)
    with pytest.raises(ValueError):
        siegel_count_density(3, (1, 1), 1, 0)
    with pytest.raises(ValueError):
        siegel_count_density(3, (1, 1), -1, 1)
    with pytest.raises(ValueError, match="target must be positive"):
        siegel_count_density(3, (1, 1), 0, 1)
    with pytest.raises(ValueError, match="target must be positive"):
        stabilization_threshold(3, (1, 1), 0)
    with pytest.raises(ValueError, match="expected a prime, got 4"):
        stabilization_threshold(4, (1, 1), 1)
    with pytest.raises(ValueError, match="target must be a 3-adic integer"):
        siegel_count_density(3, (1, 1), Fraction(1, 3), 1)
    with pytest.raises(ValueError, match=r"^gram must be nonempty$"):
        siegel_count_density(3, (), 1, 1)
    with pytest.raises(ValueError, match=r"^gram must be nonempty$"):
        stabilization_threshold(3, (), 1)
    for N in (0, -1):
        with pytest.raises(ValueError, match=r"^N must be >= 1$"):
            siegel_count_density(3, (1, 1, 1, 1), 1, 2, N=N)
    for gram in ((0, 1, 1, 1), (-1, 1, 1, 1), (1.5, 1, 1, 1), (True, 1, 1, 1)):
        for call in (
            lambda: siegel_count_density(3, gram, 1, 1),
            lambda: stabilization_threshold(3, gram, 1),
            lambda: jordan_decompose(3, gram),
        ):
            with pytest.raises(ValueError, match="gram entries must be positive integers"):
                call()
    for call in (
        lambda: siegel_count_density(3, 5, 8, 1),
        lambda: stabilization_threshold(3, 5, 8),
        lambda: jordan_decompose(3, 5),
    ):
        with pytest.raises(ValueError, match=r"^gram must be iterable, got 5$"):
            call()
    with pytest.raises(ResourceCapError):
        siegel_count_density(2, (1, 1), 1, 30)
    # the cap bounds the largest modulus used, p^(t+2)
    monkeypatch.setattr(localdensity, "DEFAULT_ORACLE_MODULUS_CAP", 27)
    with pytest.raises(ResourceCapError, match=r"3\^4 = 81 exceeds cap 27"):
        siegel_count_density(3, (1, 1, 1, 1), 1, 2)
    monkeypatch.setattr(localdensity, "DEFAULT_ORACLE_MODULUS_CAP", 81)
    assert siegel_count_density(3, (1, 1, 1, 1), 1, 2).stabilized


@pytest.mark.parametrize("target", [8.0, 8.5, "8", True, False, None])
def test_density_targets_must_be_exact(target):
    gram = (1, 1, 1, 1)
    X = ShiftedDiagonalLattice(gram, 0, 1)
    message = f"target must be an int or a Fraction, got {target!r}"
    for call in (
        lambda: local_density(X, target, 3),
        lambda: local_density(X, target, 3, check_oracle=True),
        lambda: siegel_count_density(3, gram, target, 3),
        lambda: stabilization_threshold(3, gram, target),
        lambda: yang_density_odd(jordan_decompose(3, gram), target),
        lambda: yang_density_two(jordan_decompose(2, gram), target),
        lambda: verify_case_bounds(jordan_decompose(3, (1, 1, 1, 1, 1, 9)), [target]),
        lambda: verify_case_bounds(jordan_decompose(2, (1, 3, 2, 8, 16, 32)), [target]),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.sampled_from([1, 2, 3, 5, 6, 7, 9, 10]), min_size=4, max_size=4),
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]),
)
def test_yang_formulas_match_the_stabilized_oracle(p, gram, h):
    gram = tuple(gram)
    t = stabilization_threshold(p, gram, h)
    assume(t + 2 <= {2: 12, 3: 8}[p])
    jd = jordan_decompose(p, gram)
    formula = yang_density_two(jd, h) if p == 2 else yang_density_odd(jd, h)
    oracle = siegel_count_density(p, gram, h, t)
    assert oracle.stabilized
    assert formula.value == oracle.value


def _outcome(call):
    """What call() returns, or the type of the ValueError or
    InternalConsistencyError it raises."""
    try:
        return call()
    except (ValueError, InternalConsistencyError) as err:
        return type(err)


@st.composite
def _jordan_targets(draw):
    """(jd, h, t): Jordan data of rank 4-10 with exponents 0-6 and units
    covering every class mod p and mod 8, an int or Fraction target of
    valuation 0-6 whose denominator is prime to p, and an oracle exponent
    t with p^(t+2) <= 4096."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(4, 10))
    units = [u for u in range(1, 8 * p) if u % p]
    rs = sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    bs = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    h = draw(st.sampled_from(units)) * p ** draw(st.integers(0, 6))
    if draw(st.booleans()):
        h = Fraction(h, draw(st.sampled_from(units)))
    t = draw(st.integers(1, max(tt for tt in range(1, 12) if p ** (tt + 2) <= 4096)))
    return JordanDecomposition(p, tuple(zip(rs, bs))), h, t


@settings(max_examples=200, deadline=None)
@given(_jordan_targets())
def test_integer_sums_match_the_fraction_reference(inputs):
    # Both formulas and the oracle's stabilization test against the
    # reference's term-by-term Fraction arithmetic: equal values (so equal
    # numerators and denominators), equal flags, and the same refusals.
    jd, h, t = inputs
    if jd.p == 2:
        fast, slow = yang_density_two, ref.yang_density_two
    else:
        fast, slow = yang_density_odd, ref.yang_density_odd
    assert _outcome(lambda: fast(jd, h).value) == _outcome(lambda: slow(jd, h))
    oracle = siegel_count_density(jd.p, jd.gram(), h, t)
    assert (oracle.value, oracle.stabilized) == ref.stabilized_count_density(jd.p, jd.gram(), h, t)


@pytest.mark.parametrize("gram", [(1, 1, 1, 32), (1, 3, 5, 32), (1, 1, 3, 5, 7, 32)])
@pytest.mark.parametrize("h", [8, 24, 40])
def test_yang_two_matches_the_oracle_at_the_cap(gram, h):
    # t = 16, so the oracle's largest modulus 2^18 is the default cap.
    t = stabilization_threshold(2, gram, h)
    assert 2 ** (t + 2) == localdensity.DEFAULT_ORACLE_MODULUS_CAP
    oracle = siegel_count_density(2, gram, h, t)
    assert oracle.stabilized
    assert oracle.value == yang_density_two(jordan_decompose(2, gram), h).value


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    """The names reachable from start in the call graph, start included."""
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [m for n in frontier for m in graph[n] if m not in seen]
        seen.update(frontier)
    return seen


def test_the_two_density_routes_stay_independent():
    # The call graph of localdensity's module-level names: each name points
    # at the module-level names its definition refers to.
    tree = ast.parse(inspect.getsource(localdensity))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    graph = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in defs}
        for name, node in defs.items()
    }
    formula_entries = {
        "yang_density_odd", "yang_density_two", "density_p_dividing_N",
        "jordan_decompose", "verify_case_bounds",
    } | {name for name in defs if name.startswith("tau_")}
    formula_only = formula_entries | {
        "JordanDecomposition", "classify_universality_pattern",
        "ConformanceRow", "_l_indices", "_power_sum", "_two_adic_term",
        "_tail_sum_two_adic", "_kronecker2", "_unit_part_mod",
    }
    oracle_only = {
        "_class_tables", "_class_distribution", "_residue_count", "_square_class",
    }
    # Each route-private name is listed: the names only the formulas reach,
    # and the names only the oracle reaches.
    formulas = set().union(*(_reach(graph, entry) for entry in formula_entries))
    oracle = _reach(graph, "siegel_count_density")
    assert formulas - oracle == formula_only
    assert oracle - formulas == oracle_only | {"siegel_count_density"}
    # The routes meet only where local_density asks _oracle_check to
    # recompute a formula value.
    assert {n for n in defs if "siegel_count_density" in graph[n]} == {"_oracle_check"}
    assert {n for n in defs if "_oracle_check" in graph[n]} == {"local_density"}
    meeting = {
        name
        for name in defs
        if "siegel_count_density" in _reach(graph, name)
        and {"yang_density_odd", "yang_density_two"} & _reach(graph, name)
    }
    assert meeting == {"local_density"}


# ---------------------------------------------------------------------------
# the dispatcher


def test_dispatcher_routes_conductor_primes_to_closed_forms():
    form = PolygonalForm.of(7, 1, 1, 1, 1)
    X = lattice_from_form(form)  # N = 10, c = 3
    h = h_of_ell(form, 5)
    assert local_density(X, h, 2).value == Fraction(2)
    assert local_density(X, h, 5).value == Fraction(1, 5)
    assert local_density(X, h, 2).method == "closed_form"


def test_dispatcher_uses_yang_off_the_conductor_and_survives_the_oracle():
    form = PolygonalForm.of(7, 1, 1, 1, 1)
    X = lattice_from_form(form)
    for ell in (1, 5, 12):
        h = h_of_ell(form, ell)
        for p in (3, 7):
            checked = local_density(X, h, p, check_oracle=True)
            assert checked.method == "yang_odd"
            assert checked.value > 0
    two = local_density(ShiftedDiagonalLattice((1, 1, 1, 1), 0, 1), 8, 2,
                        check_oracle=True)
    assert two.method == "yang_two"


def test_dispatcher_validates_inputs():
    X = lattice_from_form(PolygonalForm.of(7, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        local_density(X, 1, 3)  # h = 1 is not an admissible target here
    with pytest.raises(ValueError):
        local_density(ShiftedDiagonalLattice((2, 2, 4, 4), 0, 1), 8, 3)
    with pytest.raises(ValueError):
        local_density(ShiftedDiagonalLattice((1, 1, 1), 0, 1), 8, 3)  # odd rank
    with pytest.raises(ValueError):
        local_density(X, h_of_ell(PolygonalForm.of(7, 1, 1, 1, 1), 1), 4)


def test_dispatcher_oracle_check_raises_on_injected_disagreement(monkeypatch):
    import mgonal.localdensity as ld

    X = ShiftedDiagonalLattice((1, 1, 1, 1), 0, 1)
    wrong = Density(Fraction(99), "oracle", t=5, stabilized=True)
    monkeypatch.setattr(ld, "siegel_count_density", lambda *a, **k: wrong)
    with pytest.raises(InternalConsistencyError):
        ld.local_density(X, 8, 3, check_oracle=True)


# ---------------------------------------------------------------------------
# classification and case bounds


CLASSIFIED = {
    (3, (1, 1, 1, 1, 1, 9)): "case1",
    (3, (1, 2, 3, 3, 9, 27)): "case2",
    (3, (1, 1, 3, 3, 9, 9)): "case3",
    (5, (1, 1, 2, 5, 5, 5)): "case1",
    (5, (1, 4, 5, 5, 25, 25)): "case2",
    (5, (1, 2, 5, 5, 25, 25)): "case3",
    (2, (1, 3, 5, 4, 8, 16)): "case1",
    (2, (1, 3, 2, 8, 16, 32)): "case2",
    (2, (1, 2, 2, 4, 16, 32)): "case3",
    (2, (1, 2, 4, 8, 16, 64)): "case4",
}


def test_classification_of_known_patterns():
    for (p, gram), label in CLASSIFIED.items():
        assert classify_universality_pattern(jordan_decompose(p, gram)) == label


def test_classification_unclassified_patterns():
    for p, gram in [
        (3, (3, 3, 3, 3, 3, 3)),
        (3, (1, 1, 3, 9, 9, 9)),
        (2, (1, 4, 4, 4, 8, 8)),
    ]:
        assert classify_universality_pattern(jordan_decompose(p, gram)) == "unclassified"


def test_classification_needs_even_rank_at_least_six():
    with pytest.raises(ValueError):
        classify_universality_pattern(jordan_decompose(3, (1, 1, 1, 3)))
    with pytest.raises(ValueError):
        classify_universality_pattern(jordan_decompose(3, (1,) * 7))


def test_case_bounds_pass_on_classified_examples():
    rows = verify_case_bounds(jordan_decompose(3, (1, 1, 1, 1, 1, 9)), list(range(1, 26)))
    assert len(rows) == 25
    assert all(r.method == "case1_bound" for r in rows)
    assert all(r.passed for r in rows)


def test_case_bounds_split_unit_targets_from_divisible_ones():
    rows = verify_case_bounds(jordan_decompose(3, (1, 2, 3, 3, 9, 27)), [1, 2, 3, 9])
    assert [r.method for r in rows] == [
        "case2_unit_bound", "case2_unit_bound", "case2_bound", "case2_bound",
    ]
    # unit targets keep only the boundary term: R1 = -1/p here
    assert rows[0].value == Fraction(-1, 3)
    assert rows[0].reference == Fraction(1, 3)
    assert all(r.passed for r in rows)


def test_case_bounds_two_adic_series_rows():
    rows = verify_case_bounds(jordan_decompose(2, (1, 3, 2, 8, 16, 32)), [1, 2, 3, 8])
    methods = [r.method for r in rows]
    assert "lemma4_tail" in methods
    assert "lemma4_tail_sharpened" in methods  # exponent pattern (0,0,1,3)
    assert "lemma5_middle" in methods
    assert methods.count("two_adic_range") == 4
    assert all(r.passed for r in rows)
    # the whole tail from t = rn + 2 on, summed exactly
    assert rows[methods.index("lemma4_tail")].value == Fraction(1, 48)


def test_case_bounds_reject_unclassified_input():
    with pytest.raises(ValueError):
        verify_case_bounds(jordan_decompose(3, (3, 3, 3, 3, 3, 3)), [1])


# ---------------------------------------------------------------------------
# reporting


def test_conformance_csv_golden():
    rows = [
        ConformanceRow(3, (1, 1), 3, 1, Fraction(1), "not_admissible", None, None, None),
        ConformanceRow(3, (1, 1, 1), 3, 1, Fraction(3), "closed_form",
                       Fraction(1, 3), None, True),
        ConformanceRow(2, (1, 2), None, None, None, "lemma4_tail",
                       Fraction(1, 8), Fraction(1, 4), False),
    ]
    assert conformance_csv(rows) == (
        "p,gram,N,c,h_num,h_den,method,value_num,value_den,oracle_num,oracle_den,pass\n"
        "3,1 1,3,1,1,1,not_admissible,,,,,skipped\n"
        "3,1 1 1,3,1,3,1,closed_form,1,3,,,true\n"
        "2,1 2,,,,,lemma4_tail,1,8,1,4,false\n"
    )
