"""Shifted diagonal lattices attached to m-gonal forms.

Completing the square turns sum(a_j * P_m(x_j)) = ell into a counting
problem on a shifted lattice: with s = (m-4) / (2*(m-2)) in lowest terms
c/N (c normalized into [0, N)), the integer ell is represented by the form
iff the rational target

    h(ell) = 2*ell/(m-2) + sum(a_j) * s**2

is represented by the quadratic map sum(a_j * (lambda_j - c/N)**2) over
integer vectors lambda.  The sign of the shift is irrelevant to counts
because negation is a bijection of the integer vectors (covered by tests,
not assumed silently).

All arithmetic here is exact rational; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .errors import InternalConsistencyError, ResourceCapError
from .polygonal import (
    PolygonalForm,
    _check_int,
    _check_m,
    _refuse_assignment,
    _refuse_deletion,
    represented_set,
)

DEFAULT_CELL_CAP = 10**8


def _check_gram(gram) -> tuple[int, ...]:
    """gram as a tuple, once each entry is a positive integer (not a bool)."""
    gram = tuple(gram)
    for a in gram:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError(f"gram entries must be positive integers, got {a!r}")
    return gram


def shift_fraction(m: int) -> Fraction:
    """(m-4) / (2*(m-2)) in lowest terms; the per-coordinate shift size."""
    _check_m(m)
    return Fraction(m - 4, 2 * (m - 2))


class ShiftedDiagonalLattice:
    """Diagonal gram coefficients plus a shift of -c/N in every coordinate.

    N is the conductor: the least positive integer with N * shift integral.
    c is coprime to N and reduced into [0, N); c = 0 forces N = 1 and means
    no shift at all.  Frozen and hashable; equal to a lattice with the same
    gram, c and N.
    """

    __match_args__ = ("gram", "c", "N")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(self, gram: tuple[int, ...], c: int, N: int) -> None:
        gram = _check_gram(gram)
        _check_int(c, "c")
        _check_int(N, "N")
        if N < 1 or not (0 <= c < N):
            raise ValueError("need 0 <= c < N with N >= 1")
        if math.gcd(c, N) != 1:
            raise ValueError("c must be coprime to N")
        self.__dict__.update(gram=gram, c=c, N=N)

    def __repr__(self) -> str:
        return f"ShiftedDiagonalLattice(gram={self.gram!r}, c={self.c!r}, N={self.N!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gram, self.c, self.N) == (other.gram, other.c, other.N)

    def __hash__(self) -> int:
        return hash((self.gram, self.c, self.N))

    @property
    def n(self) -> int:
        return len(self.gram)

    @property
    def shift(self) -> Fraction:
        return Fraction(self.c, self.N)

    @property
    def squared_shift_sum(self) -> Fraction:
        """sum(a_j) * (c/N)**2, the constant part of every target value."""
        return sum(self.gram) * self.shift**2


def lattice_from_form(form: PolygonalForm) -> ShiftedDiagonalLattice:
    """The shifted lattice whose counts answer representation questions for
    the form."""
    s = shift_fraction(form.m)
    N = s.denominator
    c = s.numerator % N
    return ShiftedDiagonalLattice(form.coeffs, c, N)


def h_of_ell(form: PolygonalForm, ell: int) -> Fraction:
    """The lattice target corresponding to the integer ell.

    Strictly increasing in ell; h(0) equals the squared-shift constant.
    """
    _check_int(ell, "ell")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    s = shift_fraction(form.m)
    return Fraction(2 * ell, form.m - 2) + sum(form.coeffs) * s**2


def _check_target(h) -> Fraction:
    """h as a Fraction, once it is exact: an int (not a bool) or a Fraction."""
    if isinstance(h, bool) or not isinstance(h, (int, Fraction)):
        raise ValueError(f"target must be an int or a Fraction, got {h!r}")
    return Fraction(h)


def admissible(X: ShiftedDiagonalLattice, h: Fraction | int) -> bool:
    """Integrality condition the density machinery needs of a target:

        (h - sum(a_j * (c/N)**2)) * gcd(N, 4) * N / 8  must be an integer.
    """
    h = _check_target(h)
    val = (h - X.squared_shift_sum) * math.gcd(X.N, 4) * X.N / 8
    return val.denominator == 1


def representation_count(X: ShiftedDiagonalLattice, h: Fraction | int) -> int:
    """Number of integer vectors lambda with sum(a_j*(lambda_j - c/N)**2) = h.

    Clearing denominators, count y_j = N*lambda_j - c (so y_j = -c mod N)
    with sum(a_j * y_j**2) = H = h * N**2.  The count walks remainders
    H - sum(a_j * y_j**2) one coefficient at a time, so prefixes that leave
    the same remainder are walked once.  The last two coefficients are
    finished in whichever of two ways takes fewer steps: walk the second
    last per remainder and test the last for a square, or tabulate the
    values of the last pair once and look every remainder up (a meet in the
    middle).  DEFAULT_CELL_CAP bounds the steps (axis points walked, pair
    points tabulated, square tests or lookups), checked before any work is
    done.
    """
    h = _check_target(h)
    if h < 0:
        raise ValueError("target must be nonnegative")
    H_frac = h * X.N * X.N
    if H_frac.denominator != 1:
        return 0
    H = int(H_frac)
    if X.n == 0:
        return 1 if H == 0 else 0

    coeffs = sorted(X.gram, reverse=True)
    N = X.N
    residue = (-X.c) % N

    def axis(limit: int) -> range:  # the y = -c mod N with |y| <= limit
        return range(-limit + (residue + limit) % N, limit + 1, N)

    steps, tabulate = 1, False  # rank 1: one square test
    if X.n > 1:
        # The remainders lie in [0, H] and are at most as many as the points
        # of the axes walked so far; each walks at most its coefficient's axis.
        lengths = [len(axis(math.isqrt(H // a))) for a in coeffs]
        head, reach = 0, 1  # walking all but the last two coefficients
        for length in lengths[:-2]:
            head += reach * length
            reach = min(H + 1, reach * length)
        # walk the second last axis per remainder, then one square test each,
        walked = reach * lengths[-2]
        walk = head + walked + min(H + 1, walked)
        # or tabulate the last pair within its box, then one lookup each
        pair = head + lengths[-2] * lengths[-1] + reach
        tabulate = pair < walk
        steps = min(walk, pair)
    if steps > DEFAULT_CELL_CAP:
        raise ResourceCapError(
            f"remainder walk of ~{steps} steps exceeds cap {DEFAULT_CELL_CAP}"
        )

    remainders = Counter({H: 1})
    for a in coeffs[:-2] if tabulate else coeffs[:-1]:
        grown: Counter[int] = Counter()
        for rem, n in remainders.items():
            for y in axis(math.isqrt(rem // a)):
                grown[rem - a * y * y] += n
        remainders = grown

    if tabulate:
        a, b = coeffs[-2:]
        top = max(remainders, default=0)  # the head walk may leave none
        table = Counter(
            a * y * y + b * z * z
            for y in axis(math.isqrt(top // a))
            for z in axis(math.isqrt((top - a * y * y) // b))
        )
        return sum(n * table[rem] for rem, n in remainders.items())

    a = coeffs[-1]
    total = 0
    for rem, n in remainders.items():
        s = math.isqrt(rem // a)
        if a * s * s == rem:
            total += n * len({y for y in (s, -s) if y % N == residue})
    return total


def represents_equivalence_check(form: PolygonalForm, ell: int, bound: int) -> bool:
    """Answer "does the form represent ell?" by two independent routes and
    insist they agree.

    Route one is the bitset DP over [0, ell], since membership of ell
    depends only on the values up to ell; route two counts lattice vectors
    hitting h(ell).  Disagreement is a library bug and raises
    InternalConsistencyError.
    """
    _check_int(ell, "ell")
    _check_int(bound, "bound")
    if not 0 <= ell <= bound:
        raise ValueError("need 0 <= ell <= bound")
    by_set = ell in represented_set(form, ell)
    by_count = representation_count(lattice_from_form(form), h_of_ell(form, ell)) > 0
    if by_set != by_count:
        raise InternalConsistencyError(
            f"set membership says {by_set} but lattice count says {by_count} "
            f"for m={form.m}, coeffs={form.coeffs}, ell={ell}"
        )
    return by_set
