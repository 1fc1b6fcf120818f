"""Generalized m-gonal numbers and bounded sets of represented integers.

A generalized m-gonal number is ((m-2)*x**2 - (m-4)*x) / 2 with x ranging
over all integers (not just nonnegative ones).  For every m >= 3 the value
set starts 0, 1 and then contains nothing below m - 3.

A "form" here is a multiset of positive coefficients [a_1, ..., a_n]; it
represents k when k = sum(a_j * P_m(x_j)) for some integers x_j.  Bounded
representation questions are answered with a bitset over [0, B] held in a
single Python int, which keeps the per-coefficient fold a handful of
big-int shift/or operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceCapError

DEFAULT_BOUND = 100_000
# Bitsets are one Python int of B+1 bits; cap them at 16 MiB.
DEFAULT_BIT_CAP = 1 << 27


def polygonal_value(m: int, x: int) -> int:
    """Return the generalized m-gonal number with index x (any sign).

    The numerator (m-2)*x**2 - (m-4)*x is always even, so the division is
    exact.
    """
    _check_m(m)
    if not isinstance(x, int):
        raise ValueError(f"index must be an integer, got {x!r}")
    return ((m - 2) * x * x - (m - 4) * x) // 2


def polygonal_values_up_to(m: int, bound: int) -> list[int]:
    """Sorted distinct generalized m-gonal values in [0, bound].

    Walks outward from x = 0 in both directions; the value is monotone along
    each direction, so each walk stops at the first overshoot.
    """
    _check_m(m)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return list(_values_up_to(m, bound))


@lru_cache(maxsize=4096)
def _values_up_to(m: int, bound: int) -> tuple[int, ...]:
    vals = set()
    x = 0
    while (v := polygonal_value(m, x)) <= bound:
        vals.add(v)
        x += 1
    x = -1
    while (v := polygonal_value(m, x)) <= bound:
        vals.add(v)
        x -= 1
    return tuple(sorted(vals))


def _check_m(m: int) -> None:
    if not isinstance(m, int) or m < 3:
        raise ValueError(f"number of sides m must be an integer >= 3, got {m!r}")


@dataclass(frozen=True)
class PolygonalForm:
    """A coefficient vector attached to a polygon size m.

    coeffs is kept sorted ascending; the empty vector is the zero-variable
    form (it represents only 0) and appears as the root of escalator trees.
    """

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for a in self.coeffs:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"coefficients must be positive integers, got {a!r}")
        if any(a > b for a, b in zip(self.coeffs, self.coeffs[1:])):
            raise ValueError("coefficients must be sorted ascending")

    @classmethod
    def of(cls, m: int, *coeffs: int) -> "PolygonalForm":
        """Build a form from coefficients in any order."""
        return cls(m, tuple(sorted(coeffs)))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def content(self) -> int:
        """gcd of the coefficients (0 for the empty form)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def extend(self, coeff: int) -> "PolygonalForm":
        """The form with one more coefficient appended (must keep sortedness)."""
        return PolygonalForm(self.m, self.coeffs + (coeff,))


@dataclass(frozen=True)
class RepresentationSet:
    """The set of integers in [0, bound] represented by a form.

    bits is a little-endian bitmask: bit k is set iff k is represented.
    Bit 0 is always set (the empty sum).
    """

    bound: int
    bits: int

    def __contains__(self, k: int) -> bool:
        return 0 <= k <= self.bound and (self.bits >> k) & 1 == 1

    def _missing_bits(self) -> int:
        return ~self.bits & ((1 << (self.bound + 1)) - 1)

    def truant(self) -> int | None:
        """Smallest k in [1, bound] not represented, or None if there is none."""
        missing = self._missing_bits()
        if missing == 0:
            return None
        return (missing & -missing).bit_length() - 1

    def values(self) -> list[int]:
        """Represented integers in [0, bound], ascending."""
        return _bit_positions(self.bits)

    def missing(self) -> list[int]:
        """Integers in [0, bound] that are not represented, ascending."""
        return _bit_positions(self._missing_bits())

    def count(self) -> int:
        return self.bits.bit_count()


def _bit_positions(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending, in one pass over its
    binary digits (testing each bit by a shift would be quadratic)."""
    return [k for k, digit in enumerate(bin(x)[:1:-1]) if digit == "1"]


def _fold(bits: int, mask: int, m: int, coeff: int, bound: int) -> int:
    """One DP step: close the represented set under adding coeff * P_m(x).

    Each variable is used exactly once, so the new mask is the union of
    shifts of the old one (value 0 keeps the old set).
    """
    out = 0
    for v in _values_up_to(m, bound // coeff):
        out |= bits << (coeff * v)
    return out & mask


def represented_set(
    form: PolygonalForm, bound: int, *, bit_cap: int = DEFAULT_BIT_CAP
) -> RepresentationSet:
    """All integers in [0, bound] represented by the form."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound + 1 > bit_cap:
        raise ResourceCapError(
            f"bitset of {bound + 1} bits exceeds cap of {bit_cap}"
        )
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for a in form.coeffs:
        bits = _fold(bits, mask, form.m, a, bound)
    return RepresentationSet(bound, bits)


def extend_set(rep: RepresentationSet, m: int, coeff: int) -> RepresentationSet:
    """Represented set of a form extended by one coefficient, reusing the
    parent's set (the escalator builder leans on this)."""
    if coeff < 1:
        raise ValueError("coefficient must be a positive integer")
    mask = (1 << (rep.bound + 1)) - 1
    return RepresentationSet(rep.bound, _fold(rep.bits, mask, m, coeff, rep.bound))


def truant(form: PolygonalForm, bound: int) -> int | None:
    """Smallest positive integer <= bound the form fails to represent.

    Returns None when the form represents all of [1, bound] ("B-universal";
    an empirical statement about [1, bound] only).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return represented_set(form, bound).truant()
