"""Generalized m-gonal numbers and bounded sets of represented integers.

A generalized m-gonal number is ((m-2)*x**2 - (m-4)*x) / 2 with x ranging
over all integers (not just nonnegative ones).  For every m >= 3 the value
set starts 0, 1 and then contains nothing below m - 3.

A "form" here is a multiset of positive coefficients [a_1, ..., a_n]; it
represents k when k = sum(a_j * P_m(x_j)) for some integers x_j.  Bounded
representation questions are answered one coefficient at a time by a fold
over the represented set in [0, B].  While many values are missing the set
is a bitset held in a single Python int, mirrored: bit B - k is set when k
is represented, so bit B (the value 0) is always the top bit.  Adding
a * P_m(x) to every value is then the union of the right shifts
mirror >> a * v over the values v with a * v <= B; a right shift only
shortens the int, so the bits past B fall off by themselves.  Once at most
SPARSE_MISSING values are missing, the fold runs on the list of missing
values instead: k stays missing after adding a * P_m(x) exactly when every
k - a * v with 0 <= a * v <= k was missing.  Missing values only ever
disappear, so the sets folded from a sparse set stay sparse, and deep
escalator nodes cost a few set lookups instead of a pass over the bitset.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from reprlib import recursive_repr  # loaded by collections already

from .errors import ResourceCapError

DEFAULT_BOUND = 100_000
# Bitsets are one Python int of B+1 bits; cap them at 16 MiB.
DEFAULT_BIT_CAP = 1 << 27
# A set that misses at most this many values of [0, B] folds on its missing
# list instead of its bitset.  Measured on escalator trees: the depth-5
# trees at B = 1e4 and the depth-12 trees at B = 2e4 take the same time
# for 16, 32 and 64, while the complete trees at B = 1e5 (m = 15, 18) take
# about 1.7 times as long at 16 as at 32, and gain little more at 64.
SPARSE_MISSING = 32


def polygonal_value(m: int, x: int) -> int:
    """Return the generalized m-gonal number with index x (any sign).

    The numerator (m-2)*x**2 - (m-4)*x is always even, so the division is
    exact.
    """
    _check_m(m)
    _check_int(x, "index")
    return ((m - 2) * x * x - (m - 4) * x) // 2


def polygonal_values_up_to(m: int, bound: int) -> list[int]:
    """Sorted distinct generalized m-gonal values in [0, bound].

    Walks outward from x = 0 in both directions; the value is monotone along
    each direction, so each walk stops at the first overshoot.
    """
    _check_m(m)
    _check_int(bound, "bound", 0)
    return list(_values_up_to(m, bound))


@lru_cache(maxsize=4096)
def _values_up_to(m: int, bound: int) -> tuple[int, ...]:
    """polygonal_values_up_to for an m its callers have checked (m = 2 would
    never end the walk), evaluating P_m without checking each index."""
    vals = set()
    for step in (1, -1):
        x = 0
        while (v := ((m - 2) * x * x - (m - 4) * x) // 2) <= bound:
            vals.add(v)
            x += step
    return tuple(sorted(vals))


def _check_m(m: int) -> None:
    if not isinstance(m, int) or m < 3:
        raise ValueError(f"number of sides m must be an integer >= 3, got {m!r}")


def _check_int(value: int, name: str, minimum: int | None = None) -> None:
    """Refuse a value that is not an int, or is a bool, or is below minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        floor = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {floor}")


_set = object.__setattr__  # sets a field of a frozen class


class _Record:
    """Repr and equality read from the class attribute _fields, the names
    of the record's fields in order, as a dataclass's are: the repr shows
    each field by name, and a record equals only a record of its own class
    with equal fields.  Unhashable, as a mutable record must be."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class _Frozen(_Record):
    """A record that hashes as its field tuple and refuses every assignment
    and deletion as a frozen dataclass does, importing dataclasses only to
    raise its error.  Copies and unpickling rebuild it through __init__,
    past the refusals."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class PolygonalForm(_Frozen):
    """A coefficient vector attached to a polygon size m.

    coeffs is kept sorted ascending; the empty vector is the zero-variable
    form (it represents only 0) and appears as the root of escalator trees.
    Frozen and hashable; equal to a form with the same m and coeffs.
    """

    __slots__ = __match_args__ = _fields = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[int, ...]) -> None:
        _check_m(m)
        if not isinstance(coeffs, tuple):
            try:
                coeffs = tuple(coeffs)
            except TypeError:
                raise ValueError(f"coefficients must be iterable, got {coeffs!r}") from None
        # one C-level pass for the usual case: exact ints, positive, sorted
        if not (
            set(map(type, coeffs)) == {int}
            and coeffs[0] >= 1
            and list(coeffs) == sorted(coeffs)
        ):
            # otherwise the rules one by one: a bad coefficient before disorder
            for a in coeffs:
                _check_coeff(a)
            if any(a > b for a, b in zip(coeffs, coeffs[1:])):
                raise ValueError("coefficients must be sorted ascending")
        _set(self, "m", m)
        _set(self, "coeffs", coeffs)

    @classmethod
    def of(cls, m: int, *coeffs: int) -> "PolygonalForm":
        """Build a form from coefficients in any order."""
        return cls(m, tuple(sorted(coeffs)))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def extend(self, coeff: int) -> "PolygonalForm":
        """The form with one more coefficient appended (must keep sortedness).

        Only the new coefficient is checked; the rest already passed.
        """
        _check_coeff(coeff)
        if self.coeffs and coeff < self.coeffs[-1]:
            raise ValueError("coefficients must be sorted ascending")
        form = object.__new__(PolygonalForm)
        _set(form, "m", self.m)
        _set(form, "coeffs", self.coeffs + (coeff,))
        return form


def _check_coeff(a: int) -> None:
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise ValueError(f"coefficients must be positive integers, got {a!r}")


class RepresentationSet:
    """The set of integers in [0, bound] represented by a form.

    Sets come from represented_set and extend_set.  A dense set holds its
    bits mirrored: bit bound - k is set when k is represented, the layout
    its folds shift right.  A set that misses at most SPARSE_MISSING values
    of [0, bound] holds them as an ascending tuple instead, peeled from its
    bits when it is first folded; the sets folded from it hold only that
    tuple.  Equality is by content.
    """

    __slots__ = ("_bound", "_mirror", "_missing")

    @classmethod
    def _of_mirror(cls, bound: int, mirror: int) -> "RepresentationSet":
        rep = cls.__new__(cls)
        rep._bound, rep._mirror, rep._missing = bound, mirror, None
        return rep

    @classmethod
    def _of_missing(cls, bound: int, missing: tuple[int, ...]) -> "RepresentationSet":
        rep = cls.__new__(cls)
        rep._bound, rep._mirror, rep._missing = bound, None, missing
        return rep

    @property
    def bound(self) -> int:
        return self._bound

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepresentationSet):
            return NotImplemented
        return self._bound == other._bound and self.missing() == other.missing()

    def __repr__(self) -> str:
        # no decimal form of the bitset: past 4300 digits int -> str raises
        return (
            f"RepresentationSet(bound={self._bound!r}, count={self.count()!r}, "
            f"truant={self.truant()!r})"
        )

    def __contains__(self, k: object) -> bool:
        if not isinstance(k, int) or not 0 <= k <= self._bound:
            return False
        if self._missing is not None:
            return k not in self._missing
        return (self._mirror >> (self._bound - k)) & 1 == 1

    def _gaps(self) -> int:
        """The mirrored bitset of the missing values."""
        return _mask(self._bound) ^ self._mirror

    def _sparse(self) -> tuple[int, ...] | None:
        """The missing values if there are at most SPARSE_MISSING, else
        None.  A dense set peels them the first time it is asked, from the
        top bit down, which is ascending."""
        if self._missing is None and (
            self._bound + 1 - self._mirror.bit_count() <= SPARSE_MISSING
        ):
            gaps, missing = self._gaps(), []
            while gaps:
                top = gaps.bit_length() - 1
                missing.append(self._bound - top)
                gaps ^= 1 << top
            self._missing = tuple(missing)
        return self._missing

    def truant(self) -> int | None:
        """Smallest k in [1, bound] not represented, or None if there is none."""
        if self._missing is not None:
            return self._missing[0] if self._missing else None
        gaps = self._gaps()
        return self._bound + 1 - gaps.bit_length() if gaps else None

    def missing(self) -> list[int]:
        """Integers in [0, bound] that are not represented, ascending.

        A dense set reads them in one pass over the binary digits of its
        mirrored bitset: the top bit is always set, so character k of
        bin(mirror)[2:] is the value k."""
        if self._missing is not None:
            return list(self._missing)
        return [k for k, d in enumerate(bin(self._mirror)[2:]) if d == "0"]

    def count(self) -> int:
        if self._mirror is None:
            return self._bound + 1 - len(self._missing)
        return self._mirror.bit_count()


def _mask(bound: int) -> int:
    return (1 << (bound + 1)) - 1


def _kept(
    missing: tuple[int, ...], gone: frozenset[int], coeff: int, values: tuple[int, ...]
) -> Iterator[int]:
    """Yield, ascending, the missing k that stay missing once coeff * P_m(x)
    is added: every k - coeff * v with coeff * v <= k was missing."""
    for k in missing:
        for v in values:
            w = coeff * v
            if w > k:
                yield k
                break
            if k - w not in gone:
                break
        else:
            yield k


def _fold(rep: RepresentationSet, m: int, coeff: int) -> RepresentationSet:
    """One DP step: close the represented set under adding coeff * P_m(x).

    Each variable is used exactly once.  A dense set's new bitset is the
    union of shifts of the old one (value 0 keeps the old set); a sparse
    set keeps the missing values that no step can reach.  Missing values
    only ever disappear, so a sparse set's folds stay sparse.
    """
    bound = rep._bound
    values = _values_up_to(m, bound)
    missing = rep._sparse()
    if missing is not None:
        kept = tuple(_kept(missing, frozenset(missing), coeff, values))
        return RepresentationSet._of_missing(bound, kept)
    mirror = _shift_union(rep._mirror, coeff, values, bound)
    return RepresentationSet._of_mirror(bound, mirror)


def _shift_union(mirror: int, coeff: int, values: tuple[int, ...], width: int) -> int:
    """The mirrored bitset of {k + coeff * v <= width} over the set's k, from
    the set's mirrored bitset over [0, width]: the union of mirror >> coeff * v
    over the ascending values with coeff * v <= width.  The set {0} (the
    top bit alone, the first fold of every form) sets one bit per value in a
    buffer the size of the bitset instead of shifting."""
    if mirror == 1 << width:
        buf = bytearray(width // 8 + 1)
        for v in values:
            k = width - coeff * v
            if k < 0:
                break
            buf[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(buf, "little")
    out = 0
    for v in values:
        shift = coeff * v
        if shift > width:
            break
        out |= mirror >> shift
    return out


def _extended_truants(
    rep: RepresentationSet, m: int, coeffs: range | list[int]
) -> list[int | None]:
    """[extend_set(rep, m, k).truant() for k in coeffs] without the sets.

    Whether k is in an extended set depends only on rep's values up to k.
    A sparse set's truant is its first kept value.  A dense set with truant
    t folds its bits over windows [0, w] from w = 2t (the new truant lies
    above t), and after each window without a gap squares w / t: 2t, 4t,
    16t, 256t, ..., clipped to bound; doubling w instead made the trees
    whose children are mostly universal slower.  The window's mirrored
    bitset is the top w + 1 bits, and its first gap its highest gap bit.
    """
    bound = rep._bound
    values = _values_up_to(m, bound)
    missing = rep._sparse()
    if missing is not None:
        gone = frozenset(missing)
        return [next(_kept(missing, gone, k, values), None) for k in coeffs]
    mirror, t = rep._mirror, rep.truant()
    truants = []
    for coeff in coeffs:
        w = min(2 * t, bound)
        while True:
            gaps = _mask(w) ^ _shift_union(mirror >> (bound - w), coeff, values, w)
            if gaps or w == bound:
                break
            w = min(w * w // t, bound)
        truants.append(w + 1 - gaps.bit_length() if gaps else None)
    return truants


def represented_set(form: PolygonalForm, bound: int) -> RepresentationSet:
    """All integers in [0, bound] represented by the form; the bitset's
    bound + 1 bits may not exceed DEFAULT_BIT_CAP."""
    _check_int(bound, "bound", 0)
    if bound + 1 > DEFAULT_BIT_CAP:
        raise ResourceCapError(
            f"bitset of {bound + 1} bits exceeds cap of {DEFAULT_BIT_CAP}"
        )
    rep = RepresentationSet._of_mirror(bound, 1 << bound)
    for a in form.coeffs:
        rep = _fold(rep, form.m, a)
    return rep


def extend_set(rep: RepresentationSet, m: int, coeff: int) -> RepresentationSet:
    """Represented set of a form extended by one coefficient, reusing the
    parent's set (the escalator builder leans on this)."""
    _check_m(m)
    _check_coeff(coeff)
    return _fold(rep, m, coeff)


def truant(form: PolygonalForm, bound: int) -> int | None:
    """Smallest positive integer <= bound the form fails to represent.

    Returns None when the form represents all of [1, bound] ("B-universal";
    an empirical statement about [1, bound] only).
    """
    _check_int(bound, "bound", 1)
    return represented_set(form, bound).truant()
