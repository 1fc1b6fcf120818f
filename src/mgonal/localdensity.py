"""Exact p-adic local densities of diagonal lattices, with cross-checks.

Two independent routes are kept deliberately separate:

* closed forms / explicit formulas: at primes dividing the conductor N the
  density collapses to a one-line closed form; at unramified primes Yang's
  explicit formulas give the density of a diagonal lattice as a finite sum
  of signed prime powers.  The sum is taken in integers, over the powers'
  least exponent, and becomes one Fraction at the end; the formulas'
  half-integer exponents d(t) are held doubled, as the integers 2*d(t), and
  that every power has an integer exponent is still checked.

* a counting oracle: the density is the stabilized value of
  #{x mod p^t : q(x) = h mod p^t} / p^((n-1)*t).  The counts at t, t+1 and
  t+2 are compared as integers (each must be p^(n-1) times the one before),
  and only the ratio at t becomes a Fraction.  As x -> s*x shows, the
  count at v is unchanged when v is scaled by a unit square s^2, so counts
  are convolved class by class.  The class tables of Z/p^t are built from
  those of Z/p^(t-1) alone, through x -> p*x and the lifts of units mod
  p^min(t, 3) (mod p for odd p), without visiting the p^t residues.  Each
  modulus has one pair table, grouped by the class of the last summand as
  the convolution walks it.  A single coefficient a is counted in closed
  form, for the classes a count asks for only: the x of valuation k < t/2
  put a*x^2 in the class of a*p^(2k), and the rest make a*x^2 = 0.

The twain meet only in tests and in explicit cross-check flags; neither
route falls back to the other.

Unit Gauss sums tau(p, t, ...) are the single floating-point corner of the
package and exist purely as a numerical witness for the 0/1 evaluations
used by the closed forms.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import InternalConsistencyError, ResourceCapError, WrongDispatchError
from .lattice import ShiftedDiagonalLattice, _check_gram, _check_target, admissible
from .polygonal import _check_int, _refuse_assignment, _refuse_deletion

DEFAULT_ORACLE_MODULUS_CAP = 1 << 18


# ---------------------------------------------------------------------------
# small number-theory helpers


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")


def _valuation(k: int, p: int) -> int:
    if k == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def _frac_valuation(h: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return _valuation(h.numerator, p) - _valuation(h.denominator, p)


def _integral_target(h: Fraction | int, p: int) -> tuple[Fraction, int]:
    """(h, ord_p h) for a target that must be positive and p-adically integral."""
    h = _check_target(h)
    if h <= 0:
        raise ValueError("target must be positive")
    a = _frac_valuation(h, p)
    if a < 0:
        raise ValueError(f"target must be a {p}-adic integer")
    return h, a


def _unit_part_mod(h: Fraction, p: int, modulus: int) -> int:
    """The unit alpha = h / p^valuation reduced mod `modulus` (a p-power)."""
    num, den = h.numerator, h.denominator
    num //= p ** _valuation(num, p)
    den //= p ** _valuation(den, p)
    return num * pow(den, -1, modulus) % modulus


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _kronecker2(x: int) -> int:
    """(2/x) on odd integers: +1 for x = +-1 mod 8, -1 for x = +-3 mod 8;
    0 on even x."""
    if x % 2 == 0:
        return 0
    return 1 if x % 8 in (1, 7) else -1


# ---------------------------------------------------------------------------
# Jordan data and the Density result type


class JordanDecomposition:
    """Diagonal p-adic shape: entries (r_i, b_i) with a_i = b_i * p^r_i,
    b_i a unit, sorted by r ascending (stable in the original order).

    Construction checks that p is prime, that each entry is a pair of ints
    with r >= 0 and b >= 1 prime to p, and that the entries are sorted by
    r; anything else raises ValueError.  Frozen and hashable; equal to a
    decomposition with the same p and entries."""

    __match_args__ = ("p", "entries")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(self, p: int, entries: tuple[tuple[int, int], ...]) -> None:
        _check_prime(p)
        if not isinstance(entries, tuple):
            raise ValueError(f"Jordan entries must be a tuple, got {entries!r}")
        for entry in entries:
            if not (
                isinstance(entry, tuple)
                and len(entry) == 2
                and all(type(x) is int for x in entry)
                and entry[0] >= 0
                and entry[1] >= 1
                and entry[1] % p
            ):
                raise ValueError(
                    f"Jordan entries must be pairs (r, b) of ints with r >= 0 and "
                    f"b >= 1 prime to {p}, got {entry!r}"
                )
        rs = tuple(r for r, _ in entries)
        if any(r > s for r, s in zip(rs, rs[1:])):
            raise ValueError(f"Jordan entries must be sorted by exponent, got {rs}")
        self.__dict__.update(p=p, entries=entries)

    def __repr__(self) -> str:
        return f"JordanDecomposition(p={self.p!r}, entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.entries) == (other.p, other.entries)

    def __hash__(self) -> int:
        return hash((self.p, self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.entries)

    @property
    def units(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.entries)

    def gram(self) -> tuple[int, ...]:
        return tuple(b * self.p**r for r, b in self.entries)


def jordan_decompose(p: int, gram: tuple[int, ...] | list[int]) -> JordanDecomposition:
    """Split each diagonal entry into p-power times unit and sort by exponent."""
    _check_prime(p)
    gram = _check_gram(gram)
    if not gram:
        raise ValueError("gram must be nonempty")
    entries = []
    for a in gram:
        r = _valuation(a, p)
        entries.append((r, a // p**r))
    entries.sort(key=lambda e: e[0])
    return JordanDecomposition(p, tuple(entries))


class Density:
    """A local density value plus how it was obtained.

    Oracle-method values carry the modulus exponent t used and whether the
    count ratio was identical at t, t+1 and t+2.  Frozen and hashable;
    equal to a density with equal fields.
    """

    __match_args__ = ("value", "method", "t", "stabilized")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(
        self, value: Fraction, method: str, t: int | None = None, stabilized: bool | None = None
    ) -> None:
        self.__dict__.update(value=value, method=method, t=t, stabilized=stabilized)

    def __repr__(self) -> str:
        return (
            f"Density(value={self.value!r}, method={self.method!r}, t={self.t!r}, "
            f"stabilized={self.stabilized!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.method, self.t, self.stabilized) == (
            other.value, other.method, other.t, other.stabilized
        )

    def __hash__(self) -> int:
        return hash((self.value, self.method, self.t, self.stabilized))


# ---------------------------------------------------------------------------
# unit Gauss sums (float; numerical witness only)


def _capped_modulus(p: int, t: int, refusal: str) -> int:
    """p**t, or ResourceCapError with refusal.format(p=p, t=t, M=p**t,
    cap=DEFAULT_ORACLE_MODULUS_CAP) when it exceeds the cap.  Since p >= 2,
    an exponent of twice the cap's bit length or more puts p**t past the
    cap squared: it is refused before the power is computed (it could have
    millions of digits) and named only as p^t."""
    cap = DEFAULT_ORACLE_MODULUS_CAP
    if t >= 2 * cap.bit_length():
        raise ResourceCapError(f"modulus {p}^{t} exceeds cap {cap}")
    M = p**t
    if M > cap:
        raise ResourceCapError(refusal.format(p=p, t=t, M=M, cap=cap))
    return M


def tau_gauss_sum(p: int, t: int, alpha: int, N: int, c: int) -> complex:
    """p^-t * sum over x mod p^t of exp(-2*pi*i * alpha*(N*x**2 - 2*c*x) / p^t).

    The additive character carries a minus sign in the exponent.  Float
    output; every exact code path avoids this function.
    """
    _check_prime(p)
    _check_int(t, "t")
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_int(alpha, "alpha")
    _check_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_int(c, "c")
    if alpha % p == 0:
        raise ValueError("alpha must be a p-adic unit")
    if math.gcd(c, N) != 1:
        raise ValueError("c must be coprime to N")
    M = _capped_modulus(p, t, "modulus {M} exceeds cap")
    total = 0j
    for x in range(M):
        frac = (alpha * (N * x * x - 2 * c * x)) % M
        total += cmath.exp(-2j * math.pi * frac / M)
    return total / M


def tau_lemma_value(p: int, t: int, N: int) -> int | None:
    """The exact 0/1 value of the unit Gauss sum in the ramified regimes.

    * odd p dividing N: 0 for every t >= 1;
    * N exactly divisible by 2: 1 for t <= 2, else 0;
    * N divisible by 4: 1 for t <= 1, else 0.

    Returns None when p does not divide N (no closed rule applies).
    """
    _check_prime(p)
    _check_int(t, "t")
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N % p != 0:
        return None
    if p != 2:
        return 0
    if N % 4 == 0:
        return 1 if t <= 1 else 0
    return 1 if t <= 2 else 0


# ---------------------------------------------------------------------------
# closed forms at ramified primes


def density_p_dividing_N(p: int, N: int) -> Density:
    """Local density at a prime dividing the conductor N.

    For odd p it is p^-ord_p(N); at p = 2 it is 2 when N is exactly
    divisible by 2 and 2^-(ord_2(N) - 1) when 4 divides N.  Requires a
    primitive gram and an admissible target upstream; the value itself
    depends only on (p, N).
    """
    _check_prime(p)
    _check_int(N, "N")
    if N < 1 or N % p != 0:
        raise WrongDispatchError(f"p={p} does not divide N={N}")
    e = _valuation(N, p)
    if p != 2:
        return Density(Fraction(1, p**e), "closed_form")
    if e == 1:
        return Density(Fraction(2), "closed_form")
    return Density(Fraction(1, 2 ** (e - 1)), "closed_form")


# ---------------------------------------------------------------------------
# Yang's explicit formulas at unramified primes


def _l_indices(exponents: tuple[int, ...], t: int) -> list[int]:
    """Indices i with r_i < t and t - r_i odd."""
    return [i for i, r in enumerate(exponents) if r < t and (t - r) % 2 == 1]


def _power_sum(p: int, terms: list[tuple[int, int]]) -> Fraction:
    """sum(sign * p^(e/2)) over the (sign, e) in terms, as one Fraction over
    p^-(least exponent).  Each e is a doubled exponent: the formulas' d(t)
    are half-integers, held as 2*d(t), and every term needs an integer
    power, so an odd e is an error."""
    for _, e in terms:
        if e % 2:
            raise InternalConsistencyError(f"exponent {e}/2 of {p} should be an integer")
    low = min([0] + [e // 2 for _, e in terms])
    return Fraction(sum(sign * p ** (e // 2 - low) for sign, e in terms), p**-low)


def yang_density_odd(jd: JordanDecomposition, h: Fraction | int) -> Density:
    """Density of an odd unramified prime, by the explicit formula.

    With h = alpha * p^a (alpha a unit, a >= 0), L(t) the indices with
    r_i - t negative odd, eps(t) = (-1/p)^floor(#L/2) * prod of (b_i/p)
    over L, and d(t) = t + (1/2)*sum(r_i - t over r_i < t):

        value = 1 + (1 - 1/p) * sum over 0 < t <= a with #L(t) even of
                eps(t) * p^d(t)
              + eps(a+1) * p^d(a+1) * f1

    where f1 = -1/p when #L(a+1) is even and (alpha/p) * p^(-1/2) when it
    is odd.  The terms are summed as signed prime powers in integers, each
    (1 - 1/p) * p^d as p^d - p^(d-1), into one Fraction at the end.  d(t)
    is held doubled, as the integer 2*d(t); that the half powers combine
    to integer exponents is checked, not assumed.
    """
    p = jd.p
    if p == 2:
        raise WrongDispatchError("this formula is for odd primes; use the 2-adic one")
    if jd.n % 2 != 0 or jd.n < 4:
        raise ValueError("rank must be even and >= 4")
    h, a = _integral_target(h, p)
    rs = jd.exponents
    chi = [_legendre(b, p) for b in jd.units]
    minus_one = _legendre(-1, p)

    terms = [(1, 0)]
    for t in range(1, a + 2):
        ls = _l_indices(rs, t)
        if t <= a and len(ls) % 2:
            continue
        eps = minus_one ** (len(ls) // 2)
        for i in ls:
            eps *= chi[i]
        d2 = 2 * t + sum(r - t for r in rs if r < t)  # 2 * d(t)
        if t <= a:
            terms += [(eps, d2), (-eps, d2 - 2)]
        elif len(ls) % 2 == 0:
            terms.append((-eps, d2 - 2))
        else:
            terms.append((eps * _legendre(_unit_part_mod(h, p, p), p), d2 - 1))
    return Density(_power_sum(p, terms), "yang_odd")


def yang_density_two(jd: JordanDecomposition, h: Fraction | int) -> Density:
    """Density at p = 2 when 2 does not divide the conductor.

    With h = alpha * 2^a, for 1 < t <= a + 3 set (everything indexed off
    t - 1): eps(t) = product of b_i over indices with r_i - (t-1) negative
    odd, d(t) = t + (1/2)*sum(r_i - t + 1 over r_i < t - 1), delta(t) = 0
    iff some r_i = t - 1, and mu = alpha*2^(a+3-t) - sum(b_i over
    r_i < t - 1).  Terms with an odd index count contribute
    delta * (2/(mu*eps)) * 2^(d - 3/2); even ones contribute
    delta * (2/eps) * 2^(d-1) * e(mu/8) * [mu in 4Z_2], where e(mu/8) is +1
    for mu = 0 mod 8 and -1 for mu = 4 mod 8.  The result is 1 plus the sum.

    Only residues mod 8 of alpha and the b_i enter.  The terms are summed
    as signed powers of 2 in integers, into one Fraction at the end; d(t)
    is held doubled, and the integrality of each exponent is checked.
    """
    p = jd.p
    if p != 2:
        raise WrongDispatchError("this formula is specific to p = 2")
    if jd.n % 2 != 0 or jd.n < 4:
        raise ValueError("rank must be even and >= 4")
    h, a = _integral_target(h, 2)
    rs = jd.exponents
    bs = jd.units
    alpha8 = _unit_part_mod(h, 2, 8)

    terms = [(1, 0)]
    for t in range(2, a + 4):
        term = _two_adic_term(rs, t)
        if term is None:
            continue
        odd, e2 = term
        eps8 = 1
        for i in _l_indices(rs, t - 1):
            eps8 = eps8 * bs[i] % 8
        low = sum(b for b, r in zip(bs, rs) if r < t - 1)
        mu8 = (alpha8 * pow(2, a + 3 - t, 8) - low) % 8
        if odd:
            terms.append((_kronecker2(mu8 * eps8 % 8), e2))
        elif mu8 % 4 == 0:  # mu in 4 Z_2
            terms.append((_kronecker2(eps8) * (1 if mu8 == 0 else -1), e2))
    return Density(_power_sum(2, terms), "yang_two")


def _two_adic_term(rs: tuple[int, ...], t: int) -> tuple[bool, int] | None:
    """None when delta(t) = 0, else (odd, 2e): whether the index count is
    odd, and the doubled exponent of e = d(t) - 3/2 if it is, d(t) - 1 if
    not, where the 2-adic d(t) = t + (1/2) * sum(r_i - t + 1 over
    r_i < t - 1)."""
    if t - 1 in rs:
        return None
    odd = len(_l_indices(rs, t - 1)) % 2 == 1
    return odd, 2 * t + sum(r - t + 1 for r in rs if r < t - 1) - (3 if odd else 2)


# ---------------------------------------------------------------------------
# the counting oracle


def stabilization_threshold(p: int, gram: tuple[int, ...], h: Fraction | int) -> int:
    """Modulus exponent past which the count ratio is provably constant:
    2 * ord_p(2 * det) + ord_p(h) + 1, for a positive p-adically integral h."""
    _check_prime(p)
    gram = _check_gram(gram)
    _, h_ord = _integral_target(h, p)
    det_ord = (1 if p == 2 else 0) + sum(_valuation(a, p) for a in gram)
    return 2 * det_ord + h_ord + 1


def _square_class(v: int, p: int, t: int) -> tuple[int, int]:
    """Orbit of v mod p^t under multiplication by unit squares: (ord_p v,
    Legendre symbol of the unit part), or for p = 2 (ord_2 v, unit part mod
    2^min(3, t - ord_2 v)); (t, 0) for v = 0."""
    if v == 0:
        return (t, 0)
    k = _valuation(v, p)
    return (k, v // 2**k % 2 ** min(3, t - k) if p == 2 else _legendre(v // p**k, p))


@lru_cache(maxsize=64)
def _class_tables(p: int, t: int) -> tuple[dict, tuple, tuple, tuple]:
    """(index, reps, sizes, table) for Z/p^t, built from level t - 1 alone
    without visiting the p^t residues.

    Classes are numbered by descending valuation, zero first and units last,
    so x -> p*x carries class i of Z/p^(t-1) onto class i of Z/p^t (key
    (k, u) to (k + 1, u)) and the unit classes follow.  A unit's class is
    fixed by its residue mod q = p^min(t, 3) at p = 2 and mod q = p for odd
    p, and each unit mod q lifts to p^t / q units mod p^t.  reps[C] is one
    element of class C and sizes[C] its number of elements.  table[j] lists
    (C, i, n): for the representative r of class C, n is the number of w in
    class i with r - w in class j.
    """
    if t == 0:
        return {(0, 0): 0}, (0,), (1,), (((0, 0, 1),),)
    index, reps, sizes, table = _class_tables(p, t - 1)
    q = p ** min(t, 3 if p == 2 else 1)
    lift = p**t // q
    index = {(k + 1, u): i for (k, u), i in index.items()}
    low = len(index)  # the classes of positive valuation
    reps = [p * r for r in reps]
    unit = {}  # unit residue mod q -> its class
    for w in range(1, q):
        if w % p:
            key = _square_class(w, p, t)
            if key not in index:
                index[key] = len(index)
                reps.append(w)
            unit[w] = index[key]
    sizes = list(sizes) + [0] * (len(index) - low)
    for c in unit.values():
        sizes[c] += lift

    def unit_pairs(r: int) -> tuple:
        """The units w with r - w a unit, in lifts of the units w mod q."""
        found = Counter((i, unit[(r - w) % q]) for w, i in unit.items() if (r - w) % p)
        return tuple((i, j, n * lift) for (i, j), n in found.items())

    # r = p*r': the w = p*w' with w' mod p^(t-1) give the entries of r' one
    # level down under the same class numbers, and every unit w leaves the
    # unit r - w.  These unit pairs depend on r mod q only.
    table = [list(entries) for entries in table] + [[] for _ in range(low, len(index))]
    tails = {r: unit_pairs(r) for r in {x % q for x in reps}}
    for C, r in enumerate(reps):
        for i, j, n in tails[r % q]:
            table[j].append((C, i, n))
    # r a unit: a class c of positive valuation fixes x mod q, so r - x lies
    # in one unit class j for all |c| elements x of c; w -> r - w mirrors it.
    for C in range(low, len(reps)):
        for c in range(low):
            j = unit[(reps[C] - reps[c]) % q]
            table[j].append((C, c, sizes[c]))
            table[c].append((C, j, sizes[c]))
    return index, tuple(reps), tuple(sizes), tuple(map(tuple, table))


@lru_cache(maxsize=4096)
def _class_distribution(p: int, t: int, classes: tuple[int, ...]) -> tuple[int, ...]:
    """Count of sum(a_j x_j^2) = v mod p^t for one v in each class, the a_j
    in the given classes.  One coefficient a: an x of valuation k < t/2 puts
    a*x^2 in the class of a*p^(2k), as unit squares keep the class, and
    there are p^(t-k-1)*(p-1) such x; the other p^(t//2) make a*x^2 = 0.
    More coefficients: the pair table is grouped by the class j of the last
    summand, so each level scatters over the nonzero terms only: for every
    class j the last coefficient reaches, the entries (C, i, n) of table[j]
    with head[i] nonzero add n * head[i] * last[j] to class C."""
    index, reps, sizes, table = _class_tables(p, t)
    if len(classes) == 1:
        M, a = p**t, reps[classes[0]]
        totals = [p ** (t // 2)] + [0] * (len(reps) - 1)
        for k in range((t + 1) // 2):
            C = index[_square_class(a * p ** (2 * k) % M, p, t)]
            totals[C] += p ** (t - k - 1) * (p - 1)
        return tuple(n // size for n, size in zip(totals, sizes))
    last = _class_distribution(p, t, classes[-1:])
    head = _class_distribution(p, t, classes[:-1])
    out = [0] * len(last)
    for lj, entries in zip(last, table):
        if lj:
            for C, i, n in entries:
                if head[i]:
                    out[C] += n * head[i] * lj
    return tuple(out)


def _residue_count(p: int, t: int, gram: tuple[int, ...], h: Fraction) -> int:
    """#{x mod p^t : sum(a*x^2) = h mod p^t}."""
    M, index = p**t, _class_tables(p, t)[0]
    h_mod = h.numerator * pow(h.denominator, -1, M) % M
    classes = tuple(sorted(index[_square_class(a % M, p, t)] for a in gram))
    return _class_distribution(p, t, classes)[index[_square_class(h_mod, p, t)]]


def siegel_count_density(
    p: int, gram: tuple[int, ...] | list[int], h: Fraction | int, t: int, *, N: int = 1
) -> Density:
    """Counting route: #{x mod p^t : q(x) = h} / p^((n-1)*t) for the
    diagonal form with the given gram entries.

    Only defined away from the conductor (p must not divide N).  The
    returned Density carries stabilized=True iff the ratio is identical at
    t, t+1 and t+2, that is iff each count is p^(n-1) times the one before;
    the counts are compared as integers and only the ratio at t becomes a
    Fraction.  The largest modulus p^(t+2) may not exceed
    DEFAULT_ORACLE_MODULUS_CAP, which is checked before any table is built.
    """
    _check_prime(p)
    _check_int(t, "t")
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_int(N, "N")
    if N % p == 0:
        raise WrongDispatchError(
            f"counting oracle undefined at p={p} dividing the conductor N={N}"
        )
    gram = _check_gram(gram)
    if not gram:
        raise ValueError("gram must be nonempty")
    h, _ = _integral_target(h, p)
    for tt in (t, t + 1, t + 2):
        _capped_modulus(p, tt, "oracle modulus {p}^{t} = {M} exceeds cap {cap}")
    c0, c1, c2 = (_residue_count(p, tt, gram, h) for tt in (t, t + 1, t + 2))
    step = p ** (len(gram) - 1)
    stabilized = c1 == c0 * step and c2 == c1 * step
    return Density(Fraction(c0, step**t), "oracle", t=t, stabilized=stabilized)


# ---------------------------------------------------------------------------
# dispatcher


def local_density(
    X: ShiftedDiagonalLattice,
    h: Fraction | int,
    p: int,
    *,
    check_oracle: bool = False,
) -> Density:
    """Local density of the shifted lattice at p, dispatched by regime.

    Primes dividing the conductor take the closed forms; unramified primes
    take Yang's explicit formulas (rank must be even and >= 4 there).
    Requires a primitive gram (gcd 1) and an admissible target.  With
    check_oracle=True, unramified values are recomputed by the counting
    oracle at the stabilization threshold and any disagreement raises
    InternalConsistencyError.
    """
    _check_prime(p)
    if X.n == 0 or math.gcd(*X.gram) != 1:
        raise ValueError("gram must be nonempty with coprime entries")
    h = _check_target(h)
    if not admissible(X, h):
        raise ValueError(f"target {h} fails the admissibility condition")
    if X.N % p == 0:
        return density_p_dividing_N(p, X.N)
    jd = jordan_decompose(p, X.gram)
    result = yang_density_two(jd, h) if p == 2 else yang_density_odd(jd, h)
    if check_oracle:
        oracle, passed = _oracle_check(X, h, p, result.value)
        if not passed:
            raise InternalConsistencyError(
                f"formula {result.value} vs oracle {oracle.value} "
                f"(stabilized={oracle.stabilized}) at p={p}, h={h}, gram={X.gram}"
            )
    return result


def _oracle_check(
    X: ShiftedDiagonalLattice, h: Fraction, p: int, value: Fraction
) -> tuple[Density, bool]:
    """Formula value versus the counting oracle at the stabilization
    threshold: the oracle's Density and whether it stabilized at value.
    Away from p | N the shift c/N is in Z_p and translating x by it is a
    bijection of residues, so the lattice's count is that of its gram."""
    t = stabilization_threshold(p, X.gram, h)
    oracle = siegel_count_density(p, X.gram, h, t, N=X.N)
    return oracle, bool(oracle.stabilized and oracle.value == value)


# ---------------------------------------------------------------------------
# pattern classification and case bounds


def classify_universality_pattern(jd: JordanDecomposition) -> str:
    """Bucket the first four Jordan exponents into the cases whose density
    lower bounds are known, or 'unclassified'.

    Odd p: case1 = [0,0,0,i]; case2 = [0,0,i,j] with 1 <= i <= j and the
    character of b1*b2 matching p mod 4 ((+1 for p = 1 mod 4, -1 for
    p = 3 mod 4)); case3 = [0,0,1,1] with the complementary character.
    p = 2: case1 = [0,0,0,i] i <= 2; case2 = [0,0,1,i] i <= 3;
    case3 = [0,1,1,i] i <= 2; case4 = [0,1,2,i] i <= 3.
    """
    if jd.n < 6 or jd.n % 2 != 0:
        raise ValueError("classification needs even rank >= 6")
    r = jd.exponents[:4]
    p = jd.p
    if p != 2:
        if r[0] != 0 or r[1] != 0:
            return "unclassified"
        if r[2] == 0:
            return "case1"
        chi = _legendre(jd.units[0] * jd.units[1], p)
        matching = (p % 4 == 1 and chi == 1) or (p % 4 == 3 and chi == -1)
        if matching:
            return "case2"
        if (r[2], r[3]) == (1, 1):
            return "case3"
        return "unclassified"
    if r[0] != 0:
        return "unclassified"
    if r[1] == 0 and r[2] == 0 and r[3] <= 2:
        return "case1"
    if r[1] == 0 and r[2] == 1 and 1 <= r[3] <= 3:
        return "case2"
    if r[1] == 1 and r[2] == 1 and 1 <= r[3] <= 2:
        return "case3"
    if r[1] == 1 and r[2] == 2 and 2 <= r[3] <= 3:
        return "case4"
    return "unclassified"


class ConformanceRow:
    """One line of a conformance report: a computed value, the reference it
    was held against (a bound or an oracle value), and the verdict.
    passed=None marks a skipped row.  Frozen and hashable; equal to a row
    with equal fields."""

    __match_args__ = ("p", "gram", "N", "c", "h", "method", "value", "reference", "passed")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init__(
        self, p: int, gram: tuple[int, ...], N: int | None, c: int | None, h: Fraction | None,
        method: str, value: Fraction | None, reference: Fraction | None, passed: bool | None,
    ) -> None:
        self.__dict__.update(
            p=p, gram=gram, N=N, c=c, h=h, method=method, value=value,
            reference=reference, passed=passed,
        )

    def __repr__(self) -> str:
        return (
            f"ConformanceRow(p={self.p!r}, gram={self.gram!r}, N={self.N!r}, c={self.c!r}, "
            f"h={self.h!r}, method={self.method!r}, value={self.value!r}, "
            f"reference={self.reference!r}, passed={self.passed!r})"
        )

    def _fields(self) -> tuple:
        return (
            self.p, self.gram, self.N, self.c, self.h, self.method, self.value,
            self.reference, self.passed,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


def _tail_sum_two_adic(rs: tuple[int, ...], start: int, stop: int) -> Fraction:
    """sum over start <= t <= stop of delta(t) * (2^(d-3/2) on odd index
    count, else 2^(d-1)) for the 2-adic exponent data."""
    terms = (_two_adic_term(rs, t) for t in range(start, stop + 1))
    return _power_sum(2, [(1, term[1]) for term in terms if term is not None])


def verify_case_bounds(
    jd: JordanDecomposition, h_values: list[Fraction | int]
) -> list[ConformanceRow]:
    """Check the proof inequalities behind the classified cases.

    Odd p, per target h (R1 = density - 1, a = ord_p(h)):
      case1: |R1| <= 2/p;
      case2: |R1| <= p^(-1/2) when a = 0 (checked as R1^2 <= 1/p),
             1 - 2/p <= R1 <= r4 when a >= 1;
      case3: |R1| <= 1 - (p^-rn - p^-(rn+1)).

    p = 2: the tail of the exponent series from t = rn + 2 onward is
    summed exactly (there every delta(t) is 1 and the exponent falls by
    n - 2 every two steps, so the tail is its first two terms over
    1 - 2^(2 - n)) and compared against 2^(r4 - rn - 1); the middle range
    r4 + 2 <= t <= rn, when nonempty, is compared against
    2^-1 + ... + 2^(r4 - rn + 1).  The patterns [0,0,0,2] and [0,0,1,3] also
    get the sharpened bounds one power of two lower.  Each target h
    additionally must give a density in (0, 2].
    """
    label = classify_universality_pattern(jd)
    if label == "unclassified":
        raise ValueError("case bounds are only stated for classified patterns")
    p = jd.p
    rs = jd.exponents
    gram = jd.gram()
    r4, rn = rs[3], rs[-1]
    rows: list[ConformanceRow] = []

    if p != 2:
        for h in h_values:
            h = _check_target(h)
            value = yang_density_odd(jd, h).value
            r1 = value - 1
            method = f"{label}_bound"
            if label == "case1":
                bound = Fraction(2, p)
                ok = abs(r1) <= bound
            elif label == "case2":
                if _frac_valuation(h, p) == 0:
                    # Only the boundary term survives for a unit target, so
                    # the two-sided chain does not apply; R1^2 <= 1/p is the
                    # rational form of |R1| <= p^(-1/2).
                    method = "case2_unit_bound"
                    bound = Fraction(1, p)
                    ok = r1 * r1 <= bound
                else:
                    bound = Fraction(r4)
                    ok = Fraction(p - 2, p) <= r1 <= bound
            else:
                bound = 1 - (Fraction(1, p**rn) - Fraction(1, p ** (rn + 1)))
                ok = abs(r1) <= bound
            ok = ok and value > 0
            rows.append(ConformanceRow(p, gram, None, None, h, method, r1, bound, ok))
        return rows

    # p = 2: series bounds first, then the per-target range check.
    def series_row(method: str, value: Fraction, bound: Fraction) -> None:
        ok = value <= bound
        rows.append(ConformanceRow(2, gram, None, None, None, method, value, bound, ok))

    sharpened = rs[:4] in ((0, 0, 0, 2), (0, 0, 1, 3))
    tail = _tail_sum_two_adic(rs, rn + 2, rn + 3) / (1 - Fraction(2) ** (2 - jd.n))
    series_row("lemma4_tail", tail, Fraction(2) ** (r4 - rn - 1))
    if sharpened:
        series_row("lemma4_tail_sharpened", tail, Fraction(2) ** (r4 - rn - 2))
    if r4 + 2 <= rn:
        middle = _tail_sum_two_adic(rs, r4 + 2, rn)
        series_row("lemma5_middle", middle, 1 - Fraction(2) ** (r4 - rn + 1))
        if sharpened:
            series_row("lemma5_middle_sharpened", middle, Fraction(1, 2) - Fraction(2) ** (r4 - rn))
    for h in h_values:
        h = _check_target(h)
        value = yang_density_two(jd, h).value
        ok = 0 < value <= 2
        rows.append(
            ConformanceRow(2, gram, None, None, h, "two_adic_range", value, Fraction(2), ok)
        )
    return rows


def conformance_csv(rows: list[ConformanceRow]) -> str:
    """Deterministic CSV for conformance rows.

    Columns: p, gram (space-joined), N, c, h_num, h_den, method, value_num,
    value_den, oracle_num, oracle_den, pass.  The oracle columns hold
    whatever reference the row was judged against (a count or a bound);
    empty cells mean not applicable, pass 'skipped' means not judged.
    """
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "p", "gram", "N", "c", "h_num", "h_den", "method",
            "value_num", "value_den", "oracle_num", "oracle_den", "pass",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row.p,
                " ".join(str(a) for a in row.gram),
                "" if row.N is None else row.N,
                "" if row.c is None else row.c,
                "" if row.h is None else row.h.numerator,
                "" if row.h is None else row.h.denominator,
                row.method,
                "" if row.value is None else row.value.numerator,
                "" if row.value is None else row.value.denominator,
                "" if row.reference is None else row.reference.numerator,
                "" if row.reference is None else row.reference.denominator,
                "skipped" if row.passed is None else ("true" if row.passed else "false"),
            ]
        )
    return out.getvalue()
