"""Brute-force reference implementations the test suite checks against.

Everything in here favors obviousness over speed: plain loops and set
comprehensions, no bitmasks, no packing tricks, no caching.  The fast
library code must agree with these on small inputs; a few of the outputs
are additionally frozen as literals in the test modules so regressions in
*both* implementations cannot slip through together.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

from mgonal import localdensity
from mgonal.errors import InternalConsistencyError, WrongDispatchError
from mgonal.localdensity import _integral_target, _kronecker2, _legendre, _unit_part_mod


def polygonal_values(m: int, bound: int) -> list[int]:
    """Sorted distinct generalized m-gonal values in [0, bound], by scanning
    a generous symmetric index window."""
    vals = set()
    for x in range(-2 * bound - 3, 2 * bound + 4):
        v = ((m - 2) * x * x - (m - 4) * x) // 2
        if 0 <= v <= bound:
            vals.add(v)
    return sorted(vals)


def represented(m: int, coeffs: tuple[int, ...], bound: int) -> set[int]:
    """All sums of coeff-weighted generalized m-gonal numbers in [0, bound],
    one index variable per coefficient."""
    sums = {0}
    for a in coeffs:
        layer = [a * v for v in polygonal_values(m, bound // a)]
        sums = {s + w for s in sums for w in layer if s + w <= bound}
    return sums


def naive_truant(m: int, coeffs: tuple[int, ...], bound: int) -> int | None:
    rep = represented(m, coeffs, bound)
    for k in range(1, bound + 1):
        if k not in rep:
            return k
    return None


def shifted_count(gram: tuple[int, ...], c: int, N: int, h) -> int:
    """Number of integer vectors y with y = -c (mod N) in every coordinate
    and sum(a*y**2) = h*N**2, by enumerating the whole search box."""
    H_frac = Fraction(h) * N * N
    if H_frac.denominator != 1:
        return 0
    H = int(H_frac)
    if H < 0:
        return 0
    axes = []
    for a in gram:
        lim = math.isqrt(H // a)
        axes.append([y for y in range(-lim, lim + 1) if (y + c) % N == 0])
    count = 0
    for vec in itertools.product(*axes):
        if sum(a * y * y for a, y in zip(gram, vec)) == H:
            count += 1
    return count


def residue_density(p: int, t: int, gram: tuple[int, ...], h) -> Fraction:
    """count{x mod p**t : sum(a*x**2) = h mod p**t} / p**((n-1)*t), by
    looping over every residue vector.  Keep p**(t*n) tiny."""
    M = p**t
    h = Fraction(h)
    target = h.numerator * pow(h.denominator, -1, M) % M
    count = 0
    for vec in itertools.product(range(M), repeat=len(gram)):
        if sum(a * x * x for a, x in zip(gram, vec)) % M == target:
            count += 1
    return Fraction(count, M ** (len(gram) - 1))


def _l_indices(exponents, t):
    return [i for i, r in enumerate(exponents) if r < t and (t - r) % 2 == 1]


def _d_of_t(exponents, t) -> Fraction:
    """t + (1/2) * sum(r_i - t over r_i < t), a half-integer."""
    return t + Fraction(sum(r - t for r in exponents if r < t), 2)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise InternalConsistencyError(f"{what} should be an integer, got {x}")
    return x.numerator


def yang_density_odd(jd, h) -> Fraction:
    """Yang's odd-prime formula term by term in Fraction arithmetic: 1 plus
    (1 - 1/p) * eps(t) * p^d(t) over 0 < t <= a with #L(t) even, plus the
    boundary term at a + 1.  The library sums the same terms in integers."""
    p = jd.p
    if p == 2:
        raise WrongDispatchError("this formula is for odd primes; use the 2-adic one")
    if jd.n % 2 != 0 or jd.n < 4:
        raise ValueError("rank must be even and >= 4")
    h, a = _integral_target(h, p)
    rs, bs = jd.exponents, jd.units

    def eps(t):
        ls = _l_indices(rs, t)
        sign = _legendre(-1, p) ** (len(ls) // 2)
        for i in ls:
            sign *= _legendre(bs[i], p)
        return sign

    middle = Fraction(0)
    for t in range(1, a + 1):
        if len(_l_indices(rs, t)) % 2 == 0:
            d = _as_int(_d_of_t(rs, t), "d(t) with even index count")
            middle += eps(t) * Fraction(p) ** d
    middle *= 1 - Fraction(1, p)
    l_end = len(_l_indices(rs, a + 1))
    d_end = _d_of_t(rs, a + 1)
    if l_end % 2 == 0:
        boundary = eps(a + 1) * Fraction(p) ** _as_int(d_end, "d(a+1)") * Fraction(-1, p)
    else:
        alpha = _unit_part_mod(h, p, p)
        e = _as_int(d_end - Fraction(1, 2), "d(a+1) - 1/2 with odd index count")
        boundary = eps(a + 1) * _legendre(alpha, p) * Fraction(p) ** e
    return 1 + middle + boundary


def yang_density_two(jd, h) -> Fraction:
    """Yang's 2-adic formula term by term in Fraction arithmetic, each term
    delta(t) * sign * 2^(d(t) - 3/2 or d(t) - 1) for 1 < t <= a + 3."""
    if jd.p != 2:
        raise WrongDispatchError("this formula is specific to p = 2")
    if jd.n % 2 != 0 or jd.n < 4:
        raise ValueError("rank must be even and >= 4")
    h, a = _integral_target(h, 2)
    rs, bs = jd.exponents, jd.units
    alpha8 = _unit_part_mod(h, 2, 8)
    total = Fraction(0)
    for t in range(2, a + 4):
        if t - 1 in rs:  # delta(t) = 0
            continue
        odd = len(_l_indices(rs, t - 1)) % 2 == 1
        e = _d_of_t(rs, t - 1) + 1 - (Fraction(3, 2) if odd else 1)
        power = Fraction(2) ** _as_int(e, "2-adic exponent")
        eps8 = 1
        for i in _l_indices(rs, t - 1):
            eps8 = eps8 * bs[i] % 8
        low = sum(b for b, r in zip(bs, rs) if r < t - 1)
        mu8 = (alpha8 * pow(2, a + 3 - t, 8) - low) % 8
        if odd:
            total += _kronecker2(mu8 * eps8 % 8) * power
        elif mu8 % 4 == 0:
            total += _kronecker2(eps8) * (1 if mu8 == 0 else -1) * power
    return 1 + total


def stabilized_count_density(p: int, gram, h, t: int) -> tuple[Fraction, bool]:
    """(ratio at t, whether it is identical at t, t+1 and t+2), each ratio
    count / p^((n-1)*t') a Fraction of its own, from the oracle's counts."""
    h = Fraction(h)
    vals = [
        Fraction(localdensity._residue_count(p, tt, tuple(gram), h), p ** ((len(gram) - 1) * tt))
        for tt in (t, t + 1, t + 2)
    ]
    return vals[0], vals[0] == vals[1] == vals[2]


def square_class_tables(p: int, t: int) -> tuple[list[int], dict, dict]:
    """(orbit, pairs, coordinates) for Z/p**t, by visiting every residue.

    orbit[v] is the smallest element of v's orbit under multiplication by
    the unit squares mod p**t, and serves as the class key.  For keys r, i,
    j, a and C: pairs[r][(i, j)] counts the w with orbit[w] = i and
    orbit[r - w] = j, and coordinates[a][C] counts the x with a*x*x = C.
    """
    M = p**t
    unit_squares = {s * s % M for s in range(M) if s % p}
    orbit = [-1] * M
    for v in range(M):
        if orbit[v] < 0:  # v is the smallest of its orbit
            for s in unit_squares:
                orbit[s * v % M] = v
    keys = sorted(set(orbit))
    pairs = {r: Counter((orbit[w], orbit[(r - w) % M]) for w in range(M)) for r in keys}
    coordinates = {}
    for a in keys:
        values = Counter(a * x * x % M for x in range(M))
        coordinates[a] = {C: values[C] for C in keys}
    return orbit, pairs, coordinates


def class_convolution(pairs, head, last) -> tuple[int, ...]:
    """The class distribution of a form with one more coefficient: for each
    row C, the sum over its pair entries (i, j, n) of n * head[i] * last[j],
    zero terms included."""
    return tuple(sum(n * head[i] * last[j] for i, j, n in row) for row in pairs)


def quaternary_figure() -> list[tuple[int, int, int, int]]:
    """The depth-4 coefficient vectors every large-m escalator tree shares:
    six ternary stems, each extended through its own coefficient window."""
    stems = {
        (1, 1, 1): (1, 4),
        (1, 1, 2): (2, 5),
        (1, 1, 3): (3, 6),
        (1, 2, 2): (2, 6),
        (1, 2, 3): (3, 7),
        (1, 2, 4): (4, 8),
    }
    out = []
    for stem, (lo, hi) in stems.items():
        for k in range(lo, hi + 1):
            out.append(stem + (k,))
    return sorted(out)


# Truants of the internal nodes of the same trees, keyed by coefficients.
INTERNAL_TRUANTS = {
    (): 1,
    (1,): 2,
    (1, 1): 3,
    (1, 2): 4,
    (1, 1, 1): 4,
    (1, 1, 2): 5,
    (1, 1, 3): 6,
    (1, 2, 2): 6,
    (1, 2, 3): 7,
    (1, 2, 4): 8,
}


def valid_tree_document(text: str) -> bool:
    """Whether text is a tree document by the rules of deserialize_tree's
    docstring, checked one rule at a time on the whole document:

    - a JSON object with exactly the keys m, bound, max_depth and nodes;
      m >= 3, bound >= 1 and max_depth >= 0 are integers (never bools);
    - nodes is a nonempty array of objects with exactly the keys coeffs,
      truant and children;
    - coeffs is an ascending array of positive integers, at most max_depth
      long, and the nodes are in strictly increasing lexicographic order;
    - truant is "universal" (not for the empty form) or an integer in
      [1, bound];
    - children is an array of distinct integers >= 0, empty for a universal
      node; each names a node whose coeffs are its parent's plus one k with
      last <= k <= truant (last = 1 for the empty form);
    - exactly one node, the first, has empty coeffs, and every node is
      reachable from it.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False

    def integer(x, least):
        return type(x) is int and x >= least

    if not isinstance(doc, dict) or sorted(doc) != ["bound", "m", "max_depth", "nodes"]:
        return False
    if not (integer(doc["m"], 3) and integer(doc["bound"], 1) and integer(doc["max_depth"], 0)):
        return False
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        return False
    for node in nodes:
        if not isinstance(node, dict) or sorted(node) != ["children", "coeffs", "truant"]:
            return False
        coeffs, truant, children = node["coeffs"], node["truant"], node["children"]
        if not isinstance(coeffs, list) or not all(integer(a, 1) for a in coeffs):
            return False
        if coeffs != sorted(coeffs) or len(coeffs) > doc["max_depth"]:
            return False
        if truant == "universal":
            if not coeffs or children:
                return False
        elif not (integer(truant, 1) and truant <= doc["bound"]):
            return False
        if not isinstance(children, list) or not all(integer(k, 0) for k in children):
            return False
        if len(set(children)) != len(children):
            return False
    keys = [tuple(node["coeffs"]) for node in nodes]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    if [i for i, key in enumerate(keys) if not key] != [0]:
        return False
    for node in nodes:
        for k in node["children"]:
            if k >= len(nodes):
                return False
            child = nodes[k]["coeffs"]
            last = node["coeffs"][-1] if node["coeffs"] else 1
            if child[:-1] != node["coeffs"] or len(child) != len(node["coeffs"]) + 1:
                return False
            if not last <= child[-1] <= node["truant"]:
                return False
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [k for i in frontier for k in nodes[i]["children"] if k not in reached]
        reached.update(frontier)
    return len(reached) == len(nodes)
