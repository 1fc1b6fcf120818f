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
