"""Expected values the benchmark holds the program's outputs against.

Nothing here imports mgonal: the values are published results, classical
identities, or plain loops over Python sets, so a fault in the program
cannot hide by being repeated here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# gamma_3 (Bosma-Kane), gamma_4 (Bhargava), gamma_5 (Ju), gamma_6 and
# gamma_8 (Ju-Oh).
KNOWN_GAMMA = {3: 8, 4: 15, 5: 109, 6: 8, 8: 60}


def polygonal_values(m: int, limit: int) -> list[int]:
    """Generalized m-gonal numbers ((m-2)x^2 - (m-4)x)/2 in [0, limit].

    For m >= 3 the value at index x is at least (x^2 - |x|)/2, so indices
    beyond sqrt(2*limit) + 1 in absolute value cannot land in range.
    """
    reach = math.isqrt(2 * limit) + 2
    vals = {((m - 2) * x * x - (m - 4) * x) // 2 for x in range(-reach, reach + 1)}
    return sorted(v for v in vals if 0 <= v <= limit)


def add_coefficient(sums: set[int], m: int, a: int, limit: int) -> set[int]:
    """The sums in [0, limit] after one more term a * P_m(x)."""
    layer = [a * v for v in polygonal_values(m, limit // a)]
    return {s + w for s in sums for w in layer if s + w <= limit}


def represented(m: int, coeffs, limit: int) -> set[int]:
    """Every value in [0, limit] of sum(a_j * P_m(x_j))."""
    sums = {0}
    for a in coeffs:
        sums = add_coefficient(sums, m, a, limit)
    return sums


def smallest_missing(sums: set[int], limit: int) -> int | None:
    """Smallest k in [1, limit] not in sums, or None."""
    return next((k for k in range(1, limit + 1) if k not in sums), None)


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return total


def r4(n: int) -> int:
    """Representations of n as a sum of four squares (Jacobi):
    8 * sum of the divisors of n that 4 does not divide."""
    if n == 0:
        return 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return 8 * sum(d for d in divisors if d % 4)


def r4_odd_shifted(ell: int) -> int:
    """Vectors in (Z - 1/2)^4 with squared length 2*ell + 1, i.e. ways of
    writing 8*ell + 4 as a sum of four odd squares: 16 * sigma(2*ell + 1)."""
    return 16 * sigma(2 * ell + 1)


def residue_density(p: int, t: int, gram, h: int) -> Fraction:
    """#{x mod p^t : sum(a_j x_j^2) = h mod p^t} / p^((n-1)*t), by visiting
    every residue vector."""
    M = p**t
    hits = sum(
        1
        for xs in product(range(M), repeat=len(gram))
        if sum(a * x * x for a, x in zip(gram, xs)) % M == h % M
    )
    return Fraction(hits, p ** ((len(gram) - 1) * t))
