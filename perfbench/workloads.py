"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload is built from a random.Random seeded by --seed.  Building it
is the set-up; its `ops` are the timed operations of one round, and every
round repeats the same operations from cold program caches.  An optional
`digest` turns each output into the plain values that are kept and checked.
`check` runs after the timed phase on the first round's outputs, and
`check_cli` on each of the workload's command-line calls.

Operations look up mgonal functions as module attributes at call time
(`escalator.build_tree`, not a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import partial

from mgonal import constructions, escalator, lattice, localdensity, polygonal

import reference as ref


class Checker:
    """Collects failed checks.

    Every check has a name.  When `fault` names a check, that check's
    expected value is corrupted on purpose; the self-test uses this to show
    that each check can fail.
    """

    def __init__(self, fault: str | None = None):
        self.fault = fault
        self.names: set[str] = set()
        self.failures: list[str] = []

    def eq(self, name: str, got, want) -> None:
        self.names.add(name)
        if name == self.fault:
            want = _corrupt(want)
        if got != want:
            self.failures.append(f"{name}: got {got!r}, want {want!r}")

    @property
    def correct(self) -> bool:
        return not self.failures


def _corrupt(value):
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, tuple):
        return value + (0,)
    if isinstance(value, list):
        return value + [None]
    raise TypeError(f"cannot corrupt {value!r}")


def _strata(rng, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k equal slices of [lo, hi].

    Stratified draws keep the total cost of a round nearly the same for
    every seed, which is what keeps the end-to-end figures steady.
    """
    span = hi - lo + 1
    starts = [lo + i * span // k for i in range(k + 1)]
    return [rng.randrange(a, max(b, a + 1)) for a, b in zip(starts, starts[1:])]


# ---------------------------------------------------------------------------
# trees


# The full trees for m = 3..14 come out the same at bound 2e4 as at 1e5 (the
# largest truant is 131) for a fifth of the time, and the depth-5 trees for
# m in 19..110 (truants below 250) the same at 1e4 for a fifteenth.  Cheap
# rounds let every run time each tree about ten times.
FULL_DEPTH, FULL_BOUND = 12, 20_000
SPREAD_DEPTH, SPREAD_BOUND = 5, 10_000


def _tree_op(m: int, depth: int, bound: int):
    tree = escalator.build_tree(m, depth, bound)
    text = escalator.serialize_tree(tree)
    parsed = escalator.deserialize_tree(text)
    return text, tree.gamma_estimate, tree.complete, parsed


class Trees:
    """Full depth-12 trees for m = 3..14 plus depth-5 trees for a seeded
    spread of m in 19..110, each serialized and parsed back."""

    name = "trees"

    def __init__(self, rng, small: bool = False):
        full = (3, 4, 5, 6, 8) if small else range(3, 15)
        # Every m in 19..110 plus 46 seeded m from 41..110, where depth-5
        # trees take nearly the same time: 150 trees a round.  Above the
        # 90th percentile lie the full trees for m >= 4 and the operations
        # that follow the largest trees; with m = 15..18 (depth-5 trees that
        # take 10-17 ms) it fell on the edge of those, and moved with each
        # slow spell.  Now it and the median fall among depth-5 trees whose
        # times change smoothly with m.
        if small:
            spread = _strata(rng, 19, 110, 3)
        else:
            spread = list(range(19, 111)) + _strata(rng, 41, 110, 46)
        self.inputs = [(m, FULL_DEPTH, FULL_BOUND) for m in full]
        self.inputs += [(m, SPREAD_DEPTH, SPREAD_BOUND) for m in spread]
        self.ops = [partial(_tree_op, *args) for args in self.inputs]
        self.cli_m = 8 if small else 13
        self.cli_argv = ["gamma", "--m", str(self.cli_m), "--bound", str(FULL_BOUND)]
        self.full_gamma: dict[int, int] = {}

    @staticmethod
    def digest(out):
        """The parsed tree as strings and numbers, which the garbage
        collector does not traverse: a round's outputs held as trees made
        every later full collection, and the operation it fell in, slower
        round after round."""
        text, gamma, complete, parsed = out
        return (text, gamma, complete,
                escalator.serialize_tree(parsed), parsed.gamma_estimate, parsed.complete)

    def check(self, outputs, chk: Checker) -> None:
        full_nodes = {}
        for (m, depth, _), out in zip(self.inputs, outputs):
            if out is None:
                continue
            text, gamma, complete, reserialized, parsed_gamma, parsed_complete = out
            doc = json.loads(text)
            nodes = doc["nodes"]
            self._check_nodes(m, nodes, chk)
            truants = [n["truant"] for n in nodes if n["truant"] != "universal"]
            chk.eq("trees.gamma_is_max_truant", gamma, max(truants))
            frontier_open = any(n["truant"] != "universal" and not n["children"] for n in nodes)
            chk.eq("trees.complete_flag", complete, not frontier_open)
            chk.eq("trees.roundtrip_bytes", reserialized, text)
            chk.eq("trees.roundtrip_gamma", parsed_gamma, gamma)
            chk.eq("trees.roundtrip_complete", parsed_complete, complete)
            if depth == FULL_DEPTH:
                chk.eq("trees.full_tree_complete", complete, True)
                full_nodes[m] = nodes
                self.full_gamma[m] = gamma
                if m in ref.KNOWN_GAMMA:
                    chk.eq(f"trees.gamma_{m}", gamma, ref.KNOWN_GAMMA[m])
        # Generalized hexagonal numbers are exactly the triangular numbers.
        chk.eq("trees.hexagonal_equals_triangular", full_nodes.get(6), full_nodes.get(3))

    @staticmethod
    def _check_nodes(m: int, nodes, chk: Checker) -> None:
        """Recompute every node's represented set in [0, G] with plain sets,
        G the tree's largest truant, walking parent to child."""
        chk.eq("trees.root_is_empty_form", nodes[0]["coeffs"], [])
        limit = max(n["truant"] for n in nodes if n["truant"] != "universal")
        sums = {0: {0}}
        stack = [0]
        while stack:
            i = stack.pop()
            node = nodes[i]
            want = ref.smallest_missing(sums[i], limit)
            chk.eq("trees.truant", node["truant"], "universal" if want is None else want)
            if node["children"]:
                # Every k from the last coefficient up to the truant t repairs
                # t, because t - k * P_m(1) = t - k is below t.
                lo = node["coeffs"][-1] if node["coeffs"] else 1
                chk.eq("trees.children_are_lo_to_truant",
                       [nodes[k]["coeffs"][-1] for k in node["children"]],
                       list(range(lo, node["truant"] + 1)))
            for k in node["children"]:
                coeffs = nodes[k]["coeffs"]
                chk.eq("trees.child_extends_parent", coeffs[:-1], node["coeffs"])
                sums[k] = ref.add_coefficient(sums[i], m, coeffs[-1], limit)
                chk.eq("trees.child_represents_parent_truant",
                       node["truant"] in sums[k], True)
                stack.append(k)
            del sums[i]

    def check_cli(self, code: int, stdout: str, chk: Checker) -> None:
        chk.eq("trees.cli_exit", code, 0)
        found = re.match(rf"gamma_{self.cli_m} = (\d+) \(empirical", stdout)
        chk.eq("trees.cli_gamma",
               int(found.group(1)) if found else None, self.full_gamma.get(self.cli_m))


# ---------------------------------------------------------------------------
# densities


PRIMES = (2, 3, 5, 7)
# Target units as in the acceptance suite: below 30 and prime to 210.
TARGET_UNITS = (1, 11, 13, 17, 19, 23, 29)
GRAM_UNITS = tuple(u for u in range(1, 50) if math.gcd(u, 210) == 1)
TARGETS_PER_PRIME = 4
# (rank, p-valuation of the gram's determinant for p = 2, 3, 5, 7).  The
# valuations fix each oracle modulus p^t, and with it the cost of a cold
# oracle call, so every seed gets the same mix of cheap and dear lattices;
# the seed picks the unit parts of the entries and the targets.
DENSITY_SLOTS = (
    (4, (1, 1, 0, 0)),
    (6, (1, 1, 1, 0)),
    (4, (2, 2, 0, 0)),
    (6, (2, 1, 1, 0)),
    (4, (3, 1, 1, 0)),
    (6, (1, 2, 0, 0)),
    (4, (1, 3, 0, 1)),
    (6, (0, 1, 0, 0)),
)
# Tiny moduli on which the oracle is also checked by visiting every residue.
BRUTE_MODULI = ((2, 3), (3, 2), (5, 1), (7, 1))
DENSITY_CLI_GRAM = (1, 1, 1, 2, 3, 5)
DENSITY_CLI_H = (8, 24, 88)


def _draw_gram(rng, rank: int, valuations) -> tuple[int, ...]:
    gram = [rng.choice(GRAM_UNITS) for _ in range(rank)]
    for p, v in zip(PRIMES, valuations):
        for _ in range(v):
            gram[rng.randrange(rank)] *= p
    return tuple(gram)


def _density_op(p: int, gram, jd, h: int):
    yang = localdensity.yang_density_two if p == 2 else localdensity.yang_density_odd
    formula = yang(jd, h)
    t = localdensity.stabilization_threshold(p, gram, h)
    oracle = localdensity.siegel_count_density(p, gram, h, t)
    return formula.value, oracle.value, oracle.stabilized


class Densities:
    """Yang formula against the counting oracle on seeded diagonal lattices
    of rank 4 and 6, several targets per (lattice, p)."""

    name = "densities"

    def __init__(self, rng, small: bool = False):
        slots = DENSITY_SLOTS[:2] if small else DENSITY_SLOTS
        self.grams = [_draw_gram(rng, rank, vals) for rank, vals in slots]
        self.inputs = []
        for gram in self.grams:
            for p in PRIMES:
                jd = localdensity.jordan_decompose(p, gram)
                for u in rng.sample(TARGET_UNITS, TARGETS_PER_PRIME):
                    self.inputs.append((p, gram, jd, 8 * u))
        self.ops = [partial(_density_op, *args) for args in self.inputs]
        # The targets of one (lattice, p) run one after another, so the
        # first misses the oracle's caches and the rest hit them; shuffled,
        # the 64-entry cache of packed distributions evicted entries between
        # them and most operations missed.
        self.shuffle = False
        self.cli_argv = [
            "density", "--gram", ",".join(map(str, DENSITY_CLI_GRAM)),
            "--p", ",".join(map(str, PRIMES)),
            "--h", ",".join(map(str, DENSITY_CLI_H)), "--strict",
        ]

    def check(self, outputs, chk: Checker) -> None:
        for out in outputs:
            if out is None:
                continue
            formula, oracle, stabilized = out
            chk.eq("densities.formula_equals_oracle", formula, oracle)
            chk.eq("densities.oracle_stabilized", stabilized, True)
        for gram in self.grams:
            if len(gram) != 4:
                continue
            for p, t in BRUTE_MODULI:
                h = next(h for q, g, _, h in self.inputs if q == p and g == gram)
                got = localdensity.siegel_count_density(p, gram, h, t).value
                chk.eq("densities.oracle_equals_brute_force", got,
                       ref.residue_density(p, t, gram, h))

    def check_cli(self, code: int, stdout: str, chk: Checker) -> None:
        chk.eq("densities.cli_exit", code, 0)
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        chk.eq("densities.cli_rows", len(rows), len(PRIMES) * len(DENSITY_CLI_H))
        chk.eq("densities.cli_all_true", all(r[-1] == "true" for r in rows), True)


# ---------------------------------------------------------------------------
# counts


FOUR_SQUARES = lattice.ShiftedDiagonalLattice((1, 1, 1, 1), 0, 1)
TRIANGULAR_FORM = polygonal.PolygonalForm(3, (1, 1, 1, 1))
SHIFTED_MS = (5, 7, 12)
MEMBERSHIP_BOUND = 50_000
GUY_BOUND = 100_000
CLI_GUY = (30, 26, 100_000)


def _four_squares_op(h: int) -> int:
    return lattice.representation_count(FOUR_SQUARES, h)


def _triangular_op(ell: int) -> int:
    X = lattice.lattice_from_form(TRIANGULAR_FORM)
    return lattice.representation_count(X, lattice.h_of_ell(TRIANGULAR_FORM, ell))


def _shifted_op(form, ell: int):
    count = lattice.representation_count(
        lattice.lattice_from_form(form), lattice.h_of_ell(form, ell)
    )
    return count, ell in polygonal.represented_set(form, MEMBERSHIP_BOUND)


def _guy_op(m: int, ell: int):
    report = constructions.verify_guy(constructions.guy_form(m, ell), GUY_BOUND)
    return report.missing, report.passed


COUNT_OPS = {"four_squares": _four_squares_op, "triangular": _triangular_op,
             "shifted": _shifted_op, "guy": _guy_op}


class Counts:
    """Lattice representation counts of three kinds, plus single-gap
    verifications at a large bound."""

    name = "counts"

    def __init__(self, rng, small: bool = False):
        n_sq, n_shift, n_guy = (4, 6, 1) if small else (24, 96, 4)
        self.inputs = [("four_squares", (h,)) for h in _strata(rng, 1, 2400, n_sq)]
        self.inputs += [("triangular", (ell,)) for ell in _strata(rng, 0, 1000, n_sq)]
        for i, ell in enumerate(_strata(rng, 1, 60, n_shift)):
            coeffs = sorted(rng.randint(1, 8) for _ in range(5))
            form = polygonal.PolygonalForm(SHIFTED_MS[i % 3], tuple(coeffs))
            self.inputs.append(("shifted", (form, ell)))
        for m in _strata(rng, 6, 30, n_guy):
            self.inputs.append(("guy", (m, rng.randint(1, m - 4))))
        self.ops = [partial(COUNT_OPS[kind], *args) for kind, args in self.inputs]
        m, ell, bound = (10, 5, 5000) if small else CLI_GUY
        self.cli_ell = ell
        self.cli_argv = ["guy", "--m", str(m), "--ell", str(ell), "--bound", str(bound)]

    def check(self, outputs, chk: Checker) -> None:
        for (kind, args), out in zip(self.inputs, outputs):
            if out is None:
                continue
            if kind == "four_squares":
                chk.eq("counts.jacobi_r4", out, ref.r4(*args))
            elif kind == "triangular":
                chk.eq("counts.odd_squares_16_sigma", out, ref.r4_odd_shifted(*args))
            elif kind == "shifted":
                (form, ell), (count, member) = args, out
                plain = ell in ref.represented(form.m, form.coeffs, ell)
                chk.eq("counts.membership_equals_count", member, count > 0)
                chk.eq("counts.membership_plain_sums", member, plain)
            else:
                (m, ell), (missing, passed) = args, out
                chk.eq("counts.guy_misses_exactly_ell", missing, (ell,))
                chk.eq("counts.guy_passed", passed, True)
                form = constructions.guy_form(m, ell).form
                chk.eq("counts.guy_gap_plain_sums",
                       ell in ref.represented(m, form.coeffs, ell), False)

    def check_cli(self, code: int, stdout: str, chk: Checker) -> None:
        chk.eq("counts.cli_exit", code, 0)
        chk.eq("counts.cli_verdict",
               stdout.strip().endswith(f"misses exactly {{{self.cli_ell}}}: PASS"), True)


WORKLOADS = {w.name: w for w in (Trees, Densities, Counts)}
