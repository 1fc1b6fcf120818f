"""Command-line front end.

Exit codes: 0 success, 2 conformance failure under --strict (or a failed
guy verification), 3 resource cap exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ResourceCapError

USAGE_EXIT = 64
CONFORMANCE_EXIT = 2
RESOURCE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 64."""

    def error(self, message):  # noqa: D102 (argparse hook)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _range_list(text: str) -> list[int]:
    """Either 'lo..hi' (inclusive) or a comma-separated list."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _int_list(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgonal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="build an escalator tree and write it as JSON")
    p_tree.add_argument("--m", type=int, required=True)
    p_tree.add_argument("--depth", type=int, default=4)
    p_tree.add_argument("--bound", type=int, default=100_000)
    p_tree.add_argument("--node-cap", type=int)
    p_tree.add_argument("--out", help="output path (stdout when omitted)")

    p_gamma = sub.add_parser("gamma", help="largest truant of the escalator tree")
    p_gamma.add_argument("--m", type=int, required=True)
    p_gamma.add_argument("--bound", type=int, default=100_000)
    p_gamma.add_argument("--depth-cap", type=int, default=12)
    p_gamma.add_argument("--node-cap", type=int)

    p_density = sub.add_parser("density", help="local densities over a range of targets")
    p_density.add_argument("--gram", type=_int_list, required=True)
    p_density.add_argument("--N", type=int, default=1)
    p_density.add_argument("--c", type=int, default=0)
    p_density.add_argument("--p", type=_int_list, required=True)
    p_density.add_argument("--h", type=_range_list, default=list(range(1, 51)),
                           help="targets, as 'lo..hi' or a comma list (default 1..50)")
    p_density.add_argument("--out", help="CSV path (stdout when omitted)")
    p_density.add_argument("--strict", action="store_true",
                           help="exit 2 when any row fails")
    p_density.add_argument("--no-oracle", action="store_true",
                           help="skip the counting-oracle cross-check columns")

    p_guy = sub.add_parser("guy", help="verify a single-gap construction")
    p_guy.add_argument("--m", type=int, required=True)
    p_guy.add_argument("--ell", type=int, required=True)
    p_guy.add_argument("--bound", type=int)

    p_tau = sub.add_parser("tau", help="numerically evaluate one unit Gauss sum")
    p_tau.add_argument("--p", type=int, required=True)
    p_tau.add_argument("--t", type=int, required=True)
    p_tau.add_argument("--alpha", type=int, default=1)
    p_tau.add_argument("--N", type=int, required=True)
    p_tau.add_argument("--c", type=int, default=1)

    return parser


def _write(text: str, out_path: str | None = None) -> None:
    """Write text as it is to out_path, or as lines to stdout.

    A reader that closes stdout early (`mgonal tree ... | head`) ends the
    output but not the command: stdout then points at os.devnull, so later
    writes and the flush at exit succeed, and the exit code is the
    command's own.  An --out path that cannot be opened or written, and a
    stdout that fails otherwise (a full disk), are usage errors; stdout
    then points at os.devnull too, so the flush at exit cannot fail again.
    """
    if out_path is not None:
        try:
            fh = open(out_path, "w")
        except OSError as exc:
            raise ValueError(f"cannot open --out {out_path}: {exc.strerror}") from exc
        try:
            with fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from exc
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


def _cmd_tree(args, parser: argparse.ArgumentParser) -> int:
    from . import escalator

    if args.m < 3 or args.depth < 1 or args.bound < 1:
        parser.error("need m >= 3, depth >= 1, bound >= 1")
    if args.node_cap is None:
        args.node_cap = escalator.DEFAULT_NODE_CAP
    tree = escalator.build_tree(args.m, args.depth, args.bound, node_cap=args.node_cap)
    _write(escalator.serialize_tree(tree), args.out)
    leaves = sum(1 for n in tree.nodes if n.truant is None)
    frontier = sum(1 for n in tree.nodes if n.depth == args.depth)
    internal_max = max(
        (n.truant for n in tree.nodes if n.children and n.truant is not None),
        default=tree.nodes[0].truant,
    )
    _write(
        f"tree m={args.m} depth={args.depth} bound={args.bound}: "
        f"nodes={len(tree.nodes)} depth{args.depth}_nodes={frontier} leaves={leaves} "
        f"max_truant={tree.gamma_estimate} internal_max_truant={internal_max} "
        f"complete={str(tree.complete).lower()}"
    )
    return 0


def _cmd_gamma(args, parser: argparse.ArgumentParser) -> int:
    from . import escalator

    if args.m < 3 or args.bound < 1 or args.depth_cap < 1:
        parser.error("need m >= 3, bound >= 1, depth-cap >= 1")
    if args.node_cap is None:
        args.node_cap = escalator.DEFAULT_NODE_CAP
    truants, nodes, complete = escalator.walk_summary(
        args.m, args.depth_cap, args.bound, node_cap=args.node_cap
    )
    value = truants[-1]
    if complete:
        _write(
            f"gamma_{args.m} = {value} (empirical for bound {args.bound}; "
            f"{nodes} nodes, every frontier form universal up to the bound)"
        )
    else:
        _write(
            f"gamma_{args.m} >= {value} (lower bound; tree incomplete at "
            f"depth cap {args.depth_cap} / node cap {args.node_cap})"
        )
    return 0


def _cmd_density(args, parser: argparse.ArgumentParser) -> int:
    from fractions import Fraction

    from . import lattice, localdensity

    X = lattice.ShiftedDiagonalLattice(tuple(args.gram), args.c, args.N)
    for p in args.p:
        if not localdensity._is_prime(p):
            parser.error(f"--p entries must be prime, got {p}")
        if X.N % p != 0 and (X.n < 4 or X.n % 2):
            parser.error(f"p={p} does not divide N={X.N}: rank must be even and >= 4")
    rows: list[localdensity.ConformanceRow] = []
    failed = False
    for p in args.p:
        for h_int in args.h:
            h = Fraction(h_int)
            if h <= 0 or not lattice.admissible(X, h):
                rows.append(
                    localdensity.ConformanceRow(
                        p, X.gram, X.N, X.c, h, "not_admissible", None, None, None
                    )
                )
                continue
            result = localdensity.local_density(X, h, p)
            if X.N % p == 0 or args.no_oracle:
                reference, passed = None, True
            else:
                oracle, passed = localdensity._oracle_check(X, h, p, result.value)
                reference = oracle.value
            failed = failed or not passed
            rows.append(
                localdensity.ConformanceRow(
                    p, X.gram, X.N, X.c, h, result.method, result.value, reference, passed
                )
            )
    _write(localdensity.conformance_csv(rows), args.out)
    if args.strict and failed:
        return CONFORMANCE_EXIT
    return 0


def _cmd_guy(args, parser: argparse.ArgumentParser) -> int:
    from . import constructions

    if args.bound is None:
        args.bound = constructions.DEFAULT_GUY_BOUND
    report = constructions.verify_guy(constructions.guy_form(args.m, args.ell), args.bound)
    if report.passed:
        _write(
            f"guy m={args.m} ell={args.ell} bound={args.bound}: "
            f"misses exactly {{{args.ell}}}: PASS"
        )
        return 0
    _write(
        f"guy m={args.m} ell={args.ell} bound={args.bound}: "
        f"missing {sorted(report.missing)}: FAIL"
    )
    return CONFORMANCE_EXIT


def _cmd_tau(args, parser: argparse.ArgumentParser) -> int:
    from . import localdensity

    value = localdensity.tau_gauss_sum(args.p, args.t, args.alpha, args.N, args.c)
    expected = localdensity.tau_lemma_value(args.p, args.t, args.N)
    line = (
        f"tau p={args.p} t={args.t} alpha={args.alpha} N={args.N} c={args.c}: "
        f"{value.real:+.12f}{value.imag:+.12f}i"
    )
    if expected is not None:
        line += f" (closed value {expected}, |err| = {abs(value - expected):.3e})"
    _write(line)
    return 0


_COMMANDS = {
    "tree": _cmd_tree,
    "gamma": _cmd_gamma,
    "density": _cmd_density,
    "guy": _cmd_guy,
    "tau": _cmd_tau,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except ValueError as exc:  # the library's checks of user input
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
