"""Command-line front end.

Subcommands:

* ``derive``    print D^n(seed) for a built-in or file grammar
* ``enumerate`` print an exhaustive distribution polynomial, optionally
  exporting the integer triangle of a univariate family as CSV
* ``verify``    run identity checks from the registry (``all`` or one id)
* ``oeis``      compare an exported triangle against a cached or fetched
  reference sequence

Exit codes: 0 all good, 1 at least one check or comparison failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checks, perms, sequences
from .algebra import AlgebraError
from .grammar import GrammarError, builtin_names, resolve_grammar
from .perms import DEFAULT_CAP, ENUMERATED_FAMILIES, SPECIALIZED_TARGETS

USAGE_ERROR = 2

_ENUM_CHOICES = tuple(dict.fromkeys(ENUMERATED_FAMILIES + SPECIALIZED_TARGETS))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgram",
        description="Exact workbench for the grammar calculus on permutation statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="apply the formal derivative n times")
    derive.add_argument("--grammar", required=True,
                        help=f"built-in name ({', '.join(builtin_names())}) or grammar file")
    derive.add_argument("--seed", required=True, help="seed expression, e.g. 'x^-1/2*z^-1/2'")
    derive.add_argument("--n", type=int, required=True, help="derivative order")
    derive.add_argument("--all", action="store_true", help="print every order 0..n")

    enum = sub.add_parser("enumerate", help="exhaustive distribution polynomials")
    enum.add_argument("--family", required=True, choices=_ENUM_CHOICES)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--cap", type=int, default=DEFAULT_CAP,
                      help=f"enumeration cap (default {DEFAULT_CAP})")
    enum.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the S_n sweep")
    enum.add_argument("--csv", metavar="PATH",
                      help="also export the triangle rows 0..n as CSV (univariate families)")
    enum.add_argument("--seq", metavar="PATH",
                      help="also export the flattened triangle as a sequence file")

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("check", nargs="?", default="all", help="a check id or 'all' (default)")
    verify.add_argument("--list", action="store_true", help="list registry entries and exit")
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--cap", type=int, default=DEFAULT_CAP)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--json", metavar="PATH", help="write the machine-readable report")

    oeis = sub.add_parser("oeis", help="compare a triangle CSV against a reference sequence")
    oeis.add_argument("--local", required=True, help="triangle CSV produced by 'enumerate --csv'")
    oeis.add_argument("--ref", required=True, help="sequence file path or cached/remote id")
    oeis.add_argument("--column", type=int, default=None,
                      help="compare a single column instead of the flattened triangle")
    oeis.add_argument("--fetch", action="store_true",
                      help="allow fetching the reference over the network")
    return parser


def _cmd_derive(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.grammar)
    seed = grammar.poly(args.seed)
    if args.n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    from .grammar import DerivationCache
    entries = DerivationCache(grammar, seed).upto(args.n)
    if args.all:
        for n, poly in enumerate(entries):
            print(f"D^{n}: {poly}")
    else:
        print(entries[args.n])
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.family in ENUMERATED_FAMILIES:
        poly = perms.enumerate_poly(args.n, args.family, cap=args.cap, jobs=args.jobs)
    else:
        poly = perms.specialized_poly(args.n, args.family, cap=args.cap, jobs=args.jobs)
    print(poly)
    if args.csv or args.seq:
        if args.family not in perms.TRIANGLE_TARGETS:
            print(f"error: family {args.family!r} has no integer triangle "
                  f"(univariate families: {', '.join(perms.TRIANGLE_TARGETS)})",
                  file=sys.stderr)
            return USAGE_ERROR
        rows = perms.triangle(args.family, args.n, cap=args.cap)
        if args.csv:
            sequences.write_triangle_csv(rows, args.csv)
            print(f"wrote triangle rows 0..{args.n} to {args.csv}", file=sys.stderr)
        if args.seq:
            sequences.write_sequence_file(args.family, sequences.flatten(rows), args.seq)
            print(f"wrote flattened sequence to {args.seq}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for check_id, entry in checks.REGISTRY.items():
            knobs = []
            if entry.n_max is not None:
                knobs.append(f"n_max={entry.n_max}")
            if entry.order is not None:
                knobs.append(f"order={entry.order}")
            if entry.tol is not None:
                knobs.append(f"tol={entry.tol:g}")
            print(f"{check_id:<17} {entry.mode:<14} {entry.description} [{', '.join(knobs)}]")
        return 0
    ids = list(checks.check_ids()) if args.check == "all" else [args.check]
    try:
        reports = checks.run_many(ids, n_max=args.n_max, order=args.order,
                                  tol=args.tol, cap=args.cap, jobs=args.jobs)
    except checks.UnknownCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for report in reports:
        print(report.summary())
    passed = sum(report.passed for report in reports)
    print(f"{len(reports)} checks run, {passed} passed, {len(reports) - passed} failed")
    if args.json:
        grammars: dict[str, str] = {}
        for report in reports:
            grammars.update(report.provenance["grammar_sha256"])
        document = {
            "options": {
                "check": args.check, "n_max": args.n_max, "order": args.order,
                "tol": args.tol, "cap": args.cap,
            },
            "provenance": {"grammar_sha256": grammars, "cap": args.cap},
            "checks": [report.to_dict() for report in reports],
            "passed": passed == len(reports),
        }
        Path(args.json).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0 if passed == len(reports) else 1


def _cmd_oeis(args: argparse.Namespace) -> int:
    try:
        comparison = sequences.compare_file(args.local, args.ref,
                                            column=args.column, fetch=args.fetch)
    except (OSError, sequences.SequenceFormatError) as exc:
        # covers missing files, missing cache entries, and fetch failures
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(comparison.describe())
    return 0 if comparison.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "derive":
            return _cmd_derive(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oeis":
            return _cmd_oeis(args)
    except (AlgebraError, GrammarError, perms.EnumerationCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
