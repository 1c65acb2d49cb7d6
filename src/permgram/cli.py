"""Command-line front end.

Subcommands:

* ``derive``    print D^n(seed) for a built-in or file grammar
* ``enumerate`` print an exact distribution polynomial over S_n, optionally
  exporting the integer triangle of a univariate family as CSV
* ``verify``    run identity checks from the registry (``all`` or one id)
* ``oeis``      compare an exported triangle against a reference sequence
  file or a cached one

Exit codes: 0 all good, 1 at least one check or comparison failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import checks, perms, sequences
from .grammar import builtin_names, gen_coeffs, resolve_grammar
from .perms import ENUMERATED_FAMILIES, SPECIALIZED_TARGETS

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

    enum = sub.add_parser("enumerate",
                          help="exact distribution polynomials over S_n (statistic oracle)")
    enum.add_argument("--family", required=True, choices=_ENUM_CHOICES)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--csv", metavar="PATH",
                      help="also export the triangle rows 0..n as CSV (univariate families)")
    enum.add_argument("--seq", metavar="PATH",
                      help="also export the flattened triangle as a sequence file")

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("check", nargs="?", default="all", help="a check id or 'all' (default)")
    verify.add_argument("--list", action="store_true", help="list registry entries and exit")
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--tol", type=float, default=None,
                        help="residual tolerance of the numeric checks (finite, > 0)")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    verify.add_argument("--json", metavar="PATH", help="write the machine-readable report")

    oeis = sub.add_parser("oeis", help="compare a triangle CSV against a reference sequence")
    oeis.add_argument("--local", required=True, help="triangle CSV produced by 'enumerate --csv'")
    oeis.add_argument("--ref", required=True, help="sequence file path or cached id")
    oeis.add_argument("--column", type=int, default=None,
                      help="compare a single column instead of the flattened triangle")
    return parser


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError that writing each given path would raise, before any
    work is done or anything is printed; no file is created or truncated."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _cmd_derive(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.grammar)
    seed = grammar.poly(args.seed)
    if args.n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    entries = gen_coeffs(grammar, seed, args.n)
    if args.all:
        for n, poly in enumerate(entries):
            print(f"D^{n}: {poly}")
    else:
        print(entries[args.n])
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if (args.csv or args.seq) and args.family not in perms.TRIANGLE_TARGETS:
        print(f"error: family {args.family!r} has no integer triangle "
              f"(univariate families: {', '.join(perms.TRIANGLE_TARGETS)})",
              file=sys.stderr)
        return USAGE_ERROR
    _check_writable(args.csv, args.seq)
    if args.family in ENUMERATED_FAMILIES:
        poly = perms.enumerate_poly(args.n, args.family)
    else:
        poly = perms.specialized_poly(args.n, args.family)
    print(poly)
    if args.csv or args.seq:
        rows = perms.triangle(args.family, args.n)
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
    for flag, value in (("--n-max", args.n_max), ("--order", args.order)):
        if value is not None and value < 0:
            print(f"error: {flag} must be nonnegative", file=sys.stderr)
            return USAGE_ERROR
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be a finite positive number", file=sys.stderr)
        return USAGE_ERROR
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    _check_writable(args.json)
    ids = list(checks.check_ids()) if args.check == "all" else [args.check]
    reports = checks.run_many(ids, n_max=args.n_max, order=args.order,
                              tol=args.tol, jobs=args.jobs)
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
                "check": args.check, "n_max": args.n_max, "order": args.order, "tol": args.tol,
            },
            "provenance": {"grammar_sha256": grammars},
            "checks": [report.to_dict() for report in reports],
            "passed": passed == len(reports),
        }
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    return 0 if passed == len(reports) else 1


def _cmd_oeis(args: argparse.Namespace) -> int:
    comparison = sequences.compare_file(args.local, args.ref, column=args.column)
    print(comparison.describe())
    return 0 if comparison.passed else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a dash-led value such as '-8/3*z' as an option: glue it to --seed
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--seed":
            argv[i:i + 2] = ["--seed=" + argv[i + 1]]
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "derive":
            return _cmd_derive(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oeis":
            return _cmd_oeis(args)
    # every error of this package is a ValueError; OSError covers paths that
    # cannot be read or written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
