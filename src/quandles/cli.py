"""Command-line front end.

Subcommands: ``groups list N``, ``aut GROUP``, ``invariants GROUP AUT``,
``iso GROUP AUT GROUP AUT``, ``classify N`` and ``verify-paper``.
Exit codes: 0 success, 1 verification mismatch, 2 capacity, 3 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import _int_token, build, build_named, groups_of_order, named_automorphism
from .classify import (CACHE_ENV_VAR, boundary_report, classify_order,
                       closed_form_counts, emit_table)
from .errors import (CapacityError, ContractViolation, NameLookupError,
                     StructuralError, VerificationError)
from .groups import DEFAULT_AUT_BOUND, automorphism_conjugacy_classes
from .invariants import profile, profile_to_json
from .iso import decide

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CAPACITY = 2
EXIT_BAD_INPUT = 3


def _cmd_groups(args) -> int:
    for spec in groups_of_order(args.order):
        g = build(spec)
        print(f"{spec.name()}\torder {g.order}\t"
              f"{'abelian' if g.is_abelian else 'nonabelian'}")
    return EXIT_OK


def _cmd_aut(args) -> int:
    g = build_named(args.group)
    classes = automorphism_conjugacy_classes(g, bound=args.bound)
    print(f"group {g.name}: |Aut| = {sum(size for _, size in classes)}, "
          f"{len(classes)} conjugacy classes")
    for i, (rep, size) in enumerate(classes):
        print(f"  class {i}: size {size}, order {rep.map_order()}, "
              f"rep images {list(rep.images)}")
    return EXIT_OK


def _cmd_invariants(args) -> int:
    g = build_named(args.group)
    psi = named_automorphism(g, args.automorphism)
    print(profile_to_json(profile(g, psi)))
    return EXIT_OK


def _cmd_iso(args) -> int:
    g1 = build_named(args.group1)
    psi1 = named_automorphism(g1, args.aut1)
    g2 = build_named(args.group2)
    psi2 = named_automorphism(g2, args.aut2)
    verdict = decide(g1, psi1, g2, psi2, method=args.method)
    print(verdict.to_json())
    return EXIT_OK


def _cmd_classify(args) -> int:
    report = classify_order(args.order, beyond_paper=args.beyond_paper,
                            cache_dir=args.cache)
    print(emit_table(report, args.format))
    expected = closed_form_counts(args.order)
    if expected is not None and report.class_count != expected:
        print(f"MISMATCH: classifier found {report.class_count} classes, "
              f"closed form predicts {expected}", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.order == 16 and args.beyond_paper:
        print("boundary pair (beyond the classified range):")
        print(json.dumps(boundary_report(), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_verify_paper(_args) -> int:
    from .verification import run_all_claims
    results = run_all_claims()
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
    failed = sum(not r.ok for r in results)
    print(f"{len(results) - failed}/{len(results)} claims verified")
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION


def make_parser() -> argparse.ArgumentParser:
    def order(text: str) -> int:
        """An integer of at least 1 in ASCII digits; argparse names the function in its error."""
        if (n := _int_token(text)) < 1:
            raise ValueError(text)
        return n

    parser = argparse.ArgumentParser(
        prog="quandles",
        description="generalized Alexander quandles: invariants, isomorphism, "
                    "classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("groups", help="catalog queries")
    p.add_argument("action", choices=["list"])
    p.add_argument("order", type=order)
    p.set_defaults(fn=_cmd_groups)

    p = sub.add_parser("aut", help="automorphism group and conjugacy classes")
    p.add_argument("group")
    p.add_argument("--bound", type=order, default=DEFAULT_AUT_BOUND)
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("invariants", help="full invariant profile of Q(G, psi)")
    p.add_argument("group")
    p.add_argument("automorphism")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("iso", help="decide quandle isomorphism")
    for name in ("group1", "aut1", "group2", "aut2"):
        p.add_argument(name)
    p.add_argument("--method", choices=["auto", "brute", "thm13"], default="auto")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("classify", help="classify all quandles of one order")
    p.add_argument("order", type=order)
    p.add_argument("--beyond-paper", action="store_true")
    p.add_argument("--format", choices=["md", "markdown", "csv", "json"],
                   default="md")
    p.add_argument("--cache", default=None,
                   help=f"cache directory (or set {CACHE_ENV_VAR})")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify-paper", help="run the published-results suite")
    p.set_defaults(fn=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after its usage message
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (NameLookupError, StructuralError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
