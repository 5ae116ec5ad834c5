"""Command-line front end: the parser, ``main`` and the shared helpers.

Subcommands: verify, invariants, enumerate, pi1, catalog, bounds.
Exit codes: 0 success / verified, 1 verification negative or infeasible,
2 usage or parse error, including an input path that cannot be read.
``--json`` switches every subcommand to a single JSON document with
stable field names and ordering (rationals are rendered as exact strings
like ``-7/4``).

Each subcommand's handler is in a private module of its own,
``_cli_<subcommand>``, which binds the layers it runs at import; ``main``
imports that module only after argparse has accepted that subcommand, so
a process compiles and loads the one handler it runs, and a usage error
loads none.  An import left inside a function keeps a module out of the
processes that never call it: ``json`` in ``_emit``, the ``.mono`` reader
in ``_load_mono`` and the ``.mono`` writer in ``catalog export``.  The
helpers that two handlers share stay here.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

# The one layer the parser needs.  Each handler module binds the layers it
# runs at import, and main imports that module only after parsing.
from .invariants import integer

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only
    from .factorization import Factorization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_MAX_S_FLAGS = 8  # supports genus up to 17


def _emit(args, document: dict, human: str) -> None:
    if args.json:
        import json

        print(json.dumps({"command": args.subcommand, **document}, indent=2))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _load_mono(source: str) -> Factorization:
    from pathlib import Path

    from .mono import MonoParseError, parse_mono

    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {source}: {exc}")
    try:
        return parse_mono(text)
    except MonoParseError as exc:
        raise ValueError(f"parse error in {source}: {exc}")


def _report_doc(report) -> dict:
    """The chi_h, Betti and candidate fields of an ``InvariantReport``."""
    return {
        "chi_h": str(report.chi_h),
        "betti": (
            {"b2plus": report.b2plus, "b2minus": report.b2minus}
            if report.feasible else None
        ),
        "candidate": report.candidate,
    }


# -- driver ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description=(
            "Compute with monodromy factorizations of Lefschetz fibrations "
            "over the 2-sphere."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("verify", parents=[common],
                       help="homological relator check of a .mono file")
    p.add_argument("file")
    p.add_argument("--hyperelliptic", action="store_true",
                   help="also check the twist-count congruence")

    p = sub.add_parser("invariants", parents=[common],
                       help="e, sigma, chi_h, Betti from counts")
    p.add_argument("--genus", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    for k in range(1, _MAX_S_FLAGS + 1):
        p.add_argument(f"--s{k}", type=integer, help=argparse.SUPPRESS if k > 3 else None)
    p.add_argument("--hyperelliptic", action="store_true",
                   help="take sigma from the hyperelliptic closed form")
    p.add_argument("--ledger", metavar="SPEC",
                   help="take sigma from a block ledger, e.g. mats*1,block:-6*1,sep*-3")

    p = sub.add_parser("enumerate", parents=[common],
                       help="feasible fiber-count vectors below a bound")
    p.add_argument("--genus", type=integer, required=True)
    p.add_argument("--max-fibers", type=integer, required=True,
                   help="strict bound: totals n + s < this value")
    p.add_argument("--hyperelliptic", action="store_true")
    p.add_argument("--show-rejected", action="store_true",
                   help="also print rows rejected before the chi_h stage")

    p = sub.add_parser("pi1", parents=[common],
                       help="coset enumeration of a total-space pi_1")
    p.add_argument("source", help="catalog entry name or .mono file")
    p.add_argument("--max-cosets", type=integer, default=10**6)

    p = sub.add_parser("catalog", help="list, show, or export catalog entries")
    catsub = p.add_subparsers(dest="action", required=True)
    catsub.add_parser("list", parents=[common])
    catsub.add_parser("show", parents=[common]).add_argument("name")
    catsub.add_parser("export", parents=[common]).add_argument("name")

    p = sub.add_parser("bounds", parents=[common],
                       help="bounds on minimal singular-fiber counts")
    p.add_argument("--genus", type=integer, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # Only now is the subcommand known: load its handler module alone.
    module = import_module(f"{__package__}._cli_{args.subcommand}")
    try:
        return getattr(module, f"_cmd_{args.subcommand}")(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())
