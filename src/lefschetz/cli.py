"""Command-line front end.

Subcommands: verify, invariants, enumerate, pi1, catalog, bounds.
Exit codes: 0 success / verified, 1 verification negative or infeasible,
2 usage or parse error, including an input path that cannot be read.
``--json`` switches every subcommand to a single JSON document with
stable field names and ordering (rationals are rendered as exact strings
like ``-7/4``).
"""

from __future__ import annotations

import argparse
import sys

# The one layer the parser needs; each subcommand imports the layers it runs.
from .surface import integer

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only
    from .invariants import FiberCounts, LedgerEntry
    from .twists import Factorization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_MAX_S_FLAGS = 8  # supports genus up to 17
ENUMERATE_WARN_ROWS = 10**6  # above this many rows, enumerate warns first


def _emit(args, document: dict, human: str) -> None:
    if args.json:
        import json

        print(json.dumps({"command": args.subcommand, **document}, indent=2))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


class UsageError(Exception):
    pass


def _parse_ledger_spec(spec: str) -> list[LedgerEntry]:
    """Ledger mini-language: comma-separated kind*mult terms.

    Kinds: ``mats`` (-4), ``sep`` (-1), ``block:<int>``; multiplicity
    defaults to 1 and may be negative for cancelled blocks, e.g.
    ``mats*1,block:-6*1,sep*-3``.
    """
    from .invariants import LedgerEntry

    entries = []
    for term in spec.split(","):
        head, star, mult = term.strip().partition("*")
        kind, colon, value = head.partition(":")
        try:
            entries.append(LedgerEntry(
                kind,
                integer(mult) if star else 1,
                value=integer(value) if colon else None,
            ))
        except ValueError as exc:
            raise UsageError(f"bad ledger term {term.strip()!r}: {exc}")
    return entries


def _counts_from_args(args) -> FiberCounts:
    from .invariants import FiberCounts

    s = []
    for k in range(1, _MAX_S_FLAGS + 1):
        value = getattr(args, f"s{k}", None)
        if value is not None:
            top = args.genus // 2
            if k > top:
                raise UsageError(
                    f"--s{k} is out of range for genus {args.genus}"
                    + (f" (types run 1..{top})" if top else
                       ", which has no separating types")
                )
            while len(s) < k:
                s.append(0)
            s[k - 1] = value
    return FiberCounts.of(args.genus, args.n, *s)


def _load_mono(source: str) -> Factorization:
    from pathlib import Path

    from .mono import MonoParseError, parse_mono

    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {source}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {source}: {exc}")
    try:
        return parse_mono(text)
    except MonoParseError as exc:
        raise UsageError(f"parse error in {source}: {exc}")


# -- subcommands -------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .twists import MissingHomology, verify_homological_relator

    f = _load_mono(args.file)
    try:
        report = verify_homological_relator(f, hyperelliptic=args.hyperelliptic)
    except MissingHomology as exc:
        doc = {
            "file": args.file,
            "matrix_ok": None,
            "reason": str(exc),
        }
        _emit(args, doc, f"indeterminate: {exc}\n(the word cannot be checked "
                         "homologically without classes for every letter)")
        return EXIT_NEGATIVE

    counts = report.counts
    verified = report.matrix_ok and report.congruence_ok is not False
    doc = {
        "file": args.file,
        "matrix_ok": report.matrix_ok,
        "congruence_ok": report.congruence_ok,
        "all_positive": report.all_positive,
        "counts": None if counts is None else {
            "genus": counts.genus, "n": counts.n, "s": list(counts.s)
        },
        "letters": [
            {"name": name, "kind": kind} for name, kind in report.letter_kinds
        ],
        "note": report.note,
    }
    lines = [
        f"letters          {len(report.letter_kinds)}",
        "counts           none (no fiber letters)" if counts is None
        else f"counts           genus {counts.genus}, n = {counts.n}, s = {counts.s}",
        f"all positive     {report.all_positive}",
        f"matrix identity  {report.matrix_ok}",
    ]
    if report.congruence_ok is not None:
        lines.append(f"congruence       {report.congruence_ok}")
    lines.append(f"note: {report.note}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if verified else EXIT_NEGATIVE


def _cmd_invariants(args) -> int:
    from .invariants import (
        chi_and_betti,
        endo_nagami_total,
        euler_characteristic,
        hyperelliptic_signature,
    )

    counts = _counts_from_args(args)
    ledger = None if args.ledger is None else _parse_ledger_spec(args.ledger)
    e = euler_characteristic(counts)
    head = {"genus": counts.genus, "n": counts.n, "s": list(counts.s), "e": e}
    routes: dict[str, int] = {}
    if args.hyperelliptic:
        sigma, integral = hyperelliptic_signature(counts)
        if not integral:
            doc = {**head, "sigma": str(sigma), "sigma_integral": False}
            _emit(args, doc,
                  f"e      {e}\nsigma  {sigma} (not an integer: these counts "
                  "cannot arise from a hyperelliptic fibration)")
            return EXIT_NEGATIVE
        routes["hyperelliptic"] = int(sigma)
    if ledger is not None:
        routes["ledger"] = endo_nagami_total(ledger)
    if not routes:
        raise UsageError(
            "need a signature route: pass --hyperelliptic and/or --ledger SPEC"
        )
    if len(set(routes.values())) > 1:
        print(
            "signature routes disagree: "
            + ", ".join(f"{k} gives {v}" for k, v in routes.items()),
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    sigma = next(iter(routes.values()))
    report = chi_and_betti(e, sigma)
    doc = {
        **head,
        "sigma": report.sigma,
        "sigma_route": sorted(routes),
        "chi_h": str(report.chi_h),
        "betti": (
            {"b2plus": report.b2plus, "b2minus": report.b2minus}
            if report.feasible else None
        ),
        "candidate": report.candidate,
    }
    lines = [
        f"genus        {counts.genus}",
        f"counts       n = {counts.n}, s = {counts.s}",
        f"e            {report.e}",
        f"sigma        {report.sigma}   (route: {', '.join(sorted(routes))})",
        f"chi_h        {report.chi_h}",
    ]
    if report.feasible:
        lines.append(f"(b2+, b2-)   ({report.b2plus}, {report.b2minus})")
    else:
        lines.append("(b2+, b2-)   infeasible under b1 = 0")
    if report.candidate:
        lines.append(f"candidate    {report.candidate}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if report.feasible else EXIT_NEGATIVE


def _row_doc(row) -> dict:
    return {
        "n": row.counts.n,
        "s": list(row.counts.s),
        "sigma": str(row.sigma),
        "sigma_integral": row.sigma_integral,
        "chi_h": str(row.chi_h),
        "verdict": row.verdict,
    }


def _cmd_enumerate(args) -> int:
    from .feasibility import ConstraintProfile, enumerate_feasible, row_count

    profile = ConstraintProfile(
        genus=args.genus, max_total_fibers=args.max_fibers,
        hyperelliptic=args.hyperelliptic,
    )
    expected = row_count(profile)
    if expected > ENUMERATE_WARN_ROWS:
        print(
            f"warning: evaluating {expected:,} count vectors "
            f"(more than {ENUMERATE_WARN_ROWS:,}); this may take minutes",
            file=sys.stderr,
        )
    rows = enumerate_feasible(profile)
    # One pass over the lazy rows; only --show-rejected keeps them all.
    if args.show_rejected:
        shown = list(rows)
        pre_chi = [r for r in shown if r.pre_chi_survivor]
    else:
        shown = pre_chi = [r for r in rows if r.pre_chi_survivor]
    admitted = [r for r in pre_chi if r.admitted]
    notes = []
    if args.genus == 4 and args.max_fibers == 24:
        notes.append(
            "(18,0,0) passes every constraint before the chi_h stage "
            "(chi_h = -1) although some published survivor lists omit it"
        )
    # Build only the output that is printed: each form is a pass over
    # every shown row, and the JSON row dicts cost the most.
    if args.json:
        doc = {
            "genus": args.genus,
            "max_fibers": args.max_fibers,
            "hyperelliptic": True,
            "rows": [_row_doc(r) for r in shown],
            "admitted": [[r.counts.n, *r.counts.s] for r in admitted],
            "pre_chi_survivors": [[r.counts.n, *r.counts.s] for r in pre_chi],
            "notes": notes,
        }
        _emit(args, doc, "")
    else:
        lines = [
            f"genus {args.genus}, totals strictly below {args.max_fibers}, "
            f"{len(rows)} count vectors evaluated",
            "",
            f"{'n':>4} {'s':>12} {'sigma':>8} {'chi_h':>6}  verdict",
        ]
        for row in shown:
            lines.append(
                f"{row.counts.n:>4} {str(row.counts.s):>12} {str(row.sigma):>8} "
                f"{str(row.chi_h):>6}  "
                + (row.verdict if row.admitted else f"rejected ({row.verdict})")
            )
        lines.append("")
        lines.append(
            f"admitted: {len(admitted)}, pre-chi survivors: {len(pre_chi)}"
        )
        for note in notes:
            lines.append(f"note: {note}")
        _emit(args, {}, "\n".join(lines))
    return EXIT_OK if admitted else EXIT_NEGATIVE


def _cmd_pi1(args) -> int:
    from pathlib import Path

    from . import catalog as cat
    from .fpgroup import abelianization, todd_coxeter
    from .twists import cap_boundary

    source = args.source
    try:
        entry = cat.get_entry(source)
    except KeyError:
        if not Path(source).exists():
            raise UsageError(
                f"{source!r} is neither a catalog entry "
                f"({', '.join(e.name for e in cat.load_catalog())}) "
                "nor a file"
            )
        f, label = _load_mono(source), source
    else:
        f, label = entry.factorization, f"catalog entry {entry.name}"
    f = cap_boundary(f)  # capped once: the builder below returns it as is
    try:
        presentation = cat.presentation_from_factorization(f)
    except cat.NoWordData as exc:
        raise UsageError(f"{label}: {exc}")
    distinct = {letter.curve for letter in f.letters}
    carried = sum(f.curve(name).word is not None for name in distinct)
    worded = f"{carried}/{len(distinct)} distinct letter curves carry words"

    result = todd_coxeter(presentation, max_cosets=args.max_cosets)
    invariants = abelianization(presentation)
    doc = {
        "source": source,
        "generators": len(presentation.generators),
        "relators": len(presentation.relators),
        "worded_letters": worded,
        "max_cosets": args.max_cosets,
        "outcome": "order" if result.closed else "exceeded",
        "order": result.order,
        "cosets_defined": result.cosets_defined,
        "abelian_invariants": list(invariants.divisors),
    }
    lines = [
        f"pi_1 of {label}: {len(presentation.generators)} generators, "
        f"{len(presentation.relators)} relators ({worded})",
    ]
    if result.closed:
        lines.append(
            f"order {result.order}   ({result.cosets_defined} cosets defined)"
        )
    else:
        lines.append(
            f"exceeded {args.max_cosets} cosets "
            f"({result.cosets_defined} defined); order not certified"
        )
    lines.append(f"abelian invariants: {list(invariants.divisors)}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if result.closed else EXIT_NEGATIVE


def _entry_summary(entry) -> dict:
    f = entry.factorization
    return {
        "name": entry.name,
        "aliases": list(entry.aliases),
        "genus": f.spec.genus,
        "boundary": f.spec.boundary_count,
        "letters": len(f.letters),
        "n": entry.counts.n,
        "s": list(entry.counts.s),
        "hyperelliptic": entry.hyperelliptic,
        "description": entry.description,
    }


def _cmd_catalog(args) -> int:
    from . import catalog as cat
    from .words import format_word

    if args.action == "list":
        entries = cat.load_catalog()
        doc = {"entries": [_entry_summary(e) for e in entries]}
        width = max(len(e.name) for e in entries)
        lines = [
            f"{e.name:<{width}}  g={e.spec.genus} r={e.spec.boundary_count} "
            f"letters={len(e.factorization.letters)} "
            f"(n, s)=({e.counts.n}, {e.counts.s}) "
            + ("hyperelliptic" if e.hyperelliptic else "nonhyperelliptic")
            for e in entries
        ]
        _emit(args, doc, "\n".join(lines))
        return EXIT_OK
    try:
        entry = cat.get_entry(args.name)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    if args.action == "export":
        from .mono import serialize_mono

        text = serialize_mono(entry.factorization, comment=f"catalog entry {entry.name}")
        _emit(args, {"name": entry.name, "mono": text}, text)
        return EXIT_OK
    # show
    report = cat.invariant_report(entry.name)
    doc = {
        "entry": _entry_summary(entry),
        "target": [list(t) for t in entry.factorization.target] or "identity",
        "word": [
            {"name": l.curve, "sign": l.sign} for l in entry.factorization.letters
        ],
        "invariants": {
            "e": report.e,
            "sigma": report.sigma,
            "chi_h": str(report.chi_h),
            "betti": (
                {"b2plus": report.b2plus, "b2minus": report.b2minus}
                if report.feasible else None
            ),
            "candidate": report.candidate,
        },
        "notes": list(entry.notes),
    }
    f = entry.factorization
    word = format_word((l.curve, l.sign) for l in f.letters)
    target = (
        "identity" if f.is_identity_target
        else " ".join(f"t_delta{i}^{n}" for i, n in f.target)
    )
    lines = [
        f"{entry.name}: {entry.description}",
        f"  genus {f.spec.genus}, boundary {f.spec.boundary_count}, "
        f"{len(f.letters)} letters, counts (n, s) = ({entry.counts.n}, {entry.counts.s})",
        f"  word: {word}",
        f"  target: {target}",
        f"  e = {report.e}, sigma = {report.sigma}, chi_h = {report.chi_h}"
        + (
            f", (b2+, b2-) = ({report.b2plus}, {report.b2minus})"
            if report.feasible else ", Betti infeasible under b1 = 0"
        )
        + (f", candidate {report.candidate}" if report.candidate else ""),
    ]
    for note in entry.notes:
        lines.append(f"  note: {note}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .feasibility import min_fiber_bounds

    report = min_fiber_bounds(args.genus)

    def fmt(lower, upper, label):
        if upper is None:
            return f"{label} >= {lower}"
        if lower == upper:
            return f"{label} = {lower}"
        return f"{lower} <= {label} <= {upper}"

    doc = {
        "genus": report.genus,
        "n": {"lower": report.n_lower, "upper": report.n_upper},
        "m": {"lower": report.m_lower, "upper": report.m_upper},
        "witnesses": [
            {"name": w.name, "fibers": w.fibers, "hyperelliptic": w.hyperelliptic}
            for w in report.witnesses
        ],
        "notes": list(report.notes),
    }
    lines = [
        fmt(report.n_lower, report.n_upper, f"N_{report.genus}"),
        fmt(report.m_lower, report.m_upper, f"M_{report.genus}"),
    ]
    for w in report.witnesses:
        lines.append(f"witness: {w.name} ({w.fibers} fibers)")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


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
    p.set_defaults(func=_cmd_verify)

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
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("enumerate", parents=[common],
                       help="feasible fiber-count vectors below a bound")
    p.add_argument("--genus", type=integer, required=True)
    p.add_argument("--max-fibers", type=integer, required=True,
                   help="strict bound: totals n + s < this value")
    p.add_argument("--hyperelliptic", action="store_true")
    p.add_argument("--show-rejected", action="store_true",
                   help="also print rows rejected before the chi_h stage")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pi1", parents=[common],
                       help="coset enumeration of a total-space pi_1")
    p.add_argument("source", help="catalog entry name or .mono file")
    p.add_argument("--max-cosets", type=integer, default=10**6)
    p.set_defaults(func=_cmd_pi1)

    p = sub.add_parser("catalog", help="list, show, or export catalog entries")
    p.set_defaults(func=_cmd_catalog)
    catsub = p.add_subparsers(dest="action", required=True)
    catsub.add_parser("list", parents=[common])
    catsub.add_parser("show", parents=[common]).add_argument("name")
    catsub.add_parser("export", parents=[common]).add_argument("name")

    p = sub.add_parser("bounds", parents=[common],
                       help="bounds on minimal singular-fiber counts")
    p.add_argument("--genus", type=integer, required=True)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())
