"""``lefschetz invariants``: e, sigma, chi_h and Betti numbers from counts."""

from __future__ import annotations

import sys

from .cli import EXIT_NEGATIVE, EXIT_OK, _MAX_S_FLAGS, _emit, _report_doc
from .invariants import (
    FiberCounts,
    LedgerEntry,
    chi_and_betti,
    endo_nagami_total,
    euler_characteristic,
    hyperelliptic_signature,
    integer,
)


def _parse_ledger_spec(spec: str) -> list[LedgerEntry]:
    """Ledger mini-language: comma-separated kind*mult terms.

    Kinds: ``mats`` (-4), ``sep`` (-1), ``block:<int>``; multiplicity
    defaults to 1 and may be negative for cancelled blocks, e.g.
    ``mats*1,block:-6*1,sep*-3``.
    """
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
            raise ValueError(f"bad ledger term {term.strip()!r}: {exc}")
    return entries


def _counts_from_args(args) -> FiberCounts:
    top = args.genus // 2
    s = [0] * top
    for k in range(1, _MAX_S_FLAGS + 1):
        value = getattr(args, f"s{k}")
        if value is None or args.genus < 1:  # FiberCounts rejects the genus
            continue
        if k > top:
            raise ValueError(
                f"--s{k} is out of range for genus {args.genus}"
                + (f" (types run 1..{top})" if top else
                   ", which has no separating types")
            )
        s[k - 1] = value
    return FiberCounts(args.genus, args.n, tuple(s))


def _cmd_invariants(args) -> int:
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
        raise ValueError(
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
        **_report_doc(report),
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
