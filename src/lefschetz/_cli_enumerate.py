"""``lefschetz enumerate``: feasible fiber-count vectors below a bound."""

from __future__ import annotations

import sys

from .cli import EXIT_NEGATIVE, EXIT_OK, _emit
from .feasibility import ConstraintProfile, enumerate_feasible

ENUMERATE_WARN_ROWS = 10**6  # above this many rows, enumerate warns first


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
    rows = enumerate_feasible(ConstraintProfile(
        genus=args.genus, max_total_fibers=args.max_fibers,
        hyperelliptic=args.hyperelliptic,
    ))
    if len(rows) > ENUMERATE_WARN_ROWS:
        print(
            f"warning: evaluating {len(rows):,} count vectors "
            f"(more than {ENUMERATE_WARN_ROWS:,}); this may take minutes",
            file=sys.stderr,
        )
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
