"""``lefschetz bounds``: bounds on minimal singular-fiber counts."""

from __future__ import annotations

from .cli import EXIT_OK, _emit
from .feasibility import min_fiber_bounds


def _cmd_bounds(args) -> int:
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
