"""``lefschetz verify``: the homological relator check of a ``.mono`` file."""

from __future__ import annotations

from .cli import EXIT_NEGATIVE, EXIT_OK, _emit, _load_mono
from .factorization import MissingHomology
from .twists import verify_homological_relator


def _cmd_verify(args) -> int:
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
