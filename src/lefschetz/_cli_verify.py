"""``lefschetz verify``: the homological relator check of a ``.mono`` file.

Each printed field comes from the function that owns it: the matrix check
from ``verify_homological_relator``, the counts from ``letter_counts``, the
congruence (with ``--hyperelliptic``) from ``twist_count_congruence``, the
kinds from ``CurveClass.kind_label`` and the sign test from
``Factorization.all_positive``.
"""

from __future__ import annotations

from .cli import EXIT_NEGATIVE, EXIT_OK, _emit, _load_mono
from .factorization import MissingHomology, letter_counts
from .invariants import twist_count_congruence
from .twists import verify_homological_relator


def _cmd_verify(args) -> int:
    f = _load_mono(args.file)
    try:
        report = verify_homological_relator(f)
    except MissingHomology as exc:
        doc = {
            "file": args.file,
            "matrix_ok": None,
            "reason": str(exc),
        }
        _emit(args, doc, f"indeterminate: {exc}\n(the word cannot be checked "
                         "homologically without classes for every letter)")
        return EXIT_NEGATIVE

    counts = letter_counts(f)
    congruence_ok = None
    if args.hyperelliptic and counts is not None:
        congruence_ok = twist_count_congruence(counts)
    all_positive = f.all_positive()
    verified = report.matrix_ok and congruence_ok is not False
    doc = {
        "file": args.file,
        "matrix_ok": report.matrix_ok,
        "congruence_ok": congruence_ok,
        "all_positive": all_positive,
        "counts": None if counts is None else {
            "genus": counts.genus, "n": counts.n, "s": list(counts.s)
        },
        "letters": [
            {"name": letter.curve, "kind": f.curve(letter.curve).kind_label()}
            for letter in f.letters
        ],
        "note": report.note,
    }
    lines = [
        f"letters          {len(f.letters)}",
        "counts           none (no fiber letters)" if counts is None
        else f"counts           genus {counts.genus}, n = {counts.n}, s = {counts.s}",
        f"all positive     {all_positive}",
        f"matrix identity  {report.matrix_ok}",
    ]
    if congruence_ok is not None:
        lines.append(f"congruence       {congruence_ok}")
    lines.append(f"note: {report.note}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if verified else EXIT_NEGATIVE
