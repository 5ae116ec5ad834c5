"""``lefschetz catalog``: list, show or export the catalog entries."""

from __future__ import annotations

from . import catalog as cat
from .cli import EXIT_OK, _emit, _report_doc
from .words import format_word


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
        raise ValueError(exc.args[0])
    if args.action == "export":
        from .mono import serialize_mono  # list and show load no mono

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
        "invariants": {"e": report.e, "sigma": report.sigma, **_report_doc(report)},
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
