"""``lefschetz pi1``: coset enumeration of a total-space pi_1."""

from __future__ import annotations

from pathlib import Path

from . import catalog as cat
from .cli import EXIT_NEGATIVE, EXIT_OK, _emit, _load_mono
from .factorization import cap_boundary
from .fpgroup import abelianization, todd_coxeter


def _cmd_pi1(args) -> int:
    source = args.source
    try:
        entry = cat.get_entry(source)
    except KeyError:
        if not Path(source).exists():
            raise ValueError(
                f"{source!r} is neither a catalog entry "
                f"({', '.join(e.name for e in cat.load_catalog())}) "
                "nor a file"
            )
        f, label = _load_mono(source), source
    else:
        f, label = entry.factorization, f"catalog entry {entry.name}"
    sectioned = f.spec.boundary_count > 0  # each boundary component gives a section
    f = cap_boundary(f)  # capped once: the builder below returns it as is
    try:
        presentation = cat.presentation_from_factorization(f)
    except cat.NoWordData as exc:
        raise ValueError(f"{label}: {exc}")
    # The surface relator, then one relator per distinct worded letter curve.
    carried = len(presentation.relators) - 1
    distinct = len({letter.curve for letter in f.letters})
    worded = f"{carried}/{distinct} distinct letter curves carry words"

    if args.max_cosets < 1:  # todd_coxeter's own check, before it may be skipped
        raise ValueError("max_cosets must be >= 1")
    invariants = abelianization(presentation)
    free_rank = invariants.divisors.count(0)
    if free_rank:
        # a free factor in H_1 already proves the group infinite
        outcome, order, defined = "infinite", None, 0
        verdict = f"infinite: H_1 has free rank {free_rank}; coset enumeration not run"
    else:
        result = todd_coxeter(presentation, max_cosets=args.max_cosets)
        order, defined = result.order, result.cosets_defined
        if result.closed:
            outcome = "order"
            verdict = f"order {order}   ({defined} cosets defined)"
        else:
            outcome = "exceeded"
            verdict = (
                f"exceeded {args.max_cosets} cosets "
                f"({defined} defined); order not certified"
            )
    doc = {
        "source": source,
        "generators": len(presentation.generators),
        "relators": len(presentation.relators),
        "worded_letters": worded,
        "max_cosets": args.max_cosets,
        "outcome": outcome,
        "order": order,
        "cosets_defined": defined,
        "abelian_invariants": list(invariants.divisors),
    }
    # G, the presented group, surjects onto pi_1 of the total space, and is
    # it when every letter curve carries a word and the fibration has a
    # section (Gompf-Stipsicz 8.1); otherwise only order 1 decides pi_1.
    conclusive = order == 1 or (carried == distinct and sectioned)
    if not conclusive:
        verdict += "; presented group only: pi_1 of the total space may be a proper quotient"
        doc["conclusive"] = False
    lines = [
        f"pi_1 of {label}: {len(presentation.generators)} generators, "
        f"{len(presentation.relators)} relators ({worded})",
        verdict,
        f"abelian invariants: {list(invariants.divisors)}",
    ]
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if outcome == "order" else EXIT_NEGATIVE
