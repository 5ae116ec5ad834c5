"""Monodromy factorizations of Lefschetz fibrations over the 2-sphere.

Homological Dehn-twist calculus, exact fibration invariants, feasibility
enumeration for singular-fiber counts, coset enumeration for
fundamental-group certification, and a catalog of named factorizations.

``import lefschetz`` loads no submodule.  Each public name resolves on
first use: the submodule that defines it is imported then, and the value
is cached in this module (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The one table of public names, by defining submodule.
_EXPORTS = {
    "surface": (
        "BOUNDARY", "NONSEP", "SEP", "CurveClass", "HomologyClass",
        "SurfaceSpec", "homology_of_word",
    ),
    "factorization": (
        "Factorization", "MissingHomology", "TwistLetter",
        "cancel_adjacent_inverses", "cap_boundary",
    ),
    "twists": (
        "VerificationReport", "factorization_matrix", "hurwitz_move",
        "verify_homological_relator",
    ),
    "invariants": (
        "FiberCounts", "InvariantReport", "LedgerEntry", "chi_and_betti",
        "endo_nagami_total", "euler_characteristic", "hyperelliptic_signature",
        "min_nonseparating_bound", "signature_bound_check",
        "twist_count_congruence",
    ),
    "fpgroup": (
        "AbelianInvariants", "EnumerationResult", "GroupPresentation",
        "abelianization", "quotient_by_cycles", "surface_group", "todd_coxeter",
    ),
    "feasibility": (
        "BoundsReport", "ConstraintProfile", "FeasibilityRow", "check_counts",
        "enumerate_feasible", "min_fiber_bounds",
    ),
    "catalog": (
        "CatalogEntry", "NoWordData", "get_entry", "invariant_report",
        "load_catalog", "pi1_presentation",
    ),
    "mono": ("MonoParseError", "parse_mono", "serialize_mono"),
    "words": ("Word", "parse_word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
