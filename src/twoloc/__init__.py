"""twoloc: localization of finite strict 2-categories at a class of 1-cells.

The package works with fully tabulated finite 2-categories.  ``core``
defines the ambient structure and internal equivalences, ``saturation``
the calculus-of-fractions axioms and right saturation, ``fractions`` the
localized bicategory itself (spans, 2-cell classes, composition),
``transport`` induced pseudofunctors between localizations, and
``groupoids`` the worked finite-groupoid/Morita instance.  ``documents``
and ``cli`` give a JSON interchange format and a command-line front end.

Names load on first use: ``import twoloc`` runs no submodule, and
``twoloc.check_bf`` (or ``from twoloc import check_bf``) imports
``twoloc.saturation`` and the modules it needs, and nothing else.  The
name is then bound in the package, as an eager import would bind it.
The seven modules that define these names are attributes too
(``twoloc.groupoids``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "EquivalenceWitness", "InternalInconsistency", "Report", "StructureError",
        "TwoCat", "adjointify",
        "equivalence_from_cancellation", "equivalence_of_composite",
        "find_quasi_inverse", "internal_equivalences", "quasi_inverse_witness",
        "transport_witness", "validate", "witness_problems",
    ),
    "saturation": (
        "AXIOMS", "check_bf", "fill_cospan", "is_right_saturated",
        "lift_cell", "quasi_units", "saturate",
    ),
    "fractions": (
        "CellRep", "FractionCell", "Localization", "Span",
        "SpanEquivalence", "build_choices", "cell_from_rep", "cells_equal",
        "compose_fractions", "equality_chain", "find_associator_witness",
        "fraction_inverse", "hom_fraction_cells", "identity_fraction_cell",
        "identity_span", "is_internal_equiv_closed_form",
        "is_internal_equiv_search", "is_invertible_fraction_cell", "localize",
        "u_cell", "u_mor", "vcomp_fraction", "whisker_fraction_left",
        "whisker_fraction_right",
    ),
    "transport": (
        "InducedPseudofunctor", "SaturationCompat", "StrictTwoFunctor",
        "collapse_functor", "compare_choice_tables", "comparison_to_saturation",
        "identity_functor", "induce", "preserves_into", "saturation_compatibility",
        "validate_functor", "weak_equivalence_report", "x_conditions_for_functor",
        "x_conditions_for_induced",
    ),
    "groupoids": (
        "CATALOGS", "FiniteGroupoid", "GroupoidFunctor", "compose_gfunctors",
        "discrete_groupoid", "enumerate_gfunctors", "groupoid_twocat",
        "identity_gfunctor", "is_essentially_surjective", "is_fully_faithful",
        "is_morita", "morita_saturated_check", "morita_two_out_of_six",
        "natural_transformations", "pair_groupoid", "unit_groupoid",
        "validate_groupoid",
    ),
    "documents": (
        "DocumentError", "dump_gfunctor", "dump_groupoid", "dump_twocat",
        "dump_twofunctor", "load_gfunctor", "load_groupoid", "load_twocat",
        "load_twofunctor",
    ),
    "fixtures": ("FIXTURES", "fixture"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        # Bound here, as an eager import would have, so a `twoloc.name`
        # lookup inside a loop does not run the import machinery each time.
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
