"""Exact computations with finite groups and skew braces.

The package enumerates, for a fixed finite group, every second group
operation compatible with it in the skew-brace sense, and analyzes the
lattice correspondence each structure induces.

Importing the package loads none of its modules.  Each exported name
loads its home module the first time it is read (PEP 562), so
`from skewbrace import catalog_names` loads the catalog and the group
core only, and `skewbrace.analysis` and the other modules are
attributes without an explicit import.
"""

import importlib

# each exported name under its home module
_EXPORTS = {
    "analysis": (
        "BiskewPairReport", "HgsReport", "all_surjective", "analyze",
        "biskew_pair_report", "byott_check", "childs_criterion", "e_count",
        "enumerate_operations", "enumerate_reports", "f_count",
        "kohl_obstruction", "surjective_iff_power_auto",
    ),
    "braces": (
        "GammaTable", "SkewBrace", "almost_trivial_brace",
        "brace_automorphism_count", "brace_automorphisms",
        "brace_isomorphism", "fix", "gamma", "gc_ratio", "ideals",
        "is_bi_skew", "is_metatrivial", "left_ideals", "make_brace",
        "opposite", "product_brace", "quotient_brace", "strong_left_ideals",
        "sub_brace", "swap", "trivial_brace",
    ),
    "catalog": (
        "catalog_names", "cyclic", "dicyclic", "dihedral", "group_by_name",
        "groups_of_order", "heisenberg", "type_name",
    ),
    "constructions": (
        "all_psi_braces", "class2_construction", "cpr_cps_brace",
        "inversion_construction", "norm_mod_center", "psi_construction",
        "semidirect_to_brace",
    ),
    "groups": (
        "DistinguishedSubgroups", "FiniteGroup", "GroupMap", "automorphisms",
        "closure", "direct_product", "distinguished_subgroups",
        "homomorphisms", "inversion_action", "is_power_automorphism",
        "isomorphism", "make_group", "opposite_group", "quotient",
        "semidirect_product", "subgroups",
    ),
    "perms": (
        "RegularSubgroup", "holomorph", "left_translations",
        "operation_from_regular_subgroup", "regular_subgroup",
        "regular_subgroups_in_holomorph", "regular_subgroups_normalized_by",
        "right_translations", "transport_operation",
    ),
    "serialize": (
        "read_group", "read_reports", "write_group", "write_reports",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules reachable as attributes without an explicit import
_MODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule binds it in the package globals
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
