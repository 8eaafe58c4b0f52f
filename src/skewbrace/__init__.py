"""Exact computations with finite groups and skew braces.

The package enumerates, for a fixed finite group, every second group
operation compatible with it in the skew-brace sense, and analyzes the
lattice correspondence each structure induces.
"""

from .analysis import (
    BiskewPairReport,
    HgsReport,
    all_surjective,
    analyze,
    biskew_pair_report,
    byott_check,
    childs_criterion,
    e_count,
    enumerate_operations,
    enumerate_reports,
    f_count,
    kohl_obstruction,
    surjective_iff_power_auto,
)
from .braces import (
    GammaTable,
    SkewBrace,
    almost_trivial_brace,
    brace_automorphism_count,
    brace_automorphisms,
    brace_isomorphism,
    fix,
    gamma,
    gc_ratio,
    ideals,
    is_bi_skew,
    is_metatrivial,
    left_ideals,
    make_brace,
    opposite,
    product_brace,
    quotient_brace,
    strong_left_ideals,
    sub_brace,
    swap,
    trivial_brace,
)
from .catalog import (
    catalog_names,
    cyclic,
    dicyclic,
    dihedral,
    group_by_name,
    groups_of_order,
    heisenberg,
    type_name,
)
from .constructions import (
    all_psi_braces,
    class2_construction,
    cpr_cps_brace,
    inversion_construction,
    norm_mod_center,
    psi_construction,
    semidirect_to_brace,
)
from .groups import (
    DistinguishedSubgroups,
    FiniteGroup,
    GroupMap,
    automorphisms,
    closure,
    direct_product,
    distinguished_subgroups,
    homomorphisms,
    inversion_action,
    is_power_automorphism,
    isomorphism,
    make_group,
    opposite_group,
    quotient,
    semidirect_product,
    subgroups,
)
from .perms import (
    RegularSubgroup,
    holomorph,
    left_translations,
    operation_from_regular_subgroup,
    regular_subgroup,
    regular_subgroups_in_holomorph,
    regular_subgroups_normalized_by,
    right_translations,
    transport_operation,
)
from .serialize import (
    read_group,
    read_reports,
    write_group,
    write_reports,
)
