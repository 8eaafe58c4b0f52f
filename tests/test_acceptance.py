"""Acceptance criteria, one test per criterion, exact values throughout.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Criterion 4 runs the symmetric-group oracle through
degree 8.  Set SKEWBRACE_HEAVY=1 to include the order-27 census of
criterion 11.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import requires_heavy

from skewbrace.analysis import (
    all_surjective,
    byott_check,
    childs_criterion,
    e_count,
    enumerate_operations,
    enumerate_reports,
    f_count,
    surjective_iff_power_auto,
)
from skewbrace.braces import (
    almost_trivial_brace,
    brace_automorphism_count,
    is_bi_skew,
    left_ideals,
    make_brace,
    opposite,
    strong_left_ideals,
    swap,
    trivial_brace,
)
from skewbrace.catalog import group_by_name, groups_of_order
from skewbrace.constructions import (
    all_psi_braces,
    class2_construction,
    cpr_cps_brace,
    inversion_construction,
    semidirect_to_brace,
)
from skewbrace.groups import (
    automorphisms,
    distinguished_subgroups,
    inversion_action,
    subgroup_group,
    subgroups,
)
from skewbrace.perms import (
    operation_from_regular_subgroup,
    regular_subgroups_normalized_by,
)


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.time() - start:.1f}s)")


def test_criterion_1_q8_census():
    with criterion("1 quaternion census: 22 structures, 6 cyclic, "
                   "16 surjective matching the norm-quotient braces"):
        start = time.time()
        q8 = group_by_name("Q8")
        reports = enumerate_reports(q8)
        assert len(reports) == 22
        assert sum(1 for r in reports if r.type_name == "C8") == 6
        surjective = {r.operation.table for r in reports if r.is_surjective}
        assert len(surjective) == 16
        psi_tables = {B.dot.table for B in all_psi_braces(q8)}
        assert psi_tables == surjective
        assert time.time() - start < 120


def test_criterion_2_byott_translation():
    with criterion("2 translation identity e*|Aut(N)| == f*|Aut(G)| on all "
                   "equal-order pairs through order 12"):
        start = time.time()
        pairs = 0
        for order in range(1, 13):
            gs = groups_of_order(order)
            for G in gs:
                for N in gs:
                    assert byott_check(G, N)
                    pairs += 1
        assert pairs == 72
        assert time.time() - start < 600


def test_criterion_3_orbit_count_identity():
    with criterion("3 orbit-count identity: class stabilizers add up to "
                   "the structure total for every order <= 12"):
        for order in range(1, 13):
            for G in groups_of_order(order):
                reports = enumerate_reports(G)
                n_aut = len(automorphisms(G))
                class_reps = {}
                for r in reports:
                    class_reps.setdefault(r.iso_class_id, r.operation.table)
                total = 0
                for table in class_reps.values():
                    stab = brace_automorphism_count(make_brace(table, G))
                    assert n_aut % stab == 0
                    total += n_aut // stab
                assert total == len(reports)


def test_criterion_4_oracle_equivalence_small():
    with criterion("4 permutation-oracle equivalence, orders 1..6"):
        for order in range(1, 7):
            for G in groups_of_order(order):
                oracle = {operation_from_regular_subgroup(R, G).table
                          for R in regular_subgroups_normalized_by(G)}
                census = {B.dot.table for B in enumerate_operations(G)}
                assert oracle == census, G.name


def test_criterion_4_oracle_equivalence_order8():
    with criterion("4+ permutation-oracle equivalence at order 8"):
        for G in groups_of_order(8):
            oracle = {operation_from_regular_subgroup(R, G).table
                      for R in regular_subgroups_normalized_by(G)}
            census = {B.dot.table for B in enumerate_operations(G)}
            assert oracle == census, G.name


def test_criterion_5_cyclic_power_surjectivity():
    with criterion("5 every structure on C4, C8, C9, C27 is surjective "
                   "with the predicted types"):
        for name in ("C4", "C8", "C9", "C27"):
            reports = enumerate_reports(group_by_name(name))
            assert all(r.is_surjective for r in reports), name
            if name == "C8":
                assert {r.type_name for r in reports} <= {"C8", "D4", "Q8"}
            if name in ("C9", "C27"):
                assert all(r.operation.is_cyclic() for r in reports)


def test_criterion_6_gc_ratio_pair():
    with criterion("6 ratio pair for the order-10 inversion brace: "
                   "1 and 4/8 with quotient 2"):
        from skewbrace.analysis import biskew_pair_report

        B = inversion_construction(group_by_name("C5"))
        rep = biskew_pair_report(B)
        assert rep.ratio_fwd == Fraction(1)
        assert rep.ratio_swapped == Fraction(4, 8)
        assert rep.quotient == Fraction(2) == Fraction(5 + 3, 4)


def test_criterion_7_order_27_constructions():
    with criterion("7 order-27 examples: norm/centre sizes, nine distinct "
                   "surjective braces, class-2 image"):
        m27 = group_by_name("M27")
        dist = distinguished_subgroups(m27)
        assert len(dist.center) == 3
        norm_group, _ = subgroup_group(m27, dist.norm)
        assert len(dist.norm) == 9 and norm_group.exponent() == 3
        braces = all_psi_braces(m27)
        assert len(braces) == 9
        assert len({B.dot.table for B in braces}) == 9
        for B in braces:
            assert set(left_ideals(B)) == set(subgroups(m27))

        heis = group_by_name("Heisenberg-27")
        Bh = class2_construction(heis)
        assert set(left_ideals(Bh)) == \
            set(distinguished_subgroups(heis).normal)
        assert Bh.dot.table != almost_trivial_brace(heis).dot.table


def test_criterion_8_childs_equivalence():
    with criterion("8 cyclic-order criterion matches the census through "
                   "order 12 and at order 15"):
        groups = [G for order in range(1, 13)
                  for G in groups_of_order(order)]
        groups.append(group_by_name("C15"))
        for G in groups:
            assert all_surjective(G) == childs_criterion(G), G.name


def _constructed_battery():
    battery = []
    for order in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12):
        for G in groups_of_order(order):
            battery.append(trivial_brace(G))
            battery.append(almost_trivial_brace(G))
    battery.extend(all_psi_braces(group_by_name("Q8")))
    battery.append(class2_construction(group_by_name("Q8")))
    battery.append(class2_construction(group_by_name("Heisenberg-27")))
    for name in ("C1", "C3", "C5", "C2xC2", "C6"):
        battery.append(inversion_construction(group_by_name(name)))
    c3 = group_by_name("C3")
    battery.append(semidirect_to_brace(c3, group_by_name("C2"),
                                       inversion_action(c3)))
    battery.extend(cpr_cps_brace(*prs)
                   for prs in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2)))
    for name in ("C4", "C2xC2", "C6", "D4", "Q8", "C2xC2xC2"):
        battery.extend(enumerate_operations(group_by_name(name)))
    return battery


def test_criterion_9_property_suites():
    with criterion("9 law re-validation, gamma and opposite identities, "
                   "ideal identities, no internal inconsistencies"):
        battery = _constructed_battery()
        assert len(battery) > 200
        for B in battery:
            make_brace(B.dot.table, B.circ.table)  # full law re-check
            opp = opposite(B)  # asserts the twisted gamma identity
            assert set(strong_left_ideals(B)) == \
                set(left_ideals(B)) & set(left_ideals(opp))
            if is_bi_skew(B):
                assert set(left_ideals(B)) == set(left_ideals(swap(B)))
                surjective_iff_power_auto(B)  # InternalInconsistency guard


def test_criterion_10_order8_quaternion_witness():
    with criterion("10 the cyclic order-8 census contains a bi-skew "
                   "surjective quaternion-type structure"):
        c8 = group_by_name("C8")
        reports = enumerate_reports(c8)
        q8_type = [r for r in reports if r.type_name == "Q8"]
        assert q8_type
        assert any(r.is_bi_skew and r.is_surjective for r in q8_type)
        # cross-check the counting identity for this type
        q8 = group_by_name("Q8")
        assert e_count(c8, q8) * len(automorphisms(q8)) == \
            f_count(c8, q8) * len(automorphisms(c8))


@requires_heavy
def test_criterion_11_order_27_census():
    with criterion("11 order-27 census: 101 skew braces up to isomorphism, "
                   "and the translation identity on all 25 pairs"):
        # Guarnieri-Vendramin: classes over each circ group of order 27
        published = {"C27": 3, "C9xC3": 22, "C3xC3xC3": 12,
                     "Heisenberg-27": 25, "M27": 39}
        gs = groups_of_order(27)
        classes = {G.name: len({r.iso_class_id for r in enumerate_reports(G)})
                   for G in gs}
        assert classes == published
        assert sum(classes.values()) == 101
        for G in gs:
            for N in gs:
                assert byott_check(G, N)
