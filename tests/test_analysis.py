"""Census engine, counting identities, classification criteria."""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    flat,
    not_bi_skew_on_c6,
    refuse_searches,
    requires_heavy,
    transport_table,
)

from skewbrace import analysis, braces, catalog, perms
from skewbrace.analysis import (
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
from skewbrace.braces import (
    SkewBrace,
    almost_trivial_brace,
    brace_automorphism_count,
    is_bi_skew,
    make_brace,
    trivial_brace,
)
from skewbrace.catalog import (
    cyclic,
    dihedral,
    group_by_name,
    groups_of_order,
    type_name,
)
from skewbrace.constructions import inversion_construction
from skewbrace.errors import (
    CatalogIncompleteForOrder,
    InternalInconsistency,
    NotBiSkew,
    UnsupportedOrder,
)
from skewbrace.groups import (
    FiniteGroup,
    _automorphism_count,
    _automorphism_images_up_to_stabilizer,
    _compose,
    _invert,
    automorphisms,
    distinguished_subgroups,
    isomorphism,
    subgroups,
)
from skewbrace.perms import (
    RegularSubgroup,
    _cyclic_keys,
    _cyclic_keys_up_to_aut,
    _regular_subgroup_keys,
    cyclic_regular_subgroups_in_holomorph,
    regular_subgroups_in_holomorph,
    transport_operation,
)
from skewbrace.serialize import reports_to_text

# every catalog target whose census is cheap: orders 1-15 and C27 (a
# non-cyclic order-27 census takes minutes and is heavy-tier only)
SERVED = [*(G for n in range(1, 16) for G in groups_of_order(n)),
          group_by_name("C27")]


def classify_transports(monkeypatch, record):
    """Hand record every group T_R that _classify transports: the groups
    analysis.FiniteGroup builds when called from _classify itself,
    other than the handle on N that _classify makes from its table
    argument."""
    code = analysis._classify.__wrapped__.__code__

    def hook(rows):
        T = FiniteGroup(rows)
        caller = sys._getframe(1)
        if caller.f_code is code and rows is not caller.f_locals["table"]:
            record(T)
        return T

    monkeypatch.setattr(analysis, "FiniteGroup", hook)


class TestEnumerate:
    def test_c2_single_structure(self):
        ops = enumerate_operations(group_by_name("C2"))
        assert len(ops) == 1 and ops[0].is_trivial()

    def test_census_contains_trivial_and_almost_trivial(self):
        for name in ("C6", "D3", "D4"):
            G = group_by_name(name)
            tables = {B.dot.table for B in enumerate_operations(G)}
            assert G.table in tables
            assert almost_trivial_brace(G).dot.table in tables

    def test_circ_component_is_fixed(self):
        G = group_by_name("C6")
        assert all(B.circ.table == G.table
                   for B in enumerate_operations(G))

    def test_known_totals(self):
        # cross-validated against the degree-<=6 symmetric-group oracle
        totals = {"C4": 2, "C2xC2": 4, "C5": 1, "C6": 3, "D3": 5}
        for name, expected in totals.items():
            assert len(enumerate_operations(group_by_name(name))) == expected

    def test_unservable_orders_refused(self, monkeypatch):
        # an order the catalog does not hold completely is refused on any
        # route, before any search
        refuse_searches(monkeypatch, "_regular_subgroup_keys",
                        "_cyclic_keys", "_cyclic_keys_up_to_aut")
        cases = [(cyclic(30), UnsupportedOrder),
                 (dihedral(9), UnsupportedOrder),
                 (group_by_name("D8"), CatalogIncompleteForOrder)]
        for G, error in cases:
            for census in (enumerate_operations, enumerate_reports,
                           lambda G: e_count(G, G)):
                with pytest.raises(error):
                    census(G)

    @pytest.mark.usefixtures("fresh_census")
    def test_cyclic_targets_never_search_full_holomorph(self, monkeypatch):
        # the n-cycle scan serves every cyclic target
        refuse_searches(monkeypatch, "_regular_subgroup_keys")

        def refuse(*args):
            pytest.fail("Hol(N) was listed or searched")

        monkeypatch.setattr(perms, "holomorph", refuse)
        monkeypatch.setattr(perms, "_candidate_pool", refuse)
        for G in SERVED:
            if not G.is_cyclic():
                continue
            ops = enumerate_operations(G)
            reports = enumerate_reports(G)
            assert len(ops) == len(reports) > 0
            assert e_count(G, G) > 0
            assert f_count(G, G) > 0

    @pytest.mark.usefixtures("fresh_census")
    def test_census_builds_no_regular_subgroup(self, monkeypatch):
        # from the search to the orbit the census and both counts read the
        # key searches' flat tables; no RegularSubgroup is made
        def refuse(cls, *args):
            pytest.fail("a RegularSubgroup was built")

        monkeypatch.setattr(RegularSubgroup, "__new__", refuse)
        with pytest.raises(pytest.fail.Exception):
            RegularSubgroup(((0,),))
        for G in SERVED:
            assert len(enumerate_operations(G)) == len(enumerate_reports(G))
            all_surjective(G)
            assert e_count(G, G) > 0 and f_count(G, G) > 0

    def test_incomplete_order_refused(self):
        with pytest.raises(CatalogIncompleteForOrder):
            enumerate_operations(group_by_name("C16"))

    def test_cyclic_27_allowed_by_default(self):
        reps = enumerate_reports(group_by_name("C27"))
        assert len(reps) == 9
        assert all(r.type_name == "C27" and r.is_surjective for r in reps)

    def test_published_class_counts(self):
        # skew braces of order n up to isomorphism (Guarnieri-Vendramin):
        # the classes over each circ group, summed over the groups of order n
        published = (1, 1, 1, 4, 1, 6, 1, 47, 4, 6, 1, 38, 1, 6, 1)
        for n, expected in enumerate(published, start=1):
            classes = sum(len({r.iso_class_id for r in enumerate_reports(G)})
                          for G in groups_of_order(n))
            assert classes == expected, n
        reps = enumerate_reports(group_by_name("C27"))
        assert (len({r.iso_class_id for r in reps}), len(reps)) == (3, 9)

    def test_reports_sorted_and_consistent(self):
        reps = enumerate_reports(group_by_name("Q8"))
        tables = [r.operation.table for r in reps]
        assert tables == sorted(tables)
        for r in reps:
            assert r.is_surjective == (r.gc_ratio == 1)
            assert set(r.image) <= set(subgroups(group_by_name("Q8")))

    @pytest.mark.parametrize("order", [*range(1, 16), 27])
    def test_class_reports_match_per_operation_analysis(self, order):
        # each class is analyzed once and carried to its members along an
        # automorphism of circ; the oracle analyzes every operation alone
        circs = groups_of_order(order) if order <= 15 else \
            [group_by_name("C27")]
        for G in circs:
            for r in enumerate_reports(G):
                lone = analyze(SkewBrace(r.operation, G))
                assert (r.type_name, r.is_bi_skew, r.image, r.is_surjective,
                        r.gc_ratio, r.grouplikes, r.orbit_size) == \
                    (lone.type_name, lone.is_bi_skew, lone.image,
                     lone.is_surjective, lone.gc_ratio, lone.grouplikes,
                     lone.orbit_size), (G.name, r.operation.table)


class TestAnalyze:
    def test_trivial_brace_surjective(self):
        r = analyze(trivial_brace(group_by_name("D4")))
        assert r.is_surjective and r.gc_ratio == 1
        assert r.grouplikes == tuple(range(8))

    def test_canonical_nonclassical_image_is_normal_subgroups(self):
        G = group_by_name("D4")  # nonabelian, not Hamiltonian
        r = analyze(almost_trivial_brace(G))
        assert set(r.image) == set(distinguished_subgroups(G).normal)
        assert not r.is_surjective

    def test_hamiltonian_circ_canonical_nonclassical_surjective(self):
        Q8 = group_by_name("Q8")
        r = analyze(almost_trivial_brace(Q8))
        assert r.is_surjective

    def test_type_names(self):
        r = analyze(trivial_brace(group_by_name("Dic3")))
        assert r.type_name == "Dic3"


class TestReportRecord:
    def test_repr_and_replace(self):
        report = enumerate_reports(group_by_name("D3"))[0]
        assert repr(report) == (
            "HgsReport(operation=FiniteGroup(order-6), type_name='C6', "
            "is_bi_skew=True, image=((0,), (0, 1), (0, 1, 2, 3, 4, 5), "
            "(0, 2, 4)), is_surjective=False, gc_ratio=Fraction(2, 3), "
            "grouplikes=(0, 1), iso_class_id=0, orbit_size=3)")
        moved = report._replace(iso_class_id=7)
        assert type(moved) is HgsReport and moved.iso_class_id == 7
        assert all(getattr(moved, name) is getattr(report, name)
                   for name in report._fields if name != "iso_class_id")
        assert moved._replace(iso_class_id=0) == report


class TestBiskewPair:
    def test_trivial_quotient_one(self):
        rep = biskew_pair_report(trivial_brace(group_by_name("D4")))
        assert rep.quotient == 1

    def test_inversion_c5(self):
        rep = biskew_pair_report(inversion_construction(group_by_name("C5")))
        assert rep.ratio_fwd == 1
        assert rep.ratio_swapped == Fraction(4, 8)
        assert rep.quotient == 2

    def test_inversion_c7(self):
        rep = biskew_pair_report(inversion_construction(group_by_name("C7")))
        assert rep.quotient == Fraction(10, 4)
        assert rep.subgroup_counts == (10, 4)

    def test_requires_bi_skew(self):
        B = not_bi_skew_on_c6()
        assert not is_bi_skew(B)
        with pytest.raises(NotBiSkew):
            biskew_pair_report(B)


class TestCounting:
    def test_order_two(self):
        C2 = group_by_name("C2")
        assert e_count(C2, C2) == 1
        assert f_count(C2, C2) == 1
        assert byott_check(C2, C2)

    def test_q8_cyclic_type(self):
        Q8, C8 = group_by_name("Q8"), group_by_name("C8")
        assert e_count(Q8, C8) == 6
        f = f_count(Q8, C8)
        assert e_count(Q8, C8) * len(automorphisms(C8)) == \
            f * len(automorphisms(Q8))

    def test_byott_all_pairs_order_8(self):
        gs = groups_of_order(8)
        for G in gs:
            for N in gs:
                assert byott_check(G, N)

    def test_mixed_orders_give_zero(self):
        assert f_count(group_by_name("C2"), group_by_name("C4")) == 0


def prime_factors(n):
    """The prime factors of n with multiplicity, ascending."""
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def closed_form_e(G, N):
    """e(G, N) from |G|'s factorisation and which of G and N are cyclic,
    or None outside the shapes below.  These laws were fitted to the
    census's counts and recalled from Byott (1996, orders pq) and Kohl
    (1998, cyclic Galois groups of odd prime-power order); they are not
    transcribed from the published statements.  They read nothing of the
    holomorph, so they pin the census independently of its route."""
    fs = prime_factors(G.order)
    cyc_g, cyc_n = G.is_cyclic(), N.is_cyclic()
    p = fs[0]
    if cyc_g and fs == [p] * len(fs) and (len(fs) == 1 or p % 2):
        return p ** (len(fs) - 1) if cyc_n else 0
    if fs == [3, 3] and not cyc_g:
        return 0 if cyc_n else 9
    if len(fs) == 2 and fs[0] != fs[1]:
        q = fs[1]
        if (q - 1) % p:
            return 1  # only the cyclic group has order pq
        if cyc_g:
            return 1 if cyc_n else 2 * (p - 1)
        return q if cyc_n else 2 + 2 * q * (p - 2)
    return None


def test_e_count_matches_closed_forms_on_every_served_order():
    covered = set()
    for order in range(2, 28):
        try:
            gs = groups_of_order(order)
        except (CatalogIncompleteForOrder, UnsupportedOrder):
            continue
        for G in gs:
            for N in gs:
                expected = closed_form_e(G, N)
                if expected is not None:
                    assert e_count(G, N) == expected, (G.name, N.name)
                    covered.add(order)
    # the S_n oracle stops at order 8; these reach 9-15 and 27
    assert covered >= {2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 27}


def aut_class(elements, N):
    """The Aut(N)-conjugacy class of the regular subgroup with these
    elements, as the sorted element tuples of psi R psi^-1 over every psi
    in automorphisms(N)."""
    out = set()
    for psi in automorphisms(N):
        inv = _invert(psi.images)
        out.add(tuple(sorted(_compose(psi.images, _compose(r, inv))
                             for r in elements)))
    return out


def listed_subgroups(search, N):
    """The regular subgroups a key search lists, in its order."""
    return [RegularSubgroup(analysis._rows(key, N.order))
            for key in search(N)]


def per_subgroup_classification(listed):
    """The classification _classify replaced: every listed R transported
    and typed by its own isomorphism call against the first transported
    group of each type; (reps, type index per R)."""
    reps, types = [], []
    for R in listed:
        T = transport_operation(R)
        for k, rep in enumerate(reps):
            if isomorphism(T, rep) is not None:
                break
        else:
            k = len(reps)
            reps.append(T)
        types.append(k)
    return tuple(reps), types


class TestSharedClassification:
    """The census classifies the regular subgroups once per route and N,
    typing one per Aut(N)-class, and builds orbits from generators of
    Aut(circ); each test keeps the definition it replaced as its
    oracle."""

    def test_orbits_from_generators_match_full_sweep(self):
        for G in SERVED:
            auts = automorphisms(G)
            for orbit, _, report in analysis._enumerate_classes(G.table):
                # the orbit's flat bytes keys against the row-tuple relabeling
                found = report.operation.table
                sweep = {transport_table(found, f.images) for f in auts}
                assert {analysis._rows(t, G.order) for t in orbit} == sweep, \
                    G.name
                for t, phi in orbit.items():
                    assert transport_table(found, phi) \
                        == analysis._rows(t, G.order)
                    assert flat(analysis._rows(t, G.order)) == t

    def test_counts_match_per_class_and_per_subgroup_definitions(self):
        def old_e(G, N):
            return sum(len(orbit) for orbit, _, report
                       in analysis._enumerate_classes(G.table)
                       if isomorphism(report.operation, N) is not None)

        def old_f(G, N):
            # every regular subgroup, never the census's one per class; the
            # n-cycle scan lists every cyclic one
            search = (cyclic_regular_subgroups_in_holomorph if G.is_cyclic()
                      else regular_subgroups_in_holomorph)
            return sum(1 for R in search(N)
                       if isomorphism(transport_operation(R), G) is not None)

        C27 = group_by_name("C27")
        pairs = [(G, N) for n in range(1, 13) for G in groups_of_order(n)
                 for N in groups_of_order(n)]
        pairs += [(C27, N) for N in groups_of_order(27)]
        for G, N in pairs:
            assert (e_count(G, N), f_count(G, N)) == \
                (old_e(G, N), old_f(G, N)), (G.name, N.name)

    @pytest.mark.parametrize("order", range(1, 16))
    def test_class_typing_matches_per_subgroup_isomorphism(self, order):
        for N in groups_of_order(order):
            for search in (_regular_subgroup_keys, _cyclic_keys_up_to_aut):
                listed = listed_subgroups(search, N)
                old_reps, old_types = per_subgroup_classification(listed)
                # classes are met in search order: each class's first R is
                # the first listed R no earlier class holds
                rest = list(range(len(listed)))
                closures = []
                for T, size, count in analysis._classify(search, N.table):
                    first = listed[rest[0]]
                    assert T.table == transport_operation(first).table, \
                        N.name
                    closure = aut_class(first.elements, N)
                    own = [i for i in rest if listed[i].elements in closure]
                    rest = [i for i in rest if i not in own]
                    types = {old_types[i] for i in own}
                    assert len(types) == 1, N.name
                    assert isomorphism(T, old_reps[types.pop()]) is not None
                    assert len(closure) == size, N.name
                    assert count == len(own), N.name
                    if search is _regular_subgroup_keys:
                        assert count == size, N.name
                    closures.append(closure)
                # the classes partition the listed R
                assert not rest, N.name
                union = set().union(*closures)
                assert len(union) == sum(map(len, closures)), N.name
                if search is _regular_subgroup_keys:
                    assert union == {R.elements for R in listed}, N.name

    @pytest.mark.usefixtures("fresh_census")
    def test_classify_types_nothing(self, monkeypatch):
        # _classify only partitions by Aut(N)-class; its callers type each
        # class's T against their own target
        code = analysis._classify.__wrapped__.__code__
        calls = []

        def record(G, H):
            if sys._getframe(1).f_code is code:
                calls.append((G.order, H.order))
            return isomorphism(G, H)

        monkeypatch.setattr(analysis, "isomorphism", record)
        for order in range(1, 16):
            for N in groups_of_order(order):
                for search in (_regular_subgroup_keys,
                               _cyclic_keys_up_to_aut):
                    analysis._classify(search, N.table)
        assert calls == []

    @pytest.mark.usefixtures("fresh_census")
    def test_one_transport_per_route_type_and_aut_class(self, monkeypatch):
        # _classify builds each transported T_R once, to type it
        calls = Counter()
        classify_transports(monkeypatch,
                            lambda T: calls.update([flat(T.table)]))
        gs = groups_of_order(8)
        for G in gs:
            enumerate_reports(G)
        for G in gs:
            for N in gs:
                assert byott_check(G, N)
        # per route and N, the first listed R of each Aut(N)-class; the f
        # side of a cyclic target counts the full scan and transports nothing
        expected = Counter()
        for search in (_regular_subgroup_keys, _cyclic_keys_up_to_aut):
            for N in gs:
                met = set()
                for key in search(N):
                    if key not in met:
                        expected[key] += 1
                        met |= set(map(flat, aut_class(
                            analysis._rows(key, N.order), N)))
        assert calls == expected

    @pytest.mark.usefixtures("fresh_census")
    def test_only_class_groups_outlive_the_census(self, monkeypatch):
        # _classify transports the first R of each Aut(N)-class only, and
        # no cache keeps any other transported group: a group is a handle
        # of its own, whatever other handle shares its table, so the live
        # transported groups are exactly the T of _classify's classes
        refs = []
        classify_transports(monkeypatch, lambda T: refs.append(weakref.ref(T)))
        targets = [*groups_of_order(8), group_by_name("C27")]
        for G in targets:
            enumerate_reports(G)
        gc.collect()
        alive = {id(T) for T in (r() for r in refs) if T is not None}
        # the route _enumerate_classes takes for each target
        searches = {(_cyclic_keys_up_to_aut if G.is_cyclic()
                     else _regular_subgroup_keys, G.order) for G in targets}
        kept = {id(T) for search, n in searches for N in groups_of_order(n)
                for T, _, _ in analysis._classify(search, N.table)}
        assert len(refs) == len(kept)
        assert alive == kept

    def test_class_sizes_and_disjointness_checked(self, monkeypatch):
        # each Aut(N)-class gives one brace class of the matching size;
        # the census refuses a repeated class and a wrong class size
        classify = analysis._classify

        def repeated(search, table):
            return classify(search, table) * 2

        def doubled(search, table):
            return tuple((T, 2 * size, listed)
                         for T, size, listed in classify(search, table))

        for G in (group_by_name("Q8"), group_by_name("C4")):
            for patch, what in ((repeated, "one brace class"),
                                (doubled, "sizes disagree")):
                analysis._enumerate_classes.cache_clear()
                monkeypatch.setattr(analysis, "_classify", patch)
                with pytest.raises(InternalInconsistency, match=what):
                    analysis._enumerate_classes(G.table)
        analysis._enumerate_classes.cache_clear()

    def test_identity_catches_an_f_counting_classes(self, monkeypatch):
        # e(Q8, C2xC2xC2) = 2 and f = 14 in one Aut(N)-class; counted per
        # class, f reads 1 and 2 * 168 != 1 * 24
        Q8, E8 = group_by_name("Q8"), group_by_name("C2xC2xC2")
        assert byott_check(Q8, E8)

        def per_class_f(circG, N):
            return sum(isomorphism(T, circG) is not None for T, _, _
                       in analysis._classify(_regular_subgroup_keys, N.table))

        assert (f_count(Q8, E8), per_class_f(Q8, E8)) == (14, 1)
        monkeypatch.setattr(analysis, "f_count", per_class_f)
        with pytest.raises(InternalInconsistency):
            byott_check(Q8, E8)

    def test_f_count_at_incomplete_order_16(self, monkeypatch):
        # the n-cycle route serves a cyclic target at order 16, which the
        # catalog does not hold completely; the values are pinned as found
        refuse_searches(monkeypatch, "_regular_subgroup_keys")
        C16 = group_by_name("C16")
        expected = {"C16": 4, "C8xC2": 0, "D8": 16, "Q16": 16, "M16": 0,
                    "C4xC4": 0}
        assert {name: f_count(C16, group_by_name(name))
                for name in expected} == expected

    @pytest.mark.parametrize("name, expected", [
        ("C16", 1), ("C8xC2", 16), ("C4xC4", 0), ("D8", 24), ("Q16", 24),
        ("SD16", 24), ("M16", 8),
        pytest.param("C4xC2xC2", 0, marks=requires_heavy)])
    def test_full_search_f_count_at_incomplete_order_16(self, name,
                                                        expected):
        # a non-cyclic target at order 16, which the catalog does not hold
        # completely: _classify never reads the catalog; the values are
        # pinned as found and checked against the per-subgroup definition
        D8, N = group_by_name("D8"), group_by_name(name)
        oracle = sum(1 for R in regular_subgroups_in_holomorph(N)
                     if isomorphism(transport_operation(R), D8) is not None)
        assert f_count(D8, N) == oracle == expected


class TestClassRecord:
    """The census reads each class's type and orbit size off its class
    record (orbit, N, report): the stabilizer of R in Aut(N) is the brace
    automorphism group.  The Aut(circ) filter and the catalog typing,
    which the census no longer runs per class, are the oracles."""

    @pytest.mark.parametrize("name", [
        *(G.name for G in SERVED),
        *(pytest.param(G.name, marks=requires_heavy)
          for G in groups_of_order(27) if not G.is_cyclic())])
    def test_record_matches_filter_and_catalog(self, name):
        G = group_by_name(name)
        for orbit, N, report in analysis._enumerate_classes(G.table):
            dot = report.operation
            assert len(orbit) * brace_automorphism_count(SkewBrace(dot, G)) \
                == _automorphism_count(G), name
            assert type_name(dot) == N.name, name

    @pytest.mark.usefixtures("fresh_census")
    def test_census_filters_and_types_nothing(self, monkeypatch):
        # only a lone analyze counts brace automorphisms and types its dot
        calls = Counter()
        originals = {
            "brace_automorphisms": braces.brace_automorphisms,
            "brace_automorphism_count": braces.brace_automorphism_count,
            "type_name": catalog.type_name}
        for name, original in originals.items():
            def record(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            for module in (braces, analysis, catalog):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, record)
        for G in SERVED:
            enumerate_reports(G)
            all_surjective(G)
        assert not calls
        analyze(almost_trivial_brace(group_by_name("D4")))
        assert calls.keys() == originals.keys()

    @pytest.mark.usefixtures("fresh_census")
    def test_class_size_off_by_one_is_caught(self, monkeypatch):
        # the orbit walked under Aut(circ) and the Aut(N)-class walked by
        # _classify are two independent counts of one class
        classify = analysis._classify

        def off_by_one(search, table):
            return tuple((T, size + 1, listed)
                         for T, size, listed in classify(search, table))

        monkeypatch.setattr(analysis, "_classify", off_by_one)
        with pytest.raises(InternalInconsistency,
                           match="Aut\\(N\\)-class sizes disagree"):
            enumerate_reports(group_by_name("C2xC2"))


class TestCensusScan:
    """The census of a cyclic target scans only the (a, phi) whose
    phi(g_0) is the least of its Stab(g_0)-orbit; the full n-cycle scan
    and automorphisms(N) are its oracles, and f keeps the full scan."""

    @pytest.mark.parametrize("order", list(range(1, 16)) + [27])
    def test_no_class_lost(self, order):
        for N in groups_of_order(order):
            full = {R.elements
                    for R in cyclic_regular_subgroups_in_holomorph(N)}
            census = {analysis._rows(key, order)
                      for key in _cyclic_keys_up_to_aut(N)}
            assert census <= full, N.name
            if N.is_cyclic():  # Stab(g_0) is trivial, C1 included
                assert census == full, N.name
            if N.name == "C2xC2":  # the census keeps 2 of 3
                assert (len(census), len(full)) == (2, 3)
            for R in full:
                assert aut_class(R, N) & census, N.name

    def test_stream_sizes_at_order_27(self):
        sizes = {N.name: sum(1 for _ in
                             _automorphism_images_up_to_stabilizer(N))
                 for N in groups_of_order(27)}
        assert sizes == {"C27": 18, "C9xC3": 72, "C3xC3xC3": 1296,
                         "Heisenberg-27": 432, "M27": 36}
        assert len(automorphisms(group_by_name("C3xC3xC3"))) == 11232

    @pytest.mark.usefixtures("fresh_census")
    def test_census_equals_full_scan_census(self, monkeypatch):
        targets = [G for G in SERVED if G.is_cyclic()]
        assert len(targets) == 16

        def census():
            analysis._enumerate_classes.cache_clear()
            analysis._classify.cache_clear()
            return [(enumerate_operations(G),
                     reports_to_text(enumerate_reports(G))) for G in targets]

        pruned = census()
        monkeypatch.setattr(analysis, "_cyclic_keys_up_to_aut", _cyclic_keys)
        full = census()
        assert full == pruned

    def test_identity_catches_a_pruned_f(self, monkeypatch):
        # e(C4, C2xC2) = 1 and f = 3; counted on the census scan, f reads 2
        # and 1 * 6 != 2 * 2
        C4, V4 = group_by_name("C4"), group_by_name("C2xC2")
        assert byott_check(C4, V4)
        monkeypatch.setattr(analysis, "_cyclic_keys", _cyclic_keys_up_to_aut)
        with pytest.raises(InternalInconsistency):
            byott_check(C4, V4)


class TestCriteria:
    def test_childs_arithmetic(self):
        assert childs_criterion(group_by_name("C15"))
        assert not childs_criterion(group_by_name("C6"))   # 2 | 3-1
        assert not childs_criterion(group_by_name("Q8"))   # not cyclic
        assert childs_criterion(group_by_name("C2"))
        assert childs_criterion(group_by_name("C9"))

    def test_c6_has_non_surjective_structure(self):
        reps = enumerate_reports(group_by_name("C6"))
        assert any(not r.is_surjective for r in reps)

    def test_c15_all_surjective(self):
        assert all_surjective(group_by_name("C15"))

    def test_q8_not_all_surjective(self):
        assert not all_surjective(group_by_name("Q8"))


def per_operation_all_surjective(G):
    """The definition all_surjective replaced: every operation's own
    report, carried along its phi, is surjective."""
    return all(r.is_surjective for r in enumerate_reports(G))


class TestAllSurjective:
    """all_surjective analyzes one representative per class, as
    surjectivity is an Aut(circ)-orbit invariant; the per-operation
    definition is the oracle."""

    def test_matches_per_operation_definition_on_served_groups(self):
        answers = Counter()
        for G in SERVED:
            answer = all_surjective(G)
            assert answer == per_operation_all_surjective(G), G.name
            answers[answer] += 1
        assert answers[True] and answers[False]

    @pytest.mark.usefixtures("fresh_census")
    def test_one_analysis_per_class(self, monkeypatch):
        # the census analyzes each class once, on its own circ, whichever
        # reader asks first and under whatever name: the class record
        # holds the report, and the reports, the sums and the surjectivity
        # of every later reader are read off it
        calls = []
        analyze_class = analysis._analyze

        def counting(B, type_name, orbit_size):
            calls.append(B)
            return analyze_class(B, type_name, orbit_size)

        monkeypatch.setattr(analysis, "_analyze", counting)
        for G in (group_by_name(name) for name in ("C4", "Q8", "C6")):
            callers = [G.with_name("tmp"), G, G, G]
            calls.clear()
            enumerate_reports(callers[0])
            enumerate_reports(callers[1])
            all_surjective(callers[2])
            e_count(callers[3], G)
            records = analysis._enumerate_classes(G.table)
            assert len(calls) == len(records) > 0, G.name
            assert {id(B.dot) for B in calls} \
                == {id(report.operation) for _, _, report in records}, G.name
            assert all(B.circ == G for B in calls), G.name
            assert not any(B.circ is caller
                           for B in calls for caller in callers), G.name

    @pytest.mark.usefixtures("fresh_census")
    def test_census_keeps_no_callers_handle(self):
        # the census caches are keyed on tables: once the caller drops its
        # group, nothing the census, the counts or all_surjective cached
        # holds it
        G = group_by_name("C4").with_name("tmp")
        ref = weakref.ref(G)
        enumerate_reports(G)
        assert e_count(G, G) == f_count(G, G) == 1
        assert all_surjective(G)
        del G
        gc.collect()
        assert ref() is None

    @requires_heavy
    def test_matches_per_operation_definition_on_non_cyclic_order_27(self):
        targets = [G for G in groups_of_order(27) if not G.is_cyclic()]
        assert len(targets) == 4
        for G in targets:
            assert all_surjective(G) == per_operation_all_surjective(G), \
                G.name


class TestStructuralInvariants:
    def test_coprime_direct_product_of_surjective_factors(self):
        # surjective-image factors of coprime order assemble into a
        # surjective product structure
        from skewbrace.braces import product_brace
        from skewbrace.constructions import inversion_construction

        B1 = inversion_construction(group_by_name("C5"))  # order 10
        B2 = trivial_brace(group_by_name("C3"))           # order 3
        assert analyze(B1).is_surjective and analyze(B2).is_surjective
        P = product_brace(B1, B2)
        assert P.order == 30
        assert analyze(P).is_surjective

    def test_characteristic_count_forces_surjectivity(self):
        # whenever dot has as many characteristic subgroups as circ has
        # subgroups, the structure is surjective
        for name in ("Q8", "C8", "D4", "C6"):
            G = group_by_name(name)
            n_subs = len(subgroups(G))
            for B in enumerate_operations(G):
                n_char = len(distinguished_subgroups(B.dot).characteristic)
                if n_char == n_subs:
                    assert analyze(B).is_surjective


class TestKohl:
    def test_self_type_never_obstructed(self):
        for name in ("C8", "Q8", "A4"):
            G = group_by_name(name)
            assert kohl_obstruction(G, G) is None

    def test_q8_vs_c8_unobstructed(self):
        assert kohl_obstruction(group_by_name("Q8"),
                                group_by_name("C8")) is None

    def test_elementary_abelian_vs_c8(self):
        # one characteristic subgroup of each order in C8 never exceeds
        # the subgroup counts of the elementary abelian group
        assert kohl_obstruction(group_by_name("C2xC2xC2"),
                                group_by_name("C8")) is None

    def test_obstruction_found_when_counts_cross(self):
        # every subgroup of a cyclic group is characteristic, and C12 has
        # one of order 6 while A4 has none: order 6 witnesses, and the
        # census must contain no cyclic-type structure on A4
        w = kohl_obstruction(group_by_name("A4"), group_by_name("C12"))
        assert w == 6
        assert e_count(group_by_name("A4"), group_by_name("C12")) == 0


class TestSurjectivePowerAuto:
    def test_trivial(self):
        assert surjective_iff_power_auto(trivial_brace(group_by_name("D4")))

    def test_inversion_c5(self):
        assert surjective_iff_power_auto(
            inversion_construction(group_by_name("C5")))

    def test_cyclic_type_on_q8_false(self):
        reps = enumerate_reports(group_by_name("Q8"))
        target = next(r for r in reps
                      if r.type_name == "C8" and r.is_bi_skew)
        B = make_brace(target.operation, group_by_name("Q8"))
        assert surjective_iff_power_auto(B) is False

    def test_requires_bi_skew(self):
        B = not_bi_skew_on_c6()
        assert not is_bi_skew(B)
        with pytest.raises(NotBiSkew):
            surjective_iff_power_auto(B)

    def test_never_inconsistent_across_census(self):
        for name in ("C6", "D3", "C4", "C2xC2", "D4"):
            for B in enumerate_operations(group_by_name(name)):
                if is_bi_skew(B):
                    surjective_iff_power_auto(B)
