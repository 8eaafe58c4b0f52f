"""Brace layer: the compatibility law, gamma, ideals, opposites, products."""

import pytest
from conftest import not_bi_skew_on_c6, requires_heavy

from skewbrace import analysis, braces
from skewbrace.braces import (
    GammaTable,
    SkewBrace,
    almost_trivial_brace,
    brace_automorphism_count,
    brace_automorphisms,
    brace_isomorphism,
    fix,
    gamma,
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
from skewbrace.catalog import group_by_name, groups_of_order
from skewbrace.cli import _axiom_battery
from skewbrace.constructions import cpr_cps_brace, semidirect_to_brace
from skewbrace.errors import (
    BraceLawViolated,
    IdentityMismatch,
    InternalInconsistency,
    NotAnIdeal,
    NotALeftIdeal,
    NotBiSkew,
    NotBraceAutomorphismAction,
)
from skewbrace.groups import (
    automorphisms,
    distinguished_subgroups,
    generating_set,
    inversion_action,
    is_normal,
    is_subgroup,
    opposite_group,
    subgroups,
)


def braces_under_test():
    out = []
    for order in (2, 4, 6, 8):
        for G in groups_of_order(order):
            out.append(trivial_brace(G))
            out.append(almost_trivial_brace(G))
    out.append(cpr_cps_brace(2, 1, 1))
    out.append(cpr_cps_brace(2, 2, 1))
    C3 = group_by_name("C3")
    out.append(semidirect_to_brace(C3, group_by_name("C2"),
                                   inversion_action(C3)))
    return out


class TestMakeBrace:
    @pytest.mark.parametrize("name", ["C4", "D3", "Q8", "A4"])
    def test_trivial_and_almost_trivial_always_valid(self, name):
        G = group_by_name(name)
        make_brace(G, G)
        make_brace(opposite_group(G), G)

    def test_cyclic_dot_on_klein_circ(self):
        """Validity depends on the specific tables: every cyclic labeling
        is compatible with the Klein table (the census lists all three),
        while relabeling the cyclic table against itself breaks the law."""
        from skewbrace.analysis import enumerate_operations

        C4, V4 = group_by_name("C4"), group_by_name("C2xC2")
        B = make_brace(C4, V4)
        assert B.dot.is_cyclic()
        census = {Br.dot.table for Br in enumerate_operations(V4)}
        assert C4.table in census
        # cyclic table with the involution relabeled to 1: not a brace
        # over the standard cyclic table
        relabeled = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
        perm = (0, 2, 1, 3)
        bad = [[0] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                bad[perm[a]][perm[b]] = perm[relabeled[a][b]]
        with pytest.raises(BraceLawViolated):
            make_brace(bad, C4)

    def test_order_mismatch(self):
        with pytest.raises(IdentityMismatch):
            make_brace(group_by_name("C2"), group_by_name("C4"))


class TestGamma:
    def test_trivial_brace_has_identity_gamma(self):
        G = group_by_name("D4")
        assert all(m == tuple(range(8))
                   for m in gamma(trivial_brace(G)).maps)

    def test_almost_trivial_gamma_is_conjugation(self):
        G = group_by_name("Q8")
        g = gamma(almost_trivial_brace(G))
        for s in range(8):
            assert g(s) == tuple(G.conj(t, s) for t in range(8))

    def test_semidirect_brace_gamma_formula(self):
        # gamma(c,d) acts on the first coordinate through the action
        C3 = group_by_name("C3")
        act = inversion_action(C3)
        B = semidirect_to_brace(C3, group_by_name("C2"), act)
        g = gamma(B)
        for c in range(3):
            for d in range(2):
                expected = tuple(act[d][a] * 2 + b
                                 for a in range(3) for b in range(2))
                assert g(c * 2 + d) == expected


class TestOpposite:
    def test_involution(self):
        for B in braces_under_test():
            assert opposite(opposite(B)).dot.table == B.dot.table

    def test_abelian_dot_fixed(self):
        B = trivial_brace(group_by_name("C6"))
        assert opposite(B).is_trivial()

    def test_trivial_q8_opposite_is_almost_trivial_with_dot_circ(self):
        Q8 = group_by_name("Q8")
        opp = opposite(trivial_brace(Q8))
        assert opp.dot.table == opposite_group(Q8).table
        assert opp.circ.table == Q8.table


class TestIdeals:
    def test_trivial_brace_left_ideals_are_subgroups(self):
        G = group_by_name("D4")
        B = trivial_brace(G)
        assert set(left_ideals(B)) == set(subgroups(G))
        assert set(ideals(B)) == set(distinguished_subgroups(G).normal)

    def test_almost_trivial_left_ideals_are_normal_subgroups(self):
        G = group_by_name("D4")
        B = almost_trivial_brace(G)
        assert set(left_ideals(B)) == set(distinguished_subgroups(G).normal)

    def test_strong_left_ideals_intersection_identity(self):
        for B in braces_under_test():
            strong = set(strong_left_ideals(B))
            inter = set(left_ideals(B)) & set(left_ideals(opposite(B)))
            assert strong == inter

    def test_bi_skew_left_ideal_coincidence(self):
        for B in braces_under_test():
            if is_bi_skew(B):
                assert set(left_ideals(B)) == set(left_ideals(swap(B)))

    def test_fix_is_left_ideal(self):
        for B in braces_under_test():
            assert fix(B) in left_ideals(B)

    def test_fix_values(self):
        Q8 = group_by_name("Q8")
        assert fix(trivial_brace(Q8)) == tuple(range(8))
        assert fix(almost_trivial_brace(Q8)) == \
            distinguished_subgroups(Q8).center


def dot_lattice_left_ideals(B):
    """Oracle: left_ideals as read off the subgroups of dot, those that
    gamma(s) keeps for every generator s of circ, each checked to be a
    subgroup of circ."""
    maps = [gamma(B)(s) for s in generating_set(B.circ)]
    out = []
    for s in subgroups(B.dot):
        members = frozenset(s)
        if all(members.issuperset(map(m.__getitem__, s)) for m in maps):
            assert is_subgroup(B.circ, members)
            out.append(s)
    return tuple(out)


def census_class_braces(orders):
    """One brace per census class of every catalog target of the orders."""
    return [SkewBrace(report.operation, G)
            for n in orders for G in groups_of_order(n)
            for _, _, report in analysis._enumerate_classes(G.table)]


def assert_left_ideals_match_dot_lattice(pool):
    for B in pool:
        expected = dot_lattice_left_ideals(B)
        assert left_ideals(B) == expected
        strong = tuple(s for s in expected if is_normal(B.dot, s))
        assert strong_left_ideals(B) == strong
        assert ideals(B) == tuple(s for s in strong if is_normal(B.circ, s))


class TestLeftIdealsFromCircLattice:
    """left_ideals filters the subgroups of circ; it gives the tuple the
    filter of the subgroups of dot gave, as the gamma-invariant subgroups
    of either operation are those of the other."""

    def test_census_classes_up_to_order_15(self):
        pool = census_class_braces(range(1, 16))
        assert len(pool) > 100
        assert any(set(subgroups(B.circ)) != set(subgroups(B.dot))
                   for B in pool)
        assert_left_ideals_match_dot_lattice(pool)

    @requires_heavy
    def test_census_classes_of_order_27(self):
        assert_left_ideals_match_dot_lattice(census_class_braces([27]))

    def test_axiom_battery_with_opposites_and_swaps(self):
        battery = _axiom_battery()
        pool = [*battery, *map(opposite, battery),
                *(swap(B) for B in battery if is_bi_skew(B))]
        assert len(pool) > len(battery) * 2
        assert_left_ideals_match_dot_lattice(pool)

    def test_a_gamma_breaking_dot_closure_is_caught(self, monkeypatch):
        # with every gamma value the identity, every circ-subgroup passes
        # the invariance test, and one that is no dot-subgroup must fire
        B = next(B for B in census_class_braces(range(1, 9))
                 if not set(subgroups(B.circ)) <= set(subgroups(B.dot)))
        identity = GammaTable((tuple(range(B.order)),) * B.order)
        monkeypatch.setattr(braces, "gamma", lambda X: identity)
        left_ideals.cache_clear()
        try:
            with pytest.raises(InternalInconsistency,
                               match="left ideal not dot-closed"):
                left_ideals(B)
        finally:
            left_ideals.cache_clear()

    @pytest.mark.parametrize("dropped", [1, 8])
    def test_analyze_refuses_an_image_without_an_end(self, monkeypatch,
                                                     dropped):
        real = analysis.left_ideals
        monkeypatch.setattr(analysis, "left_ideals", lambda X: tuple(
            s for s in real(X) if len(s) != dropped))
        with pytest.raises(InternalInconsistency,
                           match="trivial or the full subgroup"):
            analysis.analyze(trivial_brace(group_by_name("D4")))


class TestBiSkew:
    def test_trivial_and_almost_trivial(self):
        for name in ("C6", "D4", "A4"):
            G = group_by_name(name)
            assert is_bi_skew(trivial_brace(G))
            assert is_bi_skew(almost_trivial_brace(G))

    def test_cpr_221_golden(self):
        # frozen value of the direct gamma-in-Aut(circ) test
        assert is_bi_skew(cpr_cps_brace(2, 2, 1))

    def test_swap_requires_bi_skew(self):
        B = not_bi_skew_on_c6()
        assert not is_bi_skew(B)
        with pytest.raises(NotBiSkew):
            swap(B)


class TestBraceIsomorphism:
    def test_self_isomorphism(self):
        B = almost_trivial_brace(group_by_name("D4"))
        f = brace_isomorphism(B, B)
        assert f is not None and f.images[0] == 0

    def test_trivial_brace_automorphism_count(self):
        for name in ("C6", "D4", "Q8"):
            G = group_by_name(name)
            assert brace_automorphism_count(trivial_brace(G)) == \
                len(automorphisms(G))

    def test_automorphisms_name_the_asking_circ(self):
        # equal braces on two handles of one table: the maps are built on
        # the circ asked about, whichever brace was asked first
        G = group_by_name("C4")
        R = G.with_name("renamed")
        first = brace_automorphisms(trivial_brace(G))
        maps = brace_automorphisms(SkewBrace(R, R))
        assert all(f.source is G and f.target is G for f in first)
        assert all(f.source is R and f.target is R for f in maps)
        assert [f.images for f in maps] == [f.images for f in first]
        assert brace_automorphism_count(SkewBrace(R, R)) \
            == brace_automorphism_count(trivial_brace(G)) == len(maps) == 2

    def test_non_isomorphic_dots(self):
        B1 = trivial_brace(group_by_name("C4"))
        B2 = cpr_cps_brace(2, 1, 1)  # dot cyclic, circ V4
        assert brace_isomorphism(B1, B2) is None

    def test_different_orders(self):
        assert brace_isomorphism(trivial_brace(group_by_name("C2")),
                                 trivial_brace(group_by_name("C3"))) is None

    def test_trivial_vs_almost_trivial_on_q8(self):
        Q8 = group_by_name("Q8")
        assert brace_isomorphism(trivial_brace(Q8),
                                 almost_trivial_brace(Q8)) is None


class TestQuotientAndSub:
    def test_quotient_by_whole(self):
        B = almost_trivial_brace(group_by_name("Q8"))
        q = quotient_brace(B, tuple(range(8)))
        assert q.order == 1 and q.is_trivial()

    def test_sub_at_identity(self):
        B = almost_trivial_brace(group_by_name("Q8"))
        s = sub_brace(B, (0,))
        assert s.order == 1

    def test_q8_almost_trivial_mod_center(self):
        Q8 = group_by_name("Q8")
        B = almost_trivial_brace(Q8)
        q = quotient_brace(B, distinguished_subgroups(Q8).center)
        assert q.order == 4 and q.is_trivial()

    def test_rejects_non_ideal(self):
        B = cpr_cps_brace(2, 1, 1)
        with pytest.raises(NotAnIdeal):
            quotient_brace(B, (0, 2))  # the non-closed first factor

    def test_rejects_non_left_ideal(self):
        B = cpr_cps_brace(2, 1, 1)
        with pytest.raises(NotALeftIdeal):
            sub_brace(B, (0, 2))


class TestProductBrace:
    def test_direct_of_trivials_is_trivial(self):
        P = product_brace(trivial_brace(group_by_name("C3")),
                          trivial_brace(group_by_name("C4")))
        assert P.is_trivial()

    def test_direct_gamma_acts_componentwise(self):
        B1 = almost_trivial_brace(group_by_name("D3"))
        B2 = almost_trivial_brace(group_by_name("C2"))
        P = product_brace(B1, B2)
        g, g1 = gamma(P), gamma(B1)
        n2 = 2
        for s1 in range(6):
            for s2 in range(n2):
                m = g(s1 * n2 + s2)
                for t1 in range(6):
                    for t2 in range(n2):
                        assert m[t1 * n2 + t2] == g1(s1)[t1] * n2 + t2

    def test_semidirect_memberships(self):
        C3 = group_by_name("C3")
        B1 = trivial_brace(C3)
        B2 = trivial_brace(group_by_name("C2"))
        act = (tuple(range(3)), C3.inverse)
        P = product_brace(B1, B2, action=act)
        assert (0, 2, 4) in ideals(P)            # first factor
        assert (0, 1) in strong_left_ideals(P)   # second factor
        assert (0, 1) not in ideals(P)

    def test_rejects_non_brace_automorphism(self):
        B1 = cpr_cps_brace(2, 1, 1)
        B2 = trivial_brace(group_by_name("C2"))
        # (0,2,1,3) is an automorphism of the Klein circ but does not
        # preserve the twisted dot
        bad = (0, 2, 1, 3)
        assert bad not in {f.images for f in brace_automorphisms(B1)}
        with pytest.raises(NotBraceAutomorphismAction):
            product_brace(B1, B2, action=(tuple(range(4)), bad))


class TestMetatrivial:
    def test_trivial_brace_witnessed_by_whole_group(self):
        G = group_by_name("D4")
        assert is_metatrivial(trivial_brace(G)) is not None

    def test_almost_trivial_q8(self):
        Q8 = group_by_name("Q8")
        w = is_metatrivial(almost_trivial_brace(Q8))
        assert w == distinguished_subgroups(Q8).center

    def test_almost_trivial_a4_has_no_witness(self):
        # A4 mod the Klein ideal is C3 but the sub-brace on it is nonabelian
        B = almost_trivial_brace(group_by_name("A4"))
        w = is_metatrivial(B)
        if w is not None:
            assert sub_brace(B, w).is_trivial()
            assert quotient_brace(B, w).is_trivial()
