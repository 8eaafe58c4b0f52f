"""Explicit brace constructions and their advertised properties."""

import pytest

from skewbrace.braces import (
    almost_trivial_brace,
    gamma,
    is_bi_skew,
    is_metatrivial,
    left_ideals,
    opposite,
)
from skewbrace.catalog import group_by_name
from skewbrace.constructions import (
    all_psi_braces,
    class2_construction,
    cpr_cps_brace,
    inversion_construction,
    norm_mod_center,
    psi_construction,
    semidirect_to_brace,
)
from skewbrace.errors import (
    BadParameters,
    NotAbelian,
    NotAHomomorphism,
    NotClassTwo,
    NotIntoNormModCenter,
)
from skewbrace import groups
from skewbrace.groups import (
    FiniteGroup,
    distinguished_subgroups,
    inversion_action,
    isomorphism,
    quotient,
    subgroup_group,
    subgroups,
)


class TestPsiConstruction:
    def test_trivial_psi_gives_trivial_brace(self):
        G = group_by_name("Q8")
        B = psi_construction(G, [0] * 8)
        assert B.is_trivial()

    def test_q8_sixteen_distinct(self):
        braces = all_psi_braces(group_by_name("Q8"))
        assert len(braces) == 16
        assert len({B.dot.table for B in braces}) == 16

    def test_exponent9_order27_nine_surjective(self):
        G = group_by_name("M27")
        braces = all_psi_braces(G)
        assert len(braces) == 9
        for B in braces:
            assert set(left_ideals(B)) == set(subgroups(G))

    def test_norm_mod_center_abelian(self):
        # holds for every catalog group by a classical theorem; spot-check
        for name in ("Q8", "D4", "A4", "M27", "Heisenberg-27", "D6"):
            Q, _ = norm_mod_center(group_by_name(name))
            assert Q.is_abelian()

    @pytest.mark.parametrize("name", ["Q8", "D4", "A4", "M27", "D6"])
    def test_norm_mod_center_matches_the_quotient_of_the_norm(self, name):
        G = group_by_name(name)
        dist = distinguished_subgroups(G)
        norm, elems = subgroup_group(G, dist.norm)
        Q, proj = quotient(norm, [elems.index(z) for z in dist.center])
        cosets = [tuple(g for local, g in enumerate(elems)
                        if proj(local) == q) for q in range(Q.order)]
        got, got_cosets = norm_mod_center(G)
        assert got.table == Q.table and list(got_cosets) == cosets

    def test_norm_mod_center_once_per_table(self, monkeypatch):
        made = []
        monkeypatch.setattr(groups, "subgroup_group",
                            lambda G, sub: made.append(G) or
                            subgroup_group(G, sub))
        Q8 = group_by_name("Q8")
        fresh = FiniteGroup(Q8.table, "fresh")
        first = norm_mod_center(fresh)
        assert norm_mod_center(fresh.with_name("renamed")) is first
        assert norm_mod_center(fresh) is first and len(made) == 1
        M27 = group_by_name("M27")
        assert norm_mod_center(M27.with_name("M27 renamed")) \
            is norm_mod_center(M27)

    def test_quotient_types(self):
        Q, _ = norm_mod_center(group_by_name("Q8"))
        assert isomorphism(Q, group_by_name("C2xC2")) is not None
        Q27, _ = norm_mod_center(group_by_name("M27"))
        assert isomorphism(Q27, group_by_name("C3")) is not None

    def test_rejects_non_homomorphism(self):
        G = group_by_name("Q8")
        with pytest.raises(NotAHomomorphism):
            psi_construction(G, [0, 1, 0, 0, 0, 0, 0, 0])

    def test_rejects_out_of_range(self):
        G = group_by_name("Q8")
        with pytest.raises(NotIntoNormModCenter):
            psi_construction(G, [0, 7, 0, 0, 0, 0, 0, 0])

    def test_rejects_lift_of_wrong_length(self):
        G = group_by_name("Q8")
        _, cosets = norm_mod_center(G)
        reps = tuple(c[0] for c in cosets)
        for lift in ((), reps[:-1], reps + (0,)):
            with pytest.raises(NotIntoNormModCenter):
                psi_construction(G, [0] * 8, lift=lift)

    def test_lift_independence_explicit(self):
        G = group_by_name("Q8")
        Q, cosets = norm_mod_center(G)
        psi = all_psi_braces(G)  # asserts run inside
        # pick a nontrivial homomorphism and perturb the lift
        from skewbrace.groups import homomorphisms
        f = next(h for h in homomorphisms(G, Q)
                 if any(x != 0 for x in h.images))
        for pick in (0, -1):
            B = psi_construction(G, f, lift=[c[pick] for c in cosets])
            assert B.dot.table == psi_construction(G, f).dot.table


class TestClass2Construction:
    def test_abelian_gives_trivial(self):
        B = class2_construction(group_by_name("C12"))
        assert B.is_trivial()

    def test_heisenberg_differs_from_almost_trivial(self):
        H = group_by_name("Heisenberg-27")
        B = class2_construction(H)
        assert B.dot.table != almost_trivial_brace(H).dot.table
        # image is exactly the normal subgroups of circ
        assert set(left_ideals(B)) == \
            set(distinguished_subgroups(H).normal)

    def test_q8_squares_central_so_equals_almost_trivial(self):
        Q8 = group_by_name("Q8")
        B = class2_construction(Q8)
        assert B.dot.table == almost_trivial_brace(Q8).dot.table

    def test_rejects_higher_class(self):
        with pytest.raises(NotClassTwo):
            class2_construction(group_by_name("A4"))

    def test_metatrivial(self):
        # braces from the norm construction are metatrivial
        for B in all_psi_braces(group_by_name("Q8"))[:4]:
            assert is_metatrivial(B) is not None


class TestInversionConstruction:
    def test_trivial_factor(self):
        B = inversion_construction(group_by_name("C1"))
        assert B.order == 2 and B.is_trivial()

    def test_c5(self):
        B = inversion_construction(group_by_name("C5"))
        assert isomorphism(B.circ, group_by_name("C10")) is not None
        assert isomorphism(B.dot, group_by_name("D5")) is not None
        assert is_bi_skew(B)

    def test_exponent_two_collapses(self):
        B = inversion_construction(group_by_name("C2xC2"))
        assert B.is_trivial()

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            inversion_construction(group_by_name("D3"))


class TestSemidirectToBrace:
    def test_trivial_action(self):
        C3, C4 = group_by_name("C3"), group_by_name("C4")
        from skewbrace.groups import trivial_action
        B = semidirect_to_brace(C3, C4, trivial_action(C3, C4))
        assert B.is_trivial()

    def test_c3_by_c2(self):
        C3 = group_by_name("C3")
        B = semidirect_to_brace(C3, group_by_name("C2"),
                                inversion_action(C3))
        assert isomorphism(B.circ, group_by_name("D3")) is not None
        assert isomorphism(B.dot, group_by_name("C6")) is not None

    def test_c7_by_c3_left_ideal_status(self):
        C7, C3 = group_by_name("C7"), group_by_name("C3")
        # order-3 action: multiplication by 2 (2^3 = 8 = 1 mod 7)
        act = tuple(tuple((a * pow(2, j, 7)) % 7 for a in range(7))
                    for j in range(3))
        B = semidirect_to_brace(C7, C3, act)
        second = tuple(range(3))  # {0} x C3
        assert second in left_ideals(B)
        # dot is abelian so the opposite brace coincides with itself
        assert opposite(B).dot.table == B.dot.table


class TestCprCps:
    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            cpr_cps_brace(4, 1, 1)
        with pytest.raises(BadParameters):
            cpr_cps_brace(2, 1, 2)
        with pytest.raises(BadParameters):
            cpr_cps_brace(3, 3, 3)

    def test_p2_first_factor_not_left_ideal(self):
        B = cpr_cps_brace(2, 1, 1)
        assert (0, 2) not in left_ideals(B)
        assert isomorphism(B.dot, group_by_name("C4")) is not None

    def test_p3_non_surjective_witness(self):
        B = cpr_cps_brace(3, 1, 1)
        assert B.order == 9
        assert len(left_ideals(B)) < len(subgroups(B.circ))

    def test_221_dot_type(self):
        B = cpr_cps_brace(2, 2, 1)
        assert isomorphism(B.dot, group_by_name("C4xC2")) is not None

    def test_circ_is_direct_product_table(self):
        from skewbrace.catalog import cyclic
        from skewbrace.groups import direct_product
        B = cpr_cps_brace(3, 1, 1)
        assert B.circ.table == \
            direct_product(cyclic(3), cyclic(3)).table


class TestGammaFormulas:
    def test_psi_gamma_is_conjugation_by_inverse_rep(self):
        # asserted inside psi_construction; touch one instance
        G = group_by_name("Q8")
        B = all_psi_braces(G)[3]
        assert is_bi_skew(B)

    def test_inversion_gamma_inverts_or_fixes(self):
        B = inversion_construction(group_by_name("C5"))
        g = gamma(B)
        circ = B.circ
        for s in range(10):
            m = g(s)
            assert m == tuple(range(10)) or m == circ.inverse
