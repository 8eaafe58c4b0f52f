"""Group core: construction, lattices, automorphisms, products.

Derived expected values are computed here by independent brute force
(closing every subset, trying every bijection) and compared against the
library's algorithms.
"""

import dataclasses
import itertools
import weakref

import pytest

from conftest import fresh_group
from skewbrace import groups
from skewbrace.analysis import enumerate_reports
from skewbrace.braces import make_brace
from skewbrace.catalog import catalog_names, group_by_name, groups_of_order
from skewbrace.errors import (
    BadParameters,
    InternalInconsistency,
    NoIdentityAtZero,
    NotAHomomorphism,
    NotAssociative,
    NotAutomorphism,
    NotLatinSquare,
    NotNormal,
)
from skewbrace.groups import (
    GroupMap,
    automorphisms,
    closure,
    cyclic_subgroup,
    direct_product,
    distinguished_subgroups,
    fingerprint,
    generating_set,
    homomorphisms,
    inversion_action,
    is_homomorphism,
    is_normal,
    is_power_automorphism,
    is_subgroup,
    isomorphism,
    make_group,
    quotient,
    semidirect_product,
    subgroups,
    trivial_action,
)


def count_checks(monkeypatch):
    """The rows of every table make_group checks from now on."""
    checked = []
    check = groups._check_table

    def counted(G, given):
        checked.append(G.table)
        check(G, given)

    monkeypatch.setattr(groups, "_check_table", counted)
    return checked


def brute_force_subgroups(G):
    """Oracle: every subset of the element set that is a subgroup."""
    return {s for r in range(1, G.order + 1)
            for s in itertools.combinations(range(G.order), r)
            if is_subgroup(G, s)}


def brute_force_automorphisms(G):
    """Oracle: try every bijection fixing 0 against the table."""
    n = G.order
    out = []
    for perm in itertools.permutations(range(1, n)):
        images = (0,) + perm
        if all(images[G.table[a][b]] == G.table[images[a]][images[b]]
               for a in range(n) for b in range(n)):
            out.append(images)
    return out


def brute_force_isomorphism_exists(G, H):
    if G.order != H.order:
        return False
    n = G.order
    for perm in itertools.permutations(range(1, n)):
        images = (0,) + perm
        if all(images[G.table[a][b]] == H.table[images[a]][images[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


class TestMakeGroup:
    def test_c2(self):
        G = make_group([[0, 1], [1, 0]])
        assert G.order == 2 and G.inverse == (0, 1)

    def test_latin_square_rejected(self):
        with pytest.raises(NotLatinSquare):
            make_group([[0, 1], [1, 1]])

    def test_column_check_alone_catches(self):
        # every row is a permutation and row 0 and column 0 are the
        # identity: only column 2, (2, 3, 0, 2), repeats an entry
        with pytest.raises(NotLatinSquare,
                           match="column 2 is not a permutation of 0..3"):
            make_group([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1],
                        [3, 0, 2, 1]])

    def test_identity_required_at_zero(self):
        with pytest.raises(NoIdentityAtZero):
            make_group([[1, 0], [0, 1]])

    def test_rectangular_rejected(self):
        with pytest.raises(NotLatinSquare):
            make_group([[0, 1], [1]])

    @pytest.mark.parametrize("table", [[[0, 1], [1, 0.5]], [["a"]],
                                       [[0, 1], [1, None]], 5, None, [1]])
    def test_non_integer_entry_rejected(self, table):
        with pytest.raises(NotLatinSquare, match="row"):
            make_group(table)

    def test_associativity_rejected(self):
        # rows/columns are permutations but (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAssociative):
            make_group(table)

    def test_q8_element_orders(self):
        Q8 = group_by_name("Q8")
        orders = [Q8.element_order(a) for a in range(8)]
        assert orders.count(2) == 1  # unique involution


# a Latin square with identity 0 that is not associative: (1*2)*2 = 4
# but 1*(2*2) = 1
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))

# every fact a FiniteGroup computes on first use that compares by value
# (the relabeling steps hold itemgetters)
FACTS = ("_table_hash", "columns", "inverse", "element_orders",
         "central", "_generators", "_fingerprint", "_transversals",
         "_subgroup_members", "_cyclic_powers", "_conjugation_rows",
         "_automorphisms", "_aut_generators", "_distinguished")


def units_mod(p):
    """The units mod the prime p, the unit x as the element x - 1: a
    table no other test builds."""
    return [[a * b % p - 1 for b in range(1, p)] for a in range(1, p)]


class TestFiniteGroupContract:
    """Equality and hash are the table's; the hash, element orders and
    centre flags are cached on first use and match a recomputation.  A
    group is a plain named handle: every handle on a live table, made
    under any name by any route, shares the table's one store of facts,
    and the registry keeps no handle and no store alive.  make_group
    checks a table until it has passed once."""

    def test_one_live_table_gives_one_instance(self):
        # one live table has one store, whichever route hands it out
        G = group_by_name("D4")
        rows = [list(row) for row in G.table]
        for same in (make_group(rows, "D4"), groups.FiniteGroup(rows, "D4"),
                     G.with_name("D4")):
            assert same == G and vars(same) is vars(G) and same.name == "D4"
        H = make_group(rows)
        assert H == G and vars(H) is vars(G) and H.name is None
        for same in (make_group(G.table),
                     groups.opposite_group(groups.opposite_group(H)),
                     groups.subgroup_group(H, range(8))[0],
                     groups.quotient(H, [0])[0]):
            assert same == H and vars(same) is vars(H) and same.name is None

    def test_registry_keeps_no_group_alive(self):
        # C7 with the labels 1 and 2 swapped, a table no other test holds:
        # the facts of a table live while any instance of it does
        swap = (0, 2, 1, 3, 4, 5, 6)
        table = tuple(tuple(swap[(swap[a] + swap[b]) % 7] for b in range(7))
                      for a in range(7))
        G = make_group(table, "registry probe")
        ref = weakref.ref(G)
        assert generating_set(G) == (1,)
        # every fact lives in the table's store, and none refers back to G:
        # the maps of Aut(G) are built on each call
        assert len(subgroups(G)) == 2 and len(automorphisms(G)) == 6
        assert distinguished_subgroups(G).center == tuple(range(7))
        assert len(G._aut_generators) == 1
        del G
        assert ref() is None
        assert table not in {
            facts["table"] for facts in list(groups._LIVE.values())}
        again = make_group(table, "registry probe")
        assert again.table == table and "element_orders" not in vars(again)

    def test_non_associative_table_is_never_handed_out(self):
        assert LOOP5[LOOP5[1][2]][2] != LOOP5[1][LOOP5[2][2]]
        for _ in range(2):
            for name in (None, "loop"):
                with pytest.raises(NotAssociative):
                    make_group(LOOP5, name)
        assert all(facts["table"] != LOOP5
                   for facts in list(groups._LIVE.values()))
        # every check runs, also when an instance of the table is live
        trusted = groups.FiniteGroup(LOOP5)
        with pytest.raises(NotAssociative):
            make_group(LOOP5)
        assert trusted.table == LOOP5

    def test_a_checked_table_is_not_checked_again(self, monkeypatch):
        checked = count_checks(monkeypatch)
        rows = units_mod(19)
        G = make_group(rows, "units mod 19")
        again = make_group(rows, "units mod 19")
        assert again == G and vars(again) is vars(G)
        assert again.name == "units mod 19"
        H = make_group(rows)
        assert H == G and vars(H) is vars(G) and H.name is None
        B = make_brace(rows, [list(row) for row in rows])
        assert B.dot == B.circ == G
        assert vars(B.dot) is vars(G) and vars(B.circ) is vars(G)
        assert len(checked) == 1

    def test_a_trusted_table_is_checked_once(self, monkeypatch):
        checked = count_checks(monkeypatch)
        rows = units_mod(23)
        trusted = groups.FiniteGroup(rows)
        assert "_checked" not in vars(trusted)
        G = make_group(rows)
        assert G == trusted and vars(G) is vars(trusted) and G.name is None
        named = make_group(rows, "units mod 23")
        assert vars(named) is vars(trusted) and named.name == "units mod 23"
        dot = make_brace(rows, trusted).dot
        assert dot == trusted and vars(dot) is vars(trusted)
        assert len(checked) == 1 and vars(trusted)["_checked"]

    def test_a_failing_table_is_checked_on_every_call(self, monkeypatch):
        checked = count_checks(monkeypatch)
        groups.FiniteGroup(LOOP5)
        for k in range(1, 4):
            with pytest.raises(NotAssociative):
                make_group(LOOP5)
            with pytest.raises(NotAssociative):
                make_brace(LOOP5, LOOP5)
            assert len(checked) == 2 * k

    @pytest.mark.parametrize("name", [["D4"], 4, b"D4"])
    def test_a_name_that_is_not_a_string_is_refused(self, name):
        # the name is the handle's own, beside the table's store
        with pytest.raises(BadParameters, match="must be a string"):
            make_group(group_by_name("D4").table, name)

    def test_make_group_keeps_the_transpose_it_checked(self):
        # the units mod 11, the unit x as the element x - 1
        rows = [[a * b % 11 - 1 for b in range(1, 11)] for a in range(1, 11)]
        G = make_group(rows, "units mod 11")
        fresh = fresh_group(G.table, "fresh")
        assert vars(fresh) is not vars(G)
        for fact in ("columns", "_generators"):
            assert vars(G)[fact] == getattr(fresh, fact)

    @pytest.mark.parametrize("name", catalog_names())
    def test_with_name_facts_equal_a_recomputation(self, name):
        G = group_by_name(name)
        for fact in FACTS:
            getattr(G, fact)
        renamed = G.with_name(f"{name} renamed")
        assert renamed is not G and renamed.name == f"{name} renamed"
        known = vars(renamed)
        fresh = fresh_group(G.table, "fresh")
        assert vars(fresh) is not vars(G)
        for fact in FACTS:
            assert known[fact] == getattr(fresh, fact), fact
        assert renamed.inverse == G.inverse == fresh.inverse

    def test_every_name_shares_the_facts_of_the_table(self):
        G = group_by_name("C4")
        automorphisms(G)
        renamed = G.with_name("renamed")
        assert renamed == G and vars(renamed) is vars(G)
        assert renamed.name == "renamed" and G.name == "C4"
        back = renamed.with_name("C4")
        assert back == G and vars(back) is vars(G) and back.name == "C4"
        assert all(f.source is renamed and f.target is renamed
                   for f in automorphisms(renamed))
        assert all(f.source is G for f in automorphisms(G))
        assert automorphisms(renamed) == automorphisms(G)

    def test_equal_tables_are_equal_and_hash_equal(self):
        G = group_by_name("D4")
        same = fresh_group(tuple(tuple(list(r)) for r in G.table), "other")
        assert vars(same) is not vars(G) and same.table is not G.table
        assert same == G and hash(same) == hash(G)
        assert G.with_name("renamed") == G
        assert hash(G.with_name("renamed")) == hash(G)
        assert G != group_by_name("Q8")

    def test_list_rows_are_stored_as_tuples(self):
        # a group made from list rows is the group of their tuples: equal
        # and hash-equal to the catalog's C2, and served by the census
        C2 = group_by_name("C2")
        G = groups.FiniteGroup([[0, 1], [1, 0]])
        assert G.table == C2.table
        assert G == C2 and hash(G) == hash(C2)
        assert enumerate_reports(G) == enumerate_reports(C2)

    @pytest.mark.parametrize("name", catalog_names())
    def test_cached_values_match_recomputation(self, name):
        G = group_by_name(name)
        n = G.order
        assert hash(G) == hash(G.table)
        assert G.element_orders == tuple(len(closure(G, [a]))
                                         for a in range(n))
        assert G.central == tuple(
            all(G.table[a][b] == G.table[b][a] for b in range(n))
            for a in range(n))
        assert G.is_cyclic() == any(len(cyclic_subgroup(G, a)) == n
                                    for a in range(n))

    def test_fields_stay_frozen(self):
        # filling the caches writes to the instance, not to its fields
        G = group_by_name("C6")
        assert G.element_orders[0] == 1 and G.central[0] and hash(G)
        for field, value in (("table", ((0,),)), ("inverse", (0,)),
                             ("name", "x")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(G, field, value)

    def test_equality_and_hash_read_the_table_only(self):
        G = group_by_name("D4")
        other = groups.FiniteGroup(G.table, "other")
        assert other == G and hash(other) == hash(G)
        assert G != groups.FiniteGroup(group_by_name("Q8").table, G.name)
        assert G != G.table and G != (G.table, G.inverse, G.name)

    def test_delete_is_refused(self):
        G = group_by_name("C6")
        assert G.element_orders[0] == 1
        for field in ("table", "inverse", "name", "element_orders"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(G, field)
        assert G.name == "C6" and G.element_orders[0] == 1

    def test_group_map_is_a_named_tuple(self):
        C2 = group_by_name("C2")
        f = GroupMap(C2, C2, (0, 1))
        assert repr(f) == ("GroupMap(source=FiniteGroup(C2), "
                           "target=FiniteGroup(C2), images=(0, 1))")
        assert f == (C2, C2, (0, 1)) and hash(f) == hash((C2, C2, (0, 1)))
        moved = f._replace(images=(1, 0))
        assert type(moved) is GroupMap and moved.images == (1, 0)
        assert moved.source is C2 and moved.target is C2
        with pytest.raises(AttributeError):
            f.images = (1, 0)


class TestSubgroups:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_order_has_two(self, p):
        assert len(subgroups(group_by_name(f"C{p}"))) == 2

    def test_d5_has_p_plus_3(self):
        assert len(subgroups(group_by_name("D5"))) == 8

    def test_q8_brute_force(self):
        Q8 = group_by_name("Q8")
        subs = subgroups(Q8)
        assert set(subs) == brute_force_subgroups(Q8)
        assert len(subs) == 6
        assert all(is_normal(Q8, s) for s in subs)

    @pytest.mark.parametrize("name", ["C6", "D3", "C4xC2", "D4", "A4"])
    def test_matches_brute_force(self, name):
        G = group_by_name(name)
        assert set(subgroups(G)) == brute_force_subgroups(G)

    def test_lattice_closed_under_meet_and_join(self):
        G = group_by_name("D6")
        subs = set(subgroups(G))
        for A in subs:
            for B in subs:
                meet = tuple(sorted(set(A) & set(B)))
                assert meet in subs
                assert closure(G, A + B) in subs

    def test_orders_divide(self):
        G = group_by_name("Dic3")
        assert all(G.order % len(s) == 0 for s in subgroups(G))


class TestAutomorphisms:
    def test_c2_trivial(self):
        auts = automorphisms(group_by_name("C2"))
        assert len(auts) == 1

    def test_v4_brute_force(self):
        V4 = group_by_name("C2xC2")
        auts = automorphisms(V4)
        assert len(auts) == 6
        assert {f.images for f in auts} == set(brute_force_automorphisms(V4))

    def test_q8_brute_force(self):
        Q8 = group_by_name("Q8")
        auts = automorphisms(Q8)
        assert len(auts) == 24
        assert {f.images for f in auts} == set(brute_force_automorphisms(Q8))

    @pytest.mark.parametrize("name,count",
                             [("C8", 4), ("D4", 8), ("C3xC3", 48),
                              ("C27", 18), ("C9xC3", 108),
                              ("C3xC3xC3", 11232),      # |GL(3,3)|
                              ("Heisenberg-27", 432),   # 9 * |GL(2,3)|
                              ("M27", 54)])
    def test_known_counts(self, name, count):
        assert len(automorphisms(group_by_name(name))) == count

    def test_group_closure(self):
        G = group_by_name("D4")
        auts = automorphisms(G)
        images = {f.images for f in auts}
        for f in auts:
            assert f.inverse_map().images in images
            for g in auts:
                assert f.compose(g).images in images

    def test_matches_brute_force_up_to_order_8(self):
        for order in range(1, 9):
            for G in groups_of_order(order):
                auts = [f.images for f in automorphisms(G)]
                assert len(set(auts)) == len(auts)
                assert sorted(auts) == sorted(brute_force_automorphisms(G))

    @pytest.mark.parametrize("order", [*range(1, 16), 27])
    def test_matches_homomorphisms(self, order):
        """The stabilizer-chain products are the bijective homomorphisms,
        map for map and in the same order."""
        for G in groups_of_order(order):
            assert [f.images for f in automorphisms(G)] == \
                [f.images for f in homomorphisms(G, G, bijective=True)], \
                G.name

    @pytest.mark.parametrize("order", [*range(1, 16), 27])
    def test_stream_is_the_chain_products(self, order):
        """The stream yields prod |T_k| maps, |T_k| counted as the images
        of g_k under the bijective homomorphisms fixing g_0..g_{k-1}, and
        as a set they are automorphisms(G)."""
        for G in groups_of_order(order):
            gens = generating_set(G)
            auts = [f.images for f in homomorphisms(G, G, bijective=True)]
            size = 1
            for k, g in enumerate(gens):
                size *= len({f[g] for f in auts
                             if all(f[h] == h for h in gens[:k])})
            stream = list(groups._automorphism_images(G))
            assert len(stream) == size == len(auts), G.name
            assert set(stream) == {f.images for f in automorphisms(G)}

    def test_repeated_product_refused(self, monkeypatch):
        """A transversal holding one map twice gives repeated products,
        which the stream refuses wherever it is read."""
        from skewbrace import perms

        complete = groups._Extender.complete
        depth = 0

        def twice_at_level_one(search, first_only):
            # the chain's level loop calls complete at depth 0; at level 1
            # g_0 and the tried image of g_1 are known
            nonlocal depth
            depth += 1
            try:
                done = complete(search, first_only)
            finally:
                depth -= 1
            if depth == 0 and done and len(search.gen_images) == 2:
                search.found.append(search.found[-1])
            return done

        monkeypatch.setattr(groups._Extender, "complete", twice_at_level_one)
        # a fresh instance, as each group keeps its chain once built
        C3xC3 = group_by_name("C3xC3")
        N = fresh_group(C3xC3.table)
        assert vars(N) is not vars(C3xC3)
        for read in (automorphisms, perms.holomorph,
                     perms.cyclic_regular_subgroups_in_holomorph,
                     perms._cyclic_keys_up_to_aut):
            with pytest.raises(InternalInconsistency,
                               match="products are not distinct"):
                read(N)
        # the chain N keeps holds each level-1 map twice, level 0 once
        outer, inner = N._transversals
        assert len(set(outer)) == len(outer)
        assert len(inner) == 2 * len(set(inner)) > 0

    @pytest.mark.parametrize("name,size",
                             [("C2xC2xC2", 2), ("C3xC3", 2),
                              ("C3xC3xC3", 2), ("Heisenberg-27", 3)])
    def test_generator_counts(self, name, size):
        """Walked by descending order, few maps generate Aut(G); closing
        them under composition gives every automorphism."""
        G = group_by_name(name)
        gens = G._aut_generators
        assert len(gens) == size
        reached = {tuple(range(G.order))}
        todo = list(reached)
        for x in todo:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
        assert reached == {f.images for f in automorphisms(G)}

    def test_generators_must_reach_every_map(self, monkeypatch):
        """A walk holding a map twice is not Aut(G), and the generated
        subgroup falls short of it."""
        real = groups._automorphism_images
        monkeypatch.setattr(groups, "_automorphism_images",
                            lambda G: [*real(G), *real(G)])
        # a fresh instance, as each group keeps its generators once found
        C3xC3 = group_by_name("C3xC3")
        fresh = fresh_group(C3xC3.table)
        assert vars(fresh) is not vars(C3xC3)
        with pytest.raises(InternalInconsistency,
                           match="do not reach all of Aut"):
            fresh._aut_generators

    def test_order_divides_factorial(self):
        import math
        for order in range(2, 9):
            for G in groups_of_order(order):
                assert math.factorial(G.order - 1) % len(automorphisms(G)) == 0


class TestHomomorphisms:
    def test_match_brute_force_up_to_order_6(self):
        """Every map fixing 0 that respects the tables, for every pair of
        catalog groups of order <= 6."""
        small = [G for order in range(1, 7) for G in groups_of_order(order)]
        for G in small:
            n = G.order
            for H in small:
                candidates = ((0,) + rest for rest in
                              itertools.product(range(H.order), repeat=n - 1))
                brute = sorted(
                    im for im in candidates
                    if all(im[G.table[a][b]] == H.table[im[a]][im[b]]
                           for a in range(n) for b in range(n)))
                maps = [f.images for f in homomorphisms(G, H)]
                assert len(set(maps)) == len(maps)
                assert sorted(maps) == brute, (G.name, H.name)
                # bijective=True keeps the bijective ones
                assert sorted(f.images for f in
                              homomorphisms(G, H, bijective=True)) == \
                    [m for m in brute if len(set(m)) == n == H.order]

    @pytest.mark.parametrize("pair", [("C1", "C2"), ("C2", "C4")])
    def test_no_bijection_between_orders(self, pair):
        G, H = group_by_name(pair[0]), group_by_name(pair[1])
        assert homomorphisms(G, H, bijective=True) == []


class TestIsomorphism:
    def test_identity_on_self(self):
        C4 = group_by_name("C4")
        f = isomorphism(C4, C4)
        assert f is not None and is_homomorphism(f) and f.is_bijective()

    def test_distinguishes_c4_from_v4(self):
        assert isomorphism(group_by_name("C4"), group_by_name("C2xC2")) is None

    def test_semidirect_c3_c2_is_d3(self):
        C3 = group_by_name("C3")
        S3 = semidirect_product(C3, group_by_name("C2"), inversion_action(C3))
        D3 = group_by_name("D3")
        assert isomorphism(D3, S3) is not None
        assert brute_force_isomorphism_exists(D3, S3)

    def test_transported_table_matches(self):
        G = group_by_name("D4")
        for H in groups_of_order(8):
            f = isomorphism(G, H)
            if f is None:
                continue
            im = f.images
            assert all(im[G.table[a][b]] == H.table[im[a]][im[b]]
                       for a in range(8) for b in range(8))

    @pytest.mark.parametrize("pair", [("C8", "D4"), ("D4", "Q8"),
                                      ("C6", "D3")])
    def test_absence_matches_brute_force(self, pair):
        G, H = group_by_name(pair[0]), group_by_name(pair[1])
        assert isomorphism(G, H) is None
        assert not brute_force_isomorphism_exists(G, H)

    def test_fingerprint_tells_catalog_groups_apart(self):
        prints = [fingerprint(group_by_name(name)) for name in catalog_names()]
        assert len(set(prints)) == len(prints)

    @pytest.mark.parametrize("pair", [("C3xC3xC3", "Heisenberg-27"),
                                      ("C9xC3", "M27"), ("C8xC2", "M16")])
    def test_abelian_flag_refutes_without_search(self, pair, monkeypatch):
        # equal element orders; only the abelian flag tells them apart
        G, H = group_by_name(pair[0]), group_by_name(pair[1])
        assert fingerprint(G)[2] == fingerprint(H)[2]

        def refuse(*args, **kwargs):
            pytest.fail("isomorphism searched for homomorphisms")
        monkeypatch.setattr(groups, "homomorphisms", refuse)
        assert isomorphism(G, H) is None and isomorphism(H, G) is None


class TestDistinguished:
    @pytest.mark.parametrize("name", ["C6", "C8", "C3xC3", "C12"])
    def test_abelian(self, name):
        G = group_by_name(name)
        d = distinguished_subgroups(G)
        everything = tuple(range(G.order))
        assert d.center == everything and d.norm == everything
        assert set(d.normal) == set(subgroups(G))

    def test_q8_is_hamiltonian(self):
        d = distinguished_subgroups(group_by_name("Q8"))
        assert d.norm == tuple(range(8))
        assert len(d.center) == 2

    def test_exponent9_order27_norm(self):
        from skewbrace.groups import subgroup_group
        G = group_by_name("M27")
        d = distinguished_subgroups(G)
        assert len(d.center) == 3
        assert len(d.norm) == 9
        N, _ = subgroup_group(G, d.norm)
        assert N.exponent() == 3  # elementary abelian

    def test_center_inside_norm_and_characteristic_normal(self):
        for order in (6, 8, 12):
            for G in groups_of_order(order):
                d = distinguished_subgroups(G)
                assert set(d.center) <= set(d.norm)
                assert set(d.characteristic) <= set(d.normal)
                assert (0,) in d.characteristic
                assert tuple(range(G.order)) in d.characteristic


class TestPowerAutomorphism:
    def test_identity(self):
        G = group_by_name("D4")
        ident = GroupMap(G, G, tuple(range(8)))
        assert is_power_automorphism(G, ident)

    def test_inversion_on_abelian(self):
        G = group_by_name("C12")
        assert is_power_automorphism(G, GroupMap(G, G, G.inverse))

    def test_order3_map_on_v4(self):
        V4 = group_by_name("C2xC2")
        f = next(f for f in automorphisms(V4)
                 if f.images == (0, 2, 3, 1))
        assert not is_power_automorphism(V4, f)

    def test_rejects_non_automorphism(self):
        G = group_by_name("C4")
        with pytest.raises(NotAutomorphism):
            is_power_automorphism(G, GroupMap(G, G, (0, 0, 0, 0)))

    def test_matches_subgroup_fixing(self):
        G = group_by_name("Q8")
        for f in automorphisms(G):
            expected = all(
                frozenset(f(a) for a in s) == frozenset(s)
                for s in subgroups(G))
            assert is_power_automorphism(G, f) == expected


class TestQuotient:
    def test_by_whole_group(self):
        G = group_by_name("D3")
        Q, proj = quotient(G, tuple(range(6)))
        assert Q.order == 1 and set(proj.images) == {0}

    def test_by_trivial(self):
        G = group_by_name("D3")
        Q, proj = quotient(G, (0,))
        assert Q.table == G.table and proj.images == tuple(range(6))

    def test_q8_modulo_center(self):
        Q8 = group_by_name("Q8")
        Q, proj = quotient(Q8, distinguished_subgroups(Q8).center)
        assert isomorphism(Q, group_by_name("C2xC2")) is not None
        assert is_homomorphism(proj)
        kernel = tuple(a for a in range(8) if proj(a) == 0)
        assert kernel == distinguished_subgroups(Q8).center

    def test_rejects_non_normal(self):
        D3 = group_by_name("D3")
        reflection = next(a for a in range(6) if D3.element_order(a) == 2)
        with pytest.raises(NotNormal):
            quotient(D3, cyclic_subgroup(D3, reflection))


class TestProducts:
    def test_trivial_action_is_direct(self):
        C3, C4 = group_by_name("C3"), group_by_name("C4")
        sd = semidirect_product(C3, C4, trivial_action(C3, C4))
        assert sd.table == direct_product(C3, C4).table

    def test_c5_times_c2_is_cyclic(self):
        G = direct_product(group_by_name("C5"), group_by_name("C2"))
        assert any(G.element_order(a) == 10 for a in range(10))

    def test_bad_action_rejected(self):
        C4, C2 = group_by_name("C4"), group_by_name("C2")
        swap_two = (0, 2, 1, 3)  # not an automorphism of C4
        with pytest.raises(NotAHomomorphism):
            semidirect_product(C4, C2, (tuple(range(4)), swap_two))
        # maps that are not permutations of A's elements: too short, or
        # an entry outside 0..|A|-1
        C3 = group_by_name("C3")
        for action in ([(0, 1), (0, 1)], [(0, 1, 2), (0, 2, 5)]):
            with pytest.raises(NotAHomomorphism, match=r"action\[\d\]"):
                semidirect_product(C3, C2, action)

    def test_action_must_be_homomorphism(self):
        C4, V4 = group_by_name("C4"), group_by_name("C2xC2")
        inv = C4.inverse
        ident = tuple(range(4))
        # two commuting involutions sent to inversion twice: the product
        # element would need the identity action but gets inversion
        with pytest.raises(NotAHomomorphism):
            semidirect_product(C4, V4, (ident, inv, inv, inv))


class TestGeneratingSet:
    @pytest.mark.parametrize("name,size",
                             [("C8", 1), ("C2xC2", 2), ("Q8", 2),
                              ("C2xC2xC2", 3)])
    def test_greedy_sizes(self, name, size):
        G = group_by_name(name)
        gens = generating_set(G)
        assert len(gens) == size
        assert closure(G, gens) == tuple(range(G.order))
