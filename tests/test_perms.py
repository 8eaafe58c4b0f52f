"""Holomorphs, regular subgroups, transport, and the symmetric-group
oracle for small orders."""

import itertools
import random
import tracemalloc

import pytest

from conftest import flat, fresh_group, requires_heavy, transport_table
from skewbrace import perms
from skewbrace.catalog import group_by_name, groups_of_order
from skewbrace.errors import NotNormalized, NotRegular, OrderTooLargeForOracle
from skewbrace.groups import (
    _relabeler,
    automorphisms,
    isomorphism,
    opposite_table,
)
from skewbrace.perms import (
    RegularSubgroup,
    compose,
    cyclic_regular_subgroups_in_holomorph,
    holomorph,
    left_translations,
    operation_from_regular_subgroup,
    regular_subgroup,
    regular_subgroups_in_holomorph,
    regular_subgroups_normalized_by,
    right_translations,
    transport_operation,
)


class TestHolomorph:
    @pytest.mark.parametrize("name,size",
                             [("C2", 2), ("C2xC2", 24), ("C8", 32)])
    def test_sizes(self, name, size):
        assert len(holomorph(group_by_name(name))) == size

    def test_no_duplicates_and_closed(self):
        for name in ("C4", "C2xC2", "D3"):
            H = holomorph(group_by_name(name))
            assert len(set(H)) == len(H)
            members = set(H)
            for p in H:
                for q in H:
                    assert compose(p, q) in members

    def test_contains_translations(self):
        G = group_by_name("D4")
        H = set(holomorph(G))
        assert set(left_translations(G)) <= H

    @staticmethod
    def assert_stream_pools_as_listing(N):
        # the listed holomorph is the oracle for the stream of (a, phi)
        n = N.order
        assert perms._candidate_pool(perms._hol_elements(N), n) == \
            perms._candidate_pool(map(bytes, holomorph(N)), n), N.name

    @pytest.mark.parametrize("order", range(1, 16))
    def test_stream_pools_as_listing(self, order):
        for N in groups_of_order(order):
            self.assert_stream_pools_as_listing(N)

    @requires_heavy
    @pytest.mark.parametrize("name", ["C3xC3xC3", "Heisenberg-27",
                                      "C2xC2xC2xC2"])
    def test_stream_pools_as_listing_heavy(self, name):
        self.assert_stream_pools_as_listing(group_by_name(name))


class TestRegularSubgroups:
    def test_counts_small(self):
        assert len(regular_subgroups_in_holomorph(group_by_name("C2"))) == 1
        assert len(regular_subgroups_in_holomorph(group_by_name("C3"))) == 1

    def test_validation(self):
        for name in ("C4", "C2xC2", "D3", "Q8"):
            G = group_by_name(name)
            for R in regular_subgroups_in_holomorph(G):
                regular_subgroup(R.elements)  # closure + regularity
                members = set(R.elements)
                assert len(members) == G.order
                for p in R.elements:
                    inv = [0] * G.order
                    for i, v in enumerate(p):
                        inv[v] = i
                    assert tuple(inv) in members

    @requires_heavy
    def test_full_search_memory_bounded(self):
        # the search streams Hol(N) and keeps the pool, not its 303,264
        # perms; a fresh group builds its stabilizer chain inside the trace
        N = fresh_group(group_by_name("C3xC3xC3").table)
        tracemalloc.start()
        try:
            perms._regular_subgroup_keys(N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, peak

    def test_transport_is_valid_group(self):
        for R in regular_subgroups_in_holomorph(group_by_name("C4")):
            T = transport_operation(R)
            assert set(T.table) == set(R.elements)  # rows are the subgroup

    def test_cyclic_scan_matches_filter(self):
        for name in ("C8", "Q8", "C9", "D4", "C3xC3"):
            N = group_by_name(name)
            scan = {R.elements for R in
                    cyclic_regular_subgroups_in_holomorph(N)}
            full = {R.elements for R in regular_subgroups_in_holomorph(N)
                    if transport_operation(R).is_cyclic()}
            assert scan == full

    @pytest.mark.parametrize("order", list(range(1, 16)) + [27])
    def test_cyclic_scan_matches_n_cycles_of_holomorph(self, order):
        """The order-filtered scan finds the subgroups generated by the
        n-cycles of the whole holomorph."""
        for N in groups_of_order(order):
            n = N.order
            oracle = set()
            for p in holomorph(N):
                cycle = [0]
                while p[cycle[-1]] != 0:
                    cycle.append(p[cycle[-1]])
                if len(cycle) == n:
                    elems = [tuple(range(n))]
                    while compose(elems[-1], p) != elems[0]:
                        elems.append(compose(elems[-1], p))
                    oracle.add(tuple(sorted(elems)))
            scan = cyclic_regular_subgroups_in_holomorph(N)
            assert [R.elements for R in scan] == sorted(oracle), N.name

    def test_cyclic_scan_never_builds_holomorph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("holomorph listed or searched")

        monkeypatch.setattr(perms, "holomorph", refuse)
        monkeypatch.setattr(perms, "_candidate_pool", refuse)
        N = group_by_name("C3xC3xC3")
        assert cyclic_regular_subgroups_in_holomorph(N) == ()

    def test_rejects_irregular(self):
        with pytest.raises(NotRegular):
            regular_subgroup([(0, 1, 2), (1, 2, 0)])  # too few elements

    @pytest.mark.parametrize("elems", [
        [],                              # nothing to check
        [(0, 1), (1, 1)],                # not a permutation
        [(0, 1), (1, 0, 2)],             # unequal lengths
        [(0, 1), (1, 0.5)],              # non-integer point
    ])
    def test_rejects_malformed(self, elems):
        with pytest.raises(NotRegular):
            regular_subgroup(elems)


class TestTransport:
    @pytest.mark.parametrize("name", ["C4", "C6", "D3", "D4", "Q8"])
    def test_lambda_and_rho(self, name):
        G = group_by_name(name)
        lam = regular_subgroup(left_translations(G))
        rho = regular_subgroup(right_translations(G))
        assert transport_operation(lam).table == G.table
        assert transport_operation(rho).table == opposite_table(G)
        # classical structure <-> trivial brace, canonical nonclassical
        # <-> almost trivial brace
        assert operation_from_regular_subgroup(rho, G).table == G.table
        assert operation_from_regular_subgroup(lam, G).table == \
            opposite_table(G)

    def test_transport_isomorphic_to_abstract_subgroup(self):
        G = group_by_name("C2xC2")
        for R in regular_subgroups_in_holomorph(G):
            T = transport_operation(R)
            by_start = {p[0]: p for p in R.elements}
            # evaluation at 0 transports multiplication exactly
            for a in range(4):
                for b in range(4):
                    assert compose(by_start[a], by_start[b]) == \
                        by_start[T.table[a][b]]

    @pytest.mark.parametrize("name", ["C6", "D3", "Q8"])
    def test_unsorted_hand_built_subgroup(self, name):
        # row a is the element sending 0 to a, whatever order R lists them
        G = group_by_name(name)
        R = regular_subgroup(right_translations(G))
        by_start = {p[0]: p for p in R.elements}
        shuffled = RegularSubgroup(R.elements[::-1])
        T = transport_operation(shuffled)
        assert T.table == tuple(by_start[a] for a in range(G.order))
        assert T == transport_operation(R)
        assert operation_from_regular_subgroup(shuffled, G).table == \
            tuple(tuple(by_start[b][a] for b in range(G.order))
                  for a in range(G.order))

    def test_hand_built_clash_at_zero_rejected(self):
        R = RegularSubgroup(((1, 2, 0), (0, 2, 1), (0, 1, 2)))
        with pytest.raises(NotRegular):
            transport_operation(R)
        with pytest.raises(NotRegular):
            operation_from_regular_subgroup(R, group_by_name("C3"))

    def test_subgroup_of_another_degree_rejected(self):
        # a regular subgroup of Hol(C3) acts on 3 points, not on C2's 2
        (R,) = regular_subgroups_in_holomorph(group_by_name("C3"))
        with pytest.raises(NotRegular, match="bijection onto G"):
            operation_from_regular_subgroup(R, group_by_name("C2"))

    def test_empty_hand_built_subgroup_rejected(self):
        with pytest.raises(NotRegular):
            transport_operation(RegularSubgroup(()))

    def test_normalization_required(self):
        """Exactly one of the three cyclic regular subgroups of the degree-4
        symmetric group is normalized by the translations of C4."""
        import itertools

        C4 = group_by_name("C4")
        cyclics = set()
        for p in itertools.permutations(range(4)):
            length, j = 1, p[0]
            while j != 0:
                j = p[j]
                length += 1
            if length == 4:
                elems = [tuple(range(4)), p, compose(p, p),
                         compose(p, compose(p, p))]
                cyclics.add(tuple(sorted(elems)))
        assert len(cyclics) == 3
        ok, rejected = 0, 0
        for elems in cyclics:
            R = regular_subgroup(elems)
            try:
                operation_from_regular_subgroup(R, C4)
                ok += 1
            except NotNormalized:
                rejected += 1
        assert (ok, rejected) == (1, 2)


class TestFlatTables:
    """The census's one table format: each key search gives a regular
    subgroup R as the flat table of transport_operation(R), and one
    routine relabels flat tables.  The public wrappers and the row-tuple
    relabeling by its definition are the references."""

    @pytest.mark.parametrize("order", range(1, 16))
    def test_keys_are_transported_tables(self, order):
        for N in groups_of_order(order):
            for keys, listed in (
                    (perms._regular_subgroup_keys(N),
                     regular_subgroups_in_holomorph(N)),
                    (perms._cyclic_keys(N),
                     cyclic_regular_subgroups_in_holomorph(N))):
                assert keys == [flat(transport_operation(R).table)
                                for R in listed], N.name
            census = perms._cyclic_keys_up_to_aut(N)
            assert census == sorted(census), N.name
            assert set(census) <= set(perms._cyclic_keys(N)), N.name

    @pytest.mark.parametrize("order", range(1, 16))
    def test_relabeler_matches_row_tuple_reference(self, order):
        rng = random.Random(order)
        for N in groups_of_order(order):
            n = N.order
            for _ in range(4):
                rest = list(range(1, n))
                rng.shuffle(rest)
                g = (0, *rest)
                for table in (N.table, opposite_table(N)):
                    assert _relabeler(g)(flat(table)) \
                        == flat(transport_table(table, g)), N.name


class TestOracle:
    def test_trivial_orders(self):
        assert len(regular_subgroups_normalized_by(group_by_name("C2"))) == 1
        assert len(regular_subgroups_normalized_by(group_by_name("C3"))) == 1

    def test_v4_contains_translations(self):
        V4 = group_by_name("C2xC2")
        out = regular_subgroups_normalized_by(V4)
        lam = regular_subgroup(left_translations(V4))
        rho = regular_subgroup(right_translations(V4))
        assert lam == rho  # abelian
        assert lam.elements in {R.elements for R in out}
        assert len(out) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pool_from_cycle_types_equals_the_filter_of_s_n(self, n):
        # the reference tests every one of the n! permutations
        everything = map(bytes, itertools.permutations(range(n)))
        assert perms._symmetric_pool(n) == perms._candidate_pool(everything, n)

    def test_bound_enforced(self):
        with pytest.raises(OrderTooLargeForOracle):
            regular_subgroups_normalized_by(group_by_name("C9"))
        # explicit override allows it
        out = regular_subgroups_normalized_by(group_by_name("C9"), bound=9)
        assert len(out) >= 1

    def test_q8_census_cross_check(self):
        """Perm-level oracle and holomorph route agree on the induced
        operation census at order 8."""
        Q8 = group_by_name("Q8")
        oracle_ops = {operation_from_regular_subgroup(R, Q8).table
                      for R in regular_subgroups_normalized_by(Q8)}
        hol_ops = set()
        for N in groups_of_order(8):
            for R in regular_subgroups_in_holomorph(N):
                T = transport_operation(R)
                theta = isomorphism(T, Q8)
                if theta is None:
                    continue
                im = theta.images
                inv = [0] * 8
                for a, b in enumerate(im):
                    inv[b] = a
                hol_ops.add(tuple(
                    tuple(im[N.table[inv[a]][inv[b]]] for b in range(8))
                    for a in range(8)))
        # the oracle sees every operation; the single-pullback holomorph
        # set is a subset closed up by the automorphism action
        assert hol_ops <= oracle_ops
        auts = automorphisms(Q8)
        expanded = set()
        for t in hol_ops:
            for f in auts:
                im = f.images
                inv = [0] * 8
                for a, b in enumerate(im):
                    inv[b] = a
                expanded.add(tuple(
                    tuple(im[t[inv[a]][inv[b]]] for b in range(8))
                    for a in range(8)))
        assert expanded == oracle_ops
