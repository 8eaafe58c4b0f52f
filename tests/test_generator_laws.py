"""Laws checked on generators agree with the full pair and triple loops.

The package checks every group and brace law on a generating set: a map
that respects multiplication by every generator respects every word, so
every product.  Properties of the gamma values that are closed under
composition (keeping a subgroup, fixing a point, respecting circ, being a
power automorphism) are tested on gamma(s) for s in the generators of
circ, as gamma is a circ-homomorphism, and characteristic subgroups on
generators of Aut(G).  Each test here keeps the full loop that the
generator check replaced, as an oracle, and compares the two
exhaustively on small inputs: all reduced Latin squares of order <= 6,
all ordered pairs of the groups among them, the regular-subgroup searches
of small orders, the census braces of order <= 8, the `verify axioms`
battery, and the catalog groups with relabeled copies.  The kernels that
do the same work faster (the incremental, centre-filtered homomorphism
search, the itemgetter compose, the `bytes` holomorph and regular-subgroup
search, and the checks that compare whole rows instead of single entries)
are compared the same way with the code they replaced.  Above order 6 the
squares are catalog tables with rows refilled at random, and the braces
have their dot relabeled.
"""

import functools
import itertools
import math
import operator
import random
import re

import pytest

from conftest import flat, requires_heavy
from skewbrace import braces, constructions
from skewbrace.analysis import enumerate_operations, surjective_iff_power_auto
from skewbrace.braces import (
    GammaTable,
    SkewBrace,
    brace_automorphisms,
    brace_isomorphism,
    fix,
    gamma,
    is_bi_skew,
    left_ideals,
    make_brace,
    opposite,
)
from skewbrace.catalog import catalog_names, group_by_name, groups_of_order
from skewbrace.cli import _axiom_battery
from skewbrace.errors import (
    BraceLawViolated,
    InternalInconsistency,
    NotAHomomorphism,
    NotAssociative,
)
from skewbrace.groups import (
    GroupMap,
    _itemgetter,
    _respects_generators,
    automorphisms,
    center,
    closure,
    cyclic_subgroup,
    distinguished_subgroups,
    generating_set,
    homomorphisms,
    is_homomorphism,
    is_normal,
    is_power_automorphism,
    is_subgroup,
    isomorphism,
    make_group,
    semidirect_product,
    subgroups,
)
from skewbrace.perms import (
    _candidate_pool,
    _cyclic_keys,
    _cyclic_keys_up_to_aut,
    _grow_regular,
    _normalized_by_translations,
    _regular_subgroup_keys,
    compose,
    holomorph,
    regular_subgroups_in_holomorph,
    regular_subgroups_normalized_by,
)

MAX_ORDER = 6
# reduced Latin squares (first row and column in order) per order, and
# the group tables among them
SQUARE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}
GROUP_TABLE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80}
TRIPLE = re.compile(r"\D*(\d+)\D+(\d+)\D+(\d+)")


def reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and first column
    are 0..n-1 in order, filled cell by cell."""
    square = [[0] * n for _ in range(n)]
    in_row = [set() for _ in range(n)]
    in_col = [set() for _ in range(n)]
    for i in range(n):
        for a, b in ((0, i), (i, 0)):
            square[a][b] = i
            in_row[a].add(i)
            in_col[b].add(i)
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, square))
            return
        a, b = cells[k]
        for x in range(n):
            if x not in in_row[a] and x not in in_col[b]:
                square[a][b] = x
                in_row[a].add(x)
                in_col[b].add(x)
                yield from fill(k + 1)
                in_row[a].discard(x)
                in_col[b].discard(x)

    yield from fill(0)


@functools.lru_cache(maxsize=None)
def squares(n):
    return tuple(reduced_latin_squares(n))


# -- the full loops the generator checks replaced ---------------------------

def associative(t):
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def brace_law_holds(dot, circ):
    dt, ct, dinv = dot.table, circ.table, dot.inverse
    n = dot.order
    return all(ct[s][dt[t][k]] == dt[dt[ct[s][t]][dinv[s]]][ct[s][k]]
               for s in range(n) for t in range(n) for k in range(n))


def first_failing_gamma_invariant(dot, circ):
    """The first of the three invariants gamma checks that fails on some
    pair, in gamma's order, or None."""
    dt, ct, dinv = dot.table, circ.table, dot.inverse
    n = dot.order
    maps = [tuple(dt[dinv[s]][ct[s][t]] for t in range(n)) for s in range(n)]
    if not all(sorted(m) == list(range(n)) for m in maps):
        return "bijection"
    for m in maps:
        if not all(m[dt[a][b]] == dt[m[a]][m[b]]
                   for a in range(n) for b in range(n)):
            return "dot-endomorphism"
    if not all(maps[ct[s][t]] == tuple(maps[s][x] for x in maps[t])
               for s in range(n) for t in range(n)):
        return "circ-homomorphism"
    return None


def preserves(im, source, target):
    n = len(im)
    s, t = source.table, target.table
    return all(im[s[a][b]] == t[im[a]][im[b]]
               for a in range(n) for b in range(n))


def full_is_bi_skew(B):
    return all(preserves(m, B.circ, B.circ) for m in gamma(B).maps)


def full_brace_automorphisms(B):
    return tuple(f for f in automorphisms(B.circ)
                 if preserves(f.images, B.dot, B.dot))


def full_brace_isomorphism(B1, B2):
    f0 = isomorphism(B1.dot, B2.dot)
    if f0 is None:
        return None
    for a in automorphisms(B1.dot):
        im = tuple(f0.images[x] for x in a.images)
        if preserves(im, B1.circ, B2.circ):
            return im
    return None


def full_is_homomorphism(f):
    return f.images[0] == 0 and preserves(f.images, f.source, f.target)


def full_is_normal(G, sub):
    s = set(sub)
    return all(G.conj(a, g) in s for a in s for g in range(G.order))


def full_center(G):
    t = G.table
    n = G.order
    return tuple(a for a in range(n)
                 if all(t[a][b] == t[b][a] for b in range(n)))


def full_action_is_homomorphism(A, B, action):
    return all(tuple(action[b1][action[b2][a]] for a in range(A.order))
               == action[B.table[b1][b2]]
               for b1 in range(B.order) for b2 in range(B.order))


def perm_order(p):
    """The order of the tuple permutation p, the lcm of its cycle
    lengths."""
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order // math.gcd(order, length) * length
    return order


def is_fixed_point_free(p):
    return not any(map(operator.eq, p, range(len(p))))


def pairwise_regular_search(candidates_by_start, n, accept):
    """The regular-subgroup backtracking with the old closure step: every
    product of a new element with every member, in both orders."""

    def close_with(members, new):
        out = dict(members)
        out[new[0]] = new
        work = list(out.values())
        i = len(work) - 1
        while i < len(work):
            p = work[i]
            for j in range(len(work)):
                q = work[j]
                for r in (compose(p, q), compose(q, p)):
                    known = out.get(r[0])
                    if known is not None:
                        if known != r:
                            return None
                        continue
                    if not is_fixed_point_free(r) or len(out) >= n:
                        return None
                    out[r[0]] = r
                    work.append(r)
            i += 1
        return out if n % len(out) == 0 else None

    def grow(members):
        if len(members) == n:
            accept(tuple(sorted(members.values())))
            return
        g = min(x for x in range(n) if x not in members)
        for cand in candidates_by_start.get(g, ()):
            grown = close_with(members, cand)
            if grown is not None:
                grow(grown)

    grow({0: tuple(range(n))})


def tuple_candidate_pool(perms, n):
    """The candidate pool of the tuple kernel: a Python-level fixed-point
    scan and order walk per permutation."""
    pool = {}
    for p in perms:
        if is_fixed_point_free(p) and n % perm_order(p) == 0:
            pool.setdefault(p[0], []).append(p)
    for lst in pool.values():
        lst.sort()
    return pool


def tuple_grow_regular(candidates_by_start, n, accept):
    """The regular-subgroup backtracking of the tuple kernel: products by
    itemgetter, and a fixed-point scan of every new one."""

    def close_with(members, gens):
        c = gens[-1]
        rights = list(map(_itemgetter, gens))
        out = dict(members)
        out[c[0]] = c
        new = [c]

        def add(r):
            known = out.get(r[0])
            if known is not None:
                return known == r
            if not is_fixed_point_free(r) or len(out) >= n:
                return False
            out[r[0]] = r
            new.append(r)
            return True

        for x in members.values():
            if not add(rights[-1](x)):
                return None
        for x in new:
            for right in rights:
                if not add(right(x)):
                    return None
        if n % len(out) != 0:
            return None
        return out

    def grow(members, gens):
        if len(members) == n:
            accept(tuple(sorted(members.values())))
            return
        g = min(x for x in range(n) if x not in members)
        for cand in candidates_by_start.get(g, ()):
            extended = gens + (cand,)
            grown = close_with(members, extended)
            if grown is not None:
                grow(grown, extended)

    grow({0: tuple(range(n))}, ())


def tuple_kernel_search(perms, n):
    """The sorted regular subgroups the tuple kernel grows from perms."""
    found = []
    tuple_grow_regular(tuple_candidate_pool(perms, n), n, found.append)
    return sorted(found)


def pairwise_join_subgroups(G):
    """The subgroup lattice by joining every pair of subgroups, closed
    over all their elements, until a fixpoint."""
    subs = {(0,)}
    subs.update(cyclic_subgroup(G, a) for a in range(G.order))
    frontier = list(subs)
    while frontier:
        new = []
        pool = list(subs)
        for A in frontier:
            sa = set(A)
            for B in pool:
                if sa.issuperset(B):
                    continue
                J = closure(G, A + B)
                if J not in subs:
                    subs.add(J)
                    new.append(J)
        frontier = new
    return tuple(sorted(subs))


def full_characteristic(G):
    auts = automorphisms(G)
    return tuple(s for s in subgroups(G)
                 if all(frozenset(f(a) for a in s) == frozenset(s)
                        for f in auts))


def all_gamma_left_ideals(B):
    maps = gamma(B).maps
    return tuple(s for s in subgroups(B.dot)
                 if all(frozenset(m[x] for x in s) == frozenset(s)
                        for m in maps))


def all_gamma_fix(B):
    maps = gamma(B).maps
    return tuple(t for t in range(B.order) if all(m[t] == t for m in maps))


def all_gamma_power(B):
    return all(is_power_automorphism(B.circ, GroupMap(B.circ, B.circ, m))
               for m in gamma(B).maps)


def generated_maps(maps, n):
    """Every composite of the maps, the identity included."""
    reached = {tuple(range(n))}
    todo = list(reached)
    for x in todo:
        for m in maps:
            y = tuple(x[i] for i in m)
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


def restart_generating_set(G):
    """Least-first generators, recomputing the closure from scratch."""
    gens = []
    have = {0}
    while len(have) < G.order:
        gens.append(min(a for a in range(G.order) if a not in have))
        have = set(closure(G, gens))
    return tuple(gens)


def walked_order(G, a):
    """The order of a, by walking its powers."""
    x, k = a, 1
    while x != 0:
        x = G.table[x][a]
        k += 1
    return k


def scratch_extensions(G, H, prefix, *, bijective, first_only):
    """The homomorphism backtracking before the spread was incremental:
    every level spreads the map over <g_0..g_k> again from the identity,
    and a bijective map's candidates are pruned by element order alone."""
    gt, ht = G.table, H.table
    gens = generating_set(G)
    gen_orders = [walked_order(G, g) for g in gens]
    h_orders = [walked_order(H, h) for h in range(H.order)]
    found = []

    def spread(gen_images):
        images = [-1] * G.order
        images[0] = 0
        reached = [0]
        for x in reached:
            fx = ht[images[x]]
            for g, h in zip(gens, gen_images):
                y = gt[x][g]
                if images[y] == -1:
                    images[y] = fx[h]
                    reached.append(y)
                elif images[y] != fx[h]:
                    return None
        if bijective and len({images[x] for x in reached}) != len(reached):
            return None
        return images

    def backtrack(gen_images, images):
        level = len(gen_images)
        if level == len(gens):
            found.append(tuple(images))
            return True
        go = gen_orders[level]
        for h in range(H.order):
            ho = h_orders[h]
            if go % ho != 0 or (bijective and ho != go):
                continue
            extended = gen_images + [h]
            spread_images = spread(extended)
            if spread_images is not None \
                    and backtrack(extended, spread_images) \
                    and first_only:
                return True
        return False

    start = spread(list(prefix))
    if start is not None:
        backtrack(list(prefix), start)
    return found


def unfiltered_isomorphism(G, H):
    """The first isomorphism G -> H of the order-pruned backtracking, or
    None; refuted first by order, element orders and the abelian flag."""
    def invariants(X):
        orders = sorted(walked_order(X, a) for a in range(X.order))
        return X.order, orders, X.is_abelian()
    if invariants(G) != invariants(H):
        return None
    maps = scratch_extensions(G, H, (), bijective=True, first_only=True)
    return maps[0] if maps else None


def map_compose(p, q):
    return tuple(map(p.__getitem__, q))


def generator_holomorph(N):
    n = N.order
    perms = set()
    for f in automorphisms(N):
        fi = f.images
        for a in range(n):
            row = N.table[a]
            perms.add(tuple(row[fi[t]] for t in range(n)))
    return tuple(sorted(perms))


# -- the inputs ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def labeled_groups(n):
    """The groups whose tables are reduced Latin squares of order n,
    selected by the full associativity loop."""
    return tuple(make_group(t) for t in squares(n) if associative(t))


def small_catalog(max_order):
    return [G for n in range(1, max_order + 1) for G in groups_of_order(n)]


def catalog_up_to(max_order):
    """Every catalog group of order <= max_order, partial orders too."""
    return [G for G in map(group_by_name, catalog_names())
            if G.order <= max_order]


def relabeled(G, seed):
    """G relabeled along a bijection of 0..n-1 that fixes 0, drawn from
    seed: out[pi(a)][pi(b)] = pi(a*b)."""
    n = G.order
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    pi = [0] + rest
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[pi[a]][pi[b]] = pi[ab]
    return make_group(table, f"{G.name}~{seed}")


@functools.lru_cache(maxsize=None)
def census_braces(max_order):
    return tuple(B for G in small_catalog(max_order)
                 for B in enumerate_operations(G))


def named_triple(exc):
    return tuple(map(int, TRIPLE.match(str(exc)).groups()))


# -- groups ---------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_make_group_accepts_exactly_the_associative_squares(n):
    assert len(squares(n)) == SQUARE_COUNTS[n]
    accepted = 0
    for t in squares(n):
        try:
            G = make_group(t)
        except NotAssociative as exc:
            assert not associative(t)
            a, b, c = named_triple(exc)
            assert t[t[a][b]][c] != t[a][t[b][c]]
        else:
            assert associative(t)
            assert G.table == t
            accepted += 1
    assert accepted == GROUP_TABLE_COUNTS[n]


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_generators_reach_every_element(n):
    for G in labeled_groups(n):
        gens = generating_set(G)
        assert gens == restart_generating_set(G)
        assert closure(G, gens) == tuple(range(n))


def test_group_laws_on_generators_match_full_loops():
    groups = [G for n in range(1, MAX_ORDER + 1) for G in labeled_groups(n)]
    groups += small_catalog(8)
    for G in groups:
        n = G.order
        assert center(G) == full_center(G)
        assert G.is_abelian() == (len(full_center(G)) == n)
        for rest in itertools.product((False, True), repeat=n - 1):
            sub = [0] + [a for a, keep in zip(range(1, n), rest) if keep]
            assert is_normal(G, sub) == full_is_normal(G, sub)


def test_is_homomorphism_on_every_map_of_small_groups():
    groups = small_catalog(4)
    for G, H in itertools.product(groups, repeat=2):
        for images in itertools.product(range(H.order), repeat=G.order):
            f = GroupMap(G, H, images)
            assert is_homomorphism(f) == full_is_homomorphism(f)


@pytest.mark.parametrize("a_name,b_name", [("C3", "C2"), ("C3", "C3"),
                                           ("C2xC2", "C2"), ("C4", "C2")])
def test_semidirect_product_accepts_exactly_the_homomorphic_actions(
        a_name, b_name):
    A, B = group_by_name(a_name), group_by_name(b_name)
    auts = [f.images for f in automorphisms(A)]
    accepted = 0
    for action in itertools.product(auts, repeat=B.order):
        try:
            semidirect_product(A, B, action)
        except NotAHomomorphism as exc:
            assert not full_action_is_homomorphism(A, B, action)
            pair = re.match(r"action\[(\d+)\]\*action\[(\d+)\]", str(exc))
            if pair:
                b1, b2 = map(int, pair.groups())
                assert tuple(action[b1][x] for x in action[b2]) \
                    != action[B.table[b1][b2]]
        else:
            assert full_action_is_homomorphism(A, B, action)
            accepted += 1
    assert accepted >= 1


# -- braces ---------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def accepted_braces(n):
    """make_brace on every ordered pair of labeled groups of order n,
    checked against the full law as it goes."""
    out = []
    for dot, circ in itertools.product(labeled_groups(n), repeat=2):
        full = brace_law_holds(dot, circ)
        try:
            B = make_brace(dot, circ)
        except BraceLawViolated as exc:
            assert not full
            s, t, k = named_triple(exc)
            dt, ct = dot.table, circ.table
            assert ct[s][dt[t][k]] != dt[dt[ct[s][t]][dot.inverse[s]]][ct[s][k]]
        else:
            assert full
            out.append(B)
    return tuple(out)


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_make_brace_accepts_exactly_the_lawful_pairs(n):
    braces = accepted_braces(n)
    assert braces
    for B in braces:
        assert is_bi_skew(B) == full_is_bi_skew(B)
        assert brace_automorphisms(B) == full_brace_automorphisms(B)


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_gamma_checks_match_full_invariants(n):
    # on unvalidated pairs each of gamma's checks fails exactly when its
    # full-loop invariant is the first to fail; the circ-homomorphism
    # invariant follows from the other two, so it never fails first
    for dot, circ in itertools.product(labeled_groups(n), repeat=2):
        failing = first_failing_gamma_invariant(dot, circ)
        assert failing != "circ-homomorphism"
        try:
            gamma(SkewBrace(dot, circ))
        except InternalInconsistency as exc:
            assert failing is not None and failing in str(exc)
        else:
            assert failing is None


@pytest.mark.parametrize("n", range(1, 5))
def test_brace_isomorphism_matches_full_loop(n):
    braces = accepted_braces(n)
    for B1, B2 in itertools.product(braces, repeat=2):
        f = brace_isomorphism(B1, B2)
        assert (None if f is None else f.images) \
            == full_brace_isomorphism(B1, B2)


def test_brace_isomorphism_matches_full_loop_order6_classes():
    # one brace per circ table, against every brace on its circ
    by_circ = {}
    for B in accepted_braces(6):
        by_circ.setdefault(B.circ, []).append(B)
    for group in by_circ.values():
        for B2 in group:
            f = brace_isomorphism(group[0], B2)
            assert (None if f is None else f.images) \
                == full_brace_isomorphism(group[0], B2)


# -- regular subgroups ----------------------------------------------------------

@pytest.mark.parametrize("N", small_catalog(12), ids=lambda G: G.name)
def test_holomorph_search_matches_pairwise_closure(N):
    n = N.order
    found = []
    pairwise_regular_search(tuple_candidate_pool(holomorph(N), n), n,
                            found.append)
    assert [R.elements for R in regular_subgroups_in_holomorph(N)] \
        == sorted(found)


@pytest.mark.parametrize("G", small_catalog(6), ids=lambda G: G.name)
def test_oracle_search_matches_pairwise_closure(G):
    n = G.order
    found = []
    pairwise_regular_search(
        tuple_candidate_pool(itertools.permutations(range(n)), n), n,
        lambda elems: _normalized_by_translations(elems, G)
        and found.append(elems))
    assert [R.elements for R in regular_subgroups_normalized_by(G)] \
        == sorted(found)


def is_n_cycle(p):
    """Whether the permutation p walks 0 through every point."""
    seen, x = {0}, p[0]
    while x not in seen:
        seen.add(x)
        x = p[x]
    return len(seen) == len(p)


def assert_searches_match_tuple_kernel(N):
    """The public search and the key searches against the tuple kernel: a
    key is the subgroup's sorted elements joined as flat bytes, the full
    n-cycle scan lists the kernel's cyclic subgroups, and the census scan
    some of them."""
    n = N.order
    kernel = tuple_kernel_search(generator_holomorph(N), n)
    assert [R.elements for R in regular_subgroups_in_holomorph(N)] \
        == kernel, N.name
    assert _regular_subgroup_keys(N) == list(map(flat, kernel)), N.name
    cyclic = [flat(elems) for elems in kernel
              if any(map(is_n_cycle, elems))]
    assert _cyclic_keys(N) == cyclic, N.name
    census = _cyclic_keys_up_to_aut(N)
    assert census == sorted(census) and set(census) <= set(cyclic), N.name


@pytest.mark.parametrize("N", small_catalog(15), ids=lambda G: G.name)
def test_bytes_search_matches_tuple_kernel(N):
    assert_searches_match_tuple_kernel(N)


@requires_heavy
def test_bytes_search_matches_tuple_kernel_order_27():
    for N in groups_of_order(27):
        assert_searches_match_tuple_kernel(N)


@pytest.mark.parametrize(
    "n", [*range(1, 8), pytest.param(8, marks=requires_heavy)])
def test_bytes_search_matches_tuple_kernel_on_symmetric_pools(n):
    # every regular subgroup of S_n, normalized by anything or not
    points = list(itertools.permutations(range(n)))
    pool = _candidate_pool(map(bytes, points), n)
    assert {k: list(map(tuple, v)) for k, v in pool.items()} \
        == tuple_candidate_pool(points, n)
    found = []
    _grow_regular(pool, n, found.append)
    assert sorted(tuple(map(tuple, f)) for f in found) \
        == tuple_kernel_search(points, n)


def test_fixed_point_in_the_pool_fails_loudly():
    # (0 1) fixes 2, so <(0 1)> has order 2, which does not divide 3: the
    # kernel raises rather than dropping the branch and finding nothing
    found = []
    with pytest.raises(InternalInconsistency, match="fixed point"):
        _grow_regular({1: [bytes([1, 0, 2])]}, 3, found.append)
    assert found == []


def test_subgroups_are_normal_exactly_when_full_loop_says():
    for G in small_catalog(12):
        for s in subgroups(G):
            assert is_normal(G, s) == full_is_normal(G, s)


# -- the group core from generators ---------------------------------------------

@pytest.mark.parametrize("G", catalog_up_to(16), ids=lambda G: G.name)
def test_subgroups_match_pairwise_join(G):
    for H in (G, relabeled(G, 1), relabeled(G, 2)):
        assert subgroups(H) == pairwise_join_subgroups(H), H.name


def test_automorphisms_match_bijective_homomorphisms_when_relabeled():
    # relabeling changes which generators generating_set picks and which
    # of them are central; the labeled groups of order <= 6 add more
    groups = [relabeled(G, seed) for G in [*small_catalog(15),
                                           *groups_of_order(27)]
              for seed in (1, 2)]
    groups += [G for n in range(1, MAX_ORDER + 1) for G in labeled_groups(n)]
    for G in groups:
        assert [f.images for f in automorphisms(G)] == \
            [f.images for f in homomorphisms(G, G, bijective=True)], G.name


def test_characteristic_subgroups_match_full_aut_loop():
    groups = catalog_up_to(27)
    groups += [relabeled(G, 1) for G in catalog_up_to(12)]
    for G in groups:
        assert distinguished_subgroups(G).characteristic \
            == full_characteristic(G), G.name


# -- gamma values of circ generators --------------------------------------------

@pytest.mark.parametrize("source", ["census-up-to-8", "axiom-battery"])
def test_gamma_on_circ_generators_matches_every_gamma(source):
    braces = census_braces(8) if source == "census-up-to-8" \
        else _axiom_battery()
    bi_skew = 0
    for B in braces:
        assert left_ideals(B) == all_gamma_left_ideals(B)
        assert fix(B) == all_gamma_fix(B)
        assert is_bi_skew(B) == full_is_bi_skew(B)
        if full_is_bi_skew(B):
            bi_skew += 1
            assert surjective_iff_power_auto(B) == all_gamma_power(B)
    assert bi_skew


def test_constructions_check_power_on_gamma_generating_set(monkeypatch):
    # the maps psi_construction and inversion_construction test for being
    # power automorphisms generate every gamma value, which all are
    checked = []

    def spy(G, f):
        checked.append(f.images)
        return is_power_automorphism(G, f)

    monkeypatch.setattr(constructions, "is_power_automorphism", spy)
    builds = []
    for name in ("Q8", "D4", "Heisenberg-27"):
        G = group_by_name(name)
        Q, _ = constructions.norm_mod_center(G)
        builds += [functools.partial(constructions.psi_construction, G, f)
                   for f in homomorphisms(G, Q)]
    builds += [functools.partial(constructions.inversion_construction,
                                 group_by_name(name))
               for name in ("C3", "C4", "C5", "C2xC2", "C3xC3")]
    for build in builds:
        checked.clear()
        B = build()
        assert generated_maps(checked, B.order) == set(gamma(B).maps)
        assert all_gamma_power(B)


# -- the kernels against the code they replaced ---------------------------------

def test_homomorphisms_match_scratch_spread_on_small_labeled_groups():
    groups = [G for n in range(1, MAX_ORDER + 1) for G in labeled_groups(n)]
    for G, H in itertools.product(groups, repeat=2):
        assert [f.images for f in homomorphisms(G, H)] == scratch_extensions(
            G, H, (), bijective=False, first_only=False)


def test_bijective_homomorphisms_match_scratch_spread_on_catalog_pairs():
    for n in range(1, 16):
        for G, H in itertools.product(groups_of_order(n), repeat=2):
            for A in (G, relabeled(G, 1)):
                assert [f.images for f in homomorphisms(
                    A, H, bijective=True)] == scratch_extensions(
                    A, H, (), bijective=True, first_only=False)


def per_h_transversals(G):
    """The stabilizer chain of Aut(G) as it was built before one search
    served each level: one first-only extension per level k and element
    h, each spreading the prefix g_0..g_{k-1}, h from the identity again
    by the scratch spread."""
    gens = generating_set(G)
    return tuple(
        tuple(images for h in range(G.order)
              for images in scratch_extensions(
                  G, G, gens[:k] + (h,), bijective=True, first_only=True))
        for k in range(len(gens)))


@pytest.mark.parametrize("n", [*range(1, 16), 27])
def test_transversals_match_per_h_extensions(n):
    # map for map and in order, so the automorphism stream, its sorted
    # and generator forms and every report keep their order
    for G in groups_of_order(n):
        for A in (G, relabeled(G, 3)):
            assert A._transversals == per_h_transversals(A), (A.name, n)


@pytest.mark.parametrize("n", [*range(1, 16), 27])
def test_isomorphism_matches_unfiltered_search(n):
    gs = groups_of_order(n)
    for (i, G), (j, H) in itertools.product(enumerate(gs), repeat=2):
        for A, B in ((relabeled(G, i + 1), H), (G, relabeled(H, j + 3))):
            f = isomorphism(A, B)
            assert (None if f is None else f.images) \
                == unfiltered_isomorphism(A, B), (A.name, B.name)


def test_compose_matches_map_compose():
    rng = random.Random(11)
    for n in range(1, 28):
        for _ in range(20):
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            p, q = tuple(p), tuple(q)
            assert compose(p, q) == map_compose(p, q)


@pytest.mark.parametrize("N", catalog_up_to(12), ids=lambda G: G.name)
def test_holomorph_matches_generator_holomorph(N):
    assert holomorph(N) == generator_holomorph(N)


# -- the row kernels against their element loops --------------------------------

def loop_gamma(B):
    dt, ct, dinv = B.dot.table, B.circ.table, B.dot.inverse
    n = B.order
    return tuple(tuple(dt[dinv[s]][ct[s][t]] for t in range(n))
                 for s in range(n))


def loop_inner_twist(B):
    """The gamma of the opposite brace as opposite checks it, entry by
    entry: x -> s.gamma(s)(x).s^-1."""
    g, dt, dinv = gamma(B), B.dot.table, B.dot.inverse
    n = B.order
    return tuple(tuple(dt[dt[s][g(s)[x]]][dinv[s]] for x in range(n))
                 for s in range(n))


def loop_is_subgroup(G, elems):
    s = set(elems)
    return 0 in s and all(G.table[a][b] in s for a in s for b in s)


def loop_respects_generators(images, source, target, gens):
    tt = target.table
    return all(images[row[g]] == tt[images[a]][images[g]]
               for a, row in enumerate(source.table) for g in gens)


def loop_light_failure(t):
    """The first (a, b, c) at which Light's element loop on the
    generators of the square t finds (a*b)*c != a*(b*c), or None."""
    n = len(t)
    for c in greedy_square_generators(t):
        for a in range(n):
            for b in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a, b, c
    return None


def greedy_square_generators(t):
    """The least element not yet reached from 0 along x -> x*g, adjoined
    until every element is reached, on a Latin square t."""
    n = len(t)
    gens, have = [], {0}
    while len(have) < n:
        gens.append(min(set(range(n)) - have))
        todo = list(have)
        for x in todo:
            for g in gens:
                if t[x][g] not in have:
                    have.add(t[x][g])
                    todo.append(t[x][g])
    return gens


def random_matching(allowed, rng):
    """A perfect matching of the keys of allowed to distinct values in
    their sets, by augmenting paths tried in random order."""
    owner = {}

    def augment(c, seen):
        for x in rng.sample(sorted(allowed[c]), len(allowed[c])):
            if x not in seen:
                seen.add(x)
                if x not in owner or augment(owner[x], seen):
                    owner[x] = c
                    return True
        return False

    for c in allowed:
        matched = augment(c, set())
        assert matched
    return {c: x for x, c in owner.items()}


def refilled(G, keep, rng):
    """G's table with rows keep..n-1 refilled at random into a Latin
    square with identity 0: row a gets a at column 0 and a random
    perfect matching of the other columns to the symbols they still
    miss.  The rows so far form a regular bipartite graph of columns and
    missing symbols, which is a union of perfect matchings, so its edge
    (0, a) lies on one and a matching always exists."""
    n = G.order
    rows = [list(row) for row in G.table[:keep]]
    missing = [set(range(n)) - {row[c] for row in rows} for c in range(n)]
    for a in range(keep, n):
        pick = random_matching({c: missing[c] - {a} for c in range(1, n)},
                               rng)
        row = [a] + [pick[c] for c in range(1, n)]
        for c, x in enumerate(row):
            missing[c].discard(x)
        rows.append(row)
    return tuple(map(tuple, rows))


CORRUPTED_ORDERS = [*range(7, 16), 27]


@pytest.mark.parametrize("source", ["census-up-to-8", "axiom-battery"])
def test_row_kernels_match_element_loops(source):
    pool = census_braces(8) if source == "census-up-to-8" \
        else _axiom_battery()
    rng = random.Random(source)
    outcomes = set()
    for B in pool:
        assert gamma(B).maps == loop_gamma(B)
        assert gamma(opposite(B)).maps == loop_inner_twist(B)
        maps = [*gamma(B).maps, *(f.images for f in automorphisms(B.circ))]
        for m in rng.sample(maps, min(len(maps), 12)):
            corrupt = list(m)
            if B.order > 2:
                i, j = rng.sample(range(1, B.order), 2)
                corrupt[i], corrupt[j] = corrupt[j], corrupt[i]
            for images in (m, tuple(corrupt)):
                for source_group, target in itertools.product(
                        (B.dot, B.circ), repeat=2):
                    gens = generating_set(source_group)
                    row = _respects_generators(images, source_group,
                                               target, gens)
                    assert row == loop_respects_generators(
                        images, source_group, target, gens)
                    outcomes.add(row)
        for G, H in ((B.dot, B.circ), (B.circ, B.dot)):
            for sub in subgroups(H):
                assert is_subgroup(G, sub) == loop_is_subgroup(G, sub)
                outcomes.add(("sub", is_subgroup(G, sub)))
            subset = [0, *rng.sample(range(B.order), B.order // 2)]
            assert is_subgroup(G, subset) == loop_is_subgroup(G, subset)
    assert outcomes == {True, False, ("sub", True), ("sub", False)}


def test_opposite_twist_check_matches_element_loop(monkeypatch):
    # opposite accepts the gamma of the opposite brace exactly when it is
    # the entry-by-entry inner twist; a dot that is not abelian keeps the
    # opposite brace apart from the brace itself
    real_gamma = braces.gamma
    rng = random.Random(5)
    checked = 0
    for B in (*census_braces(8), *_axiom_battery()):
        if B.dot.is_abelian():
            continue
        twist = loop_inner_twist(B)
        s = rng.randrange(1, B.order)
        i, j = rng.sample(range(1, B.order), 2)
        bad = list(twist[s])
        bad[i], bad[j] = bad[j], bad[i]
        corrupt = twist[:s] + (tuple(bad),) + twist[s + 1:]
        for maps, accepted in ((twist, True), (corrupt, False)):
            monkeypatch.setattr(
                braces, "gamma",
                lambda X, maps=maps, B=B: real_gamma(X) if X == B
                else GammaTable(maps))
            try:
                opposite(B)
            except InternalInconsistency:
                assert not accepted
            else:
                assert accepted
        checked += 1
    assert checked


@pytest.mark.parametrize("n", CORRUPTED_ORDERS)
def test_make_group_names_the_light_loop_triple_on_refilled_tables(n):
    # keeping n - 1 rows forces the last one, so the group comes back
    rng = random.Random(n)
    accepted = rejected = 0
    for G in groups_of_order(n):
        for keep in (n - 1, n - 2, n // 2, 2, 1):
            t = refilled(G, keep, rng)
            failure = loop_light_failure(t)
            try:
                make_group(t)
            except NotAssociative as exc:
                a, b, c = named_triple(exc)
                assert (a, b, c) == failure
                assert t[t[a][b]][c] != t[a][t[b][c]]
                rejected += 1
            else:
                assert failure is None and associative(t)
                accepted += 1
    assert accepted >= len(groups_of_order(n)) and rejected


def corrupted_brace_inputs(n, rng):
    """Lawful (dot, circ) pairs of order n, each with a copy whose dot is
    relabeled at random: census operations of the catalog groups (at
    order 27 of the cyclic one only) and the order-27 constructions."""
    if n == 27:
        pool = [*enumerate_operations(group_by_name("C27")),
                constructions.class2_construction(
                    group_by_name("Heisenberg-27")),
                *constructions.all_psi_braces(group_by_name("M27"))]
    else:
        pool = [B for G in groups_of_order(n) for B in enumerate_operations(G)]
    for B in rng.sample(pool, min(len(pool), 12)):
        yield B.dot.table, B.circ
        yield relabeled(B.dot, rng.randrange(1000)).table, B.circ


@pytest.mark.parametrize("n", CORRUPTED_ORDERS)
def test_make_brace_names_a_failing_triple_on_corrupted_pairs(n):
    rng = random.Random(n)
    accepted = rejected = 0
    for table, circ in corrupted_brace_inputs(n, rng):
        dot = make_group(table)
        try:
            make_brace(table, circ)
        except BraceLawViolated as exc:
            assert not brace_law_holds(dot, circ)
            s, t, k = named_triple(exc)
            dt, ct = dot.table, circ.table
            assert ct[s][dt[t][k]] \
                != dt[dt[ct[s][t]][dot.inverse[s]]][ct[s][k]]
            rejected += 1
        else:
            assert brace_law_holds(dot, circ)
            accepted += 1
    assert accepted and rejected
