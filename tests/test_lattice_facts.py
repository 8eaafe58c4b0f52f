"""The lattice facts each FiniteGroup keeps, against the per-call code
they replaced.

A group keeps each subgroup's member set, each cyclic subgroup's set with
its generators, its conjugation rows and the relabeling steps of
analysis._orbit, and is_power_automorphism, is_normal, normalizer,
distinguished_subgroups, the left-ideal filters and _orbit read them.
The functions below are the per-call versions those readers replaced,
kept as oracles.  The S_n oracle grows only the subgroups the left
translations normalize; its unpruned growth is kept here too.  Set
SKEWBRACE_HEAVY=1 for order 27 and the degree-8 and degree-9 growth.
"""

import itertools
import math
import random

import pytest

from conftest import flat, requires_heavy, transport_table
from skewbrace import analysis, perms
from skewbrace.braces import (
    SkewBrace,
    gamma,
    ideals,
    left_ideals,
    strong_left_ideals,
)
from skewbrace.catalog import catalog_names, group_by_name, groups_of_order
from skewbrace.errors import InternalInconsistency, NotAutomorphism
from skewbrace.groups import (
    GroupMap,
    _compose,
    _invert,
    FiniteGroup,
    _itemgetter,
    _relabeler,
    automorphisms,
    cyclic_subgroup,
    distinguished_subgroups,
    generating_set,
    is_homomorphism,
    is_normal,
    is_power_automorphism,
    is_subgroup,
    normalizer,
    subgroups,
)

# every catalog group of orders 1..15 in tier 1, those of order 27 heavy
ORDERS = [pytest.param(range(1, 16), id="orders-1-15"),
          pytest.param(range(27, 28), id="order-27", marks=requires_heavy)]


def catalog_of(orders):
    return [G for n in orders for G in groups_of_order(n)]


# -- the per-call versions, as they were --------------------------------------

def old_cyclic_subgroups(table):
    walked = [False] * len(table)
    for a, done in enumerate(walked):
        if done:
            continue
        powers = [0]
        x = a
        while x != 0:
            powers.append(x)
            x = table[x][a]
        m = len(powers)
        gens = [x for k, x in enumerate(powers) if math.gcd(k, m) == 1]
        for x in gens:
            walked[x] = True
        yield powers, gens


def old_is_power_automorphism(G, f):
    if f.source != G or f.target != G \
            or sorted(f.images) != list(range(G.order)) \
            or not is_homomorphism(f):
        raise NotAutomorphism("map is not an automorphism of the given group")
    elementwise = all(set(powers).issuperset(map(f, gens))
                      for powers, gens in old_cyclic_subgroups(G.table))
    subgroupwise = all(frozenset(f(a) for a in s) == frozenset(s)
                       for s in subgroups(G))
    assert elementwise == subgroupwise
    return elementwise


def old_is_normal(G, sub):
    s = set(sub)
    return all(G.conj(a, g) in s for a in s for g in generating_set(G))


def old_normalizer(G, sub):
    s = set(sub)
    return tuple(g for g in range(G.order)
                 if all(G.conj(a, g) in s for a in s))


def old_distinguished(G):
    subs = subgroups(G)
    norm = set(range(G.order))
    for s in subs:
        norm &= set(old_normalizer(G, s))
    characteristic = tuple(s for s in subs
                           if all(frozenset(map(f.__getitem__, s))
                                  == frozenset(s)
                                  for f in G._aut_generators))
    normal = tuple(s for s in subs if old_is_normal(G, s))
    return tuple(sorted(norm)), characteristic, normal


def old_left_ideals(B):
    maps = [gamma(B)(s) for s in generating_set(B.circ)]
    out = []
    for s in subgroups(B.circ):
        members = frozenset(s)
        if all(members.issuperset(map(m.__getitem__, s)) for m in maps):
            assert is_subgroup(B.dot, members)
            out.append(s)
    return tuple(out)


def old_orbit_steps(gens, n):
    pad = bytes(range(n, 256))
    steps = []
    for g in gens:
        inv = _invert(g)
        steps.append((g, bytes(g) + pad,
                      _itemgetter([a * n + b for a in inv for b in inv])))
    return steps


def old_orbit(found, gens, n):
    steps = old_orbit_steps(gens, n)
    orbit = {found: tuple(range(n))}
    todo = [found]
    for t in todo:
        phi = orbit[t]
        for g, values, positions in steps:
            u = bytes(positions(t.translate(values)))
            if u not in orbit:
                orbit[u] = _compose(g, phi)
                todo.append(u)
    return orbit


def unpruned_oracle(G):
    """The S_n oracle as it was: grow every regular subgroup of S_n, then
    keep those the left translations normalize."""
    n = G.order
    pool = perms._candidate_pool(
        map(bytes, itertools.permutations(range(n))), n)
    found = []

    def accept(elems):
        elems = tuple(map(tuple, elems))
        if perms._normalized_by_translations(elems, G):
            found.append(elems)

    perms._grow_regular(pool, n, accept)
    return sorted(found)


# -- inputs ---------------------------------------------------------------------

def bijections(G, count=6):
    """Bijections fixing 0 that are not automorphisms, seeded per group:
    automorphisms with two images swapped, and shuffles."""
    rng = random.Random(G.name)
    auts = [f.images for f in automorphisms(G)]
    out = []
    for _ in range(count if G.order > 2 else 0):
        images = list(rng.choice(auts))
        a, b = rng.sample(range(1, G.order), 2)
        images[a], images[b] = images[b], images[a]
        out.append(tuple(images))
        rest = list(range(1, G.order))
        rng.shuffle(rest)
        out.append((0, *rest))
    return [f for f in out if not is_homomorphism(GroupMap(G, G, f))]


def outcome(call, *args):
    try:
        return call(*args)
    except NotAutomorphism as exc:
        return type(exc)


# -- the readers against the per-call code -------------------------------------

@pytest.mark.parametrize("orders", ORDERS)
def test_power_automorphism_matches_per_call_code(orders):
    for G in catalog_of(orders):
        maps = [f.images for f in automorphisms(G)] + bijections(G)
        for images in maps:
            f = GroupMap(G, G, images)
            assert outcome(is_power_automorphism, G, f) \
                == outcome(old_is_power_automorphism, G, f), (G.name, images)


@pytest.mark.parametrize("orders", ORDERS)
def test_normality_matches_per_call_code(orders):
    # every subgroup, and its images along automorphisms and along
    # bijections that are not, which are subsets but mostly no subgroups
    for G in catalog_of(orders):
        maps = [f.images for f in automorphisms(G)][:24] + bijections(G)
        for s in subgroups(G):
            for images in maps:
                sub = sorted({images[a] for a in s})
                assert is_normal(G, sub) == old_is_normal(G, sub), G.name
                assert normalizer(G, sub) == old_normalizer(G, sub), G.name
        d = distinguished_subgroups(G)
        assert (d.norm, d.characteristic, d.normal) == old_distinguished(G)


def census_braces(orders):
    """The class representatives of every target of the order, and each
    relabeled along a bijection fixing 0 that is no automorphism."""
    out = []
    for G in catalog_of(orders):
        for _, _, report in analysis._enumerate_classes(G.table):
            out.append(SkewBrace(report.operation, G))
            found = report.operation.table
            for images in bijections(G, 1):
                out.append(SkewBrace(
                    FiniteGroup(transport_table(found, images)),
                    FiniteGroup(transport_table(G.table, images))))
    return out


@pytest.mark.parametrize("orders", ORDERS)
def test_left_ideal_filters_match_per_call_code(orders):
    for B in census_braces(orders):
        expected = old_left_ideals(B)
        assert left_ideals(B) == expected
        strong = tuple(s for s in expected if old_is_normal(B.dot, s))
        assert strong_left_ideals(B) == strong
        assert ideals(B) == tuple(s for s in strong
                                  if old_is_normal(B.circ, s))


@pytest.mark.parametrize("orders", ORDERS)
def test_cached_orbit_steps_equal_fresh_ones(orders):
    for G in catalog_of(orders):
        n = G.order
        gens = G._aut_generators
        steps = old_orbit_steps(gens, n)
        # each cached step is the shared routine _relabeler(g); closures
        # compare by identity, so compare what they make
        assert [g for g, _ in G._relabel_steps] \
            == [g for g, _, _ in steps], G.name
        table = flat(G.table)
        for (g, relabel), (_, values, positions) in zip(G._relabel_steps,
                                                         steps):
            assert relabel(table) == _relabeler(g)(table) \
                == bytes(positions(table.translate(values))), G.name
        for orbit, _, report in analysis._enumerate_classes(G.table):
            found = flat(report.operation.table)
            assert analysis._orbit(found, G) == old_orbit(found, gens, n)
            assert analysis._orbit(found, G) == orbit


# -- the facts themselves ----------------------------------------------------------

@pytest.mark.parametrize("name", catalog_names())
def test_facts_match_their_definitions(name):
    G = group_by_name(name)
    n = G.order
    assert list(G._subgroup_members) == list(subgroups(G))
    assert all(members == frozenset(s)
               for s, members in G._subgroup_members.items())
    cyclic = {}
    for a in range(n):
        cyclic.setdefault(frozenset(cyclic_subgroup(G, a)), []).append(a)
    assert dict(G._cyclic_powers) == cyclic
    assert [min(gens) for _, gens in G._cyclic_powers] \
        == sorted(min(gens) for gens in cyclic.values())
    assert G._conjugation_rows == tuple(
        tuple(G.conj(a, g) for a in range(n)) for g in range(n))


FACTS = ("_subgroup_members", "_cyclic_powers", "_conjugation_rows",
         "_relabel_steps")


@pytest.mark.parametrize("name", catalog_names())
def test_with_name_carries_the_facts(name):
    G = group_by_name(name)
    known = {fact: getattr(G, fact) for fact in FACTS}
    renamed = G.with_name(f"{name} renamed")
    assert renamed is not G
    for fact, value in known.items():
        assert vars(renamed)[fact] is value, fact


# -- the S_n oracle grows only normalized subgroups -----------------------------

ORACLE_GROUPS = [G.name for n in range(1, 7) for G in groups_of_order(n)] + [
    pytest.param(name, marks=requires_heavy)
    for name in ("C8", "Q8", "D4", "C4xC2", "C2xC2xC2", "C9", "C3xC3")]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_pruned_oracle_equals_unpruned_growth(name):
    G = group_by_name(name)
    found = perms.regular_subgroups_normalized_by(G, bound=9)
    assert [R.elements for R in found] == unpruned_oracle(G)


def test_every_grown_subgroup_is_checked(monkeypatch):
    # the normalization check stays on every subgroup the pruned growth
    # accepts, so a growth that let a wrong one through is named
    monkeypatch.setattr(perms, "_normalized_by_translations",
                        lambda elems, G: False)
    with pytest.raises(InternalInconsistency, match="not normalized"):
        perms.regular_subgroups_normalized_by(group_by_name("D3"))
