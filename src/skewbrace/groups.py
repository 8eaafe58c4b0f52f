"""Exact finite-group arithmetic on validated Cayley tables.

Groups live on the element set 0..n-1 with 0 as the identity.  Everything
is immutable.  Memoization follows one rule: a fact of one table lives
with the table, and a result keyed on more than one value keeps a module
cache.  So this layer has no module cache: the facts of a table are
computed once, from the table alone, and kept in one store, a _Facts dict,
which is made from the table and its hash and seeded with nothing else.  A
FiniteGroup is a plain named handle on it: the store is its __dict__ and
the name sits in a slot, so any number of handles, under any names, share
one store, and subgroups, automorphisms, distinguished_subgroups and the
like read one fact in one line.  A weak registry, _LIVE, keyed on the
table alone, holds the store of every live table, so each fact is computed
once per table while any handle on it is held, and nothing keeps a dropped
group alive: a store refers to no handle on its own table.  A fact that
names a group, such as the GroupMaps of automorphisms(G), is kept as image
tuples and built on the handle that asks.

A table is validated once, where it enters.  make_group checks it in full,
on a handle on its store, and records in the store that it passed; the
checks read the transpose and the generating set as facts of that handle,
so they build the very facts the group keeps.  On a table that has passed,
make_group returns a new handle on the store under the name asked for and
checks nothing again.  A table that has never passed is checked in full on
every call, also when it is live through _trusted_group.  A table derived
from valid groups (a quotient, a subgroup, a semidirect product along a
checked action, a relabeling along a bijection) is a group by construction
and _trusted_group takes it as is.

Every law is checked on generators, by one argument: a map that respects
multiplication by every generator (x -> x*g) respects every word in them,
so every product.  is_homomorphism, center, is_normal and the action check
of semidirect_product use generating_set(G); make_group uses Light's
associativity test on the generators its checked Latin square reaches
every element by.  Each check accepts exactly what the full pair or
triple loop accepts, and names a pair or triple that really fails.  The
checks compare whole rows, each built by one C-level itemgetter call
through the table or its transpose G.columns (columns[b] is a -> a*b),
and _first_difference names the element at which two rows part.

Homomorphisms, isomorphisms and automorphisms come from one backtracking
search, _Extender, over the images of generating_set(G).  Each level
spreads the map known on <g_0..g_{k-1}> to <g_0..g_k> incrementally, as
_adjoin closes a subgroup, and is undone in place when it fails.  A
bijective search tries for g_k only the images of its order that are
central exactly when it is, and isomorphism compares the fingerprints and
the centre sizes before it searches.  Aut(G) comes from the stabilizer
chain on the generators: one transversal per level, taken from the first
extensions one search finds with g_0..g_{k-1} fixed, and the products of
one element per level.  The chain is small (Σ|T_k| maps for Π|T_k|
automorphisms) and is kept on G.  _automorphism_images(G) streams the
products, so the holomorph and the cyclic scan keep no product;
_automorphism_images_up_to_stabilizer(G) streams only one image of g_0 per
Stab(g_0)-orbit.  automorphisms(G) sorts the products by their generator
images and keeps them; _automorphism_count(G) is Π|T_k|.
G._aut_generators is a small generating set of Aut(G), adjoined greedily
from the stream by descending element order (2 maps for C2xC2xC2, C3xC3
and C3xC3xC3, 3 for Heisenberg-27), and keeps no other map; the census
relabels along it, and a subgroup is characteristic when those maps keep
it.  The subgroup lattice is grown from the cyclic subgroups by joining
each subgroup found with one generator per cyclic subgroup, closed along
the generators.

This lowest layer keeps the one copy of the helpers the layers above
share: _compose, _invert and _itemgetter on image tuples, _relabeler on
flat tables, and _ints and _int_maps for input that must be integers.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import weakref

from .errors import (
    BadParameters,
    NoIdentityAtZero,
    NotAHomomorphism,
    NotAssociative,
    NotAutomorphism,
    NotLatinSquare,
    NotNormal,
    require,
)

Subgroup = tuple[int, ...]   # strictly increasing element indices, contains 0


class _Facts(dict):
    """The facts of one table: the __dict__ that every handle on it
    shares.  Made from the table (and its hash) alone, it holds each
    cached property once computed, and _checked once make_group passed."""

    __slots__ = ("__weakref__",)


class FiniteGroup:
    """A finite group as a Cayley table; table[a][b] = a*b, identity 0.

    A frozen value: setting or deleting an attribute raises
    dataclasses.FrozenInstanceError, and equality and hash are those of
    the table.  An instance is a plain named handle: every fact of the
    table is computed once, on first use, and kept under its own name in
    the table's _Facts, which is the __dict__ of every handle on the table
    whatever its name: hash, transpose, inverses, element orders, centre
    flags, generating set, fingerprint, the stabilizer chain of Aut(G),
    Aut(G) as image tuples and a small generating set of it, the subgroup
    lattice as member sets, the distinguished subgroups, N(G)/Z(G),
    cyclic subgroups with their generators, conjugation rows and orbit
    relabeling steps.  The name alone is the handle's own; handles are
    made freely and compared by value.  A group made by calling
    FiniteGroup(table, name) has a store of its own, outside the registry,
    and is not checked: make_group validates a table.
    """

    __slots__ = ("name", "__dict__", "__weakref__")

    def __init__(self, table, name: str | None = None) -> None:
        _handle(_Facts(table=tuple(map(tuple, table))), name, self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return self._table_hash

    def __setattr__(self, name: str, value=None) -> None:
        # imported on this error path only: dataclasses pulls in inspect
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"field {name!r} of a group is frozen")

    __delattr__ = __setattr__

    @functools.cached_property
    def _table_hash(self) -> int:
        return hash(self.table)

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: columns[b][a] = a*b, the map x -> x*b."""
        return tuple(zip(*self.table))

    @functools.cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[a] is the inverse of a: the b with a*b = 0."""
        return tuple(row.index(0) for row in self.table)

    @functools.cached_property
    def element_orders(self) -> tuple[int, ...]:
        """element_orders[a] is the order of a.  Each cyclic subgroup is
        walked once: the k-th power of an element of order m has order
        m / gcd(m, k)."""
        t = self.table
        orders = [0] * len(t)
        for a, known in enumerate(orders):
            if known:
                continue
            powers = _powers(t, a)
            m = len(powers)
            for k, x in enumerate(powers):
                orders[x] = m // math.gcd(m, k)
        return tuple(orders)

    @functools.cached_property
    def central(self) -> tuple[bool, ...]:
        """central[a] is whether a commutes with every element; commuting
        with every generator suffices."""
        t = self.table
        gens = generating_set(self)
        return tuple(all(row[g] == t[g][a] for g in gens)
                     for a, row in enumerate(t))

    @functools.cached_property
    def _generators(self) -> tuple[int, ...]:
        return _greedy_generators(self.table)

    @functools.cached_property
    def _transversals(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The stabilizer chain of Aut(G) that _automorphism_images
        describes, one transversal per generator: Σ|T_k| maps, where
        Aut(G) has Π|T_k|."""
        # one search: g_0..g_{k-1} -> themselves is spread once per level,
        # and each candidate image of g_k is advanced, completed to the
        # first automorphism and retreated
        search = _Extender(self, self, bijective=True)
        levels = []
        for g, candidates in zip(search.gens, search.candidates):
            for h in candidates:
                new = search.advance(h)
                if new is not None:
                    search.complete(first_only=True)
                    search.retreat(new)
            levels.append(tuple(search.found))
            search.found.clear()
            search.advance(g)
        return tuple(levels)

    @functools.cached_property
    def _subgroup_members(self) -> dict[Subgroup, frozenset[int]]:
        """Each subgroup's member set, keyed on it; see subgroups(G)."""
        cyclic = {tuple(sorted(powers)): gens[0]
                  for powers, gens in self._cyclic_powers}
        found = {C: (a,) for C, a in cyclic.items()}
        todo = list(found)
        for S in todo:
            members = list(map(set(S).__contains__, range(self.order)))
            for c in cyclic.values():
                if members[c]:
                    continue
                gens = found[S] + (c,)
                J = tuple(sorted(S + tuple(_adjoin(self.table, S,
                                                   members.copy(), gens))))
                if J not in found:
                    found[J] = gens
                    todo.append(J)
        return {s: frozenset(s) for s in sorted(found)}

    @functools.cached_property
    def _cyclic_powers(self) -> tuple[tuple[frozenset[int], list[int]], ...]:
        """Each cyclic subgroup's member set with its generators in
        increasing order, by least generator."""
        by_set: dict[frozenset[int], list[int]] = {}
        for a in range(len(self.table)):
            by_set.setdefault(frozenset(_powers(self.table, a)), []).append(a)
        return tuple(by_set.items())

    @functools.cached_property
    def _conjugation_rows(self) -> tuple[tuple[int, ...], ...]:
        """_conjugation_rows[g][a] = g*a*g^-1: (x -> x*g^-1) after row g."""
        t, cols, inv = self.table, self.columns, self.inverse
        return tuple(_compose(cols[inv[g]], row) for g, row in enumerate(t))

    @functools.cached_property
    def _relabel_steps(self) -> tuple:
        """analysis._orbit's step per map g of G._aut_generators:
        (g, _relabeler(g)), which relabels flat n*n tables along g."""
        return tuple((g, _relabeler(g)) for g in self._aut_generators)

    @functools.cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Aut(G) as image tuples, in the order automorphisms(G) gives."""
        key = operator.itemgetter(0, *generating_set(self))
        return tuple(sorted(_automorphism_images(self), key=key))

    @functools.cached_property
    def _aut_generators(self) -> tuple[tuple[int, ...], ...]:
        """A small generating set of Aut(G), as image tuples: walking the
        maps of _automorphism_images(G) by descending order, then by
        generator images, each map not yet generated is adjoined and the
        generated subgroup is grown along x -> x∘g, as _greedy_generators
        does for group elements.  Maps of large order come first and
        reach many maps at once: 2 generators for C2xC2xC2, C3xC3 and
        C3xC3xC3, 3 for Heisenberg-27.  phi^k is the identity iff it fixes
        every generator, so the order of phi is the lcm of its cycle
        lengths through generating_set(G).  The walk is dropped once
        read, so G keeps no map list when its generators alone are asked
        for."""
        gens = generating_set(self)
        key = operator.itemgetter(0, *gens)

        def rank(f):
            return -math.lcm(*(_cycle_length(f, g) for g in gens)), key(f)

        walk = sorted(_automorphism_images(self), key=rank)
        out = []
        # x∘g is right(x) for right = _itemgetter(g)
        rights = []
        reached = {tuple(range(self.order))}
        for f in walk:
            if f in reached:
                continue
            out.append(f)
            rights.append(_itemgetter(f))
            # the reached subgroup H is closed under the old generators, and
            # H∘f is a new coset; each newly reached map needs every one
            new = list(map(rights[-1], reached))
            reached.update(new)
            for x in new:
                for right in rights:
                    y = right(x)
                    if y not in reached:
                        reached.add(y)
                        new.append(y)
        require(len(reached) == len(walk),
                "automorphism generators do not reach all of Aut(G)")
        return tuple(out)

    @functools.cached_property
    def _distinguished(self) -> DistinguishedSubgroups:
        subs = self._subgroup_members.items()
        norm = tuple(g for g, row in enumerate(self._conjugation_rows)
                     if all(members.issuperset(map(row.__getitem__, s))
                            for s, members in subs))
        # a map is a bijection, so keeping s into s keeps it
        char = tuple(s for s, members in subs
                     if all(members.issuperset(map(f.__getitem__, s))
                            for f in self._aut_generators))
        normal = tuple(s for s, members in subs if _is_normal(self, members))
        return DistinguishedSubgroups(center(self), norm, char, normal)

    @functools.cached_property
    def _norm_mod_center(self) -> tuple[FiniteGroup, tuple[Subgroup, ...]]:
        """N(G)/Z(G) and, per quotient element, its coset in G (sorted):
        the quotient of the norm of _distinguished by the centre, read
        through the norm as a group of its own."""
        dist = self._distinguished
        ngrp, nelems = subgroup_group(self, dist.norm)
        z_local = tuple(sorted(nelems.index(z) for z in dist.center))
        Q, proj = quotient(ngrp, z_local)
        cosets: list[list[int]] = [[] for _ in range(Q.order)]
        for local, g in enumerate(nelems):
            cosets[proj(local)].append(g)
        return Q, tuple(tuple(sorted(c)) for c in cosets)

    @functools.cached_property
    def _fingerprint(self) -> tuple:
        return (self.order, self.is_abelian(),
                tuple(sorted(self.element_orders)))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """Conjugate of a by b:  b * a * b^-1."""
        return self.table[self.table[b][a]][self.inverse[b]]

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a, b in itertools.combinations(generating_set(self), 2))

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    def with_name(self, name: str) -> FiniteGroup:
        """A handle on this table under name: it shares this group's
        facts."""
        return _handle(vars(self), name)

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"FiniteGroup({label})"


def make_group(table, name: str | None = None) -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Raises NoIdentityAtZero, NotLatinSquare or NotAssociative, naming an
    offending element or triple, and BadParameters for a name that is
    not a string.  Associativity is Light's test on the generators the
    square's own rows reach every element by.  A table that has passed
    once is not checked again while it is live: a new handle on its store,
    under name, is handed out.  Any other table is checked on a handle
    on its store, registered only once every check has passed.
    """
    if name is not None and not isinstance(name, str):
        raise BadParameters(f"group name must be a string, got {name!r}")
    try:
        given = tuple(table)
    except TypeError:
        raise NotLatinSquare(f"table {table!r} is not a sequence of rows") \
            from None
    rows = tuple(map(_ints, given))
    key = hash(rows)
    facts = _LIVE.get(key)
    if facts is None or facts["table"] != rows:
        facts = _Facts(table=rows, _table_hash=key)
    G = _handle(facts, name)
    if "_checked" not in facts:
        _check_table(G, given)
        facts["_checked"] = True
        _LIVE[key] = facts
    return G


def _check_table(G: FiniteGroup, given) -> None:
    """make_group's checks on G.table, the given rows as integer tuples
    (None where a row is not one): a Latin square with identity 0, then
    Light's test, along G.columns and G._generators, facts G keeps."""
    rows = G.table
    n = len(rows)
    if n == 0:
        raise NoIdentityAtZero("empty table has no identity")
    # each check runs on whole rows in C; an offender is named only once
    # its check has failed
    full = frozenset(range(n))
    for a, row in enumerate(rows):
        if row is None:
            raise NotLatinSquare(
                f"row {a} is not a sequence of integers: {given[a]!r}")
        if len(row) != n:
            raise NotLatinSquare(f"row {a} has length {len(row)}, expected {n}")
        if not full.issuperset(row):
            x = next(x for x in row if not 0 <= x < n)
            raise NotLatinSquare(f"row {a} contains out-of-range entry {x}")
    columns = G.columns
    identity = tuple(range(n))
    if rows[0] != identity or columns[0] != identity:
        for a in range(n):
            if rows[0][a] != a:
                raise NoIdentityAtZero(f"table[0][{a}] = {rows[0][a]} != {a}")
            if rows[a][0] != a:
                raise NoIdentityAtZero(f"table[{a}][0] = {rows[a][0]} != {a}")
    for a, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotLatinSquare(f"row {a} is not a permutation of 0..{n - 1}")
    for b, column in enumerate(columns):
        if len(set(column)) != n:
            raise NotLatinSquare(f"column {b} is not a permutation of 0..{n - 1}")
    # Light's test: the c with (a*b)*c = a*(b*c) for all a, b are closed
    # under products, so checking the c that reach every element suffices;
    # per a and c, the rows b -> (a*b)*c and b -> a*(b*c)
    for c in G._generators:
        right_c = columns[c]
        times_c = _itemgetter(right_c)
        for a, ra in enumerate(rows):
            left, right = _compose(right_c, ra), times_c(ra)
            if left != right:
                b = _first_difference(left, right)
                raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")


# the facts of each live table, keyed on the hash of the table
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _trusted_group(table, name: str | None = None) -> FiniteGroup:
    """The group of a table already checked by make_group or derived from
    valid groups, checking nothing: a new handle, under name, on the live
    table's facts when the table is live, else on new facts, registered.
    The table is hashed once, for the key and the store."""
    rows = tuple(map(tuple, table))
    key = hash(rows)
    facts = _LIVE.get(key)
    if facts is None or facts["table"] != rows:
        facts = _LIVE[key] = _Facts(table=rows, _table_hash=key)
    return _handle(facts, name)


def _handle(facts: _Facts, name: str | None,
            G: FiniteGroup | None = None) -> FiniteGroup:
    """G, or a new FiniteGroup, made a handle named name on the table's
    store facts, which keeps no reference to it."""
    if G is None:
        G = object.__new__(FiniteGroup)
    object.__setattr__(G, "__dict__", facts)
    object.__setattr__(G, "name", name)
    return G


def opposite_table(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The transposed table, a*b read as b*a."""
    return G.columns


def opposite_group(G: FiniteGroup) -> FiniteGroup:
    """G with a*b read as b*a."""
    return _trusted_group(opposite_table(G),
                          f"{G.name}^op" if G.name else None)


def closure(G: FiniteGroup, seed) -> Subgroup:
    """Subgroup generated by the given elements (identity always included):
    the products of seed elements, reached from 0 along x -> x*g by
    adjoining one seed element at a time, as _greedy_generators does; in a
    finite group they already form a subgroup.  Raises BadParameters when
    a seed value is not an element of G."""
    gens = _elements(G, seed)
    seen = [True] + [False] * (G.order - 1)
    reached = [0]
    for k in range(1, len(gens) + 1):
        reached += _adjoin(G.table, reached, seen, gens[:k])
    return tuple(sorted(reached))


def _elements(G: FiniteGroup, values) -> tuple[int, ...]:
    """The values as a tuple of elements of G, or BadParameters; a value
    that operator.index rejects is not an element."""
    elems = _ints(values)
    if elems is None or not all(0 <= a < G.order for a in elems):
        raise BadParameters(f"{values!r} are not elements of {G!r}")
    return elems


def cyclic_subgroup(G: FiniteGroup, a: int) -> Subgroup:
    return closure(G, (a,))


def _powers(table, a: int) -> list[int]:
    """The powers 0, a, a^2, ... of the element a, its cyclic subgroup in
    walk order.  element_orders and _cyclic_powers walk many elements,
    where closure's input check and general walk cost five times as much."""
    powers = [0]
    x = a
    while x != 0:
        powers.append(x)
        x = table[x][a]
    return powers


def is_subgroup(G: FiniteGroup, elems) -> bool:
    """Whether elems is a subgroup; a value that operator.index rejects
    is not an element."""
    s = frozenset(_ints(elems) or ())
    return 0 in s and s <= set(range(G.order)) and _closed(G, s)


def _closed(G: FiniteGroup, members: frozenset[int]) -> bool:
    """Whether the trusted elements members are closed under products,
    one row a -> a*x over members per a."""
    within = _itemgetter(tuple(members))
    return all(members.issuperset(within(G.table[a])) for a in members)


def _ints(values) -> tuple[int, ...] | None:
    """The values as a tuple of ints, or None when they are not."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return None


def _integer(value, what: str, least: int | None = None) -> int:
    """value as an int, or BadParameters naming what it is for; a bool is
    not an integer here, and neither is a value below least."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or (least is not None and n < least):
        at_least = "" if least is None else f" >= {least}"
        raise BadParameters(f"{what} must be an integer{at_least}, "
                            f"got {value!r}")
    return n


def _itemgetter(q):
    """operator.itemgetter(*q), which maps a permutation p to p∘q (p
    after q) in C.  An itemgetter of one index returns an item, not a
    tuple, so a q of length 1 gets a getter of its own."""
    if len(q) == 1:
        (i,) = q
        return lambda p: (p[i],)
    return operator.itemgetter(*q)


def _compose(p, q) -> tuple[int, ...]:
    """p after q: _itemgetter(q)(p) in one frame."""
    if len(q) == 1:
        return (p[q[0]],)
    return operator.itemgetter(*q)(p)


def _relabeler(g):
    """The census's one relabel routine: flat row-major n*n tables along
    the bijection g, t -> u with u[g[a]][g[b]] = g[t[a][b]], by one
    translate through g and one itemgetter of the cells g sends there."""
    n = len(g)
    values = bytes(g) + bytes(range(n, 256))
    inv = _invert(g)
    positions = _itemgetter([a * n + b for a in inv for b in inv])
    return lambda t: bytes(positions(t.translate(values)))


def _first_difference(p, q) -> int:
    """The first index at which the rows p and q differ."""
    return next(i for i, (x, y) in enumerate(zip(p, q)) if x != y)


def _cycle_length(p, i: int) -> int:
    """Length of the cycle of the permutation p through the point i."""
    length = 1
    j = p[i]
    while j != i:
        j = p[j]
        length += 1
    return length


def _invert(p) -> tuple[int, ...]:
    """The inverse of the permutation p."""
    inv = [0] * len(p)
    for a, b in enumerate(p):
        inv[b] = a
    return tuple(inv)


def subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, as canonically sorted element tuples.

    Every subgroup is generated by its cyclic subgroups, so the lattice is
    grown from them: each subgroup found is joined with one generator c
    of every cyclic subgroup it misses.  <S, c> is reached from S along
    x -> x*g, keeping the generators S was reached by, as
    _greedy_generators does.
    """
    return tuple(G._subgroup_members)


def is_normal(G: FiniteGroup, sub) -> bool:
    """Whether conjugation keeps sub; BadParameters for a non-element."""
    return _is_normal(G, frozenset(_elements(G, sub)))


def _is_normal(G: FiniteGroup, members: frozenset[int]) -> bool:
    """is_normal for the trusted elements members, read off the
    conjugation rows of the generators of G."""
    rows = G._conjugation_rows
    return all(members.issuperset(map(rows[g].__getitem__, members))
               for g in generating_set(G))


def normalizer(G: FiniteGroup, sub) -> Subgroup:
    """The g with g*sub*g^-1 in sub; BadParameters for a non-element."""
    members = frozenset(_elements(G, sub))
    return tuple(g for g, row in enumerate(G._conjugation_rows)
                 if members.issuperset(map(row.__getitem__, members)))


def center(G: FiniteGroup) -> Subgroup:
    return tuple(a for a, z in enumerate(G.central) if z)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    t = G.table
    n = G.order
    comms = {t[t[a][b]][t[G.inverse[a]][G.inverse[b]]]
             for a in range(n) for b in range(n)}
    return closure(G, comms)


class GroupMap(collections.namedtuple("GroupMap", "source target images")):
    """A homomorphism stored as the image array of every source element."""

    __slots__ = ()

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def compose(self, other: GroupMap) -> GroupMap:
        """self after other."""
        return GroupMap(other.source, self.target,
                        _compose(self.images, other.images))

    def inverse_map(self) -> GroupMap:
        return GroupMap(self.target, self.source, _invert(self.images))


def is_homomorphism(f: GroupMap) -> bool:
    return f.images[0] == 0 and _respects_generators(
        f.images, f.source, f.target, generating_set(f.source))


def _respects_generators(images, source: FiniteGroup, target: FiniteGroup,
                         gens) -> bool:
    """images[a*g] == images[a]*images[g] for every a and every g in gens,
    one row per g: images∘(x -> x*g) == (y -> y*images[g])∘images.  The b
    with images[a*b] == images[a]*images[b] for all a are closed under
    products, so when images[0] == 0 and gens generate the source this is
    the same as the law for every pair."""
    sc, tc = source.columns, target.columns
    return all(_compose(images, sc[g]) == _compose(tc[images[g]], images)
               for g in gens)


def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Deterministic generators: repeatedly adjoin the least element outside
    the closure of what we have.  Computed once per group."""
    return G._generators


def _greedy_generators(table) -> tuple[int, ...]:
    """Adjoin the least element not yet reached from 0 along x -> x*g,
    until every element is reached.  Needs only a Latin square with
    identity 0, so make_group can use it before associativity is known;
    on a group the reached set is the subgroup generated."""
    n = len(table)
    gens: list[int] = []
    seen = [True] + [False] * (n - 1)
    reached = [0]
    while len(reached) < n:
        gens.append(seen.index(False))
        reached += _adjoin(table, reached, seen, gens)
    return tuple(gens)


def _adjoin(table, reached, seen: list[bool], gens) -> list[int]:
    """The elements newly reached from 0 along x -> x*g once gens[-1] is
    adjoined, where reached (flagged in seen) is closed under gens[:-1]:
    old members need only the new generator, and every newly reached
    element needs every generator.  Flags them in seen as it goes."""
    g = gens[-1]
    new = []
    for x in reached:
        y = table[x][g]
        if not seen[y]:
            seen[y] = True
            new.append(y)
    for x in new:
        row = table[x]
        for h in gens:
            y = row[h]
            if not seen[y]:
                seen[y] = True
                new.append(y)
    return new


def homomorphisms(G: FiniteGroup, H: FiniteGroup, *, bijective: bool = False,
                  first_only: bool = False) -> list[GroupMap]:
    """All homomorphisms G -> H by backtracking over generator images.

    A generator's image has order dividing its order; when bijective, the
    same order, and it is central exactly when the generator is.  At
    level k the map known on <g_0..g_{k-1}> is spread to <g_0..g_k> along
    x -> x*g_j, checking f(x*g_j) == f(x)*f(g_j) for every reached x and
    j <= k; with f(0) = 0 that makes it a homomorphism on the subgroup.
    Deterministic: candidates are tried in index order, so the maps come
    in lexicographic order of their generator images.  With bijective=True
    and |G| != |H| there are none.
    """
    if bijective and G.order != H.order:
        return []
    search = _Extender(G, H, bijective)
    search.complete(first_only)
    return [GroupMap(G, H, images) for images in search.found]


class _Extender:
    """The state of one backtracking search for homomorphisms G -> H
    (injective when bijective): the map known on <g_0..g_{k-1}>, where
    g_0.. = generating_set(G) and k = len(gen_images), and the members of
    that subgroup in the order they were reached.  advance spreads it to
    <g_0..g_k>, retreat undoes the last advance in place, and complete
    appends the image tuples of the maps that extend it to found.

    The candidate images of each generator are fixed first: a bijective
    map keeps element orders and sends the centre onto the centre, so its
    candidates for g are the h of g's order that are central exactly when
    g is; any map sends g to an h whose order divides g's.  The spread
    adjoins one generator at a time, as _adjoin does: members of
    <g_0..g_{k-1}> need only g_k, and each newly reached member needs
    every generator up to g_k.
    """

    __slots__ = ("gt", "ht", "bijective", "gens", "candidates", "images",
                 "used", "reached", "gen_images", "found")

    def __init__(self, G: FiniteGroup, H: FiniteGroup, bijective: bool):
        self.gt, self.ht, self.bijective = G.table, H.table, bijective
        self.gens = gens = generating_set(G)
        g_orders, h_orders = G.element_orders, H.element_orders
        if bijective:
            g_central, h_central = G.central, H.central
            self.candidates = [[h for h in range(H.order)
                                if h_orders[h] == g_orders[g]
                                and h_central[h] == g_central[g]]
                               for g in gens]
        else:
            self.candidates = [[h for h in range(H.order)
                                if g_orders[g] % h_orders[h] == 0]
                               for g in gens]
        self.images = [-1] * G.order
        self.images[0] = 0
        # used[y]: y is the image of a reached element (read only if
        # bijective)
        self.used = [False] * H.order
        self.used[0] = True
        self.reached = [0]
        self.gen_images: list[int] = []
        self.found: list[tuple[int, ...]] = []

    def _spread(self, members, steps, new: list[int]) -> bool:
        """Set f(x*g) = f(x)*h for x in members and (g, h) in steps,
        appending each element first reached to new (members may be new);
        False at a clash or, when bijective, a repeated image."""
        gt, ht, images, used = self.gt, self.ht, self.images, self.used
        bijective = self.bijective
        for x in members:
            row, fx = gt[x], ht[images[x]]
            for g, h in steps:
                y, fy = row[g], fx[h]
                if images[y] == -1 and not (bijective and used[fy]):
                    images[y] = fy
                    used[fy] = True
                    new.append(y)
                elif images[y] != fy:
                    return False
        return True

    def _undo(self, new: list[int]) -> None:
        images, used = self.images, self.used
        for y in new:
            used[images[y]] = False
            images[y] = -1

    def advance(self, h: int) -> list[int] | None:
        """Spread f from <g_0..g_{k-1}> to <g_0..g_k> with f(g_k) = h: the
        members it reaches, or None, with nothing changed, when no
        homomorphism does that."""
        gen_images = self.gen_images
        g = self.gens[len(gen_images)]
        new: list[int] = []
        if self._spread(self.reached, ((g, h),), new) and self._spread(
                new, tuple(zip(self.gens, gen_images + [h])), new):
            gen_images.append(h)
            self.reached.extend(new)
            return new
        self._undo(new)
        return None

    def retreat(self, new: list[int]) -> None:
        """Undo the last advance, which reached new."""
        self.gen_images.pop()
        del self.reached[len(self.reached) - len(new):]
        self._undo(new)

    def complete(self, first_only: bool) -> bool:
        """Append to found the image tuple of every map that extends the
        known one (of the first, when first_only), candidates tried in
        index order; True once first_only has found one."""
        level = len(self.gen_images)
        if level == len(self.gens):
            self.found.append(tuple(self.images))
            return True
        for h in self.candidates[level]:
            new = self.advance(h)
            if new is None:
                continue
            done = self.complete(first_only) and first_only
            self.retreat(new)
            if done:
                return True
        return False


def _automorphism_images(G: FiniteGroup, outer=None):
    """Yield every automorphism of G once, as its image tuple; given outer,
    a part of T_0 below, only the products t_0∘… with t_0 in outer.

    Built from the stabilizer chain on gens = generating_set(G), which G
    keeps.  Level k is a transversal T_k: for each h, the first
    automorphism that fixes g_0..g_{k-1} and sends g_k to h, if there is
    one (_Extender tries only the h of g_k's order that are central
    exactly when g_k is).  Every automorphism is t_0∘t_1∘…∘t_{d-1} for
    exactly one choice of t_k in T_k, so the search stops at Σ|T_k|
    first-found extensions and the rest is composition.  The products
    p = t_1∘…∘t_{d-1} are built once, and each t_0∘p is yielded as it is
    formed, t_0 outermost: nothing holds the Π|T_k| maps.  An
    automorphism is fixed by its generator images, so the products are
    told apart by those alone.
    """
    gens = generating_set(G)
    ident = tuple(range(G.order))
    transversals = G._transversals
    # t∘p is _itemgetter(p)(t).  The trivial group has no level and one
    # product, the identity.
    if outer is None:
        outer = transversals[0] if gens else [ident]
    inner = [ident]
    for level in reversed(transversals[1:]):
        getters = [_itemgetter(p) for p in inner]
        inner = [get(t) for t in level for get in getters]
    getters = [_itemgetter(p) for p in inner]
    # 0 is fixed by every map; it keeps the key valid for the trivial group
    key = operator.itemgetter(0, *gens)
    ident_key = key(ident)
    seen = set()
    has_identity = False
    for t in outer:
        for get in getters:
            p = get(t)
            k = key(p)
            if k == ident_key:
                has_identity = p == ident
            seen.add(k)
            yield p
    require(has_identity, "identity is not an automorphism")
    require(len(seen) == len(outer) * len(inner),
            "stabilizer chain products are not distinct")


def _automorphism_images_up_to_stabilizer(G: FiniteGroup):
    """The part of _automorphism_images(G) whose image of g_0 is the least
    point of its orbit under S_1 = Stab(g_0), which the levels T_1 … T_{d-1}
    generate: the t_0 of T_0 are kept by t_0(g_0) alone.  Conjugating by
    psi in S_1 sends phi to psi∘phi∘psi^-1 and phi(g_0) to psi(phi(g_0)), so
    the stream meets every S_1-conjugacy class of Aut(G).  S_1 fixes g_0,
    so the identity is among the products."""
    transversals = G._transversals
    if not transversals:
        return _automorphism_images(G)
    g0 = generating_set(G)[0]
    moves = [t for level in transversals[1:] for t in level]
    least = {}  # each point's orbit, named by its least point
    for h in range(G.order):
        if h in least:
            continue
        least[h] = h
        orbit = [h]
        for x in orbit:
            for t in moves:
                if t[x] not in least:
                    least[t[x]] = h
                    orbit.append(t[x])
    return _automorphism_images(
        G, [t for t in transversals[0] if least[t[g0]] == t[g0]])


def automorphisms(G: FiniteGroup) -> tuple[GroupMap, ...]:
    """The full automorphism group as explicit maps (identity included):
    the maps of _automorphism_images(G), sorted by their generator
    images, the order homomorphisms(G, G, bijective=True) gives.  The
    table keeps the image tuples; the maps are built on G itself."""
    return tuple(GroupMap(G, G, p) for p in G._automorphisms)


def _automorphism_count(G: FiniteGroup) -> int:
    """|Aut(G)|: the product of the transversal sizes of the stabilizer
    chain G keeps, read without forming a map."""
    return math.prod(map(len, G._transversals))


def fingerprint(G: FiniteGroup) -> tuple:
    """(order, abelian, sorted element orders): a hashable isomorphism
    invariant that tells every two catalog groups apart."""
    return G._fingerprint


def isomorphism(G: FiniteGroup, H: FiniteGroup) -> GroupMap | None:
    """Some isomorphism G -> H (the first in backtracking order), or None;
    the fingerprints, then the centre sizes, are compared first."""
    if fingerprint(G) != fingerprint(H) or sum(G.central) != sum(H.central):
        return None
    maps = homomorphisms(G, H, bijective=True, first_only=True)
    return maps[0] if maps else None


DistinguishedSubgroups = collections.namedtuple(
    "DistinguishedSubgroups", "center norm characteristic normal")


def distinguished_subgroups(G: FiniteGroup) -> DistinguishedSubgroups:
    """Center, norm (intersection of all subgroup normalizers),
    characteristic subgroups and normal subgroups.  The automorphisms
    that keep a subgroup form a subgroup of Aut(G), so a subgroup is
    characteristic when every map of G._aut_generators keeps it."""
    return G._distinguished


def is_power_automorphism(G: FiniteGroup, f: GroupMap) -> bool:
    """True iff f maps every element into the cyclic subgroup it generates.

    Computes the elementwise characterisation, one cyclic subgroup and its
    generators at a time, and the subgroupwise one, and insists they agree;
    both read the member sets G keeps, as f is a bijection.
    """
    if f.source != G or f.target != G \
            or _ints(f.images) is None \
            or sorted(f.images) != list(range(G.order)) \
            or not is_homomorphism(f):
        raise NotAutomorphism("map is not an automorphism of the given group")
    image = f.images.__getitem__
    elementwise = all(powers.issuperset(map(image, gens))
                      for powers, gens in G._cyclic_powers)
    subgroupwise = all(members.issuperset(map(image, s))
                       for s, members in G._subgroup_members.items())
    require(elementwise == subgroupwise, "power tests disagree")
    return elementwise


def quotient(G: FiniteGroup, N) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup, plus the projection map.

    Cosets are relabeled 0..n/|N|-1 in order of their least element, so the
    coset of 0 is the identity.
    """
    ns = _ints(N)
    if ns is None or not is_subgroup(G, ns):
        raise NotNormal(f"{N!r} is not a subgroup")
    if not _is_normal(G, frozenset(ns)):
        raise NotNormal(f"{N!r} is not normal")
    cosets: list[tuple[int, ...]] = []
    label_of = [-1] * G.order
    for a in range(G.order):
        if label_of[a] != -1:
            continue
        coset = tuple(sorted(G.table[a][x] for x in ns))
        idx = len(cosets)
        cosets.append(coset)
        for y in coset:
            label_of[y] = idx
    k = len(cosets)
    table = [[0] * k for _ in range(k)]
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            table[i][j] = label_of[G.table[ci[0]][cj[0]]]
    Q = _trusted_group(table)
    proj = GroupMap(G, Q, tuple(label_of))
    require(is_homomorphism(proj), "coset projection is not a homomorphism")
    return Q, proj


def subgroup_group(G: FiniteGroup, sub) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The subgroup as a group in its own right.

    Returns (group, elements): element i of the group is elements[i] in G.
    Raises BadParameters when sub is not a subgroup of G.
    """
    elems = tuple(sorted(set(_ints(sub) or ())))
    if not is_subgroup(G, elems):
        raise BadParameters(f"{sub!r} is not a subgroup of {G!r}")
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[G.table[a][b]] for b in elems] for a in elems]
    return _trusted_group(table), elems


def semidirect_product(A: FiniteGroup, B: FiniteGroup, action) -> FiniteGroup:
    """A semidirect product on pairs, (a,b)(c,d) = (a * action[b](c), b*d);
    the pair (a, b) is the element a*|B| + b.

    action is a sequence of |B| permutations of A's elements; it must be a
    homomorphism from B into Aut(A).
    """
    action = _int_maps(action)
    if len(action) != B.order:
        raise NotAHomomorphism("action must assign one map per element of B")
    ident = tuple(range(A.order))
    for b, p in enumerate(action):
        if sorted(p) != list(ident) \
                or not is_homomorphism(GroupMap(A, A, p)):
            raise NotAHomomorphism(f"action[{b}] is not an automorphism of A")
    # with action[0] the identity, products of generators of B suffice
    if action[0] != ident:
        raise NotAHomomorphism("action[0] is not the identity of A")
    for b1 in range(B.order):
        for b2 in generating_set(B):
            if _compose(action[b1], action[b2]) != action[B.table[b1][b2]]:
                raise NotAHomomorphism(
                    f"action[{b1}]*action[{b2}] != action[{b1}*{b2}]")
    na, nb = A.order, B.order
    n = na * nb
    table = [[0] * n for _ in range(n)]
    for a in range(na):
        for b in range(nb):
            row = table[a * nb + b]
            for c in range(na):
                for d in range(nb):
                    row[c * nb + d] = \
                        A.table[a][action[b][c]] * nb + B.table[b][d]
    return _trusted_group(table)


def _int_maps(maps, error=NotAHomomorphism):
    """Maps, such as an action or a set of permutations, as a tuple of
    integer tuples, or error if they are not one."""
    try:
        return tuple(tuple(map(operator.index, p)) for p in maps)
    except TypeError:
        raise error(f"{maps!r} is not a sequence of integer maps") from None


def trivial_action(A: FiniteGroup, B: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    return (tuple(range(A.order)),) * B.order


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    name = f"{A.name}x{B.name}" if A.name and B.name else None
    G = semidirect_product(A, B, trivial_action(A, B))
    return G.with_name(name) if name else G


def inversion_action(A: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The order-2 action of C2 on an abelian group by inversion."""
    return (tuple(range(A.order)), A.inverse)
