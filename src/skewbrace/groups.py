"""Exact finite-group arithmetic on validated Cayley tables.

Groups live on the element set 0..n-1 with 0 as the identity.  Everything
is immutable; the heavy computations (subgroup lattice, automorphism
group) are memoized per table.  A table is validated once, where it
enters, by make_group; a table derived from valid groups (a quotient, a
subgroup, a semidirect product along a checked action, a relabeling along
a bijection) is a group by construction and _trusted_group builds it as is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import (
    NoIdentityAtZero,
    NotAHomomorphism,
    NotAssociative,
    NotAutomorphism,
    NotLatinSquare,
    NotNormal,
    require,
)

Subgroup = tuple[int, ...]   # strictly increasing element indices, contains 0


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table; table[a][b] = a*b, identity 0."""

    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...] = field(compare=False)
    name: str | None = field(default=None, compare=False)

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

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inverse[a], -k)
        x = 0
        while k:
            x = self.table[x][a]
            k -= 1
        return x

    def element_order(self, a: int) -> int:
        x = a
        k = 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        t = self.table
        return all(row[b] == t[b][a] for a, row in enumerate(t) for b in range(a))

    def is_cyclic(self) -> bool:
        n = self.order
        return any(self.element_order(a) == n for a in range(n))

    def exponent(self) -> int:
        e = 1
        for a in range(self.order):
            k = self.element_order(a)
            e = e // math.gcd(e, k) * k
        return e

    def with_name(self, name: str) -> FiniteGroup:
        return FiniteGroup(self.table, self.inverse, name)

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"FiniteGroup({label})"


def make_group(table, name: str | None = None) -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Raises NoIdentityAtZero, NotLatinSquare or NotAssociative, naming the
    first offending element or triple.
    """
    rows = tuple(tuple(int(x) for x in row) for row in table)
    n = len(rows)
    if n == 0:
        raise NoIdentityAtZero("empty table has no identity")
    for a, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquare(f"row {a} has length {len(row)}, expected {n}")
        for x in row:
            if not 0 <= x < n:
                raise NotLatinSquare(f"row {a} contains out-of-range entry {x}")
    for a in range(n):
        if rows[0][a] != a:
            raise NoIdentityAtZero(f"table[0][{a}] = {rows[0][a]} != {a}")
        if rows[a][0] != a:
            raise NoIdentityAtZero(f"table[{a}][0] = {rows[a][0]} != {a}")
    full = frozenset(range(n))
    for a in range(n):
        if frozenset(rows[a]) != full:
            raise NotLatinSquare(f"row {a} is not a permutation of 0..{n - 1}")
    for b in range(n):
        if len({rows[a][b] for a in range(n)}) != n:
            raise NotLatinSquare(f"column {b} is not a permutation of 0..{n - 1}")
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return _trusted_group(rows, name)


def _trusted_group(table, name: str | None = None) -> FiniteGroup:
    """The group of a table already checked by make_group or derived from
    valid groups: builds the inverse array and checks nothing."""
    rows = tuple(map(tuple, table))
    return FiniteGroup(rows, tuple(row.index(0) for row in rows), name)


def opposite_table(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    n = G.order
    return tuple(tuple(G.table[b][a] for b in range(n)) for a in range(n))


def opposite_group(G: FiniteGroup) -> FiniteGroup:
    return _trusted_group(opposite_table(G), f"{G.name}^op" if G.name else None)


def closure(G: FiniteGroup, seed) -> Subgroup:
    """Subgroup generated by the given elements (identity always included)."""
    table = G.table
    members = {0}
    todo = [0]
    for g in seed:
        if g not in members:
            members.add(g)
            todo.append(g)
    i = 0
    elems = todo
    while i < len(elems):
        a = elems[i]
        for j in range(len(elems)):
            b = elems[j]
            for c in (table[a][b], table[b][a]):
                if c not in members:
                    members.add(c)
                    elems.append(c)
        i += 1
    return tuple(sorted(members))


def cyclic_subgroup(G: FiniteGroup, a: int) -> Subgroup:
    members = [0]
    x = a
    while x != 0:
        members.append(x)
        x = G.table[x][a]
    return tuple(sorted(members))


def is_subgroup(G: FiniteGroup, elems) -> bool:
    s = set(elems)
    if 0 not in s:
        return False
    return all(G.table[a][b] in s for a in s for b in s)


@functools.lru_cache(maxsize=None)
def subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, as canonically sorted element tuples.

    Seeds with the cyclic subgroups and closes under pairwise join until
    a fixpoint; correct for any finite group at this scale.
    """
    n = G.order
    subs = {(0,)}
    subs.update(cyclic_subgroup(G, a) for a in range(n))
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


def is_normal(G: FiniteGroup, sub) -> bool:
    s = set(sub)
    return all(G.conj(a, g) in s for a in s for g in range(G.order))


def normalizer(G: FiniteGroup, sub) -> Subgroup:
    s = set(sub)
    return tuple(g for g in range(G.order)
                 if all(G.conj(a, g) in s for a in s))


def center(G: FiniteGroup) -> Subgroup:
    t = G.table
    n = G.order
    return tuple(a for a in range(n) if all(t[a][b] == t[b][a] for b in range(n)))


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    t = G.table
    n = G.order
    comms = {t[t[a][b]][t[G.inverse[a]][G.inverse[b]]]
             for a in range(n) for b in range(n)}
    return closure(G, comms)


@dataclass(frozen=True)
class GroupMap:
    """A homomorphism stored as the image array of every source element."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def compose(self, other: GroupMap) -> GroupMap:
        """self after other."""
        return GroupMap(other.source, self.target,
                        tuple(self.images[x] for x in other.images))

    def inverse_map(self) -> GroupMap:
        inv = [0] * len(self.images)
        for a, b in enumerate(self.images):
            inv[b] = a
        return GroupMap(self.target, self.source, tuple(inv))


def is_homomorphism(f: GroupMap) -> bool:
    s, t, im = f.source.table, f.target.table, f.images
    n = len(im)
    return im[0] == 0 and all(im[s[a][b]] == t[im[a]][im[b]]
                              for a in range(n) for b in range(n))


@functools.lru_cache(maxsize=None)
def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Deterministic generators: repeatedly adjoin the least element outside
    the closure of what we have."""
    gens = []
    have = {0}
    while len(have) < G.order:
        g = min(a for a in range(G.order) if a not in have)
        gens.append(g)
        have = set(closure(G, gens))
    return tuple(gens)


def _try_extend(G: FiniteGroup, H: FiniteGroup, images: list[int],
                defined: list[int], g: int, h: int):
    """Set images[g] = h and close under products, checking consistency.

    Returns the updated (images, defined) pair or None on conflict.  All
    ordered pairs of defined elements end up checked, so a fully defined
    result is a verified homomorphism on the closed set.
    """
    gt, ht = G.table, H.table
    images = images[:]
    defined = defined[:]
    if images[g] != -1:
        return (images, defined) if images[g] == h else None
    images[g] = h
    defined.append(g)
    i = len(defined) - 1
    while i < len(defined):
        a = defined[i]
        ia = images[a]
        for j in range(len(defined)):
            b = defined[j]
            ib = images[b]
            c = gt[a][b]
            hc = ht[ia][ib]
            ic = images[c]
            if ic == -1:
                images[c] = hc
                defined.append(c)
            elif ic != hc:
                return None
            c = gt[b][a]
            hc = ht[ib][ia]
            ic = images[c]
            if ic == -1:
                images[c] = hc
                defined.append(c)
            elif ic != hc:
                return None
        i += 1
    return images, defined


def homomorphisms(G: FiniteGroup, H: FiniteGroup, *, bijective: bool = False,
                  first_only: bool = False) -> list[GroupMap]:
    """All homomorphisms G -> H by backtracking over generator images.

    Candidate images are pruned by element-order divisibility (equality
    when bijective).  Deterministic: candidates are tried in index order.
    """
    gens = generating_set(G)
    gen_orders = [G.element_order(g) for g in gens]
    h_orders = [H.element_order(h) for h in range(H.order)]
    found: list[GroupMap] = []

    start_images = [-1] * G.order
    start_images[0] = 0

    def backtrack(level: int, images: list[int], defined: list[int]) -> bool:
        if level == len(gens):
            f = GroupMap(G, H, tuple(images))
            if bijective and not f.is_bijective():
                return False
            found.append(f)
            return True
        g = gens[level]
        go = gen_orders[level]
        for h in range(H.order):
            ho = h_orders[h]
            if bijective:
                if ho != go:
                    continue
            elif go % ho != 0:
                continue
            ext = _try_extend(G, H, images, defined, g, h)
            if ext is None:
                continue
            if bijective and len({ext[0][d] for d in ext[1]}) != len(ext[1]):
                continue
            if backtrack(level + 1, ext[0], ext[1]) and first_only:
                return True
        return False

    backtrack(0, start_images, [0])
    return found


@functools.lru_cache(maxsize=None)
def automorphisms(G: FiniteGroup) -> tuple[GroupMap, ...]:
    """The full automorphism group as explicit maps (identity included)."""
    auts = homomorphisms(G, G, bijective=True)
    require(any(f.images == tuple(range(G.order)) for f in auts),
            "identity is not an automorphism")
    return tuple(auts)


def isomorphism(G: FiniteGroup, H: FiniteGroup) -> GroupMap | None:
    """Some isomorphism G -> H (the first in backtracking order), or None."""
    if G.order != H.order:
        return None
    if sorted(G.element_order(a) for a in range(G.order)) != \
            sorted(H.element_order(a) for a in range(H.order)):
        return None
    maps = homomorphisms(G, H, bijective=True, first_only=True)
    return maps[0] if maps else None


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return isomorphism(G, H) is not None


@dataclass(frozen=True)
class DistinguishedSubgroups:
    center: Subgroup
    norm: Subgroup
    characteristic: tuple[Subgroup, ...]
    normal: tuple[Subgroup, ...]


@functools.lru_cache(maxsize=None)
def distinguished_subgroups(G: FiniteGroup) -> DistinguishedSubgroups:
    """Center, norm (intersection of all subgroup normalizers),
    characteristic subgroups and normal subgroups."""
    subs = subgroups(G)
    norm: set[int] = set(range(G.order))
    for s in subs:
        norm &= set(normalizer(G, s))
    auts = automorphisms(G)
    characteristic = tuple(s for s in subs
                           if all(frozenset(f(a) for a in s) == frozenset(s)
                                  for f in auts))
    normal = tuple(s for s in subs if is_normal(G, s))
    return DistinguishedSubgroups(center(G), tuple(sorted(norm)),
                                  characteristic, normal)


def is_power_automorphism(G: FiniteGroup, f: GroupMap) -> bool:
    """True iff f maps every element into the cyclic subgroup it generates.

    Computes the elementwise and the subgroupwise characterisations and
    insists they agree.
    """
    if f.source != G or f.target != G or not f.is_bijective() \
            or not is_homomorphism(f):
        raise NotAutomorphism("map is not an automorphism of the given group")
    elementwise = all(f(a) in set(cyclic_subgroup(G, a)) for a in range(G.order))
    subgroupwise = all(frozenset(f(a) for a in s) == frozenset(s)
                       for s in subgroups(G))
    require(elementwise == subgroupwise, "power tests disagree")
    return elementwise


def quotient(G: FiniteGroup, N) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup, plus the projection map.

    Cosets are relabeled 0..n/|N|-1 in order of their least element, so the
    coset of 0 is the identity.
    """
    ns = set(N)
    if not is_subgroup(G, ns):
        raise NotNormal(f"{tuple(N)} is not a subgroup")
    if not is_normal(G, ns):
        raise NotNormal(f"{tuple(N)} is not normal")
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
    """
    elems = tuple(sorted(set(sub)))
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[G.table[a][b]] for b in elems] for a in elems]
    return _trusted_group(table), elems


def _pair_index(a: int, b: int, nb: int) -> int:
    return a * nb + b


def semidirect_product(A: FiniteGroup, B: FiniteGroup, action) -> FiniteGroup:
    """A semidirect product on pairs, (a,b)(c,d) = (a * action[b](c), b*d).

    action is a sequence of |B| permutations of A's elements; it must be a
    homomorphism from B into Aut(A).
    """
    action = tuple(tuple(p) for p in action)
    if len(action) != B.order:
        raise NotAHomomorphism("action must assign one map per element of B")
    for b, p in enumerate(action):
        f = GroupMap(A, A, p)
        if not (f.is_bijective() and is_homomorphism(f)):
            raise NotAHomomorphism(f"action[{b}] is not an automorphism of A")
    for b1 in range(B.order):
        for b2 in range(B.order):
            composed = tuple(action[b1][action[b2][a]] for a in range(A.order))
            if composed != action[B.table[b1][b2]]:
                raise NotAHomomorphism(
                    f"action[{b1}]*action[{b2}] != action[{b1}*{b2}]")
    na, nb = A.order, B.order
    n = na * nb
    table = [[0] * n for _ in range(n)]
    for a in range(na):
        for b in range(nb):
            i = _pair_index(a, b, nb)
            row = table[i]
            for c in range(na):
                for d in range(nb):
                    row[_pair_index(c, d, nb)] = _pair_index(
                        A.table[a][action[b][c]], B.table[b][d], nb)
    return _trusted_group(table)


def trivial_action(A: FiniteGroup, B: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    ident = tuple(range(A.order))
    return tuple(ident for _ in range(B.order))


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    name = f"{A.name}x{B.name}" if A.name and B.name else None
    G = semidirect_product(A, B, trivial_action(A, B))
    return G.with_name(name) if name else G


def inversion_action(A: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The order-2 action of C2 on an abelian group by inversion."""
    return (tuple(range(A.order)), A.inverse)
