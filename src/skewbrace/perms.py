"""Permutation-level machinery: holomorphs, regular subgroups, transport.

Permutations are image tuples acting on the points 0..n-1.  A subgroup of
the symmetric group is regular when evaluation at 0 is a bijection onto
the point set; equivalently, it is transitive with every non-identity
element fixed-point-free.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator

from .errors import NotNormalized, NotRegular, OrderTooLargeForOracle, require
from .groups import (
    FiniteGroup,
    _automorphism_images,
    _automorphism_images_up_to_stabilizer,
    _compose,
    _cycle_length,
    _int_maps,
    _integer,
    _itemgetter,
    _trusted_group,
    generating_set,
    make_group,
    opposite_table,
)

Perm = tuple[int, ...]

ORACLE_DEFAULT_BOUND = 8

compose = _compose  # p after q, under its public name


def perm_order(p: Perm) -> int:
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


def is_fixed_point_free(p: Perm) -> bool:
    return not any(map(operator.eq, p, range(len(p))))


def left_translations(G: FiniteGroup) -> tuple[Perm, ...]:
    """lambda(sigma): tau -> sigma*tau; these are simply the table rows."""
    return G.table


def right_translations(G: FiniteGroup) -> tuple[Perm, ...]:
    """rho(sigma): tau -> tau*sigma^-1."""
    n = G.order
    return tuple(tuple(G.table[t][G.inverse[s]] for t in range(n))
                 for s in range(n))


class RegularSubgroup(collections.namedtuple("RegularSubgroup", "elements")):
    """A regular permutation group stored as its sorted element tuple."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.elements[0])


def regular_subgroup(perms) -> RegularSubgroup:
    """Validate closure, inverses and regularity of a permutation set."""
    elems = frozenset(_int_maps(perms, NotRegular))
    if not elems:
        raise NotRegular("no permutations given")
    n = len(next(iter(elems)))
    points = set(range(n))
    for p in elems:
        if len(p) != n or set(p) != points:
            raise NotRegular(f"{p} is not a permutation of 0..{n - 1}")
    rows = sorted(elems)
    if len(rows) != n or [p[0] for p in rows] != list(range(n)):
        raise NotRegular("evaluation at 0 is not a bijection")
    for p in elems:
        for q in elems:
            if compose(p, q) not in elems:
                raise NotRegular("set is not closed under composition")
    return RegularSubgroup(tuple(rows))


def holomorph(N: FiniteGroup) -> tuple[Perm, ...]:
    """The permutations tau -> a * phi(tau) for a in N, phi in Aut(N);
    Aut(N) is streamed, not kept."""
    perms = set()
    auts = 0
    for fi in _automorphism_images(N):
        auts += 1
        perms.update(map(_itemgetter(fi), N.table))
    out = tuple(sorted(perms))
    require(len(out) == N.order * auts, "repeated holomorph perm")
    return out


def transport_operation(R: RegularSubgroup) -> FiniteGroup:
    """Group on the points with a*b = (eta_a . eta_b)[0], eta_x[0] = x.

    Row a of the resulting table is exactly eta_a, which is R's a-th
    element in sorted order, so the left regular representation of the
    result is R itself.
    """
    rows = sorted(R.elements)
    if not rows or [p[0] for p in rows] != list(range(R.degree)):
        raise NotRegular("evaluation at 0 is not a bijection")
    return _trusted_group(rows)


def operation_from_regular_subgroup(R: RegularSubgroup, G: FiniteGroup) \
        -> FiniteGroup:
    """The opposite-transport operation a*b = nu(nu^-1(b) . nu^-1(a)), the
    transpose of the table of transport_operation(R).

    Together with G's own operation the result forms a skew brace; R must
    be normalized by the left translations of G.  The result is the
    oracle's reference, so it is validated in full.
    """
    T = transport_operation(R)
    if T.order != G.order:
        raise NotRegular("evaluation at 0 is not a bijection onto G")
    if not _normalized_by_translations(R.elements, G):
        raise NotNormalized(
            "subgroup is not normalized by the left translations")
    return make_group(opposite_table(T))


def _normalized_by_translations(elems, G: FiniteGroup) -> bool:
    """Whether G's left translations normalize the permutation group with
    these elements; conjugating by the generators of G suffices."""
    members = frozenset(elems)
    lam = left_translations(G)
    return all(compose(lam[s], compose(p, lam[G.inverse[s]])) in members
               for s in generating_set(G) for p in elems)


def _candidate_pool(perms, n: int) -> dict[int, list[Perm]]:
    """The perms that can be non-identity elements of a regular subgroup
    of degree n (fixed-point-free, order dividing n), bucketed by the
    image of 0 and sorted within each bucket."""
    pool: dict[int, list[Perm]] = {}
    for p in perms:
        if is_fixed_point_free(p) and n % perm_order(p) == 0:
            pool.setdefault(p[0], []).append(p)
    for lst in pool.values():
        lst.sort()
    return pool


def _grow_regular(candidates_by_start, n: int, accept) -> None:
    """Backtracking core shared by both enumerators.

    Grows a closed, fixed-point-free partial subgroup one candidate at a
    time; the candidate always sends 0 to the least uncovered point, so
    every regular subgroup is reached along exactly one branch.  The
    candidates taken so far generate the partial subgroup.
    """

    def close_with(members: dict[int, Perm], gens: tuple[Perm, ...]):
        # members maps value-at-0 to the unique element taking 0 there and
        # is closed under gens[:-1]; <members, c> for c = gens[-1] is reached
        # breadth-first along x -> x*g: old members need only c, new ones
        # every generator; x∘g is right(x) for right = _itemgetter(g)
        c = gens[-1]
        rights = list(map(_itemgetter, gens))
        out = dict(members)
        out[c[0]] = c
        new = [c]

        def add(r: Perm) -> bool:
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

    def grow(members: dict[int, Perm], gens: tuple[Perm, ...]) -> None:
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


def regular_subgroups_in_holomorph(N: FiniteGroup) \
        -> tuple[RegularSubgroup, ...]:
    """All regular subgroups of the holomorph of N, canonically sorted."""
    n = N.order
    found: list[tuple[Perm, ...]] = []
    _grow_regular(_candidate_pool(holomorph(N), n), n, found.append)
    return tuple(RegularSubgroup(f) for f in sorted(found))


def _n_cycle_subgroups(N: FiniteGroup, images):
    """The cyclic regular subgroups of Hol(N) that the n-cycles
    tau -> a*phi(tau) generate, for a in N and phi in images, a stream of
    automorphisms of N; and how many n-cycles of those subgroups the
    stream did not meet.

    Equivalent to filtering for n-cycles, without building Hol(N):
    (a, phi)^m is a translation when phi has order m, so (a, phi) has
    order m*k with k | exp(N), and only the phi with m | n and
    (n/m) | exp(N) are scanned.  No element of Hol(C3xC3xC3) passes.
    phi^k is the identity iff it fixes every generator of N, so m is the
    lcm of the phi-cycle lengths through the generators; the lcm only
    grows, so phi is dropped at the first generator that takes it off the
    divisors of n.  No map of the stream is kept.
    """
    n = N.order
    exp = N.exponent()
    gens = generating_set(N)
    found = set()
    covered = set()  # an n-cycle in a found subgroup generates that one
    cycles = 0
    for fi in images:
        m = 1
        for g in gens:
            m = math.lcm(m, _cycle_length(fi, g))
            if n % m != 0:
                break
        if n % m != 0 or exp % (n // m) != 0:
            continue
        for p in map(_itemgetter(fi), N.table):
            # an n-cycle generates a cyclic regular subgroup, and conversely
            if _cycle_length(p, 0) != n:
                continue
            cycles += 1
            if p in covered:
                continue
            elems = [tuple(range(n))]
            q = p
            while q != elems[0]:
                elems.append(q)
                q = compose(q, p)
            require(len(elems) == n, "an n-cycle does not have order n")
            covered.update(elems)
            found.add(tuple(sorted(elems)))
    # each subgroup found has totient(n) generators, all of them n-cycles
    unmet = sum(math.gcd(k, n) == 1 for k in range(n)) * len(found) - cycles
    require(unmet >= 0, "an n-cycle met lies in no subgroup found")
    return tuple(RegularSubgroup(f) for f in sorted(found)), unmet


def cyclic_regular_subgroups_in_holomorph(N: FiniteGroup) \
        -> tuple[RegularSubgroup, ...]:
    """The cyclic regular subgroups of Hol(N): one per n-cycle generator,
    found by scanning every element of Hol(N) that may be an n-cycle."""
    found, unmet = _n_cycle_subgroups(N, _automorphism_images(N))
    require(unmet == 0, "n-cycle count is not totient(n) per cyclic subgroup")
    return found


def _cyclic_regular_subgroups_up_to_aut(N: FiniteGroup) \
        -> tuple[RegularSubgroup, ...]:
    """Cyclic regular subgroups of Hol(N), at least one of each
    Aut(N)-conjugacy class, for the census of a cyclic target.

    Only the (a, phi) with phi(g_0) the least of its Stab(g_0)-orbit are
    scanned.  An n-cycle (a, phi) has a conjugate (psi(a), psi∘phi∘psi^-1)
    by some psi in Stab(g_0) that moves phi(g_0) there, of the same order,
    so every class keeps a generator in the scan.
    """
    return _n_cycle_subgroups(N, _automorphism_images_up_to_stabilizer(N))[0]


def regular_subgroups_normalized_by(G: FiniteGroup, *,
                                    bound: int = ORACLE_DEFAULT_BOUND) \
        -> tuple[RegularSubgroup, ...]:
    """Small-order oracle: all regular subgroups of the full symmetric
    group on G's points normalized by G's left translations.

    Searches over fixed-point-free permutations of order dividing n and
    filters complete subgroups by the normalization condition.
    """
    bound = _integer(bound, "oracle bound")
    n = G.order
    if n > bound:
        raise OrderTooLargeForOracle(
            f"oracle bound is {bound}, got order {n}")
    pool = _candidate_pool(itertools.permutations(range(n)), n)
    found: list[tuple[Perm, ...]] = []

    def accept(elems: tuple[Perm, ...]) -> None:
        if _normalized_by_translations(elems, G):
            found.append(elems)

    _grow_regular(pool, n, accept)
    return tuple(RegularSubgroup(f) for f in sorted(found))
