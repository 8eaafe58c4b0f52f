"""Permutation-level machinery: holomorphs, regular subgroups, transport.

Permutations are image tuples acting on the points 0..n-1.  A subgroup of
the symmetric group is regular when evaluation at 0 is a bijection onto
the point set; equivalently, it is transitive with every non-identity
element fixed-point-free.

The regular-subgroup search works on permutations as `bytes` of length
n, so a degree above 255 is refused: p∘q is q.translate(p + pad), with
pad = bytes(range(n, 256)) filling the 256-byte table, so a product is
formed in C.  Hol(N), the candidate pool and every partial subgroup are
`bytes`, and the census reads each regular subgroup R off a key search
as its key b"".join(sorted elements), the flat row-major table of the
transported group (row a is R's a-th sorted element).  Values below 256
and rows of length n make keys sort as the tuples do.  Tuples come back
in the public wrappers, the S_n oracle and the n-cycle scan.
"""

from __future__ import annotations

import collections
import itertools
import math

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotNormalized,
    NotRegular,
    OrderTooLargeForOracle,
    require,
)
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


def _byte_degree(n: int) -> int:
    """n, refused above 255: a point of the bytes kernel is one byte."""
    if n > 255:
        raise BadParameters(
            f"degree {n} is above 255, the largest the search handles")
    return n


def _holomorph_bytes(N: FiniteGroup) -> list[bytes]:
    """Hol(N) as sorted bytes; Aut(N) is streamed, not kept.  The row of
    a translated along phi is tau -> phi(a*tau) = phi(a)*phi(tau), and
    (phi(a), phi) runs over N x Aut(N) as (a, phi) does."""
    n = _byte_degree(N.order)
    rows = list(map(bytes, N.table))
    pad = bytes(range(n, 256))
    perms = set()
    auts = 0
    for fi in _automorphism_images(N):
        auts += 1
        perms.update(map(bytes.translate, rows,
                         itertools.repeat(bytes(fi) + pad)))
    out = sorted(perms)
    require(len(out) == n * auts, "repeated holomorph perm")
    return out


def holomorph(N: FiniteGroup) -> tuple[Perm, ...]:
    """The permutations tau -> a * phi(tau) for a in N, phi in Aut(N),
    sorted."""
    return tuple(map(tuple, _holomorph_bytes(N)))


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


def _candidate_pool(perms, n: int) -> dict[int, list[bytes]]:
    """The bytes perms that can be non-identity elements of a regular
    subgroup of degree n (fixed-point-free, order dividing n), bucketed
    by the image of 0 and sorted within each bucket."""
    ident = bytes(range(n))
    pad = bytes(range(n, 256))
    # p XOR the identity, as integers, has a zero byte where p fixes a point
    ident_int = int.from_bytes(ident, "big")
    pool: dict[int, list[bytes]] = {}
    for p in perms:
        if 0 in (int.from_bytes(p, "big") ^ ident_int).to_bytes(n, "big"):
            continue
        # p**n by square-and-multiply; powers of p commute
        power, square, e = ident, p, n
        while True:
            if e & 1:
                power = power.translate(square + pad)
            e >>= 1
            if not e:
                break
            square = square.translate(square + pad)
        if power == ident:
            pool.setdefault(p[0], []).append(p)
    for lst in pool.values():
        lst.sort()
    return pool


def _symmetric_pool(n: int) -> dict[int, list[bytes]]:
    """_candidate_pool of all of S_n, built from cycle types: the
    fixed-point-free permutations whose cycle lengths all divide n, which
    are those of order dividing n.  The cycle through the least point not
    yet placed is chosen first, of each length, through each ordered
    choice of its other points, so each permutation is made once (42,560
    at n = 9, of 9! = 362,880)."""
    lengths = [d for d in range(2, n + 1) if n % d == 0]
    pool: dict[int, list[bytes]] = {}

    def place(base: bytes, free: bytes) -> None:
        # base fixes the points of free and no other; x is the least.  The
        # cycle c sends c[i] to c[i+1], a translate table on the free points
        x, rest = free[:1], free[1:]
        for length in lengths:
            if length > len(free):
                break
            for cycle in itertools.permutations(rest, length - 1):
                c = x + bytes(cycle)
                p = base.translate(bytes.maketrans(c, c[1:] + x))
                if length == len(free):
                    pool.setdefault(p[0], []).append(p)
                else:
                    place(p, rest.translate(None, c))

    place(bytes(range(n)), bytes(range(n)))
    for lst in pool.values():
        lst.sort()
    return pool


def _grow_regular(candidates_by_start, n: int, accept,
                  conjugators=()) -> None:
    """Backtracking core shared by both enumerators, over bytes perms.

    Grows a closed, fixed-point-free partial subgroup one candidate at a
    time; the candidate always sends 0 to the least uncovered point, so
    every regular subgroup is reached along exactly one branch.  The
    candidates taken so far, with their conjugates, generate the partial
    subgroup.  Every element of a regular subgroup of degree n is
    fixed-point-free of order dividing n, so a product outside the pool
    ends the branch.  Given (lam + pad, lam^-1) conjugators, each new
    lam∘x∘lam^-1 of a generator x joins the generators, so only subgroups
    the lam normalize are grown, and such a conjugate ends the branch too.
    """
    pool = set().union(*candidates_by_start.values())
    tail = bytes(range(n, 256))

    def close_with(members: dict[int, bytes], gens: tuple[bytes, ...]):
        # members maps value-at-0 to the unique element taking 0 there and
        # is closed under gens[:-1]; <members, c> for c = gens[-1] is reached
        # breadth-first along x -> x∘g = g.translate(x + tail): old members
        # need only c, new ones every generator
        c = gens[-1]
        out = dict(members)
        out[c[0]] = c
        new = [c]

        def add(r: bytes) -> bool:
            known = out.get(r[0])
            if known is not None:
                return known == r
            if r not in pool or len(out) >= n:
                return False
            out[r[0]] = r
            new.append(r)
            return True

        for x in members.values():
            if not add(c.translate(x + tail)):
                return None
        for x in new:
            padded = x + tail
            for g in gens:
                if not add(g.translate(padded)):
                    return None
        # out is a group whose elements have distinct images of 0; made
        # of fixed-point-free perms it acts semiregularly, so its order
        # divides n.  Inline, not require: this runs once per branch
        if n % len(out):
            raise InternalInconsistency(
                f"a closed subgroup of order {len(out)} in degree {n}: the "
                "candidate pool let in a perm with a fixed point")
        return out

    def conjugation_closure(members: dict[int, bytes],
                            gens: tuple[bytes, ...], k: int):
        # members is <gens> and holds the conjugates of gens[:k]; those of
        # later generators join as generators, or end the branch (None)
        while k < len(gens):
            x = gens[k]
            k += 1
            for lam, lam_inv in conjugators:
                r = lam_inv.translate(x.translate(lam) + tail)
                known = members.get(r[0])
                if known is None and r in pool:
                    gens += (r,)
                    members = close_with(members, gens)
                    if members is None:
                        return None, gens
                elif known != r:
                    return None, gens
        return members, gens

    def grow(members: dict[int, bytes], gens: tuple[bytes, ...]) -> None:
        if len(members) == n:
            accept(tuple(sorted(members.values())))
            return
        g = min(x for x in range(n) if x not in members)
        for cand in candidates_by_start.get(g, ()):
            extended = gens + (cand,)
            grown = close_with(members, extended)
            if grown is not None and conjugators:
                grown, extended = conjugation_closure(grown, extended,
                                                      len(gens))
            if grown is not None:
                grow(grown, extended)

    grow({0: bytes(range(n))}, ())


def _regular_subgroup_keys(N: FiniteGroup) -> list[bytes]:
    """Every regular subgroup of Hol(N) as its key, sorted."""
    n = N.order
    found: list[bytes] = []
    _grow_regular(_candidate_pool(_holomorph_bytes(N), n), n,
                  lambda elems: found.append(b"".join(elems)))
    return sorted(found)


def _regular_subgroups(keys, n: int) -> tuple[RegularSubgroup, ...]:
    """The RegularSubgroups of sorted keys of degree n, with one tuple per
    distinct permutation, shared by the subgroups holding it."""
    rows = [[key[i:i + n] for i in range(0, n * n, n)] for key in keys]
    as_tuple = {p: tuple(p) for r in rows for p in r}
    return tuple(RegularSubgroup(tuple(map(as_tuple.__getitem__, r)))
                 for r in rows)


def regular_subgroups_in_holomorph(N: FiniteGroup) \
        -> tuple[RegularSubgroup, ...]:
    """All regular subgroups of the holomorph of N, canonically sorted."""
    return _regular_subgroups(_regular_subgroup_keys(N), N.order)


def _cyclic_keys(N: FiniteGroup, images=None) -> list[bytes]:
    """The keys, sorted, of the cyclic regular subgroups of Hol(N) that
    the n-cycles tau -> a*phi(tau) generate, for a in N and phi in images,
    a stream of automorphisms of N.  By default the stream is all of
    Aut(N), and every n-cycle of each subgroup found must be met.

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
    for fi in _automorphism_images(N) if images is None else images:
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
            found.add(b"".join(map(bytes, sorted(elems))))
    # each subgroup found has totient(n) generators, all of them n-cycles
    unmet = sum(math.gcd(k, n) == 1 for k in range(n)) * len(found) - cycles
    require(unmet >= 0, "an n-cycle met lies in no subgroup found")
    require(unmet == 0 or images is not None,
            "n-cycle count is not totient(n) per cyclic subgroup")
    return sorted(found)


def cyclic_regular_subgroups_in_holomorph(N: FiniteGroup) \
        -> tuple[RegularSubgroup, ...]:
    """The cyclic regular subgroups of Hol(N) by the n-cycle scan, sorted."""
    return _regular_subgroups(_cyclic_keys(N), N.order)


def _cyclic_keys_up_to_aut(N: FiniteGroup) -> list[bytes]:
    """The keys, sorted, of cyclic regular subgroups of Hol(N), at least
    one of each Aut(N)-conjugacy class, for the census of a cyclic target.

    Only the (a, phi) with phi(g_0) the least of its Stab(g_0)-orbit are
    scanned.  An n-cycle (a, phi) has a conjugate (psi(a), psi∘phi∘psi^-1)
    by some psi in Stab(g_0) that moves phi(g_0) there, of the same order,
    so every class keeps a generator in the scan.
    """
    return _cyclic_keys(N, _automorphism_images_up_to_stabilizer(N))


def regular_subgroups_normalized_by(G: FiniteGroup, *,
                                    bound: int = ORACLE_DEFAULT_BOUND) \
        -> tuple[RegularSubgroup, ...]:
    """Small-order oracle: all regular subgroups of the full symmetric
    group on G's points normalized by G's left translations.

    Searches over fixed-point-free permutations of order dividing n,
    made from their cycle types by _symmetric_pool, growing only
    subgroups that conjugation by lambda(s), s in generating_set(G),
    keeps; every subgroup found is checked.
    """
    bound = _integer(bound, "oracle bound")
    n = G.order
    if n > bound:
        raise OrderTooLargeForOracle(
            f"oracle bound is {bound}, got order {n}")
    _byte_degree(n)
    pool = _symmetric_pool(n)
    pad = bytes(range(n, 256))
    conjugators = [(bytes(G.table[s]) + pad, bytes(G.table[G.inverse[s]]))
                   for s in generating_set(G)]
    found: list[bytes] = []

    def accept(elems: tuple[bytes, ...]) -> None:
        require(_normalized_by_translations(tuple(map(tuple, elems)), G),
                "a grown subgroup is not normalized by the translations")
        found.append(b"".join(elems))

    _grow_regular(pool, n, accept, conjugators)
    return _regular_subgroups(sorted(found), n)
