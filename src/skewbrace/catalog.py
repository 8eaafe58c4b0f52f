"""Built-in catalog of small groups, complete per supported order.

Orders 1..15 and 27 carry every isomorphism type; order 16 only has a
handful of named entries and is never treated as complete.  Dihedral
groups are indexed by the rotation order (D4 has order 8).

The catalog is one static table, _CATALOG: per order, each name with
the constructor of its group, in catalog order.  Adding a group is one
(name, constructor) entry on its order's line, usually a _metacyclic
call.  The groups of an order are built and checked pairwise
non-isomorphic the first time that order is asked for, so a census of
one order pays for that order's groups only.  A group is typed by
isomorphism alone, against each catalog group of its order in turn.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    CatalogIncompleteForOrder,
    UnknownName,
    UnsupportedOrder,
    require,
)
from .groups import (
    FiniteGroup,
    _integer,
    direct_product,
    fingerprint,
    isomorphism,
    make_group,
    semidirect_product,
)

# number of isomorphism types per order we claim completeness for
GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 27: 5}

COMPLETE_ORDERS = frozenset(GROUP_COUNTS)


def cyclic(n: int) -> FiniteGroup:
    n = _integer(n, "cyclic order", 1)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table, f"C{n}")


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k (k >= 3): rotations C_k, reflections."""
    k = _integer(k, "dihedral rotation order", 1)
    return _metacyclic(k, 2, k - 1).with_name(f"D{k}")


def dicyclic(k: int) -> FiniteGroup:
    """Dicyclic group of order 4k: <a,b | a^2k, b^2 = a^k, bab^-1 = a^-1>.

    dicyclic(2) is the quaternion group Q8, dicyclic(4) is Q16.
    """
    k = _integer(k, "dicyclic parameter", 1)
    m = 2 * k
    n = 4 * k
    # the pair (i, j) for a^i b^j is the element i*2 + j
    table = [[0] * n for _ in range(n)]
    for i1 in range(m):
        for j1 in range(2):
            for i2 in range(m):
                for j2 in range(2):
                    if j1 == 0:
                        r, s = (i1 + i2) % m, j2
                    elif j2 == 0:
                        r, s = (i1 - i2) % m, 1
                    else:
                        r, s = (i1 - i2 + k) % m, 0
                    table[i1 * 2 + j1][i2 * 2 + j2] = r * 2 + s
    return make_group(table, f"Dic{k}" if k != 2 else "Q8")


def alternating4() -> FiniteGroup:
    perms = sorted(p for p in itertools.permutations(range(4)) if _is_even(p))
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(p[q[i]] for i in range(4))] for q in perms]
             for p in perms]
    return make_group(table, "A4")


def _is_even(p) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return inversions % 2 == 0


def heisenberg(p: int) -> FiniteGroup:
    """Unitriangular 3x3 group over F_p, order p^3, exponent p for odd p."""
    p = _integer(p, "heisenberg modulus", 1)
    n = p * p * p

    def idx(a: int, b: int, c: int) -> int:
        return (a * p + b) * p + c

    table = [[0] * n for _ in range(n)]
    for a in range(p):
        for b in range(p):
            for c in range(p):
                i = idx(a, b, c)
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            table[i][idx(a2, b2, c2)] = idx(
                                (a + a2) % p, (b + b2) % p,
                                (c + c2 + a * b2) % p)
    return make_group(table, f"Heisenberg-{n}")


def _metacyclic(n: int, m: int, r: int) -> FiniteGroup:
    """C_n x| C_m, the generator of C_m acting by a -> r*a; the pair (a, b)
    is the element a*m + b.  semidirect_product refuses an r that gives no
    action."""
    action = tuple(tuple(a * pow(r, b, n) % n for a in range(n))
                   for b in range(m))
    return semidirect_product(cyclic(n), cyclic(m), action)


def _abelian(*ns: int) -> FiniteGroup:
    """C_n1 x C_n2 x ..., the direct products taken left to right."""
    return functools.reduce(direct_product, map(cyclic, ns))


# per order, in catalog order: each name with the constructor of its group
_CATALOG = {
    1: (("C1", lambda: cyclic(1)),),
    2: (("C2", lambda: cyclic(2)),),
    3: (("C3", lambda: cyclic(3)),),
    4: (("C4", lambda: cyclic(4)), ("C2xC2", lambda: _abelian(2, 2))),
    5: (("C5", lambda: cyclic(5)),),
    6: (("C6", lambda: cyclic(6)), ("D3", lambda: dihedral(3))),
    7: (("C7", lambda: cyclic(7)),),
    8: (("C8", lambda: cyclic(8)), ("C4xC2", lambda: _abelian(4, 2)),
        ("C2xC2xC2", lambda: _abelian(2, 2, 2)), ("D4", lambda: dihedral(4)),
        ("Q8", lambda: dicyclic(2))),
    9: (("C9", lambda: cyclic(9)), ("C3xC3", lambda: _abelian(3, 3))),
    10: (("C10", lambda: cyclic(10)), ("D5", lambda: dihedral(5))),
    11: (("C11", lambda: cyclic(11)),),
    12: (("C12", lambda: cyclic(12)), ("C6xC2", lambda: _abelian(6, 2)),
         ("D6", lambda: dihedral(6)), ("A4", alternating4),
         ("Dic3", lambda: dicyclic(3))),
    13: (("C13", lambda: cyclic(13)),),
    14: (("C14", lambda: cyclic(14)), ("D7", lambda: dihedral(7))),
    15: (("C15", lambda: cyclic(15)),),
    # order 16 is deliberately partial (named access only)
    16: (("C16", lambda: cyclic(16)), ("C8xC2", lambda: _abelian(8, 2)),
         ("C4xC4", lambda: _abelian(4, 4)),
         ("C4xC2xC2", lambda: _abelian(4, 2, 2)),
         ("C2xC2xC2xC2", lambda: _abelian(2, 2, 2, 2)),
         ("D8", lambda: dihedral(8)), ("Q16", lambda: dicyclic(4)),
         ("SD16", lambda: _metacyclic(8, 2, 3)),
         ("M16", lambda: _metacyclic(8, 2, 5))),
    27: (("C27", lambda: cyclic(27)), ("C9xC3", lambda: _abelian(9, 3)),
         ("C3xC3xC3", lambda: _abelian(3, 3, 3)),
         ("Heisenberg-27", lambda: heisenberg(3)),
         ("M27", lambda: _metacyclic(9, 3, 4))),
}
_ORDER_OF = {name: n for n, entries in _CATALOG.items() for name, _ in entries}
require(len(_ORDER_OF) == sum(map(len, _CATALOG.values())),
        "duplicate catalog name")


@functools.lru_cache(maxsize=None)
def _entries(order: int) -> dict[str, FiniteGroup]:
    """The catalog groups of one order by name, built on first use and
    checked pairwise non-isomorphic, so type_name's first match is the
    only one."""
    table = {}
    for name, build in _CATALOG.get(order, ()):
        G = build()
        require(G.order == order,
                f"catalog group {name} of order {G.order} is filed "
                f"under order {order}")
        for H in table.values():
            require(isomorphism(G, H) is None,
                    f"catalog groups {H.name} and {name} are isomorphic")
        table[name] = G.with_name(name)
    return table


_ALIASES = {"S3": "D3", "V4": "C2xC2", "Dic2": "Q8"}


def catalog_names() -> tuple[str, ...]:
    return tuple(_ORDER_OF)


def group_by_name(name: str) -> FiniteGroup:
    if not isinstance(name, str):
        raise UnknownName(f"no catalog group named {name!r}")
    key = name.strip()
    key = _ALIASES.get(key, key)
    if key not in _ORDER_OF:
        raise UnknownName(f"no catalog group named {name!r}")
    return _entries(_ORDER_OF[key])[key]


def groups_of_order(order: int) -> tuple[FiniteGroup, ...]:
    """All groups of one order, refused unless the catalog is complete."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise UnsupportedOrder(f"group orders are integers, got {order!r}")
    # an order without names builds nothing, so the cache keeps no entry
    found = tuple(_entries(order).values()) if order in _CATALOG else ()
    if order in COMPLETE_ORDERS:
        if len(found) != GROUP_COUNTS[order]:
            raise CatalogIncompleteForOrder(
                f"catalog stores {len(found)} groups of order {order}, "
                f"expected {GROUP_COUNTS[order]}")
        return found
    if found:
        raise CatalogIncompleteForOrder(
            f"catalog is not complete for order {order}")
    raise UnsupportedOrder(f"no catalog groups of order {order}")


def type_name(G: FiniteGroup) -> str:
    """Catalog label of the isomorphism class, or a stable fallback: the
    first catalog group of G's order, in catalog order, that isomorphism
    matches."""
    # an order without names builds nothing, so the cache keeps no entry
    for H in _entries(G.order).values() if G.order in _CATALOG else ():
        if isomorphism(G, H) is not None:
            return H.name
    # imported here, as only this fallback hashes: importing hashlib loads
    # OpenSSL, which a census of a catalog order never needs
    import hashlib

    # element orders in list form, so recorded fallback names keep their bytes
    order, abelian, orders = fingerprint(G)
    text = repr((order, abelian, list(orders)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    return f"unknown-order-{G.order}-#{digest}"
