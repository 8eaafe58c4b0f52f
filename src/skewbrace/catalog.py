"""Built-in catalog of small groups, complete per supported order.

Orders 1..15 and 27 carry every isomorphism type; order 16 only has a
handful of named entries and is never treated as complete.  Dihedral
groups are indexed by the rotation order (D4 has order 8).

The names are static; the groups of an order are built, validated and
fingerprinted the first time that order is asked for, so a census of
one order pays for that order's groups only.
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
    direct_product,
    fingerprint,
    inversion_action,
    isomorphism,
    make_group,
    semidirect_product,
)

# number of isomorphism types per order we claim completeness for
GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 27: 5}

COMPLETE_ORDERS = frozenset(GROUP_COUNTS)


def cyclic(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table, f"C{n}")


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k (k >= 3): rotations C_k, reflections."""
    G = semidirect_product(cyclic(k), cyclic(2), inversion_action(cyclic(k)))
    return G.with_name(f"D{k}")


def dicyclic(k: int) -> FiniteGroup:
    """Dicyclic group of order 4k: <a,b | a^2k, b^2 = a^k, bab^-1 = a^-1>.

    dicyclic(2) is the quaternion group Q8, dicyclic(4) is Q16.
    """
    m = 2 * k
    n = 4 * k

    def idx(i: int, j: int) -> int:
        return i * 2 + j

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
                    table[idx(i1, j1)][idx(i2, j2)] = idx(r, s)
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


def modular27() -> FiniteGroup:
    """Nonabelian group of order 27 and exponent 9: C9 x| C3, b a b^-1 = a^4."""
    def idx(i: int, j: int) -> int:
        return i * 3 + j

    table = [[0] * 27 for _ in range(27)]
    for i in range(9):
        for j in range(3):
            for i2 in range(9):
                for j2 in range(3):
                    table[idx(i, j)][idx(i2, j2)] = idx(
                        (i + i2 * pow(4, j, 9)) % 9, (j + j2) % 3)
    return make_group(table, "M27")


def semidihedral16() -> FiniteGroup:
    act = tuple(tuple((a * e) % 8 for a in range(8)) for e in (1, 3))
    return semidirect_product(cyclic(8), cyclic(2), act).with_name("SD16")


def modular16() -> FiniteGroup:
    act = tuple(tuple((a * e) % 8 for a in range(8)) for e in (1, 5))
    return semidirect_product(cyclic(8), cyclic(2), act).with_name("M16")


# the catalog's names per order, in catalog order; _build builds them
_NAMES = {
    1: ("C1",), 2: ("C2",), 3: ("C3",), 4: ("C4", "C2xC2"), 5: ("C5",),
    6: ("C6", "D3"), 7: ("C7",),
    8: ("C8", "C4xC2", "C2xC2xC2", "D4", "Q8"), 9: ("C9", "C3xC3"),
    10: ("C10", "D5"), 11: ("C11",),
    12: ("C12", "C6xC2", "D6", "A4", "Dic3"), 13: ("C13",),
    14: ("C14", "D7"), 15: ("C15",),
    # order 16 is deliberately partial (named access only)
    16: ("C16", "C8xC2", "C4xC4", "C4xC2xC2", "C2xC2xC2xC2", "D8", "Q16",
         "SD16", "M16"),
    27: ("C27", "C9xC3", "C3xC3xC3", "Heisenberg-27", "M27"),
}
_ORDER_OF = {name: n for n, names in _NAMES.items() for name in names}
require(len(_ORDER_OF) == sum(map(len, _NAMES.values())),
        "duplicate catalog name")


def _build(order: int) -> list[FiniteGroup]:
    """The catalog groups of one order, in catalog order.  A direct
    product is named after its factors."""
    c, x = cyclic, direct_product
    match order:
        case 1 | 2 | 3 | 5 | 7 | 11 | 13 | 15:
            return [c(order)]
        case 4:
            return [c(4), x(c(2), c(2))]
        case 6 | 10 | 14:
            return [c(order), dihedral(order // 2)]
        case 8:
            return [c(8), x(c(4), c(2)), x(x(c(2), c(2)), c(2)),
                    dihedral(4), dicyclic(2)]
        case 9:
            return [c(9), x(c(3), c(3))]
        case 12:
            return [c(12), x(c(6), c(2)), dihedral(6), alternating4(),
                    dicyclic(3)]
        case 16:
            return [c(16), x(c(8), c(2)), x(c(4), c(4)),
                    x(x(c(4), c(2)), c(2)), x(x(x(c(2), c(2)), c(2)), c(2)),
                    dihedral(8), dicyclic(4).with_name("Q16"),
                    semidihedral16(), modular16()]
        case 27:
            return [c(27), x(c(9), c(3)), x(x(c(3), c(3)), c(3)),
                    heisenberg(3), modular27()]
    return []


@functools.lru_cache(maxsize=None)
def _entries(order: int) -> dict[str, FiniteGroup]:
    """The catalog groups of one order by name, built on first use."""
    table = {}
    for G in _build(order):
        require(G.order == order,
                f"catalog group {G.name} of order {G.order} is filed "
                f"under order {order}")
        table[G.name] = G
    require(tuple(table) == _NAMES.get(order, ()),
            f"catalog groups of order {order} are not {_NAMES.get(order)}")
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
    if not isinstance(order, int):
        raise UnsupportedOrder(f"group orders are integers, got {order!r}")
    # an order without names builds nothing, so the cache keeps no entry
    found = tuple(_entries(order).values()) if order in _NAMES else ()
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


@functools.lru_cache(maxsize=None)
def _by_fingerprint(order: int) -> dict[tuple, FiniteGroup]:
    """The catalog groups of one order under their fingerprints, which
    tell them apart."""
    out: dict[tuple, FiniteGroup] = {}
    for H in _entries(order).values():
        first = out.setdefault(fingerprint(H), H)
        require(first is H,
                f"catalog groups {first.name} and {H.name} share a fingerprint")
    return out


def type_name(G: FiniteGroup) -> str:
    """Catalog label of the isomorphism class, or a stable fallback.  Only
    the catalog group with G's fingerprint can be isomorphic to G; one
    isomorphism call confirms it."""
    key = fingerprint(G)
    H = _by_fingerprint(G.order).get(key)
    if H is not None and isomorphism(G, H) is not None:
        return H.name
    # imported here, as only this fallback hashes: importing hashlib loads
    # OpenSSL, which a census of a catalog order never needs
    import hashlib

    # element orders in list form, so recorded fallback names keep their bytes
    order, abelian, orders = key
    text = repr((order, abelian, list(orders)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    return f"unknown-order-{G.order}-#{digest}"
