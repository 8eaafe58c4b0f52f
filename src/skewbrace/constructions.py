"""Explicit skew-brace constructions with their advertised properties
checked at build time.

Each function returns a validated SkewBrace whose circ component is the
input group's own table, so outputs are directly comparable with census
results for the same group.
"""

from __future__ import annotations

from .braces import SkewBrace, gamma, is_bi_skew, left_ideals, make_brace
from .catalog import cyclic
from .errors import (
    BadParameters,
    NotAbelian,
    NotAHomomorphism,
    NotClassTwo,
    NotIntoNormModCenter,
    require,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    _compose,
    _int_maps,
    _integer,
    _ints,
    center,
    commutator_subgroup,
    direct_product,
    distinguished_subgroups,
    generating_set,
    homomorphisms,
    inversion_action,
    is_homomorphism,
    is_power_automorphism,
    quotient,
    semidirect_product,
    subgroup_group,
)


def norm_mod_center(G: FiniteGroup):
    """The quotient N(G)/Z(G) and, per quotient element, its coset of
    representatives inside G (sorted)."""
    dist = distinguished_subgroups(G)
    ngrp, nelems = subgroup_group(G, dist.norm)
    z_local = tuple(sorted(nelems.index(z) for z in dist.center))
    Q, proj = quotient(ngrp, z_local)
    cosets: list[list[int]] = [[] for _ in range(Q.order)]
    for local, g in enumerate(nelems):
        cosets[proj(local)].append(g)
    return Q, tuple(tuple(sorted(c)) for c in cosets)


def psi_construction(G: FiniteGroup, psi, lift=None) -> SkewBrace:
    """Brace with dot(s, t) = s o r o t o r^-1 where r represents psi(s)
    in the norm-mod-center quotient.

    psi maps G onto quotient labels and must be a homomorphism from
    (G, o); the result does not depend on the representative choice,
    which is checked by recomputing with the opposite choice.
    """
    Q, cosets = norm_mod_center(G)
    images = _ints(psi.images if isinstance(psi, GroupMap) else psi)
    if images is None or len(images) != G.order \
            or any(not 0 <= q < Q.order for q in images):
        raise NotIntoNormModCenter(
            f"psi must map all {G.order} elements into the "
            f"{Q.order}-element quotient of the norm by the centre")
    if not is_homomorphism(GroupMap(G, Q, images)):
        raise NotAHomomorphism("psi is not a homomorphism into the quotient")

    if lift is None:
        lift = tuple(c[0] for c in cosets)
    else:
        lift = _ints(lift)
        if lift is None or len(lift) != Q.order \
                or any(lift[q] not in cosets[q] for q in range(Q.order)):
            raise NotIntoNormModCenter("lift picks non-representatives")

    gt, columns, inverse = G.table, G.columns, G.inverse

    def build(reps):
        # row s is t -> s o r o t o r^-1, for r the representative of psi(s)
        rows = []
        for s, q in enumerate(images):
            r = reps[q]
            rows.append(_compose(columns[inverse[r]], gt[gt[s][r]]))
        return tuple(rows)

    table = build(lift)
    other = build(tuple(c[-1] for c in cosets))
    require(table == other, "construction must not depend on the lift")

    B = make_brace(table, G)
    require(is_bi_skew(B), "psi brace is not bi-skew")
    g = gamma(B)
    for s in range(G.order):
        r = lift[images[s]]
        # t -> r^-1 o t o r
        conj = _compose(columns[r], gt[inverse[r]])
        require(g(s) == conj, "psi gamma is not conjugation by the lift")
    # power automorphisms form a subgroup and gamma is a homomorphism
    # from G, so the gamma values of its generators decide them all
    for s in generating_set(G):
        require(is_power_automorphism(G, GroupMap(G, G, g(s))),
                "psi gamma is not a power automorphism")
    return B


def all_psi_braces(G: FiniteGroup) -> list[SkewBrace]:
    """One brace per homomorphism from G into its norm-mod-center
    quotient; distinct homomorphisms give distinct dot tables."""
    Q, _ = norm_mod_center(G)
    braces = [psi_construction(G, f) for f in homomorphisms(G, Q)]
    tables = {B.dot.table for B in braces}
    require(len(tables) == len(braces), "two psi give the same brace")
    return braces


def class2_construction(G: FiniteGroup) -> SkewBrace:
    """Brace with dot(s, t) = s o s o t o s^-1 on a class-<=2 group."""
    zc = set(center(G))
    if not set(commutator_subgroup(G)) <= zc:
        raise NotClassTwo("commutator subgroup is not central")
    gt, columns, inverse = G.table, G.columns, G.inverse
    # row s is t -> s o s o t o s^-1
    table = tuple(_compose(columns[inverse[s]], gt[row[s]])
                  for s, row in enumerate(gt))
    B = make_brace(table, G)
    require(is_bi_skew(B), "class-2 brace is not bi-skew")
    g = gamma(B)
    for s in range(G.order):
        # t -> s^-1 o t o s
        conj = _compose(columns[s], gt[inverse[s]])
        require(g(s) == conj, "class-2 gamma(s) is not conjugation by s")
    return B


def inversion_construction(A: FiniteGroup) -> SkewBrace:
    """circ = A x C2, dot = A x| C2 with C2 inverting A; bi-skew, and
    every gamma value is a power automorphism of circ."""
    if not A.is_abelian():
        raise NotAbelian("the inverted factor must be abelian")
    c2 = cyclic(2)
    circ = direct_product(A, c2)
    dot = semidirect_product(A, c2, inversion_action(A))
    B = make_brace(dot, circ)
    require(is_bi_skew(B), "inversion brace is not bi-skew")
    # as in psi_construction, the generators of circ decide every gamma value
    g = gamma(B)
    for s in generating_set(circ):
        require(is_power_automorphism(circ, GroupMap(circ, circ, g(s))),
                "inversion gamma is not a power automorphism")
    return B


def semidirect_to_brace(A: FiniteGroup, B: FiniteGroup, action) -> SkewBrace:
    """circ = A x| B along the action, dot = A x B; gamma acts on the
    first coordinate only, through the action of the second."""
    action = _int_maps(action)
    circ = semidirect_product(A, B, action)
    dot = direct_product(A, B)
    out = make_brace(dot, circ)
    g = gamma(out)
    nb = B.order
    for d in range(nb):
        expected = tuple(action[d][a] * nb + b
                         for a in range(A.order) for b in range(nb))
        for c in range(A.order):
            require(g(c * nb + d) == expected, "gamma not via the action")
    return out


def cpr_cps_brace(p: int, r: int, s: int) -> SkewBrace:
    """Brace on C_{p^r} x C_{p^s} whose dot twists the second coordinate
    by the product of first-coordinate exponents; the first factor is not
    a left ideal (it is not even dot-closed)."""
    # a bool is not read as 0 or 1
    p, r, s = _integer(p, "p"), _integer(r, "r"), _integer(s, "s")
    if not 1 <= s <= r:
        raise BadParameters("need 1 <= s <= r")
    # a prime p has p^7 > 64, so no power above p^6 is built, and the
    # primality test only ever sees p <= 8
    if r + s > 6 or p ** (r + s) > 64:
        raise BadParameters(f"order {p}^{r + s} exceeds the desk bound of 64")
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise BadParameters(f"p = {p} is not prime")
    pr, ps = p ** r, p ** s
    n = pr * ps
    circ = direct_product(cyclic(pr), cyclic(ps))
    table = [[0] * n for _ in range(n)]
    for i in range(pr):
        for j in range(ps):
            row = table[i * ps + j]
            for a in range(pr):
                for b in range(ps):
                    row[a * ps + b] = ((i + a) % pr) * ps + (j + b + i * a) % ps
    B = make_brace(tuple(tuple(row) for row in table), circ)
    first_factor = tuple(i * ps for i in range(pr))
    closed = all(B.dot.mul(a, b) in set(first_factor)
                 for a in first_factor for b in first_factor)
    require(not closed, "first factor is dot-closed")
    require(first_factor not in left_ideals(B), "first factor is a left ideal")
    return B
