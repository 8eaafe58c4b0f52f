"""Skew braces: two group operations on one labeled set, linked by the
compatibility law  s o (t . k) = (s o t) . s^-1 . (s o k).

Conventions follow the group layer: shared identity 0, immutable values,
canonical sorted tuples for subgroup sets.  "dot" is the first operation
(the one whose isomorphism class is the structure's type), "circ" the
second (the ambient/Galois one).

The law says that each gamma(s): t -> s^-1 . (s o t) is a dot-endomorphism,
and gamma is then a circ-homomorphism into Aut(dot).  Like the group
layer, every check here runs on generators: the brace law, gamma's
invariants, bi-skewness, brace automorphisms and brace isomorphisms each
test a map against multiplication by the generators of one operation,
which decides it on every product.  As gamma is a circ-homomorphism, a
property of gamma values that composition keeps (keeping a subgroup,
fixing a point, respecting circ) holds for every gamma(s) once it holds
for s in the generators of circ: left_ideals, fix and is_bi_skew test
only those.

The left ideals are read off the subgroups of circ, the lattice every
brace on one target shares, as the Hopf-Galois correspondence lands
there: a gamma-invariant circ-subgroup is a dot-subgroup, and the other
way round, since a.b = a o gamma(a)^-1(b) and a o b = a.gamma(a)(b).
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .errors import (
    BraceLawViolated,
    IdentityMismatch,
    InternalInconsistency,
    NotAnIdeal,
    NotALeftIdeal,
    NotBiSkew,
    NotBraceAutomorphismAction,
    require,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    Subgroup,
    _closed,
    _compose,
    _first_difference,
    _int_maps,
    _ints,
    _invert,
    _is_normal,
    _respects_generators,
    direct_product,
    generating_set,
    isomorphism,
    make_group,
    opposite_group,
    quotient,
    semidirect_product,
    subgroup_group,
    subgroups,
    trivial_action,
)


class SkewBrace(collections.namedtuple("SkewBrace", "dot circ")):
    __slots__ = ()

    @property
    def order(self) -> int:
        return self.dot.order

    def is_trivial(self) -> bool:
        return self.dot.table == self.circ.table

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order})"


class GammaTable(collections.namedtuple("GammaTable", "maps")):
    """For each sigma the permutation gamma(sigma), tau -> s^-1 . (s o t)."""

    __slots__ = ()

    def __call__(self, sigma: int) -> tuple[int, ...]:
        return self.maps[sigma]


def make_brace(dot, circ) -> SkewBrace:
    """Validate the brace law for a (dot, circ) pair of group tables."""
    if not isinstance(dot, FiniteGroup):
        dot = make_group(dot)
    if not isinstance(circ, FiniteGroup):
        circ = make_group(circ)
    n = dot.order
    if n != circ.order:
        raise IdentityMismatch(
            f"operations act on different sets ({n} vs {circ.order})")
    if dot.table[0] != circ.table[0]:
        raise IdentityMismatch("identity rows differ")
    dcol, dinv = dot.columns, dot.inverse
    # the law at (s, t, k) says lambda_s(t.k) = lambda_s(t).lambda_s(k) for
    # lambda_s(x) = s^-1.(s o x), which fixes 0: generators k suffice.  Per
    # s and k it compares two rows over t: s o (t.k) and
    # (s o t).s^-1.(s o k), the latter from t -> (s o t).s^-1
    gens = generating_set(dot)
    for s, cs in enumerate(circ.table):
        twisted = _compose(dcol[dinv[s]], cs)
        for k in gens:
            left = _compose(cs, dcol[k])
            right = _compose(dcol[cs[k]], twisted)
            if left != right:
                t = _first_difference(left, right)
                raise BraceLawViolated(
                    f"law fails at (s, t, k) = ({s}, {t}, {k})")
    return SkewBrace(dot, circ)


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    return SkewBrace(G, G)


def almost_trivial_brace(G: FiniteGroup) -> SkewBrace:
    return SkewBrace(opposite_group(G), G)


@functools.lru_cache(maxsize=None)
def gamma(B: SkewBrace) -> GammaTable:
    """The gamma table, with its three defining invariants checked.  The
    dot-endomorphism check is the brace law: s o (t.k) = s.gamma(s)(t.k)
    and (s o t).s^-1.(s o k) = s.gamma(s)(t).gamma(s)(k).  Both
    homomorphism checks run on generators: gamma(s) fixes 0, and gamma(0)
    is the identity, so respecting every generator means respecting every
    product.  Once gamma is a circ-homomorphism every gamma value is a
    product of those of the circ generators, so being a bijection and a
    dot-endomorphism, which products keep, is checked on those alone.  On
    a failure every value is checked in order, so the error names the
    first failing invariant that checking each value would name."""
    dot, circ = B.dot, B.circ
    dt, ct = dot.table, circ.table
    dinv = dot.inverse
    # gamma(s) is (x -> s^-1.x) after (t -> s o t)
    maps = tuple(_compose(dt[dinv[s]], cs) for s, cs in enumerate(ct))
    identity = list(range(B.order))
    require(maps[0] == tuple(identity), "gamma(0) is not the identity")
    dot_gens, circ_gens = generating_set(dot), generating_set(circ)

    def failure(m) -> str | None:
        if sorted(m) != identity:
            return "gamma value is not a bijection"
        if not _respects_generators(m, dot, dot, dot_gens):
            return "gamma value is not a dot-endomorphism"
        return None

    if any(failure(maps[s]) for s in circ_gens) \
            or not all(maps[ct[s][t]] == _compose(ms, maps[t])
                       for s, ms in enumerate(maps) for t in circ_gens):
        raise InternalInconsistency(next(filter(None, map(failure, maps)),
                                         "gamma is not a circ-homomorphism"))
    return GammaTable(maps)


def opposite(B: SkewBrace) -> SkewBrace:
    """Replace dot by its opposite; gamma picks up an inner twist."""
    out = SkewBrace(opposite_group(B.dot), B.circ)
    g, go = gamma(B), gamma(out)
    dt, dcol, dinv = B.dot.table, B.dot.columns, B.dot.inverse
    for s, m in enumerate(g.maps):
        # x -> s.gamma(s)(x).s^-1
        twisted = _compose(dcol[dinv[s]], _compose(dt[s], m))
        require(go(s) == twisted, "opposite gamma is not the inner twist")
    return out


def swap(B: SkewBrace) -> SkewBrace:
    """The brace with the two operations exchanged (bi-skew braces only)."""
    if not is_bi_skew(B):
        raise NotBiSkew("operations can only be swapped in a bi-skew brace")
    return SkewBrace(B.circ, B.dot)


def _gamma_of_generators(B: SkewBrace) -> list[tuple[int, ...]]:
    """gamma(s) for s in the generators of circ.  gamma is a
    circ-homomorphism, so the s whose gamma(s) keeps a subgroup, fixes a
    point or respects circ form a circ-subgroup: these maps decide such a
    property for every gamma value."""
    g = gamma(B)
    return [g(s) for s in generating_set(B.circ)]


@functools.lru_cache(maxsize=None)
def left_ideals(B: SkewBrace) -> tuple[Subgroup, ...]:
    """Subgroups of dot invariant under every gamma(sigma), found among
    the subgroups of circ, which every brace on that circ shares, and
    tested on the gamma values of the generators of circ.

    They are the same sets, in the same canonical order: a.b =
    a o gamma(a)^-1(b), so a circ-subgroup I that every gamma(a) permutes
    is dot-closed; and a o b = a.gamma(a)(b), so a left ideal is
    circ-closed.  Each one found is verified to be a subgroup of dot.  The
    member sets are those circ keeps, shared by every brace on it.
    """
    maps = _gamma_of_generators(B)
    out = []
    for s, members in B.circ._subgroup_members.items():
        # a gamma value is a bijection, so keeping s into s keeps it
        if all(members.issuperset(map(m.__getitem__, s)) for m in maps):
            require(_closed(B.dot, members), "left ideal not dot-closed")
            out.append(s)
    return tuple(out)


def strong_left_ideals(B: SkewBrace) -> tuple[Subgroup, ...]:
    return tuple(s for s in left_ideals(B)
                 if _is_normal(B.dot, B.circ._subgroup_members[s]))


def ideals(B: SkewBrace) -> tuple[Subgroup, ...]:
    return tuple(s for s in strong_left_ideals(B)
                 if _is_normal(B.circ, B.circ._subgroup_members[s]))


def fix(B: SkewBrace) -> Subgroup:
    """Common fixed points of all gamma maps, which are those of the
    gamma values of the generators of circ; always a left ideal."""
    maps = _gamma_of_generators(B)
    out = tuple(t for t in range(B.order) if all(m[t] == t for m in maps))
    require(out in left_ideals(B), "fixed points are not a left ideal")
    return out


@functools.lru_cache(maxsize=None)
def is_bi_skew(B: SkewBrace) -> bool:
    """True iff every gamma value is an automorphism of circ, tested on
    the gamma values of the generators of circ.

    When true, the swapped pair is itself a valid brace whose gamma is the
    pointwise inverse; both facts are checked for every s.
    """
    n = B.order
    g = gamma(B)
    gens = generating_set(B.circ)
    if not all(_respects_generators(m, B.circ, B.circ, gens)
               for m in _gamma_of_generators(B)):
        return False
    gs = gamma(SkewBrace(B.circ, B.dot))
    cinv = B.circ.inverse
    for s in range(n):
        require(gs(s) == _invert(g(s)), "swapped gamma is not the inverse")
        require(gs(s) == g(cinv[s]), "swapped gamma(s) != gamma(s^-1)")
    return True


def brace_isomorphism(B1: SkewBrace, B2: SkewBrace) -> GroupMap | None:
    """A bijection preserving both operations, or None."""
    if B1.order != B2.order:
        return None
    f0 = isomorphism(B1.dot, B2.dot)
    if f0 is None:
        return None
    gens = generating_set(B1.circ)
    for a in B1.dot._automorphisms:
        im = _compose(f0.images, a)
        if _respects_generators(im, B1.circ, B2.circ, gens):
            return GroupMap(B1.dot, B2.dot, im)
    return None


def brace_automorphisms(B: SkewBrace) -> tuple[GroupMap, ...]:
    """Automorphisms of circ that also preserve dot, as maps on the
    asking B.circ.  Not cached: a cache keyed on the brace's value would
    hand another caller maps that name its own circ."""
    circ, gens = B.circ, generating_set(B.dot)
    return tuple(GroupMap(circ, circ, f) for f in circ._automorphisms
                 if _respects_generators(f, B.dot, B.dot, gens))


def brace_automorphism_count(B: SkewBrace) -> int:
    return len(brace_automorphisms(B))


def quotient_brace(B: SkewBrace, I) -> SkewBrace:
    """Quotient by an ideal; dot- and circ-cosets coincide.  Raises
    NotAnIdeal naming I when it is not one; a value that operator.index
    rejects is not an element."""
    elems = _ints(I)
    ideal = None if elems is None else tuple(sorted(elems))
    if ideal not in ideals(B):
        raise NotAnIdeal(f"{I!r} is not an ideal")
    qdot, proj_dot = quotient(B.dot, ideal)
    qcirc, proj_circ = quotient(B.circ, ideal)
    require(proj_dot.images == proj_circ.images, "ideal cosets differ")
    return SkewBrace(qdot, qcirc)


def sub_brace(B: SkewBrace, L) -> SkewBrace:
    """The brace induced on a left ideal, relabeled by sorted position.
    Raises NotALeftIdeal naming L when it is not one; a value that
    operator.index rejects is not an element."""
    elems = _ints(L)
    ideal = None if elems is None else tuple(sorted(elems))
    if ideal not in left_ideals(B):
        raise NotALeftIdeal(f"{L!r} is not a left ideal")
    sdot, elems_d = subgroup_group(B.dot, ideal)
    scirc, elems_c = subgroup_group(B.circ, ideal)
    require(elems_d == elems_c, "sub-brace labelings differ")
    return SkewBrace(sdot, scirc)


def product_brace(B1: SkewBrace, B2: SkewBrace, action=None) -> SkewBrace:
    """Semidirect product: dot is the direct product of the dots, circ the
    semidirect product of the circs along an action by brace automorphisms
    of B1.  With no action this is the direct product of braces.
    """
    n2 = B2.order
    trivial = trivial_action(B1.circ, B2.circ)
    action = _int_maps(trivial if action is None else action,
                       NotBraceAutomorphismAction)
    if len(action) != n2:
        raise NotBraceAutomorphismAction(
            "action must assign one map per element of the second brace")
    brace_auts = {f.images for f in brace_automorphisms(B1)}
    for b, p in enumerate(action):
        if p not in brace_auts:
            raise NotBraceAutomorphismAction(
                f"action[{b}] is not a brace automorphism of the first factor")
    dot = direct_product(B1.dot, B2.dot)
    circ = semidirect_product(B1.circ, B2.circ, action)
    B = SkewBrace(dot, circ)
    first_factor = tuple(a * n2 for a in range(B1.order))
    second_factor = tuple(range(n2))
    require(first_factor in ideals(B), "first factor is not an ideal")
    require(second_factor in strong_left_ideals(B), "not a strong left ideal")
    if action == trivial:
        require(second_factor in ideals(B), "second factor is not an ideal")
    return B


def is_metatrivial(B: SkewBrace) -> Subgroup | None:
    """First ideal (by increasing size) with trivial sub- and quotient
    brace, or None when there is no such witness."""
    for I in sorted(ideals(B), key=lambda s: (len(s), s)):
        if sub_brace(B, I).is_trivial() and quotient_brace(B, I).is_trivial():
            return I
    return None


def gc_ratio(B: SkewBrace) -> Fraction:
    """Left-ideal count over circ-subgroup count, in lowest terms."""
    return Fraction(len(left_ideals(B)), len(subgroups(B.circ)))
