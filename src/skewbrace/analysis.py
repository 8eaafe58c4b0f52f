"""Census and analysis of the group operations compatible with a fixed
ambient group.

For a group (G, o) the engine lists every operation . on the same labels
such that (G, ., o) is a skew brace: one operation per Hopf-Galois
structure on a Galois extension with that Galois group.  Per operation it
reports the structure type, the correspondence image (the left ideals),
surjectivity, the exact image ratio and the grouplike set.  Operations
in one Aut(circ)-orbit are one brace relabeled, so each class is analyzed
once and its report is carried to the other members along their phi.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .braces import (
    SkewBrace,
    brace_automorphism_count,
    fix,
    gamma,
    gc_ratio,
    is_bi_skew,
    left_ideals,
    swap,
)
from .catalog import COMPLETE_ORDERS, groups_of_order, type_name
from .errors import (
    BadParameters,
    InternalInconsistency,
    NotBiSkew,
    require,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    _automorphism_generators,
    _compose,
    _invert,
    _itemgetter,
    _trusted_group,
    automorphisms,
    distinguished_subgroups,
    fingerprint,
    generating_set,
    is_power_automorphism,
    isomorphism,
    subgroups,
)
from .perms import (
    _cyclic_regular_subgroups_up_to_aut,
    cyclic_regular_subgroups_in_holomorph,
    regular_subgroups_in_holomorph,
    transport_operation,
)

class HgsReport(collections.namedtuple(
        "HgsReport", "operation type_name is_bi_skew image is_surjective "
        "gc_ratio grouplikes iso_class_id orbit_size")):
    """Per-structure record: the operation, its type and correspondence."""

    __slots__ = ()


def _transport_table(table, images):
    """The table relabeled along images: out[images[a]][images[b]] =
    images[table[a][b]], each row built by two C-level itemgetters."""
    inv = _invert(images)
    columns = _itemgetter(inv)
    return tuple(_compose(images, columns(table[a])) for a in inv)


def enumerate_operations(circ: FiniteGroup) -> tuple[SkewBrace, ...]:
    """All operations making a skew brace with the given circ, as braces
    sorted by operation table."""
    classes = _enumerate_classes(circ)
    tables = sorted(t for _, orbit, _ in classes for t in orbit)
    return tuple(SkewBrace(_trusted_group(t), circ) for t in tables)


def enumerate_reports(circ: FiniteGroup) -> tuple[HgsReport, ...]:
    """Analyzed census, one report per operation, canonically sorted.

    Each class is analyzed once, on the operation the search found; every
    other member is that brace relabeled along its automorphism phi of
    circ, which carries left ideals and grouplikes to their phi-images and
    keeps type, bi-skewness and the image ratio.
    """
    out = []
    for class_id, (found, orbit, _) in enumerate(_enumerate_classes(circ)):
        report = analyze(SkewBrace(_trusted_group(found), circ))
        for t, phi in orbit.items():
            out.append(report._replace(
                operation=_trusted_group(t),
                image=tuple(sorted(tuple(sorted(phi[x] for x in s))
                                   for s in report.image)),
                grouplikes=tuple(sorted(phi[x] for x in report.grouplikes)),
                iso_class_id=class_id,
                orbit_size=len(orbit)))
    out.sort(key=lambda r: r.operation.table)
    return tuple(out)


def _regular_subgroup_search(circ: FiniteGroup):
    """The search listing, for types N of circ's order, regular subgroups
    of Hol(N) meeting every Aut(N)-class isomorphic to circ (one brace up
    to isomorphism, which _enumerate_classes expands to its orbit): the
    pruned n-cycle scan for a cyclic circ, the full search otherwise."""
    if circ.is_cyclic():
        return _cyclic_regular_subgroups_up_to_aut
    return regular_subgroups_in_holomorph


@functools.lru_cache(maxsize=None)
def _classify(search, N: FiniteGroup):
    """The regular subgroups R that search lists in Hol(N), by the type of
    their transported group T_R, as (reps, members): reps holds the first
    T_R of each type, and members, per R in search order, (k, theta) with
    theta the images of an isomorphism T_R -> reps[k].  Without the
    catalog: each R is transported once and bucketed by fingerprint, and
    one isomorphism call per bucket member tried decides its type.  Keyed
    on the search as well as N, so every census and count of one order
    that takes the same route shares it; no other T_R outlives the call.
    """
    reps: list[FiniteGroup] = []
    buckets: dict[tuple, list[int]] = {}
    members = []
    for R in search(N):
        T = transport_operation(R)
        bucket = buckets.setdefault(fingerprint(T), [])
        for k in bucket:
            theta = isomorphism(T, reps[k])
            if theta is not None:
                members.append((k, theta.images))
                break
        else:
            bucket.append(len(reps))
            members.append((len(reps), tuple(range(N.order))))
            reps.append(T)
    return tuple(reps), tuple(members)


@functools.lru_cache(maxsize=None)
def _onto(search, N: FiniteGroup, circ: FiniteGroup) -> tuple:
    """Per type of _classify(search, N), an isomorphism onto circ or None."""
    return tuple(isomorphism(T, circ) for T in _classify(search, N)[0])


def _orbit(found, gens) -> dict:
    """The Aut(circ)-orbit of the table found, as {table: phi images} with
    phi an automorphism carrying found to the table, reached breadth-first
    along the generators gens of Aut(circ); phi is composed along the
    path, since relabeling by g after phi is relabeling by g∘phi."""
    orbit = {found: tuple(range(len(found)))}
    todo = [found]
    for t in todo:
        phi = orbit[t]
        for g in gens:
            u = _transport_table(t, g)
            if u not in orbit:
                orbit[u] = _compose(g, phi)
                todo.append(u)
    return orbit


@functools.lru_cache(maxsize=None)
def _enumerate_classes(circ: FiniteGroup):
    """Isomorphism classes of braces over circ, as (found, orbit, N)
    triples sorted by the least table of the orbit; N is the catalog type
    of the operations in the class.

    Route: per catalog type N of the same order, the regular subgroups of
    Hol(N) are those of _classify(search, N); cyclic ones up to Aut(N) for a
    cyclic circ.  Each representative type is mapped to circ once, by an
    isomorphism iota; every R of a type isomorphic to circ is a brace on
    N, pulled back to circ's labels along iota∘theta; that is the found
    table.  The full operation set is the union of the orbits under the
    automorphism action s ._phi t = phi(phi^-1(s) . phi^-1(t)), each
    built from generators of Aut(circ); orbit maps each member to the
    images of an automorphism phi that produces it from the found table.
    Any two such phi differ by a brace automorphism of the found brace,
    so the reports carried along them agree.  Every table is a relabeling
    of a valid one, so none is re-checked.
    """
    n = circ.order
    search = _regular_subgroup_search(circ)
    types = groups_of_order(n)  # raises if the catalog is not complete
    gens = _automorphism_generators(circ)
    aut_count = len(automorphisms(circ))
    seen: set = set()
    classes = []
    for N in types:
        to_circ = _onto(search, N, circ)
        for k, theta in _classify(search, N)[1]:
            iota = to_circ[k]
            if iota is None:
                continue
            dot_tab = _transport_table(N.table, _compose(iota.images, theta))
            if dot_tab in seen:
                continue
            orbit = _orbit(dot_tab, gens)
            stab = brace_automorphism_count(
                SkewBrace(_trusted_group(dot_tab), circ))
            require(len(orbit) * stab == aut_count,
                    "orbit-stabilizer identity fails")
            classes.append((dot_tab, orbit, N))
            seen |= orbit.keys()
    classes.sort(key=lambda c: min(c[1]))
    return tuple(classes)


def analyze(B: SkewBrace) -> HgsReport:
    """Correspondence analysis of one brace: the image is exactly the set
    of left ideals, read as subgroups of circ.  A lone brace is class 0,
    with orbit size |Aut(circ)| / |brace automorphisms|."""
    image = left_ideals(B)
    subs = subgroups(B.circ)
    require(set(image) <= set(subs), "a left ideal is not a circ-subgroup")
    surjective = len(image) == len(subs)
    ratio = Fraction(len(image), len(subs))
    require(surjective == (ratio == 1), "surjectivity disagrees with ratio")
    return HgsReport(
        operation=B.dot,
        type_name=type_name(B.dot),
        is_bi_skew=is_bi_skew(B),
        image=image,
        is_surjective=surjective,
        gc_ratio=ratio,
        grouplikes=fix(B),
        iso_class_id=0,
        orbit_size=len(automorphisms(B.circ)) // brace_automorphism_count(B),
    )


# subgroup_counts is (dot side, circ side)
BiskewPairReport = collections.namedtuple(
    "BiskewPairReport",
    "ratio_fwd ratio_swapped quotient left_ideal_count subgroup_counts")


def biskew_pair_report(B: SkewBrace) -> BiskewPairReport:
    """Compare the correspondence ratios of a bi-skew brace and its swap;
    their quotient is the subgroup-count quotient of the two groups."""
    if not is_bi_skew(B):
        raise NotBiSkew("pair report requires a bi-skew brace")
    S = swap(B)
    fwd = gc_ratio(B)
    back = gc_ratio(S)
    n_dot = len(subgroups(B.dot))
    n_circ = len(subgroups(B.circ))
    require(len(left_ideals(B)) == len(left_ideals(S)), "swap changes ideals")
    q = fwd / back
    require(q == Fraction(n_dot, n_circ), "ratio quotient is not n_dot/n_circ")
    return BiskewPairReport(fwd, back, q, len(left_ideals(B)),
                            (n_dot, n_circ))


def e_count(circG: FiniteGroup, N: FiniteGroup) -> int:
    """Structures on a circG-extension whose type is N, counted per class:
    each class carries its catalog type, an orbit invariant, as orbits are
    relabelings by Aut(circG); one isomorphism test per distinct type."""
    classes = _enumerate_classes(circG)
    is_n = {T: isomorphism(T, N) is not None for T in {c[2] for c in classes}}
    return sum(len(orbit) for _, orbit, T in classes if is_n[T])


def f_count(circG: FiniteGroup, N: FiniteGroup) -> int:
    """Operations o on N with (N, ., o) a brace and (N, o) = circG up to
    isomorphism; counted on the holomorph side, independently of e_count:
    the regular subgroups of Hol(N) whose transported type is circG's.
    Every one is counted, never one per class, or the identity would
    check nothing.  For a cyclic circG these are the cyclic ones, which
    the full n-cycle scan lists with no transport; otherwise one
    isomorphism test per type.  Any order is served, as _classify never
    reads the catalog; f_count(D8, C2xC2xC2xC2) takes minutes."""
    if circG.order != N.order:
        return 0
    if circG.is_cyclic():
        return len(cyclic_regular_subgroups_in_holomorph(N))
    search = regular_subgroups_in_holomorph
    to_circ = _onto(search, N, circG)
    return sum(to_circ[k] is not None for k, _ in _classify(search, N)[1])


def byott_check(circG: FiniteGroup, N: FiniteGroup) -> bool:
    """Exact integer identity e(G,N) * |Aut(N)| == f(G,N) * |Aut(G)|."""
    e = e_count(circG, N)
    f = f_count(circG, N)
    lhs = e * len(automorphisms(N))
    rhs = f * len(automorphisms(circG))
    if lhs != rhs:
        raise InternalInconsistency(
            f"translation identity fails for ({circG.name}, {N.name}): "
            f"{e} * {len(automorphisms(N))} != {f} * "
            f"{len(automorphisms(circG))}")
    return True


def all_surjective(circ: FiniteGroup) -> bool:
    """Whether every structure on a circ-extension has surjective
    correspondence, read off one analysis per class of the exhaustive
    census: each class representative is analyzed as enumerate_reports
    analyzes it.  Surjectivity is an Aut(circ)-orbit invariant, as an
    automorphism of circ maps left ideals to left ideals and permutes the
    subgroups of circ."""
    reports = [analyze(SkewBrace(_trusted_group(found), circ))
               for found, _, _ in _enumerate_classes(circ)]
    return all(r.is_surjective for r in reports)


def childs_criterion(circ: FiniteGroup) -> bool:
    """Arithmetic criterion: circ cyclic, and no prime divisor p of the
    order divides q - 1 for another prime divisor q."""
    if not circ.is_cyclic():
        return False
    n = circ.order
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and all(p % d for d in range(2, p))]
    return all((q - 1) % p != 0 for p in primes for q in primes)


def kohl_obstruction(circ: FiniteGroup, N: FiniteGroup) -> int | None:
    """Least order m with more characteristic subgroups of N than
    subgroups of circ, or None.  A witness rules out structures of type N,
    which is checked against the census whenever the catalog serves the
    order."""
    if circ.order != N.order:
        raise BadParameters("groups must have equal order")
    char = distinguished_subgroups(N).characteristic
    subs = subgroups(circ)
    witness = None
    for m in range(1, N.order + 1):
        if N.order % m != 0:
            continue
        n_char = sum(1 for s in char if len(s) == m)
        n_sub = sum(1 for s in subs if len(s) == m)
        if n_char > n_sub:
            witness = m
            break
    if witness is not None and circ.order in COMPLETE_ORDERS:
        require(e_count(circ, N) == 0, "census contradicts the obstruction")
    return witness


def surjective_iff_power_auto(B: SkewBrace) -> bool:
    """Evaluate surjectivity (left-ideal scan) and the power-automorphism
    property of the gamma values (on circ) independently; they must agree
    for bi-skew braces.  Power automorphisms form a subgroup of Aut(circ)
    and gamma is a circ-homomorphism, so gamma(s) for s in the generators
    of circ decide it."""
    if not is_bi_skew(B):
        raise NotBiSkew("the equivalence only applies to bi-skew braces")
    by_ideals = set(left_ideals(B)) == set(subgroups(B.circ))
    g = gamma(B)
    by_power = all(
        is_power_automorphism(B.circ, GroupMap(B.circ, B.circ, g(s)))
        for s in generating_set(B.circ))
    if by_ideals != by_power:
        raise InternalInconsistency(
            f"ideal scan says {by_ideals}, power scan says {by_power}")
    return by_ideals
