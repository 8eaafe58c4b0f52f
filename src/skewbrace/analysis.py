"""Census and analysis of the group operations compatible with a fixed
ambient group.

For a group (G, o) the engine lists every operation . on the same labels
such that (G, ., o) is a skew brace: one operation per Hopf-Galois
structure on a Galois extension with that Galois group.  Per operation it
reports the structure type, the correspondence image (the left ideals),
surjectivity, the exact image ratio and the grouplike set.  Operations
in one Aut(circ)-orbit are one brace relabeled, so the census analyzes
each class once, with the type and orbit size of its class record, which
keeps the report; readers carry it to the rest of the orbit along their
phi.  The regular subgroups of Hol(N) are classified by Aut(N)-class
only, each class holding its transported group T, which the census and
f_count type against their own target.  The census caches are keyed on
tables.  From the key searches of skewbrace.perms to the orbits, a table
is flat row-major `bytes`, relabeled by the one routine
groups._relabeler.
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
    _automorphism_count,
    _compose,
    _relabeler,
    _trusted_group,
    distinguished_subgroups,
    generating_set,
    is_power_automorphism,
    isomorphism,
    subgroups,
)
from .perms import _cyclic_keys, _cyclic_keys_up_to_aut, _regular_subgroup_keys

class HgsReport(collections.namedtuple(
        "HgsReport", "operation type_name is_bi_skew image is_surjective "
        "gc_ratio grouplikes iso_class_id orbit_size")):
    """Per-structure record: the operation, its type and correspondence."""

    __slots__ = ()


def _rows(flat: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The row tuples of a flat n*n table."""
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


def enumerate_operations(circ: FiniteGroup) -> tuple[SkewBrace, ...]:
    """All operations making a skew brace with the given circ, as braces
    sorted by operation table: the operations of enumerate_reports."""
    return tuple(SkewBrace(r.operation, circ) for r in enumerate_reports(circ))


def enumerate_reports(circ: FiniteGroup) -> tuple[HgsReport, ...]:
    """Analyzed census, one report per operation, canonically sorted.

    The census analyzes each class once, on the operation the search
    found, and its record keeps the report; every other member is that
    brace relabeled along its automorphism phi of circ, which carries left
    ideals and grouplikes to their phi-images and keeps type, bi-skewness,
    the image ratio and the orbit size.
    """
    out = []
    for class_id, (orbit, _, report) in enumerate(
            _enumerate_classes(circ.table)):
        for t, phi in orbit.items():
            out.append(report._replace(
                operation=_trusted_group(_rows(t, circ.order)),
                image=tuple(sorted(tuple(sorted(phi[x] for x in s))
                                   for s in report.image)),
                grouplikes=tuple(sorted(phi[x] for x in report.grouplikes)),
                iso_class_id=class_id))
    out.sort(key=lambda r: r.operation.table)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _classify(search, table):
    """The regular subgroups R that search lists in Hol(N), by their
    Aut(N)-class, as one (T, size, listed) per class met in search order:
    T is the transported group T_R of the class's first R, size the
    number of R in the class, and listed how many of them search listed.

    R's key is the flat table of T_R once evaluation at 0 is checked to
    be a bijection.  Conjugating R by phi in Aut(N) relabels T_R along
    phi, so a class is the _orbit of the first R's key under the
    generators of Aut(N), and every later R is found in a class by its
    key.  Nothing is typed here: whether a class gives braces on a circ
    depends on that circ alone, and each caller asks it of T.  The class
    tables live only while the call runs.  Without the catalog, and keyed
    on the search and N's table, so every census and count of one order
    that takes the same route shares it; no other T_R outlives the call.
    """
    N = _trusted_group(table)
    n = N.order
    starts = bytes(range(n))
    classes = []  # (T, size) per class
    class_of: dict[bytes, int] = {}  # every table of a class met
    listed = collections.Counter()
    for key in search(N):
        c = class_of.get(key)
        if c is None:
            require(key[::n] == starts, "evaluation at 0 is not a bijection")
            c = len(classes)
            orbit = _orbit(key, N)
            classes.append((_trusted_group(_rows(key, n)), len(orbit)))
            class_of.update(dict.fromkeys(orbit, c))
        listed[c] += 1
    return tuple((T, size, listed[c]) for c, (T, size) in enumerate(classes))


def _orbit(found: bytes, G: FiniteGroup) -> dict:
    """The orbit of the flat table found, on G's labels, under relabeling
    by Aut(G) (G is circ for a brace class, N for a class of regular
    subgroups), as {flat table: phi images} with phi an automorphism of G
    carrying found to the table, reached breadth-first along
    G._aut_generators; phi is composed along the path, since
    relabeling by g after phi is relabeling by g∘phi.  Each step is
    groups._relabeler(g), kept in G._relabel_steps, which every orbit on
    G shares; flat tables in, flat tables out."""
    orbit = {found: tuple(range(G.order))}
    todo = [found]
    for t in todo:
        phi = orbit[t]
        for g, relabel in G._relabel_steps:
            u = relabel(t)
            if u not in orbit:
                orbit[u] = _compose(g, phi)
                todo.append(u)
    return orbit


@functools.lru_cache(maxsize=None)
def _enumerate_classes(table):
    """Isomorphism classes of braces over the circ of table, as (orbit,
    N, report) records sorted by the least table of the orbit; orbit is
    keyed on flat tables (see _orbit), N is the catalog type of the
    class, and report analyzes its found operation, report.operation, on
    the census's own circ.  Keyed on the table, no record holds a caller's
    handle.

    Route: per catalog type N of the same order, the Aut(N)-classes of
    regular subgroups of Hol(N) are those of _classify(search, N); cyclic
    ones, at least one R per class, for a cyclic circ.  Each class's T is
    typed against circ by one isomorphism iota: T -> circ; when there is
    one, the class's first R is a brace on N, pulled back to circ's labels
    by relabeling N's flat table along iota; that is the found brace, and
    the class's only one (another iota differs by an automorphism of
    circ, so it gives a table of the same orbit).  The full operation set
    is the union of the orbits under the automorphism action
    s ._phi t = phi(phi^-1(s) . phi^-1(t)), each built from
    generators of Aut(circ); orbit maps each member to the images of an
    automorphism phi that produces it from the found table.  Any two such
    phi differ by a brace automorphism of the found brace, so the reports
    carried along them agree.  Every table is a relabeling of a valid
    one, so none is re-checked.  Distinct Aut(N)-classes are distinct
    brace classes (Guarnieri-Vendramin, Prop. 4.3), and the stabilizer of
    R in Aut(N) is the brace automorphism group, so |orbit| = |Aut circ| /
    |brace automorphisms| = |Aut(N)-class| * |Aut circ| / |Aut N|.  Per
    class the census checks that the orbit walked here under Aut(circ)
    and the Aut(N)-class walked by _classify agree in that identity, and
    that no two classes share a brace; it counts no brace automorphism,
    as the class record already holds the stabilizer's size.
    """
    circ = _trusted_group(table)
    n = circ.order
    search = (_cyclic_keys_up_to_aut if circ.is_cyclic()
              else _regular_subgroup_keys)
    types = groups_of_order(n)  # raises if the catalog is not complete
    aut_count = _automorphism_count(circ)
    seen: set = set()
    classes = []
    for N in types:
        n_flat = b"".join(map(bytes, N.table))
        for T, size, _ in _classify(search, N.table):
            iota = isomorphism(T, circ)
            if iota is None:
                continue
            flat = _relabeler(iota.images)(n_flat)
            require(flat not in seen,
                    "two Aut(N)-classes give one brace class")
            orbit = _orbit(flat, circ)
            require(len(orbit) * _automorphism_count(N) == size * aut_count,
                    "brace class and Aut(N)-class sizes disagree")
            B = SkewBrace(_trusted_group(_rows(flat, n)), circ)
            classes.append((orbit, N, _analyze(B, N.name, len(orbit))))
            seen |= orbit.keys()
    classes.sort(key=lambda c: min(c[0]))
    return tuple(classes)


def analyze(B: SkewBrace) -> HgsReport:
    """Correspondence analysis of one brace: the image is exactly the set
    of left ideals, read as subgroups of circ, and holds both ends of
    that lattice, as every gamma value fixes 0 and permutes G.  A lone
    brace is class 0, typed against the catalog, with orbit size
    |Aut(circ)| / |brace automorphisms|."""
    return _analyze(B, type_name(B.dot), _automorphism_count(B.circ)
                    // brace_automorphism_count(B))


def _analyze(B: SkewBrace, type_name: str, orbit_size: int) -> HgsReport:
    """analyze, given the type name and the orbit size: the census reads
    both off a class record."""
    image = left_ideals(B)
    subs = subgroups(B.circ)
    require((0,) in image and tuple(range(B.order)) in image,
            "the trivial or the full subgroup is not a left ideal")
    surjective = len(image) == len(subs)
    ratio = gc_ratio(B)
    require(surjective == (ratio == 1), "surjectivity disagrees with ratio")
    return HgsReport(
        operation=B.dot,
        type_name=type_name,
        is_bi_skew=is_bi_skew(B),
        image=image,
        is_surjective=surjective,
        gc_ratio=ratio,
        grouplikes=fix(B),
        iso_class_id=0,
        orbit_size=orbit_size,
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
    classes = _enumerate_classes(circG.table)
    is_n = {T: isomorphism(T, N) is not None for T in {c[1] for c in classes}}
    return sum(len(orbit) for orbit, T, _ in classes if is_n[T])


def f_count(circG: FiniteGroup, N: FiniteGroup) -> int:
    """Operations o on N with (N, ., o) a brace and (N, o) = circG up to
    isomorphism; counted on the holomorph side, independently of e_count:
    the regular subgroups of Hol(N) whose transported type is circG's.
    Every R is counted, or the identity would check nothing.  For a
    cyclic circG these are the cyclic ones, which the full n-cycle scan
    lists with no transport; otherwise every R of the full search: the
    listed R of each Aut(N)-class whose T is isomorphic to circG, one
    isomorphism test per class; both count keys.  Any order is served, as
    _classify never reads the catalog; f_count(D8, C2xC2xC2xC2) takes
    minutes."""
    if circG.order != N.order:
        return 0
    if circG.is_cyclic():
        return len(_cyclic_keys(N))
    return sum(listed for T, _, listed
               in _classify(_regular_subgroup_keys, N.table)
               if isomorphism(T, circG) is not None)


def byott_check(circG: FiniteGroup, N: FiniteGroup) -> bool:
    """Exact integer identity e(G,N) * |Aut(N)| == f(G,N) * |Aut(G)|."""
    e = e_count(circG, N)
    f = f_count(circG, N)
    aut_n, aut_g = _automorphism_count(N), _automorphism_count(circG)
    if e * aut_n != f * aut_g:
        raise InternalInconsistency(
            f"translation identity fails for ({circG.name}, {N.name}): "
            f"{e} * {aut_n} != {f} * {aut_g}")
    return True


def all_surjective(circ: FiniteGroup) -> bool:
    """Whether every structure on a circ-extension has surjective
    correspondence, read off the report each class record of the
    exhaustive census holds, the one enumerate_reports carries.
    Surjectivity is an Aut(circ)-orbit invariant, as an automorphism of
    circ maps left ideals to left ideals and permutes the subgroups of
    circ."""
    return all(r.is_surjective for _, _, r in _enumerate_classes(circ.table))


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
