"""Malformed input at the validating entry points fails with a named error.

`group_from_text`, `make_group`, `regular_subgroup`, `make_brace`,
`semidirect_product`, `product_brace`, `semidirect_to_brace`,
`psi_construction`, `cpr_cps_brace`, `kohl_obstruction`, `quotient`,
`subgroup_group`, `closure`, `is_normal`, `normalizer`,
`is_power_automorphism`, `sub_brace`, `quotient_brace` and `read_reports`
either return their result or raise a `SkewbraceError`; no bare
`TypeError`, `IndexError`, `KeyError`, `ValueError` or
`ZeroDivisionError` may escape them.  `quotient`, `is_subgroup`,
`subgroup_group`, `is_normal`, `normalizer` and
`is_power_automorphism` are fed elements and images that are mostly
integers, in range or not, and sometimes floats or lists, which are not
elements.
The regular-subgroup searches name a degree above 255, which a `bytes`
permutation cannot hold.
"""

import json
import re

import pytest

from hypothesis import example, given, settings, strategies as st

from skewbrace import perms
from skewbrace.analysis import enumerate_reports, kohl_obstruction
from skewbrace.braces import (
    SkewBrace,
    make_brace,
    product_brace,
    quotient_brace,
    sub_brace,
    trivial_brace,
)
from skewbrace.catalog import cyclic, group_by_name, groups_of_order
from skewbrace.constructions import (
    cpr_cps_brace,
    psi_construction,
    semidirect_to_brace,
)
from skewbrace.errors import (
    BadParameters,
    NotAHomomorphism,
    NotALeftIdeal,
    NotAnIdeal,
    NoIdentityAtZero,
    NotAssociative,
    NotAutomorphism,
    NotBraceAutomorphismAction,
    NotLatinSquare,
    NotNormal,
    ParseError,
    SkewbraceError,
)
from skewbrace.groups import (
    FiniteGroup,
    GroupMap,
    _ints,
    automorphisms,
    closure,
    cyclic_subgroup,
    is_normal,
    is_power_automorphism,
    is_subgroup,
    make_group,
    normalizer,
    opposite_group,
    quotient,
    semidirect_product,
    subgroup_group,
)
from skewbrace.perms import RegularSubgroup, regular_subgroup
from skewbrace.serialize import (
    group_from_text,
    read_reports,
    record_ratio,
    report_to_record,
    write_reports,
)

SMALL = [G for n in range(1, 7) for G in groups_of_order(n)]
FEW = settings(max_examples=60, deadline=None)

scalars = (st.none() | st.booleans() | st.integers(-2, 7)
           | st.floats(allow_nan=True) | st.text(max_size=2))
junk = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=1), inner, max_size=2)),
    max_leaves=12)


@st.composite
def near_tables(draw):
    """A valid table of small order with one entry changed, most often to
    an integer, which may be out of range."""
    G = draw(st.sampled_from(SMALL))
    n = G.order
    rows = [list(row) for row in G.table]
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[a][b] = draw(st.integers(-1, n) if draw(st.booleans()) else scalars)
    return rows


@st.composite
def ragged_tables(draw):
    """Rows of unequal length and entries of any kind."""
    n = draw(st.integers(0, 4))
    entry = st.integers(-1, n) | scalars
    size = {"min_size": max(n - 1, 0), "max_size": n + 1}
    return draw(st.lists(st.lists(entry, **size), **size))


tables = near_tables() | ragged_tables() | junk
groups = st.sampled_from(SMALL)


def named_errors_only(call, *args, returns):
    try:
        result = call(*args)
    except SkewbraceError:
        return None
    assert isinstance(result, returns)
    return result


@given(tables)
@FEW
def test_make_group(table):
    named_errors_only(make_group, table, returns=FiniteGroup)


@st.composite
def damaged_tables(draw):
    """A valid table of small order with up to three changes: an entry
    set to an integer, in range or one past either end, or two entries
    of a row swapped, which keeps the row a permutation."""
    G = draw(st.sampled_from(SMALL))
    n = G.order
    rows = [list(row) for row in G.table]
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        if draw(st.booleans()):
            rows[a][b] = draw(st.integers(-1, n))
        else:
            rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
    return rows


def entrywise_square_checks(table) -> None:
    """make_group's checks before associativity as they were, entry by
    entry and in the same order: each raises the error it names."""
    try:
        given = tuple(table)
    except TypeError:
        raise NotLatinSquare(f"table {table!r} is not a sequence of rows") \
            from None
    rows = tuple(map(_ints, given))
    n = len(rows)
    if n == 0:
        raise NoIdentityAtZero("empty table has no identity")
    for a, row in enumerate(rows):
        if row is None:
            raise NotLatinSquare(
                f"row {a} is not a sequence of integers: {given[a]!r}")
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


def raised(call, *args):
    try:
        call(*args)
    except SkewbraceError as exc:
        return type(exc), str(exc)
    return None


@given(tables | damaged_tables())
@settings(max_examples=200, deadline=None)
def test_make_group_names_what_the_entrywise_checks_name(table):
    # the row-wise checks name the same error as the entry-wise ones, and
    # a square they pass is refused only for associativity
    expected = raised(entrywise_square_checks, table)
    got = raised(make_group, table)
    if expected is None:
        assert got is None or got[0] is NotAssociative
    else:
        assert got == expected


@given(st.text(max_size=30)
       | st.builds(lambda order, table: json.dumps(
           {"order": order, "table": table}), junk, tables)
       | st.builds(json.dumps, junk))
@FEW
def test_group_from_text(text):
    named_errors_only(group_from_text, text, returns=FiniteGroup)


# the rows of a Cayley table are its left translations, a regular subgroup;
# also n short integer lists on about n points, and sets of permutations
perm_sets = (near_tables() | junk
             | st.integers(1, 4).flatmap(lambda n: st.lists(
                 st.lists(st.integers(-1, n), min_size=n, max_size=n),
                 min_size=n, max_size=n))
             | st.integers(1, 4).flatmap(lambda n: st.lists(
                 st.permutations(range(n)), max_size=n + 1)))


@given(perm_sets)
@FEW
def test_regular_subgroup(perms):
    R = named_errors_only(regular_subgroup, perms, returns=RegularSubgroup)
    if R is not None:
        points = list(range(len(R.elements)))
        assert all(sorted(p) == points for p in R.elements)


@given(st.one_of(
    st.tuples(tables, tables),
    st.tuples(groups, tables),
    st.tuples(groups, groups),
    st.tuples(groups, groups.map(opposite_group)),
))
@FEW
def test_make_brace(pair):
    named_errors_only(make_brace, *pair, returns=SkewBrace)


TINY = [G for n in range(1, 5) for G in groups_of_order(n)]


@st.composite
def actions(draw):
    """One map per element of B: automorphisms of A, sometimes with one
    entry changed or a map replaced by junk."""
    A, B = draw(st.sampled_from(TINY)), draw(st.sampled_from(TINY))
    auts = [list(f.images) for f in automorphisms(A)]
    action = [list(draw(st.sampled_from(auts))) for _ in range(B.order)]
    if draw(st.booleans()):
        p = action[draw(st.integers(0, B.order - 1))]
        p[draw(st.integers(0, A.order - 1))] = draw(
            st.integers(-1, A.order) | scalars)
    if draw(st.booleans()):
        action[draw(st.integers(0, B.order - 1))] = draw(junk)
    return A, B, draw(st.just(action) | junk)


@given(actions())
@FEW
def test_semidirect_product(args):
    named_errors_only(semidirect_product, *args, returns=FiniteGroup)


@given(actions())
@FEW
def test_product_brace(args):
    # the brace automorphisms of a trivial brace are the automorphisms of A
    A, B, action = args
    named_errors_only(product_brace, trivial_brace(A), trivial_brace(B),
                      action, returns=SkewBrace)


@given(actions())
@FEW
def test_semidirect_to_brace(args):
    named_errors_only(semidirect_to_brace, *args, returns=SkewBrace)


def test_non_iterable_actions_rejected():
    C3, C2 = group_by_name("C3"), group_by_name("C2")
    with pytest.raises(NotBraceAutomorphismAction):
        product_brace(trivial_brace(C3), trivial_brace(C2), 5)
    with pytest.raises(NotAHomomorphism):
        semidirect_to_brace(C3, C2, 5)


# groups whose norm-mod-centre quotient is trivial, and Q8 and D4, whose
# quotient is C2 x C2
PSI_GROUPS = SMALL + [group_by_name("Q8"), group_by_name("D4")]
index_lists = st.lists(st.integers(-1, 4) | scalars, min_size=0, max_size=9)


@given(st.sampled_from(PSI_GROUPS),
       index_lists | st.lists(st.floats(0, 3), min_size=8, max_size=8)
       | junk,
       st.none() | index_lists | junk)
@FEW
def test_psi_construction(G, psi, lift):
    named_errors_only(psi_construction, G, psi, lift, returns=SkewBrace)


def test_psi_construction_rejects_non_integer_images():
    Q8 = group_by_name("Q8")
    for psi in (["a"] * 8, [0.0] * 8, 5):
        with pytest.raises(SkewbraceError):
            psi_construction(Q8, psi)


parameters = st.integers(-3, 9) | st.integers() | scalars


@given(parameters, parameters, parameters)
@FEW
def test_cpr_cps_brace(p, r, s):
    named_errors_only(cpr_cps_brace, p, r, s, returns=SkewBrace)


def test_cpr_cps_brace_rejects_non_integers():
    # a bool is not read as 1: True used to be reported as "p = 1 is not
    # prime", and (2, True, True) built the order-4 brace
    for args in ((2.5, 1, 1), (2, "1", 1), (2, 1, None),
                 (True, 1, 1), (2, True, 1), (2, 1, True), (2, True, True)):
        with pytest.raises(BadParameters, match="must be an integer"):
            cpr_cps_brace(*args)


@given(groups, groups)
@FEW
def test_kohl_obstruction(circ, N):
    try:
        kohl_obstruction(circ, N)
    except BadParameters:
        assert circ.order != N.order


def near_elements(n):
    """Integers near the element range 0..n-1, sometimes a float or a
    list instead."""
    return (st.integers(-2, n + 2) | st.floats(-1, n + 1)
            | st.lists(st.integers(0, n), max_size=2))


@st.composite
def element_lists(draw):
    """A group and some values near its element range, often holding
    the identity."""
    G = draw(groups)
    elems = draw(st.lists(near_elements(G.order), max_size=G.order + 1))
    if draw(st.booleans()):
        elems.append(0)
    return G, elems


@given(element_lists())
@FEW
def test_quotient(args):
    named_errors_only(quotient, *args, returns=tuple)


@given(element_lists())
@example((group_by_name("C4"), []))
@example((group_by_name("C4"), [0, 1]))
@example((group_by_name("C4"), [0, 2, 7]))
@example((group_by_name("C4"), ["a"]))
@FEW
def test_is_subgroup(args):
    # subgroup_group refuses exactly what is_subgroup rejects: on C4, []
    # gave an order-0 group, and [0, 1], [0, 2, 7] and ["a"] escaped as a
    # bare KeyError, IndexError and TypeError
    found = is_subgroup(*args)
    assert isinstance(found, bool)
    sub = named_errors_only(subgroup_group, *args, returns=tuple)
    assert (sub is not None) == found
    if found:
        assert sub[0].order == len(sub[1]) == len(set(args[1]))
    else:
        with pytest.raises(BadParameters, match="not a subgroup"):
            subgroup_group(*args)


@given(element_lists())
@FEW
def test_is_normal(args):
    named_errors_only(is_normal, *args, returns=bool)


@given(element_lists())
@FEW
def test_normalizer(args):
    named_errors_only(normalizer, *args, returns=tuple)


@pytest.mark.parametrize("elems", [[0, -1], [0, 7], [0, 6], [0, 1.0],
                                   [[0]], 5])
def test_normality_refuses_non_elements(elems):
    # -1 used to be read as element 5 of D3, and 7 or 1.0 escaped as a
    # bare IndexError or TypeError
    D3 = group_by_name("D3")
    for call in (is_normal, normalizer):
        with pytest.raises(BadParameters, match="not elements of"):
            call(D3, elems)


@st.composite
def image_maps(draw):
    """A group and a map on it: an automorphism, perhaps with one image
    changed, or images of any length."""
    G = draw(groups)
    n = G.order
    images = list(draw(st.sampled_from(automorphisms(G))).images)
    if draw(st.booleans()):
        images[draw(st.integers(0, n - 1))] = draw(near_elements(n))
    if draw(st.booleans()):
        images = draw(st.lists(near_elements(n), max_size=n + 1))
    return G, GroupMap(G, G, tuple(images))


@given(image_maps())
@FEW
def test_is_power_automorphism(args):
    named_errors_only(is_power_automorphism, *args, returns=bool)


def test_degree_above_255_named_before_holomorph(monkeypatch):
    def refuse(G, outer=None):
        pytest.fail("an automorphism was streamed into the holomorph")

    monkeypatch.setattr(perms, "_automorphism_images", refuse)
    C256 = cyclic(256)
    for search in (perms.regular_subgroups_in_holomorph, perms.holomorph,
                   lambda G: perms.regular_subgroups_normalized_by(
                       G, bound=256)):
        with pytest.raises(BadParameters, match="degree 256"):
            search(C256)


def test_out_of_range_elements_named():
    C6 = group_by_name("C6")
    with pytest.raises(NotNormal, match="not a subgroup"):
        quotient(C6, [0, 99])
    for images in ((0, 9, 1, 2, 3, 4), (0,)):
        with pytest.raises(NotAutomorphism):
            is_power_automorphism(C6, GroupMap(C6, C6, images))


def test_non_integer_elements_named():
    # a value that operator.index rejects is not an element
    C6 = group_by_name("C6")
    for elems in ([0, 1.0], [[0]], 5):
        with pytest.raises(NotNormal, match="not a subgroup"):
            quotient(C6, elems)
    assert is_subgroup(C6, [0, 3.0]) is False
    with pytest.raises(NotAutomorphism):
        is_power_automorphism(C6, GroupMap(C6, C6, (0, 1.0, 2, 3, 4, 5)))


@pytest.mark.parametrize("call,error,elems", [
    (sub_brace, NotALeftIdeal, [0, 3.0]),
    (quotient_brace, NotAnIdeal, [0, 3.0]),
    (sub_brace, NotALeftIdeal, 5),
    (quotient_brace, NotAnIdeal, [0, "a"]),
])
def test_sub_and_quotient_brace_name_non_elements(call, error, elems):
    # [0, 3] is an ideal of the trivial brace on C6, but 3.0 == 3 is not
    # an element; the error names the input as given
    B = trivial_brace(group_by_name("C6"))
    assert call(B, [0, 3]).order in (2, 3)
    with pytest.raises(error, match=re.escape(repr(elems))):
        call(B, elems)


@pytest.mark.parametrize("seed", [[-1], [7], [2.0], [[1]], 3])
def test_closure_of_non_elements_named(seed):
    # -1 is not read as 5, and 7 is out of range
    C6 = group_by_name("C6")
    with pytest.raises(BadParameters, match="not elements"):
        closure(C6, seed)


@pytest.mark.parametrize("a", [-1, 6, 2.0])
def test_cyclic_subgroup_of_non_element_named(a):
    with pytest.raises(BadParameters, match="not elements"):
        cyclic_subgroup(group_by_name("C6"), a)


VALID_RECORDS = [report_to_record(r)
                 for r in enumerate_reports(group_by_name("D3"))]


@st.composite
def report_arrays(draw):
    """Census records with one field dropped or replaced by junk, or
    arrays of junk."""
    records = [dict(r) for r in VALID_RECORDS]
    rec = draw(st.sampled_from(records))
    field = draw(st.sampled_from(sorted(rec)))
    if draw(st.booleans()):
        del rec[field]
    else:
        rec[field] = draw(junk)
    return draw(st.just(records) | st.lists(junk, max_size=3))


@given(report_arrays())
@FEW
def test_read_reports(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("reports") / "in.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    read = named_errors_only(read_reports, path, returns=list)
    if read is not None:
        write_reports(read, path)
        for record in read:
            record_ratio(record)


@pytest.mark.parametrize("records, where", [
    ([1, 2], 'record 0: "operation_table"'),
    ([{}], 'record 0: "operation_table" is missing'),
    ([{"gc_ratio": {"num": 1, "den": 0}}], 'record 0: "operation_table"'),
    ([VALID_RECORDS[0], {**VALID_RECORDS[1],
                         "gc_ratio": {"num": 1, "den": 0}}],
     'record 1: "gc_ratio" den'),
    ([{**VALID_RECORDS[0], "gc_ratio": {"num": 1}}], 'record 0: "gc_ratio"'),
    ([{**VALID_RECORDS[0], "image": [[0], 1]}], 'record 0: "image"'),
    ([{**VALID_RECORDS[0], "orbit_size": True}], 'record 0: "orbit_size"'),
    ([{**VALID_RECORDS[0], "grouplikes": [0, False]}],
     'record 0: "grouplikes"'),
    ([{**VALID_RECORDS[0], "is_bi_skew": 1}], 'record 0: "is_bi_skew"'),
])
def test_read_reports_names_record_and_field(tmp_path, records, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(ParseError, match=where):
        read_reports(path)


def test_read_reports_round_trips_valid_files(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_reports(VALID_RECORDS, p1)
    write_reports(read_reports(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
