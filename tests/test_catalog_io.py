"""Catalog completeness and the two file formats."""

import functools
import hashlib
import json
import re
import sys

import pytest
from conftest import NOT_UTF8
from hypothesis import given, settings, strategies as st

from skewbrace import catalog
from skewbrace.analysis import analyze, enumerate_reports
from skewbrace.braces import make_brace
from skewbrace.catalog import (
    GROUP_COUNTS,
    catalog_names,
    cyclic,
    group_by_name,
    groups_of_order,
    type_name,
)
from skewbrace.errors import (
    CatalogIncompleteForOrder,
    InternalInconsistency,
    NotLatinSquare,
    ParseError,
    UnknownName,
    UnsupportedOrder,
    ValidationError,
)
from skewbrace.groups import (
    _automorphism_count,
    direct_product,
    fingerprint,
    isomorphism,
    make_group,
)
from skewbrace.cli import main
from skewbrace.serialize import (
    _json_text,
    group_from_text,
    read_group,
    read_reports,
    report_chunks,
    report_to_record,
    reports_to_text,
    write_group,
    write_reports,
)


# "name sha256" of json.dumps(G.table) for every catalog group, recorded
# from the catalog as it was before it became one table over _metacyclic
TABLE_SHA256 = dict(line.split() for line in """
C1 db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387
C2 c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c
C3 17d0eee91e6333e1187ad1a09da05518b40b225dd366ee32342d785c61a3eea4
C4 817530d43b21cd6b4da2490d0eff0e80139ee482e7ada0fcf951bad11fe0fbf2
C2xC2 90b5779b7e261488f04c79165fc22dd6b6c6ce01003a762f5efc6173099b54b4
C5 5e0a80ad1110516e0dde1c48f11cffc6d8f606455ddf4505a7b77a4a0bef7de2
C6 0c9f2a2b544b8808c85cde07de907b677871d08753017e06dd603e9375892293
D3 41000643a83e6a8f38337101e359a132460021bde65a466731abddb3f858e6af
C7 52360c657a054a64b8a211f634f7bdd49189a129e1bc55407dc9eb444e320721
C8 adacb0a8e923ba193275373de2aeff6dda59d2f51852a04c36e4f392f44eba9c
C4xC2 92dce32b79c37447bb451e68f81d1882ca63cd9e260dc976b2a46f2db7b90463
C2xC2xC2 22c176af2b276c12d4d705ce1f0b2edef90573f13d0a35b761c61a35acd73e56
D4 e3af88731332128cfda7f00f5bd08e1f4a36b41abe3da84e9f45f13287515814
Q8 abc0e65225da9a2c1adcb7bce3461e04c5ed88dd8c9065a4a367378acdabd400
C9 6e662b78e98bdaafe6189ad93e1e4b1bb97fd9a79491cf9b4de32d0e2128d048
C3xC3 5866c28f92e87f668ad348eb1f1c33ee41934252a4db957f364ac04703ea69a9
C10 29edf3c044f9ee140747117a4fd386d95f258febed1a1f5f4db75050e91a8caf
D5 a59284a4991abb378e08f01947e14fd9bbd505959938fff1f46c4b7e78b824ad
C11 4c49cb2e90ed3d8cc4f082fbec7d28933b9c09998839826d285513b4aaf1a632
C12 0ff2a8598890d20f3aa6f9c596f97bee96b9523979ea2584b4cdd71d1ccf872b
C6xC2 7ee1bfb0f3b033bd2a304a894069e1a8f213a7ed4c6281b8d041c56d71907000
D6 aad6e892b10163a66183eac362c12c942837e57b30fd504f65ae0b6dd78927cb
A4 1bfa34a13a10db6df271e23e0a887888b25219ce6befa358fe5292d170454cc5
Dic3 289ce20cce6769c6af852b5d6cac85b7115b98321d78fa24f3620d4777398a35
C13 58a76687ec6d3577b71d88d93da91f92794ff7453784ccea03c0f2136df850c0
C14 358ff7f379ee62496d1fb1a28617272127bb7e79377641114c842a451d662851
D7 bc41ce5d901a760b0e10c903593c4f15e149b0ed0e81d75d6bce392bc0550a53
C15 6a8dc0ce97d26b8bdebfd55fbe20930594291e13e2ed7259a47fd1f5826ded2a
C16 f5895705f6120c71efa4352f6207ec0cfd3d943c6a50e5837f361ac98551a9a4
C8xC2 039ee73f75fc9119b036e78c06ec30d10cdb53354249859574acbfe11bffbdc9
C4xC4 1f682146199ed6a4060e6f1f183e218b7065acb8a35fdd38209712fac982831e
C4xC2xC2 8774a884722ff2981f54815b76b362d7e43993d89c3b281dc92e48aa32dd6eea
C2xC2xC2xC2 e5ac4e3c2de25c76e89667bf7c203b433ac180d8f88fbe455a5532c7b5fb0f87
D8 600e9764edaa6de3b1c143e32bdfba93fbdf9e302a4bdf9b9e1e8415e78fa88f
Q16 b42edd4bfbf32cbad33197adafd4cb3f87ae180028d05c973544f0e7e08c3428
SD16 72d96526dfd4e34f0f56651de1986598e1a06e91bab13d1bea7c40c9b7548590
M16 66644028f235cddae1cb0ae98a88ab60dc000ad706642d7a9a8d1dbf724cc456
C27 73711a81d5754ad8f8a8220a97535aa1004f36de9896a475d287616f954e3251
C9xC3 2d014841b056e73e12de84d384fd94036f90bf7668286ca1f8cd8f42bbbcb619
C3xC3xC3 9424705dbf791d76adb5a8be106c633925a97d0b41e2f3ec69809ab8d874059c
Heisenberg-27 710ebac32492c1ac3211bfb61410707c94bdf833c851626fe5a99a75af0a44cf
M27 93214debab2183606a53c7cb10aa537b8583cd48d6faf2e6bf555839c1f99660
""".strip().splitlines())


def cycled(G):
    """G relabeled by cycling the labels 1..n-1, validated afresh."""
    n = G.order
    perm = [0, *range(2, n), 1]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return make_group(table)


class TestCatalog:
    def test_tables_pinned(self):
        assert tuple(TABLE_SHA256) == catalog_names()
        for name, digest in TABLE_SHA256.items():
            table = json.dumps(group_by_name(name).table)
            assert hashlib.sha256(table.encode()).hexdigest() == digest, name

    def test_counts_per_complete_order(self):
        for order, count in GROUP_COUNTS.items():
            assert len(groups_of_order(order)) == count

    def test_pairwise_non_isomorphic(self):
        for order in (4, 6, 8, 9, 10, 12, 27):
            gs = groups_of_order(order)
            for i, G in enumerate(gs):
                for H in gs[i + 1:]:
                    assert isomorphism(G, H) is None, (G.name, H.name)

    def test_all_entries_validate(self):
        for name in catalog_names():
            G = group_by_name(name)
            make_group(G.table)  # revalidates from scratch

    def test_order_one(self):
        assert len(groups_of_order(1)) == 1

    def test_order_eight_names(self):
        names = {G.name for G in groups_of_order(8)}
        assert names == {"C8", "C4xC2", "C2xC2xC2", "D4", "Q8"}

    def test_catalog_module_not_shadowed(self):
        import skewbrace.catalog as m

        assert m is sys.modules["skewbrace.catalog"]

    def test_heisenberg_name(self):
        G = group_by_name("Heisenberg-27")
        assert G.order == 27 and not G.is_abelian() and G.exponent() == 3

    def test_names_pinned(self):
        assert catalog_names() == (
            "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D3", "C7", "C8",
            "C4xC2", "C2xC2xC2", "D4", "Q8", "C9", "C3xC3", "C10", "D5",
            "C11", "C12", "C6xC2", "D6", "A4", "Dic3", "C13", "C14", "D7",
            "C15", "C16", "C8xC2", "C4xC4", "C4xC2xC2", "C2xC2xC2xC2", "D8",
            "Q16", "SD16", "M16", "C27", "C9xC3", "C3xC3xC3",
            "Heisenberg-27", "M27")

    def test_misfiled_group_refused(self, monkeypatch):
        monkeypatch.setitem(catalog._CATALOG, 5, (("C5", lambda: cyclic(3)),))
        with pytest.raises(InternalInconsistency, match="filed under order 5"):
            catalog._entries.__wrapped__(5)

    def test_one_group_under_two_names_refused(self, monkeypatch):
        # C2xC4 is C4xC2 on other labels: isomorphism, not the table,
        # refuses it
        monkeypatch.setitem(catalog._CATALOG, 8, (
            *catalog._CATALOG[8], ("C2xC4", lambda: catalog._abelian(2, 4))))
        with pytest.raises(InternalInconsistency,
                           match="catalog groups C4xC2 and C2xC4 are "
                                 "isomorphic"):
            catalog._entries.__wrapped__(8)

    def test_fingerprint_tie_typed_by_isomorphism(self, monkeypatch):
        # C4:C4 and Q8xC2 share the fingerprint and a centre of order 4,
        # and differ in |Aut|: each is still named by its own entry
        c4c4 = catalog._metacyclic(4, 4, 3)
        q8c2 = direct_product(catalog.dicyclic(2), cyclic(2))
        assert fingerprint(c4c4) == fingerprint(q8c2)
        assert sum(c4c4.central) == sum(q8c2.central) == 4
        assert _automorphism_count(c4c4) == 32
        assert _automorphism_count(q8c2) == 192
        monkeypatch.setitem(catalog._CATALOG, 16, (
            *catalog._CATALOG[16],
            ("C4:C4", lambda: c4c4), ("Q8xC2", lambda: q8c2)))
        # a fresh cache, so the patched order is built here and dropped
        monkeypatch.setattr(catalog, "_entries", functools.lru_cache(
            catalog._entries.__wrapped__))
        for name, G in (("C4:C4", c4c4), ("Q8xC2", q8c2)):
            H = cycled(G)
            assert H.table != G.table
            assert type_name(H) == name

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            group_by_name("E8")

    @pytest.mark.parametrize("name", [5, None, ["C2"], b"C2"])
    def test_non_string_name_unknown(self, name):
        with pytest.raises(UnknownName):
            group_by_name(name)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            groups_of_order(17)

    def test_unsupported_orders_not_cached(self):
        before = catalog._entries.cache_info().currsize
        for order in range(100, 110):
            with pytest.raises(UnsupportedOrder):
                groups_of_order(order)
        assert catalog._entries.cache_info().currsize == before

    @pytest.mark.parametrize("order", [8.0, "8", None, [8], True, False])
    def test_non_integer_order_unsupported(self, order):
        with pytest.raises(UnsupportedOrder, match=re.escape(repr(order))):
            groups_of_order(order)

    def test_undercount_refused(self, monkeypatch, capsys, fresh_census):
        # the count check is how the catalog refuses to undercount an order
        # it claims is complete; the census asks for it on every target
        monkeypatch.setitem(catalog.GROUP_COUNTS, 8, 6)
        with pytest.raises(CatalogIncompleteForOrder,
                           match="catalog stores 5 groups of order 8, "
                                 "expected 6"):
            groups_of_order(8)
        assert main(["enumerate", "C8"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: catalog stores 5 groups")

    def test_partial_order_sixteen(self):
        with pytest.raises(CatalogIncompleteForOrder):
            groups_of_order(16)
        # its entries still name their class
        for name in ("C16", "D8", "Q16"):
            G = group_by_name(name)
            H = cycled(G)
            assert H.table != G.table
            assert type_name(H) == name

    def test_aliases(self):
        assert group_by_name("S3").table == group_by_name("D3").table
        assert group_by_name("V4").table == group_by_name("C2xC2").table

    def test_type_name_off_catalog(self):
        # an order-18 group resolves to a stable fallback label
        from skewbrace.catalog import cyclic, dihedral
        label = type_name(dihedral(9))
        assert label == "unknown-order-18-#3b0b6c49"  # hash of fingerprint
        assert type_name(dihedral(9)) == label  # stable
        assert type_name(cyclic(18)) != label

    def test_type_name_off_catalog_caches_nothing(self):
        from skewbrace.catalog import dihedral
        before = catalog._entries.cache_info().currsize
        names = [type_name(dihedral(k)) for k in (9, 10, 11)]
        assert names == ["unknown-order-18-#3b0b6c49",
                         "unknown-order-20-#30603d8d",
                         "unknown-order-22-#0c724bd5"]
        assert catalog._entries.cache_info().currsize == before


class TestGroupFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        for name in ("C6", "Q8", "A4"):
            G = group_by_name(name)
            path = tmp_path / f"{name}.json"
            write_group(G, path)
            H = read_group(path)
            assert H.table == G.table
            # writing the reread group reproduces the bytes
            path2 = tmp_path / f"{name}-2.json"
            write_group(H, path2)
            assert path.read_bytes() == path2.read_bytes()

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 2, "table": [[0, 1], [1, ]]}')
        with pytest.raises(ParseError) as err:
            read_group(path)
        assert err.value.line is not None

    def test_malformed_row_length(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text('{"order": 2, "table": [[0, 1], [1]]}')
        with pytest.raises(ParseError):
            read_group(path)

    def test_row_count_must_match_order(self):
        with pytest.raises(ParseError, match='"table" must have 3 rows'):
            group_from_text('{"order": 3, "table": [[0, 1, 2], [1, 2, 0]]}')

    def test_algebraic_validation_delegated(self, tmp_path):
        path = tmp_path / "notgroup.json"
        path.write_text('{"order": 2, "table": [[0, 1], [1, 1]]}')
        with pytest.raises(NotLatinSquare):
            read_group(path)
        with pytest.raises(ValidationError):
            read_group(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            read_group(path)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ParseError, match="latin1.json is not UTF-8"):
            read_group(path)


class TestReportFiles:
    def test_q8_census_file(self, tmp_path):
        reports = enumerate_reports(group_by_name("Q8"))
        path = tmp_path / "q8.json"
        write_reports(reports, path)
        records = read_reports(path)
        assert len(records) == 22
        surjective = [r for r in records if r["is_surjective"]]
        assert len(surjective) == 16
        for r in records:
            assert set(r) == {"operation_table", "type_name", "is_bi_skew",
                              "image", "is_surjective", "gc_ratio",
                              "grouplikes", "iso_class_id", "orbit_size"}

    def test_report_file_must_hold_an_array(self, tmp_path):
        path = tmp_path / "object.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(ParseError,
                           match="expected a JSON array of report records"):
            read_reports(path)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"[" + NOT_UTF8 + b"]")
        with pytest.raises(ParseError, match="latin1.json is not UTF-8"):
            read_reports(path)

    def test_byte_stable_round_trip(self, tmp_path):
        reports = enumerate_reports(group_by_name("C6"))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_reports(reports, p1)
        write_reports(read_reports(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("name", ["C1", "C6", "Q8", "C3xC3"])
    def test_chunks_match_whole_list_encoding(self, name, tmp_path):
        # the encoding of the sorted record list in one json.dumps call,
        # which the streamed chunks replace, byte for byte
        reports = enumerate_reports(group_by_name(name))
        records = sorted((report_to_record(r) for r in reports),
                         key=lambda rec: rec["operation_table"])
        whole = json.dumps(records, indent=2, sort_keys=True) + "\n"
        assert "".join(report_chunks(reversed(reports))) == whole
        path = tmp_path / "out.json"
        write_reports(json.loads(whole)[::-1], path)
        assert path.read_text(encoding="utf-8") == whole

    def test_empty_report_list(self, tmp_path):
        assert reports_to_text([]) == json.dumps([], indent=2) + "\n" \
            == "[]\n"
        path = tmp_path / "empty.json"
        write_reports(iter(()), path)
        assert path.read_bytes() == b"[]\n"

    def test_records_sorted_by_operation(self, tmp_path):
        reports = enumerate_reports(group_by_name("D3"))
        text = reports_to_text(reversed(list(reports)))
        records = json.loads(text)
        tables = [r["operation_table"] for r in records]
        assert tables == sorted(tables)

    def test_ratio_exact(self, tmp_path):
        reports = enumerate_reports(group_by_name("Q8"))
        cyclic_type = [r for r in reports if r.type_name == "C8"]
        from skewbrace.serialize import record_ratio, report_to_record
        rec = report_to_record(cyclic_type[0])
        from fractions import Fraction
        assert record_ratio(rec) == Fraction(2, 3)


# -- the report writer against json.dumps(indent=2, sort_keys=True) ----------

# strings with quotes, backslashes, control and non-ASCII characters
texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) \
    | st.sampled_from(['"', "\\", "\n", "é", "\u2603", "\U0001f600", ""])
# lists of ints, bools among them, empty ones included
int_lists = st.lists(st.integers(-3, 300) | st.booleans(), max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=True) | texts | int_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=16)
int_tables = st.lists(st.lists(st.integers(0, 30), max_size=4), max_size=4)


# records of report_to_record's shape, with extra keys
records = st.builds(
    lambda fields, extra: {**extra, **fields},
    st.fixed_dictionaries({
        "operation_table": int_tables,
        "type_name": texts,
        "is_bi_skew": st.booleans(),
        "image": int_tables,
        "is_surjective": st.booleans(),
        "gc_ratio": st.fixed_dictionaries({"num": st.integers(-9, 9),
                                           "den": st.integers(1, 9)}),
        "grouplikes": st.lists(st.integers(0, 30), max_size=4),
        "iso_class_id": st.integers(0, 99),
        "orbit_size": st.integers(1, 99),
    }),
    st.dictionaries(texts, json_values, max_size=3))


WRITER = settings(max_examples=60, deadline=None)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(json_values)
@WRITER
def test_layout_matches_json_dumps(value):
    assert _json_text(value) == dumps(value)
    assert _json_text(value, "\n  ") == dumps(value).replace("\n", "\n  ")


@given(st.lists(records, max_size=4))
@WRITER
def test_report_text_matches_json_dumps(records):
    whole = dumps(sorted(records, key=lambda r: r["operation_table"])) + "\n"
    assert reports_to_text(records) == whole


@pytest.mark.parametrize("name", ["C4", "D3", "Q8"])
def test_analyze_json_matches_json_dumps(name, tmp_path, capsys):
    # the bytes `skewbrace analyze` printed through json.dumps
    for i, report in enumerate(enumerate_reports(group_by_name(name))):
        path = tmp_path / f"dot{i}.json"
        write_group(report.operation, path)
        assert main(["analyze", name, str(path)]) == 0
        expected = analyze(make_brace(report.operation, group_by_name(name)))
        assert capsys.readouterr().out \
            == dumps(report_to_record(expected)) + "\n"
