"""Catalog completeness and the two file formats."""

import json
import re
import sys

import pytest

from skewbrace import catalog
from skewbrace.analysis import enumerate_reports
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
from skewbrace.groups import isomorphism, make_group
from skewbrace.serialize import (
    read_group,
    read_reports,
    report_chunks,
    report_to_record,
    reports_to_text,
    write_group,
    write_reports,
)


class TestCatalog:
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
        monkeypatch.setattr(catalog, "_build", lambda order: [cyclic(3)])
        with pytest.raises(InternalInconsistency, match="filed under order 5"):
            catalog._entries.__wrapped__(5)

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

    @pytest.mark.parametrize("order", [8.0, "8", None, [8]])
    def test_non_integer_order_unsupported(self, order):
        with pytest.raises(UnsupportedOrder, match=re.escape(repr(order))):
            groups_of_order(order)

    def test_partial_order_sixteen(self):
        with pytest.raises(CatalogIncompleteForOrder):
            groups_of_order(16)
        # its entries still name their class: relabel by cycling 1..15
        perm = [0, *range(2, 16), 1]
        for name in ("C16", "D8", "Q16"):
            G = group_by_name(name)
            table = [[0] * 16 for _ in range(16)]
            for a in range(16):
                for b in range(16):
                    table[perm[a]][perm[b]] = perm[G.table[a][b]]
            H = make_group(table)
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
