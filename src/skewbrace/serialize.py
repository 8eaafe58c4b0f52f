"""File formats: Cayley-table files, census report files and the report
table.

Both file formats are JSON, UTF-8, all integers decimal, with
deterministic byte-for-byte output so golden fixtures diff cleanly.
Report text is laid out by _json_text, byte for byte as
json.dumps(indent=2, sort_keys=True), whose pure-Python encoder it
replaces: a list of plain ints is written by one str.join.  The aligned
text table of `--format table` is laid out by report_table, so both
report layouts live here.

A report is read by its fields alone and a record is told from it by
being a dict, so this module loads only the group core: reading or
writing a group file never loads the census.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import ParseError
from .groups import FiniteGroup, make_group


def group_to_text(G: FiniteGroup) -> str:
    rows = ",\n".join(f"    [{', '.join(map(str, row))}]" for row in G.table)
    return (
        "{\n"
        f'  "order": {G.order},\n'
        '  "table": [\n'
        f"{rows}\n"
        "  ]\n"
        "}\n"
    )


def write_group(G: FiniteGroup, path) -> None:
    Path(path).write_text(group_to_text(G), encoding="utf-8")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) \
            from exc


def group_from_text(text: str) -> FiniteGroup:
    data = _parse_json(text)
    if not _fits(data, {"order": int, "table": list}):
        raise ParseError('expected an integer "order" and a list "table"')
    order, table = data["order"], data["table"]
    if len(table) != order:
        raise ParseError(f'"table" must have {order} rows')
    for i, row in enumerate(table):
        if not _fits(row, [int]) or len(row) != order:
            raise ParseError(f"table row {i} must be {order} integers")
    return make_group(table)


def read_group(path) -> FiniteGroup:
    return group_from_text(Path(path).read_text(encoding="utf-8"))


# the fields of report_to_record, each with the shape of its JSON value
_RECORD = {"operation_table": [[int]], "type_name": str, "is_bi_skew": bool,
           "image": [[int]], "is_surjective": bool,
           "gc_ratio": {"num": int, "den": int}, "grouplikes": [int],
           "iso_class_id": int, "orbit_size": int}


def _fits(x, shape) -> bool:
    """Whether the JSON value x has the shape: a type (a bool is no int),
    [shape] for a list of such values, {key: shape} for an object."""
    if isinstance(shape, list):
        return isinstance(x, list) and all(_fits(y, shape[0]) for y in x)
    if isinstance(shape, dict):
        return isinstance(x, dict) and all(_fits(x.get(k), v)
                                           for k, v in shape.items())
    return isinstance(x, shape) and (shape is bool or not isinstance(x, bool))


def report_to_record(r) -> dict:
    """The JSON record of an analysis.HgsReport."""
    return {
        "operation_table": [list(row) for row in r.operation.table],
        "type_name": r.type_name,
        "is_bi_skew": r.is_bi_skew,
        "image": [list(s) for s in r.image],
        "is_surjective": r.is_surjective,
        "gc_ratio": {"num": r.gc_ratio.numerator,
                     "den": r.gc_ratio.denominator},
        "grouplikes": list(r.grouplikes),
        "iso_class_id": r.iso_class_id,
        "orbit_size": r.orbit_size,
    }


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a JSON value whose
    keys are strings, with each line after the first begun by pad, a
    newline and the indent of the value's own level.  Keys are quoted as
    json.dumps quotes them.  A plain int (no bool) is written by str, a
    list of them by one str.join, and every other leaf (str, bool, None)
    goes through json.dumps."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            items = map(str, value)
        else:
            items = (_json_text(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            _quote(k) + ": " + _json_text(value[k], inner)
            for k in sorted(value)) + pad + "}"
    if type(value) is int:
        return str(value)
    return json.dumps(value)


def report_chunks(reports):
    """The text of reports_to_text, one record at a time: reports (or
    records) sorted by operation table, each laid out as json.dumps of
    the whole list would place it, so no more than one record is ever
    held as text."""
    items = sorted(reports, key=_operation_table)
    if not items:
        yield "[]\n"
        return
    sep = "[\n  "
    for r in items:
        rec = r if isinstance(r, dict) else report_to_record(r)
        yield sep + _json_text(rec, "\n  ")
        sep = ",\n  "
    yield "\n]\n"


def report_text(report) -> str:
    """One report as a JSON object, the text of `skewbrace analyze`."""
    return _json_text(report_to_record(report)) + "\n"


def report_table(reports) -> str:
    """Reports as an aligned text table, one row each in the given order:
    the text of `--format table`."""
    header = f"{'#':>3}  {'type':<14} {'bi-skew':<8} {'surjective':<11} " \
             f"{'ratio':<8} {'class':>5} {'orbit':>5}"
    lines = [header, "-" * len(header)]
    for i, r in enumerate(reports):
        lines.append(
            f"{i:>3}  {r.type_name:<14} {str(r.is_bi_skew):<8} "
            f"{str(r.is_surjective):<11} {str(r.gc_ratio):<8} "
            f"{r.iso_class_id:>5} {r.orbit_size:>5}")
    return "\n".join(lines) + "\n"


def _operation_table(r) -> tuple:
    if isinstance(r, dict):
        return tuple(map(tuple, r["operation_table"]))
    return r.operation.table


def reports_to_text(reports) -> str:
    return "".join(report_chunks(reports))


def write_reports(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(report_chunks(reports))


def read_reports(path) -> list[dict]:
    """The records of a report file; ParseError names the first record
    and field not in its report_to_record shape, or a gc_ratio den <= 0."""
    data = _parse_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ParseError("expected a JSON array of report records")
    for i, record in enumerate(data):
        for field, shape in _RECORD.items():
            if not (isinstance(record, dict)
                    and _fits(record.get(field), shape)):
                raise ParseError(f'report record {i}: "{field}" is missing '
                                 "or of the wrong JSON type")
        if record["gc_ratio"]["den"] <= 0:
            raise ParseError(f'report record {i}: "gc_ratio" den is not > 0')
    return data


def record_ratio(record: dict) -> Fraction:
    return Fraction(record["gc_ratio"]["num"], record["gc_ratio"]["den"])
