"""Batch command-line surface: enumerate, analyze, verify.

Exit codes: 0 success; 1 I/O or parse failure; 2 unsupported order or
unknown group; 3 the pair given to analyze is no brace (BraceLawViolated
or IdentityMismatch; only analyze validates a supplied pair).  Report
data goes to stdout or --out, never to stderr: both report commands
write through _write, and serialize lays out both formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, serialize
from .braces import (
    almost_trivial_brace,
    is_bi_skew,
    left_ideals,
    make_brace,
    opposite,
    strong_left_ideals,
    swap,
    trivial_brace,
)
from .catalog import group_by_name, groups_of_order
from .errors import (
    BraceLawViolated,
    CatalogIncompleteForOrder,
    IdentityMismatch,
    ParseError,
    SkewbraceError,
    UnknownName,
    UnsupportedOrder,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    distinguished_subgroups,
    inversion_action,
    subgroups,
)
from .perms import (
    operation_from_regular_subgroup,
    regular_subgroups_normalized_by,
)

_USAGE_ERRORS = (CatalogIncompleteForOrder, UnsupportedOrder, UnknownName)


def _resolve_group(spec: str) -> FiniteGroup:
    try:
        return group_by_name(spec)
    except UnknownName:
        pass
    if Path(spec).exists():
        return serialize.read_group(spec)
    raise UnknownName(f"{spec!r} is neither a catalog name nor a file")


def _write(args, chunks) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_enumerate(args) -> int:
    # an order the catalog does not serve is refused before any search
    reports = analysis.enumerate_reports(_resolve_group(args.group))
    if args.format == "json":
        _write(args, serialize.report_chunks(reports))
    else:
        _write(args, [serialize.report_table(reports)])
    total = len(reports)
    # the type is an orbit invariant: one test per class
    operations = {r.iso_class_id: r.operation for r in reports}
    cyclic_classes = {c for c, op in operations.items() if op.is_cyclic()}
    cyclic = sum(1 for r in reports if r.iso_class_id in cyclic_classes)
    surjective = sum(1 for r in reports if r.is_surjective)
    print(f"total={total} cyclic_type={cyclic} surjective={surjective}")
    return 0


def cmd_analyze(args) -> int:
    circ = _resolve_group(args.circ)
    dot = _resolve_group(args.operation)
    B = make_brace(dot, circ)
    report = analysis.analyze(B)
    if args.format == "json":
        _write(args, [serialize.report_text(report)])
    else:
        _write(args, [serialize.report_table([report])])
    return 0


# -- verification suites ---------------------------------------------------

def _axiom_battery():
    """Braces exercising every construction; gamma/opposite identities are
    checked inside the library calls themselves."""
    # only the verify suites build braces by construction, so enumerate
    # and analyze never load the module
    from . import constructions

    battery = []
    for order in (1, 2, 3, 4, 6, 8, 9, 10, 12):
        for G in groups_of_order(order):
            battery.append(trivial_brace(G))
            battery.append(almost_trivial_brace(G))
    q8 = group_by_name("Q8")
    battery.extend(constructions.all_psi_braces(q8))
    battery.append(constructions.class2_construction(q8))
    battery.append(constructions.class2_construction(
        group_by_name("Heisenberg-27")))
    for name in ("C3", "C5", "C2xC2"):
        battery.append(constructions.inversion_construction(
            group_by_name(name)))
    c3 = group_by_name("C3")
    battery.append(constructions.semidirect_to_brace(
        c3, group_by_name("C2"), inversion_action(c3)))
    battery.extend(constructions.cpr_cps_brace(*prs)
                   for prs in ((2, 1, 1), (3, 1, 1), (2, 2, 1)))
    return battery


def _check_axioms():
    for B in _axiom_battery():
        make_brace(B.dot.table, B.circ.table)
        opp = opposite(B)
        if opposite(opp).dot.table != B.dot.table:
            return False, f"opposite is not an involution at order {B.order}"
        strong = set(strong_left_ideals(B))
        inter = set(left_ideals(B)) & set(left_ideals(opp))
        if strong != inter:
            return False, f"strong-left-ideal identity fails at order {B.order}"
        if is_bi_skew(B):
            if set(left_ideals(B)) != set(left_ideals(swap(B))):
                return False, f"bi-skew left-ideal coincidence fails ({B})"
            analysis.surjective_iff_power_auto(B)
    return True, "axioms, gamma identities and ideal identities hold"


def _check_bijection():
    checked = 0
    for order in range(1, 7):
        for G in groups_of_order(order):
            oracle = {operation_from_regular_subgroup(R, G).table
                      for R in regular_subgroups_normalized_by(G)}
            census = {B.dot.table for B in analysis.enumerate_operations(G)}
            if oracle != census:
                return False, json.dumps(
                    {"group": G.name, "oracle": len(oracle),
                     "census": len(census)})
            checked += 1
    return True, f"oracle equivalence on {checked} groups"


def _check_byott():
    pairs = 0
    for order in range(1, 13):
        gs = groups_of_order(order)
        for G in gs:
            for N in gs:
                analysis.byott_check(G, N)
                pairs += 1
    return True, f"translation identity on {pairs} pairs"


def _check_paper_numbers():
    from . import constructions

    q8 = group_by_name("Q8")
    reports = analysis.enumerate_reports(q8)
    total = len(reports)
    cyclic = sum(1 for r in reports if r.type_name == "C8")
    surjective = sum(1 for r in reports if r.is_surjective)
    if (total, cyclic, surjective) != (22, 6, 16):
        return False, f"census on Q8 gave {(total, cyclic, surjective)}"
    psi_tables = {B.dot.table for B in constructions.all_psi_braces(q8)}
    surj_tables = {r.operation.table for r in reports if r.is_surjective}
    if psi_tables != surj_tables:
        return False, "norm-quotient constructions do not match the " \
                      "surjective census on Q8"

    B5 = constructions.inversion_construction(group_by_name("C5"))
    pair = analysis.biskew_pair_report(B5)
    if (pair.ratio_fwd, pair.ratio_swapped, pair.quotient) != (1, 0.5, 2):
        return False, f"order-10 ratio pair gave {pair}"

    m27 = group_by_name("M27")
    dist = distinguished_subgroups(m27)
    if len(dist.norm) != 9 or len(dist.center) != 3:
        return False, "norm/centre sizes wrong for the exponent-9 group"
    braces = constructions.all_psi_braces(m27)
    if len(braces) != 9 or not all(
            len(left_ideals(B)) == len(subgroups(B.circ)) for B in braces):
        return False, "norm-quotient construction census wrong at order 27"

    heis = group_by_name("Heisenberg-27")
    Bh = constructions.class2_construction(heis)
    normal = set(distinguished_subgroups(heis).normal)
    if set(left_ideals(Bh)) != normal:
        return False, "class-2 image is not the normal subgroups"
    if Bh.dot.table == almost_trivial_brace(heis).dot.table:
        return False, "class-2 operation should differ from the opposite"

    c8 = group_by_name("C8")
    q8_type = [r for r in analysis.enumerate_reports(c8)
               if r.type_name == "Q8"]
    if not any(r.is_bi_skew and r.is_surjective for r in q8_type):
        return False, "no bi-skew surjective quaternion-type structure on C8"
    return True, "census counts, ratio pair, order-27 and order-8 witnesses"


def _check_childs():
    groups = [G for order in range(1, 13)
              for G in groups_of_order(order)]
    groups.append(group_by_name("C15"))
    for G in groups:
        if analysis.all_surjective(G) != analysis.childs_criterion(G):
            return False, f"criterion mismatch at {G.name}"
    return True, f"criterion matches the census on {len(groups)} groups"


_SUITES = {
    "axioms": _check_axioms,
    "bijection": _check_bijection,
    "byott": _check_byott,
    "paper-numbers": _check_paper_numbers,
    "childs": _check_childs,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        try:
            passed, detail = _SUITES[name]()
        except SkewbraceError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Census of compatible group operations on a fixed "
                    "finite group, with correspondence analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate",
                            help="list every structure on a group")
    p_enum.add_argument("group", help="catalog name or group file path")
    p_enum.add_argument("--out", help="write the report list here")
    p_enum.add_argument("--format", choices=("json", "table"),
                        default="json")
    # inert: kept only because bench/workloads.py's heavy-m27 command
    # passes it
    p_enum.add_argument("--enable-heavy-orders", action="store_true",
                        help=argparse.SUPPRESS)
    p_enum.set_defaults(func=cmd_enumerate)

    p_an = sub.add_parser("analyze",
                          help="analyze one operation against a group")
    p_an.add_argument("circ", help="catalog name or group file path")
    p_an.add_argument("operation", help="operation table file (or name)")
    p_an.add_argument("--out")
    p_an.add_argument("--format", choices=("json", "table"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BraceLawViolated, IdentityMismatch) as exc:
        # only analyze validates a supplied pair
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
