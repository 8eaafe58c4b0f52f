"""The benchmark's workloads: inputs made from a seed, the command of one
pass, and the checks every pass's outputs must meet.

Seed 0 runs the catalog tables as they are.  Seed k > 0 relabels each
target group by a random permutation of its elements that fixes 0 and
hands the relabeled table to the program as a group file, read through
`read_group` (which validates it with `make_group`).  Counts that do not
depend on labels are checked at every seed; the byte digests of the
report files only at seed 0.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = BENCH / "pinned.json"

# Isomorphism classes of skew braces of each order (Guarnieri & Vendramin,
# "Skew braces and the Yang-Baxter equation", Math. Comp. 86 (2017),
# arXiv:1511.03171), summed over the targets of that order.  They come
# from outside the holomorph route, so they gate the census independently.
GV_CLASSES_BY_ORDER = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47,
                       9: 4, 10: 6, 11: 1, 12: 38, 13: 1, 14: 6, 15: 1}
GV_CLASSES_BY_TARGET = {"C27": 3, "M27": 39}
# The paper's quaternion census: structures, cyclic type, surjective.
Q8_NUMBERS = (22, 6, 16)
VERIFY_SUITES = 5

CENSUS_SMALL_TARGETS = (
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D3", "C7", "C8", "C4xC2",
    "C2xC2xC2", "D4", "Q8", "C9", "C3xC3", "C10", "D5", "C11", "C12",
    "C6xC2", "D6", "A4", "Dic3", "C13", "C14", "D7", "C15",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                      # "census", "enumerate" or "verify"
    targets: tuple[str, ...] = ()
    cli_args: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("census-small",
             "28 tiny groups of orders 1-15: per-structure overhead "
             "(table validation, analysis, type names) dominates",
             "census", CENSUS_SMALL_TARGETS),
    Workload("cold-c27",
             "cold enumerate C27: Aut and Hol of C3xC3xC3 dominate and "
             "yield nothing; shows type pruning and memory",
             "enumerate", ("C27",)),
    Workload("heavy-m27",
             "enumerate M27 --enable-heavy-orders: full regular-subgroup "
             "search over 5 types and ~4.3k transports plus isomorphism "
             "tests",
             "enumerate", ("M27",), ("--enable-heavy-orders",)),
    Workload("verify-all",
             "verify all: the oracle, e/f counting and per-operation "
             "isomorphism paths; catches a census gain that costs "
             "verification",
             "verify", (), ("verify", "all")),
)}


def relabel(table, seed: int, name: str):
    """table relabeled by a permutation pi of 0..n-1 with pi(0) = 0:
    out[pi(a)][pi(b)] = pi(table[a][b])."""
    n = len(table)
    rest = list(range(1, n))
    random.Random(f"{seed}:{name}").shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def write_inputs(workload: Workload, seed: int, groupdir: Path) -> None:
    """Write the relabeled target tables of a seed k > 0 as group files.
    The runner calls this through `python3 workloads.py inputs ...`, so it
    never imports skewbrace itself."""
    sys.path.insert(0, str(ROOT / "src"))
    from skewbrace import group_by_name

    groupdir.mkdir(parents=True, exist_ok=True)
    for name in workload.targets:
        G = group_by_name(name)
        table = relabel(G.table, seed, name)
        (groupdir / f"{name}.json").write_text(
            json.dumps({"order": G.order, "table": table}), encoding="utf-8")


def pass_command(workload: Workload, python: str, outdir: Path,
                 groupdir: Path | None, spans: Path | None) -> list[str]:
    """argv of one pass.  Untraced passes of the CLI workloads run the
    command a user types (`python -m skewbrace.cli` is `skewbrace`)."""
    traced = [python, str(BENCH / "child.py"), "--trace", str(spans)] \
        if spans else None
    if workload.kind == "census":
        args = ["census", str(outdir)] + ([str(groupdir)] if groupdir else [])
        return (traced or [python, str(BENCH / "child.py")]) + args
    if workload.kind == "enumerate":
        target = workload.targets[0]
        spec = str(groupdir / f"{target}.json") if groupdir else target
        args = ["enumerate", spec, *workload.cli_args]
    else:
        args = list(workload.cli_args)
    return traced + ["cli"] + args if traced \
        else [python, "-m", "skewbrace.cli"] + args


def signature(text: str) -> tuple[dict, list[str]]:
    """Label-independent counts of one report file, and the problems found
    in it: every class must have as many records as its orbit size."""
    records = json.loads(text)
    classes: dict[int, list[dict]] = {}
    for r in records:
        classes.setdefault(r["iso_class_id"], []).append(r)
    problems = [f"class {cid} has {len(members)} records but orbit size "
                f"{members[0]['orbit_size']}"
                for cid, members in sorted(classes.items())
                if any(r["orbit_size"] != len(members) for r in members)]
    sig = {
        "structures": len(records),
        "classes": len(classes),
        "types": dict(sorted(Counter(r["type_name"]
                                     for r in records).items())),
        "orbits": sorted(len(m) for m in classes.values()),
        "cyclic_type": sum(1 for r in records
                           if re.fullmatch(r"C\d+", r["type_name"])),
        "surjective": sum(1 for r in records if r["is_surjective"]),
        "bi_skew": sum(1 for r in records if r["is_bi_skew"]),
    }
    return sig, problems


def read_outputs(workload: Workload, outdir: Path, stdout: str) \
        -> dict[str, str]:
    """Report text per target from a finished census or enumerate pass."""
    if workload.kind == "census":
        return {name: (outdir / f"{name}.json").read_text(encoding="utf-8")
                for name in workload.targets}
    body, _, _ = stdout.rstrip("\n").rpartition("\n")
    return {workload.targets[0]: body + "\n"}


def check_pass(workload: Workload, seed: int, returncode: int, stdout: str,
               outdir: Path, pinned: dict) -> tuple[list[str], int]:
    """Problems with one pass's outputs, and the structures it reported."""
    if returncode != 0:
        return [f"exit code {returncode}"], 0
    if workload.kind == "verify":
        lines = stdout.splitlines()
        passed = [ln for ln in lines if ln.startswith("PASS ")]
        if len(passed) != VERIFY_SUITES or len(lines) != VERIFY_SUITES:
            return [f"expected {VERIFY_SUITES} PASS lines, got: {lines}"], 0
        return [], 0
    try:
        texts = read_outputs(workload, outdir, stdout)
    except OSError as exc:
        return [f"missing output: {exc}"], 0
    problems: list[str] = []
    classes_by_order: Counter = Counter()
    structures = 0
    for name, text in texts.items():
        want = pinned[name]
        try:
            sig, bad = signature(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable report: {exc!r}")
            continue
        problems += [f"{name}: {p}" for p in bad]
        for key, value in sig.items():
            if want[key] != value:
                problems.append(f"{name}: {key} {value} != pinned {want[key]}")
        if seed == 0:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != want["sha256"]:
                problems.append(f"{name}: report sha256 {digest} != pinned")
        if name in GV_CLASSES_BY_TARGET \
                and sig["classes"] != GV_CLASSES_BY_TARGET[name]:
            problems.append(f"{name}: {sig['classes']} classes, published "
                            f"{GV_CLASSES_BY_TARGET[name]}")
        if name == "Q8":
            got = (sig["structures"], sig["types"].get("C8", 0),
                   sig["surjective"])
            if got != Q8_NUMBERS:
                problems.append(f"Q8: census {got} != paper {Q8_NUMBERS}")
        if workload.kind == "enumerate":
            line = stdout.rstrip("\n").rpartition("\n")[2]
            want_line = (f"total={sig['structures']} "
                         f"cyclic_type={sig['cyclic_type']} "
                         f"surjective={sig['surjective']}")
            if line != want_line:
                problems.append(f"{name}: summary {line!r} != {want_line!r}")
        classes_by_order[pinned[name]["order"]] += sig["classes"]
        structures += sig["structures"]
    if workload.kind == "census":
        for order, count in GV_CLASSES_BY_ORDER.items():
            if classes_by_order[order] != count:
                problems.append(f"order {order}: {classes_by_order[order]} "
                                f"classes, published {count}")
    return problems, structures


def load_pinned() -> dict:
    """Per target: order, seed-0 report sha256 and the signature counts."""
    return json.loads(PINNED.read_text(encoding="utf-8"))["targets"]


if __name__ == "__main__":
    # python3 workloads.py inputs WORKLOAD SEED GROUPDIR
    if len(sys.argv) != 5 or sys.argv[1] != "inputs":
        sys.exit(__doc__)
    write_inputs(WORKLOADS[sys.argv[2]], int(sys.argv[3]), Path(sys.argv[4]))
