"""One benchmark pass, run in a fresh interpreter so library caches start
cold.

    child.py [--trace SPANS] census OUTDIR [GROUPDIR]
    child.py [--trace SPANS] cli ARG...

`census` enumerates and serializes every catalog group of orders 1-15,
writing OUTDIR/<name>.json; with GROUPDIR it reads each target from
GROUPDIR/<name>.json through `read_group` instead of taking the catalog
table.  `cli` runs `skewbrace ARG...` in this process.  With --trace the
layers are wrapped by `tracing.Tracer`; the spans go to SPANS and a
summary to SPANS with the suffix `.summary.json`.

skewbrace must be importable from the `src` directory of the checkout
(the parent puts it on PYTHONPATH); a copy found anywhere else is refused.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENSUS_ORDERS = range(1, 16)


def census(outdir: str, groupdir: str | None = None) -> int:
    from skewbrace import enumerate_reports, groups_of_order, read_group
    from skewbrace.serialize import reports_to_text

    out = Path(outdir)
    for order in CENSUS_ORDERS:
        for G in groups_of_order(order):
            target = G if groupdir is None else \
                read_group(Path(groupdir) / f"{G.name}.json")
            text = reports_to_text(enumerate_reports(target))
            (out / f"{G.name}.json").write_text(text, encoding="utf-8")
    return 0


def run(argv: list[str]) -> int:
    if argv[0] == "census":
        return census(*argv[1:])
    if argv[0] == "cli":
        import skewbrace.cli
        return skewbrace.cli.main(argv[1:])
    raise SystemExit(f"unknown pass kind {argv[0]!r}")


def main(argv: list[str]) -> int:
    import skewbrace

    src = (ROOT / "src").resolve()
    if src not in Path(skewbrace.__file__).resolve().parents:
        raise SystemExit(f"skewbrace imported from {skewbrace.__file__}, "
                         f"not from {src}")
    if argv[0] != "--trace":
        return run(argv)

    import tracing

    spans_path = argv[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(argv[2:])
    finally:
        sys.stdout.flush()
        started = time.perf_counter()
        tracer.write_spans(spans_path)
        summary = tracing.summarize(tracer.spans, tracer.cache_counters(),
                                    tracer.wrapped)
        summary["trace"] = tracer.trace_id
        # writing and summarizing the spans is part of the traced pass's
        # wall time; it is reported apart from the program's own layers
        summary["harness_s"] = time.perf_counter() - started
        Path(spans_path + ".summary.json").write_text(
            json.dumps(summary, indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
