"""Span tracing of the skewbrace layers, installed from outside the package.

`install()` replaces every public function of the traced modules with a
wrapper that records one span per call: name, start, end and the span
that was open when the call began (its parent).  The wrapper is bound
into every skewbrace module that holds a reference to the function, so
calls between modules (`from .groups import make_group`) and inside a
module go through it too.  The package source is not modified.

The layers are single-threaded and have no queues, so a span's duration
is busy time; there is no waiting to report.  Self time is a span's
duration minus the durations of its child spans (children of one span
never overlap in a single-threaded run).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import uuid

PACKAGE = "skewbrace"
MODULES = ("groups", "perms", "braces", "analysis", "catalog", "serialize",
           "cli")

# Public helpers that do O(n) work on one element, permutation or pair and
# are called up to millions of times per pass (compose and the two
# permutation tests run once per holomorph element in the regular-subgroup
# search).  A span per call would cost more than the call, so their time
# is counted in the self time of the function that calls them.
LEAF_HELPERS = frozenset({
    "perms.compose",
    "perms.perm_order",
    "perms.is_fixed_point_free",
    "groups.closure",
    "groups.cyclic_subgroup",
    "groups.is_subgroup",
})

# Functions whose calls open the per-type window of the census (one call
# per candidate type N), and the calls that are attributed to the open
# window when they are direct children of the census span.
TYPE_SEARCHES = frozenset({
    "perms.regular_subgroups_in_holomorph",
    "perms.cyclic_regular_subgroups_in_holomorph",
})
TYPE_TAGGED = frozenset({
    "perms.transport_operation",
    "groups.isomorphism",
    "braces.make_brace",
    "braces.brace_automorphism_count",
})
# The functions memoized with functools.lru_cache when the benchmark was
# written.  One that loses its cache is reported as absent.
MEMOIZED = (
    "braces.gamma", "braces.ideals", "braces.is_bi_skew", "braces.left_ideals",
    "braces.strong_left_ideals", "catalog.groups_of_order",
    "groups.automorphisms", "groups.distinguished_subgroups",
    "groups.generating_set", "groups.subgroups",
    "perms.cyclic_regular_subgroups_in_holomorph", "perms.holomorph",
    "perms.regular_subgroups_in_holomorph",
)
CENSUS_ROOTS = frozenset({
    "analysis.enumerate_reports",
    "analysis.enumerate_operations",
})


def _group_label(G) -> str:
    return G.name or f"order-{G.order}"


def _attrs(name: str, args, result) -> dict | None:
    """Counts recorded at the layer boundary, from arguments and result."""
    if name == "groups.isomorphism":
        return {"match": result is not None}
    if name == "groups.automorphisms":
        return {"group": _group_label(args[0]), "size": len(result)}
    if name == "perms.holomorph":
        return {"type": _group_label(args[0]), "size": len(result)}
    if name in TYPE_SEARCHES:
        return {"type": _group_label(args[0]), "order": args[0].order,
                "found": len(result)}
    if name == "perms.regular_subgroups_normalized_by":
        return {"found": len(result)}
    return None


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.t0 = time.perf_counter()
        # each span is [name, parent index, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # qualified name -> the original lru_cache object, kept so that
        # cache_info() can be read after the module attribute is replaced
        self.cached: dict[str, object] = {}
        self.wrapped: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            attrs = _attrs(name, args, result)
            if cache_info:
                attrs = attrs or {}
                attrs["hit"] = cache_info().misses == misses
            span[4] = attrs
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES and rebind every reference
        to them held by any loaded skewbrace module."""
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replace: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) \
                        or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in LEAF_HELPERS:
                    continue
                if hasattr(obj, "cache_info"):
                    self.cached[name] = obj
                replace[id(obj)] = self.wrap(name, obj)
                self.wrapped.append(name)
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                new = replace.get(id(obj))
                if new is not None:
                    setattr(holder, attr, new)

    def cache_counters(self) -> dict[str, dict | None]:
        """hits / misses / currsize per memoized public function; None when
        the function no longer has an lru cache."""
        out = {}
        for name in sorted(set(MEMOIZED) | set(self.cached)):
            fn = self.cached.get(name)
            if fn is None:
                out[name] = None
                continue
            ci = fn.cache_info()
            out[name] = {"hits": ci.hits, "misses": ci.misses,
                         "currsize": ci.currsize}
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: trace, id, parent (-1 for a root),
        name, start and end in seconds since the tracer was made, and the
        attrs recorded at the boundary, if any."""
        head = f'{{"trace":"{self.trace_id}","id":'
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                extra = f',"attrs":{json.dumps(attrs)}' if attrs else ""
                fh.write(f'{head}{i},"parent":{parent},"name":"{name}",'
                         f'"start":{start - t0!r},"end":{end - t0!r}'
                         f'{extra}}}\n')


def summarize(spans, cache_counters, wrapped) -> dict:
    """Per-function and per-module calls, self and total seconds, layer
    counts, and the per-type census breakdown, from a list of spans."""
    n = len(spans)
    child_total = [0.0] * n
    children: dict[int, list[int]] = {}
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_total[parent] += end - start
            children.setdefault(parent, []).append(i)
    funcs = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
             for name in wrapped}
    modules: dict[str, float] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        f["calls"] += 1
        self_s = (end - start) - child_total[i]
        f["self_s"] += self_s
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + self_s
        # total_s counts a span only when no ancestor has the same name
        anc = parent
        nested = False
        while anc >= 0:
            if spans[anc][0] == name:
                nested = True
                break
            anc = spans[anc][1]
        if not nested:
            f["total_s"] += end - start

    def attr_sum(name, key, built_only=False):
        total = 0
        for s in spans:
            if s[0] == name and s[4] and key in s[4]:
                if built_only and s[4].get("hit"):
                    continue
                total += s[4][key]
        return total

    iso_calls = funcs.get("groups.isomorphism", {}).get("calls", 0)
    iso_matches = attr_sum("groups.isomorphism", "match")
    counts = {
        "groups.isomorphism.matches": iso_matches,
        "groups.isomorphism.match_ratio":
            iso_matches / iso_calls if iso_calls else 0.0,
        "perms.holomorph.size": attr_sum("perms.holomorph", "size", True),
        "perms.regular_subgroups_in_holomorph.found":
            attr_sum("perms.regular_subgroups_in_holomorph", "found", True),
        "perms.cyclic_regular_subgroups_in_holomorph.found":
            attr_sum("perms.cyclic_regular_subgroups_in_holomorph", "found",
                     True),
        "perms.regular_subgroups_normalized_by.found":
            attr_sum("perms.regular_subgroups_normalized_by", "found"),
    }
    return {
        "spans": n,
        "functions": funcs,
        "modules": modules,
        "counts": counts,
        "caches": cache_counters,
        "types": per_type(spans, children),
    }


def per_type(spans, children) -> list[dict]:
    """Per candidate type N of each census span: |Aut N|, |Hol N|, regular
    subgroups found, isomorphism calls and matches against the target, and
    seconds per stage.

    The window of N runs from the start of its regular-subgroup search to
    the start of the next direct child of the census span that is neither
    a search nor a per-structure call (transport, isomorphism, brace
    construction, stabilizer count), or to the end of the census span.
    Time in the window outside those calls is orbit bookkeeping done by
    unwrapped code.
    """
    hol_size: dict[str, int] = {}
    for name, _, _, _, attrs in spans:
        if name == "perms.holomorph" and attrs:
            hol_size[attrs["type"]] = attrs["size"]
    rows = []
    for root, (name, _, _, root_end, _) in enumerate(spans):
        if name not in CENSUS_ROOTS:
            continue
        window = None
        for c in children.get(root, ()):
            cname, _, start, end, attrs = spans[c]
            attrs = attrs or {}   # a call that raised recorded no attrs
            if cname in TYPE_SEARCHES and "type" in attrs:
                _close(window, start)
                hol_s = sum(spans[h][3] - spans[h][2]
                            for h in children.get(c, ())
                            if spans[h][0] == "perms.holomorph")
                hol = hol_size.get(attrs["type"], 0)
                window = {
                    "census": root, "type": attrs["type"],
                    "aut": hol // attrs["order"], "hol": hol,
                    "found": attrs["found"], "iso_calls": 0, "matches": 0,
                    "aut_hol_s": hol_s, "search_s": end - start - hol_s,
                    "transport_s": 0.0, "isomorphism_s": 0.0,
                    "orbit_s": 0.0, "_start": start,
                }
                rows.append(window)
            elif window is not None and cname in TYPE_TAGGED:
                d = end - start
                if cname == "perms.transport_operation":
                    window["transport_s"] += d
                elif cname == "groups.isomorphism":
                    window["isomorphism_s"] += d
                    window["iso_calls"] += 1
                    window["matches"] += bool(attrs.get("match"))
                else:
                    window["orbit_s"] += d
            else:
                _close(window, start)
                window = None
        _close(window, root_end)
    return rows


def _close(window, end) -> None:
    if window is None or "_start" not in window:
        return
    staged = (window["aut_hol_s"] + window["search_s"]
              + window["transport_s"] + window["isomorphism_s"]
              + window["orbit_s"])
    window["window_s"] = end - window.pop("_start")
    window["orbit_s"] += max(0.0, window["window_s"] - staged)
