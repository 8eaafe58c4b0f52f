"""Layered census benchmark for skewbrace (standard library only).

    python3 bench/run.py --workload NAME [--seed K] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every pass is a fresh interpreter, so
library caches start cold as they do for a user of `skewbrace`.  With
--trace 0 the run times untraced passes until S seconds are used (at
least one pass) and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics of
the traced pass with the median wall time.  Every pass's outputs are
checked (see workloads.py).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are
the same numbers for people, the environment, and in traced runs the
per-module, per-type and cache tables.  Exit status is 0 only when every
pass succeeded and every check held.

Files go under .bench_work/ in the checkout: pass outputs and span files
in .bench_work/<workload>-seed<K>/, and the full result with the
environment in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import tracing
import workloads as wl

ROOT = wl.ROOT
WORK = ROOT / ".bench_work"
# every run must end well within 180 s, whatever --seconds says
RUN_LIMIT_S = 170.0
SETUP_CODE = "import skewbrace; skewbrace.catalog_names()"
SETUP_SAMPLES = 10

# every end-to-end metric a run prints; those in BENCHMARK.json go in the JSON
END_TO_END_UNITS = {"wall_ref": "ref", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "ref_s": "s"}
JSON_METRICS = ("wall_ref", "peak_rss_mb", "setup_s")

# per-layer metrics printed by a traced run (the names BENCHMARK.json
# lists); every time among them is above 0 on every workload
MODULE_SELF = ("groups", "perms", "braces", "analysis", "catalog", "other")
FUNCTION_TIMES = (
    ("groups.make_group", "self_s"),
    ("groups.isomorphism", "self_s"),
    ("groups.isomorphism", "total_s"),
    ("groups.homomorphisms", "self_s"),
    ("groups.automorphisms", "self_s"),
    ("groups.automorphisms", "total_s"),
    ("groups.subgroups", "self_s"),
    ("perms.holomorph", "self_s"),
    ("perms.transport_operation", "total_s"),
    ("analysis.enumerate_reports", "self_s"),
    ("analysis.enumerate_reports", "total_s"),
    ("analysis.analyze", "self_s"),
    ("analysis.analyze", "total_s"),
    ("braces.make_brace", "self_s"),
    ("braces.gamma", "self_s"),
    ("braces.left_ideals", "self_s"),
    ("braces.is_bi_skew", "self_s"),
    ("braces.brace_automorphisms", "self_s"),
    ("braces.brace_automorphism_count", "total_s"),
    ("catalog.type_name", "total_s"),
)
# the three regular-subgroup enumerators; on each workload one of them runs
REGULAR_SEARCHES = ("perms.regular_subgroups_in_holomorph",
                    "perms.cyclic_regular_subgroups_in_holomorph",
                    "perms.regular_subgroups_normalized_by")
FUNCTION_CALLS = (
    "groups.make_group", "groups.isomorphism", "groups.homomorphisms",
    "groups.automorphisms", "groups.subgroups", "perms.holomorph",
    *REGULAR_SEARCHES, "perms.transport_operation",
    "analysis.enumerate_reports", "analysis.analyze", "analysis.e_count",
    "analysis.f_count", "braces.make_brace", "braces.gamma",
    "braces.left_ideals", "braces.is_bi_skew",
    "braces.brace_automorphism_count", "catalog.type_name",
)
LAYER_COUNTS = {
    "groups.isomorphism.matches": "count",
    "groups.isomorphism.match_ratio": "ratio",
    "perms.holomorph.size": "count",
    "perms.regular_subgroups_in_holomorph.found": "count",
    "perms.cyclic_regular_subgroups_in_holomorph.found": "count",
    "perms.regular_subgroups_normalized_by.found": "count",
}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], out: Path, timeout_s: float) -> Pass:
    """Run argv with stdout to `out`; wall time from spawn to exit, and the
    CPU time and peak RSS of that process (from wait4; the RSS never reads
    below this process's own peak).  The process is killed after
    timeout_s and always reaped before returning."""
    with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fout, stderr=ferr)
        lock = threading.Lock()
        reaped = [False]

        def kill() -> None:
            with lock:
                if not reaped[0]:
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

        timer = threading.Timer(max(timeout_s, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            with lock:
                reaped[0] = True
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode,
                out.read_text(encoding="utf-8", errors="replace"))


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.measuring_since = self.started
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.pinned = wl.load_pinned()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.structures = 0
        self.python = sys.executable
        self.groupdir = None
        if seed != 0 and workload.targets:
            self.groupdir = self.dir / "inputs"
            p = spawn([self.python, str(wl.BENCH / "workloads.py"), "inputs",
                       workload.name, str(seed), str(self.groupdir)],
                      self.dir / "inputs.out", self.time_left())
            if p.returncode != 0:
                raise SystemExit(f"writing the inputs failed: "
                                 f"{(self.dir / 'inputs.err').read_text()}")
        # compile the package once, untimed: users do not pay that per run
        spawn([self.python, "-c", "import skewbrace.cli"],
              self.dir / "warmup.out", self.time_left())

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def reference_sample(self) -> float:
        """Wall seconds of one reference run, from spawn to exit, as a
        pass is timed."""
        p = spawn([self.python, str(wl.BENCH / "reference.py")],
                  self.dir / "reference.out", self.time_left())
        if p.returncode != 0 or p.stdout.strip() != str(reference.EXPECTED):
            self.problems.append(f"reference exited {p.returncode} with "
                                 f"{p.stdout.strip()!r}")
        return p.wall_s

    def setup_sample(self) -> float:
        p = spawn([self.python, "-c", SETUP_CODE], self.dir / "setup.out",
                  self.time_left())
        if p.returncode != 0:
            self.problems.append(f"set-up exited {p.returncode}")
        return p.wall_s

    def one_pass(self, traced: bool) -> tuple[Pass, Path | None]:
        i = self.attempted
        self.attempted += 1
        outdir = self.dir / f"out-{i}"
        outdir.mkdir()
        spans = self.dir / f"pass-{i}.spans.jsonl" if traced else None
        argv = wl.pass_command(self.workload, self.python, outdir,
                               self.groupdir, spans)
        p = spawn(argv, self.dir / f"pass-{i}.out", self.time_left())
        problems, structures = wl.check_pass(
            self.workload, self.seed, p.returncode, p.stdout, outdir,
            self.pinned)
        if problems:
            self.failed += 1
            self.problems += [f"pass {i}: {msg}" for msg in problems[:20]]
        else:
            self.structures = structures
        return p, spans

    def another_fits(self, last_wall: float) -> bool:
        used = time.perf_counter() - self.measuring_since
        return used + last_wall <= self.seconds \
            and last_wall < self.time_left() - 10

    def measure(self) -> tuple[list[Pass], list[float], list[float]]:
        """Untraced passes until the time is used, each preceded by a
        set-up sample; at least SETUP_SAMPLES set-up samples.  The
        reference runs before the first pass and after every pass, so
        refs[i] and refs[i + 1] bracket pass i."""
        passes, setups = [], []
        self.measuring_since = time.perf_counter()
        refs = [self.reference_sample()]
        while True:
            setups.append(self.setup_sample())
            p, _ = self.one_pass(traced=False)
            passes.append(p)
            refs.append(self.reference_sample())
            if not self.another_fits(p.wall_s + setups[-1] + refs[-1]):
                break
        while len(setups) < SETUP_SAMPLES and self.time_left() > 5:
            setups.append(self.setup_sample())
        return passes, setups, refs

    def measure_traced(self) -> tuple[list[Pass], list[tuple[Pass, Path]]]:
        """Alternating untraced and traced passes, at least one of each."""
        plain, traced = [], []
        self.measuring_since = time.perf_counter()
        while True:
            p, _ = self.one_pass(traced=False)
            plain.append(p)
            t, spans = self.one_pass(traced=True)
            traced.append((t, spans))
            if not self.another_fits(p.wall_s + t.wall_s):
                break
        return plain, traced


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(run: Run, passes: list[Pass], setups: list[float],
               refs: list[float]) -> tuple[dict, list[str], dict]:
    """The end-to-end metrics (medians), their readable lines, and the
    samples they were taken from.  wall_ref divides each pass's wall time
    by the mean of the two reference runs around it."""
    samples = {
        "wall_ref": [p.wall_s / ((before + after) / 2)
                     for p, before, after in zip(passes, refs, refs[1:])],
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
        "setup_s": setups,
        "ref_s": refs,
    }
    metrics, lines = {}, []
    for name, values in samples.items():
        value = statistics.median(values)
        q1, q3 = quartiles(values)
        unit = END_TO_END_UNITS[name]
        if name in JSON_METRICS:
            metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<18} {value:12.4f} {unit:<5} median of "
                     f"{len(values)} (q1 {q1:.4f}, q3 {q3:.4f})")
    if run.workload.kind != "verify":
        rate = run.structures / statistics.median(samples["wall_s"])
        lines.append(f"{'structures_per_s':<18} {rate:12.4f} {'1/s':<5} "
                     f"{run.structures} structures per pass / median wall_s")
    lines.append(f"{'fail_rate':<18} {run.failed / run.attempted:12.4f} "
                 f"{'ratio':<5} {run.failed} of {run.attempted} passes failed")
    # wait4 reports a child's peak RSS as at least the peak of the process
    # that started it, so peak_rss_mb cannot read below the runner's own
    runner = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"runner's own peak RSS {runner:.1f} MB: peak_rss_mb "
                 f"cannot read below it")
    return metrics, lines, samples


def layer_metrics(summary: dict, wall_s: float, untraced_wall_s: float) \
        -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    funcs = summary["functions"]

    def fn(name: str) -> dict:
        return funcs.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    out: dict[str, tuple[float, str]] = {}
    modules = module_times(summary, wall_s)
    for module in MODULE_SELF:
        out[f"{module}.self_s"] = (modules[module], "s")
    for name, kind in FUNCTION_TIMES:
        out[f"{name}.{kind}"] = (fn(name)[kind], "s")
    out["perms.regular_subgroup_search.self_s"] = (
        sum(fn(name)["self_s"] for name in REGULAR_SEARCHES), "s")
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = (fn(name)["calls"], "count")
    for name, unit in LAYER_COUNTS.items():
        out[name] = (summary["counts"][name], unit)
    caches = [c for c in summary["caches"].values() if c is not None]
    for key in ("hits", "misses", "currsize"):
        out[f"cache.{key}"] = (sum(c[key] for c in caches), "count")
    out["trace.spans"] = (summary["spans"], "count")
    out["trace.harness_s"] = (summary["harness_s"], "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_ratio"] = (wall_s / untraced_wall_s, "ratio")
    return out


def module_times(summary: dict, wall_s: float) -> dict[str, float]:
    """Self seconds per traced module, the tracing harness's own time
    (writing the spans) and the remainder `other`: interpreter start,
    imports and code outside any span.  They add up to wall_s."""
    modules = {m: summary["modules"].get(m, 0.0) for m in tracing.MODULES}
    modules["harness"] = summary["harness_s"]
    modules["other"] = wall_s - sum(modules.values())
    return modules


def trace_report(summary: dict, wall_s: float) -> list[str]:
    """Readable tables of one traced pass: module self times adding up to
    the pass's wall time, the costliest functions, the per-type census
    breakdown and the memo caches."""
    lines = [f"traced pass: {wall_s:.4f} s wall, {summary['spans']} spans "
             f"(trace {summary['trace']})",
             "module self time (s), adding up to the traced wall time:"]
    modules = module_times(summary, wall_s)
    for module, seconds in modules.items():
        lines.append(f"  {module:<10} {seconds:10.4f}")
    lines.append(f"  {'sum':<10} {sum(modules.values()):10.4f}")
    lines.append("functions by self time (calls, self_s, total_s):")
    top = sorted(summary["functions"].items(),
                 key=lambda kv: -kv[1]["self_s"])
    for name, f in top[:15]:
        lines.append(f"  {name:<46} {f['calls']:>8} {f['self_s']:10.4f} "
                     f"{f['total_s']:10.4f}")
    censuses = {row["census"] for row in summary["types"]}
    if len(censuses) == 1:
        lines.append("per candidate type N (seconds per stage):")
        lines.append(f"  {'N':<14} {'|Aut N|':>7} {'|Hol N|':>8} "
                     f"{'found':>6} {'iso':>6} {'match':>6} {'aut+hol':>8} "
                     f"{'search':>8} {'transp':>8} {'iso_s':>8} "
                     f"{'orbit':>8}")
        for r in summary["types"]:
            lines.append(
                f"  {r['type']:<14} {r['aut']:>7} {r['hol']:>8} "
                f"{r['found']:>6} {r['iso_calls']:>6} {r['matches']:>6} "
                f"{r['aut_hol_s']:8.3f} {r['search_s']:8.3f} "
                f"{r['transport_s']:8.3f} {r['isomorphism_s']:8.3f} "
                f"{r['orbit_s']:8.3f}")
    lines.append("memo caches (hits, misses, currsize, hit ratio):")
    for name, c in summary["caches"].items():
        if c is None:
            lines.append(f"  {name:<46} absent (not memoized)")
            continue
        calls = c["hits"] + c["misses"]
        ratio = f"{c['hits'] / calls:.3f}" if calls else "-"
        lines.append(f"  {name:<46} {c['hits']:>7} {c['misses']:>7} "
                     f"{c['currsize']:>7} {ratio:>6}")
    return lines


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout's .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when there is no commit hash."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the pass it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "skewbrace" / "__init__.py").is_file():
        print(f"error: no skewbrace sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    env = environment(args.seed)
    # the runner and every process it starts (they inherit this) run on one
    # CPU, so a pass is not moved between CPUs while it is timed
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    run = Run(workload, args.seed, args.seconds)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    detail: dict = {"workload": workload.name, "trace": args.trace,
                    "env": env}
    if args.trace:
        plain, traced = run.measure_traced()
        untraced_wall = statistics.median(p.wall_s for p in plain)
        traced.sort(key=lambda pt: pt[0].wall_s)
        median_pass, spans = traced[(len(traced) - 1) // 2]
        summary_path = Path(str(spans) + ".summary.json")
        metrics: dict = {}
        if median_pass.returncode == 0 and summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            layers = layer_metrics(summary, median_pass.wall_s, untraced_wall)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in layers.items()}
            for line in trace_report(summary, median_pass.wall_s):
                print(line)
            print(f"tracing overhead: traced {median_pass.wall_s:.4f} s / "
                  f"untraced {untraced_wall:.4f} s = "
                  f"{median_pass.wall_s / untraced_wall:.4f} "
                  f"({len(traced)} traced, {len(plain)} untraced passes)")
            print(f"span file: {spans.relative_to(ROOT)}")
            detail["summary"] = summary
        else:
            run.problems.append("the traced pass left no summary")
    else:
        passes, setups, refs = run.measure()
        metrics, lines, detail["samples"] = end_to_end(run, passes, setups,
                                                       refs)
        for line in lines:
            print(line)
    correct = not run.problems
    for msg in run.problems:
        print(f"CHECK FAILED {msg}")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail.update(result, problems=run.problems)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
