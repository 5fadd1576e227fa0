"""Benchmark for gallai-ramsey: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
src/. One client runs the workload in a closed loop: each case or
coloring starts only after the previous one finished. Passes over the
workload's inputs repeat until --seconds have gone by, and times are
medians over passes. Set-up time is the median over 5 to 15 fresh
interpreters that import the package and build the workload's inputs.
Every time is scaled to a reference machine speed (see speed.py); the
raw times are printed too.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 the same timed loop
runs, then one more pass with every layer wrapped by tracing.py, and the
JSON holds the per-layer metrics instead. The lines before it list the
context and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
# set-up repeats: at least 5, more while they take under 1 s in total
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 15, 1.0


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def cpu_seconds() -> float:
    """CPU time of this process plus every child that has been reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process has exited and been reaped, so
    that its CPU time is counted and nothing outlives the run."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for p in multiprocessing.active_children():
                p.terminate()
                p.join()
            break
        time.sleep(0.005)


def time_setup(workload: str, seed: int, probe) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh set-up interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    spans: list[tuple[float, float]] = []
    while len(spans) < SETUP_MIN_REPEATS or (
        sum(e - s for s, e in spans) < SETUP_SECONDS and len(spans) < SETUP_MAX_REPEATS
    ):
        probe.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter()))
    probe.sample()
    return [(e - s) * probe.factor(s, e) for s, e in spans], [e - s for s, e in spans]


def run_pass(wl, inputs, probe):
    """One pass with kernel samples around its items, then its scaled
    and raw pass time, CPU time and item latencies."""
    probe.sample()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    res = wl.run_pass(inputs, probe.maybe_sample)
    t1 = time.perf_counter()
    probe.sample()
    reap_children()
    spans = [(s, e) for _, s, e in res.items] + res.blocks
    res.wall = sum((e - s) * probe.factor(s, e) for s, e in spans)
    res.wall_raw = t1 - t0 - probe.busy(t0, t1)
    res.cpu_raw = cpu_seconds() - cpu0 - probe.busy(t0, time.perf_counter())
    res.cpu = res.cpu_raw * probe.factor(t0, t1)
    res.item_s = [(label, (e - s) * probe.factor(s, e)) for label, s, e in res.items]
    return res


def measure(wl, seconds: float, probe) -> list:
    """Closed loop: passes until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, wl.inputs(len(passes)), probe))
    return passes


def case_medians(passes) -> dict[str, float]:
    """Each verifier case's median scaled time over the passes."""
    per_case: dict[str, list[float]] = {}
    for res in passes:
        for key, s in res.item_s:
            per_case.setdefault(key, []).append(s)
    return {key: statistics.median(v) for key, v in per_case.items()}


def item_times(passes, fixed_cases: bool) -> list[float]:
    """Per-item latencies: on the verifier workloads, whose passes repeat
    fixed cases, each case's median over the passes (so the quantiles do
    not jump with the number of passes); on host-check, every coloring
    of every pass."""
    if fixed_cases:
        return list(case_medians(passes).values())
    return [s for res in passes for _, s in res.item_s]


def install_layers(tracer, modules) -> None:
    coloring, partition, search, verifier = modules
    tracer.wrap(coloring, "read_coloring", "coloring.read_coloring")
    tracer.wrap(coloring, "write_coloring", "coloring.write_coloring")
    tracer.wrap(coloring, "is_gallai", "coloring.is_gallai")
    tracer.wrap(partition, "gallai_partition", "partition.gallai_partition")
    tracer.wrap(partition, "validate_partition", "partition.validate_partition")
    tracer.wrap(partition, "reduced_graph", "partition.reduced_graph")
    tracer.wrap(search, "find_mono", lambda c, color, t: f"search.find_mono.{t.kind}",
                count_hits=True)
    tracer.wrap(search, "verify_embedding", "search.verify_embedding")
    tracer.wrap(search, "contains_required", "search.contains_required")
    # the names verifier.py imported from the other modules
    tracer.wrap(verifier, "is_gallai", "coloring.is_gallai")
    tracer.wrap(verifier, "contains_required", "search.contains_required")
    tracer.wrap(verifier, "build_lower_bound_coloring", "construction.build_lower_bound_coloring")
    for fn in ("exists_path_through", "exists_cycle_through", "exists_matching_with_edge"):
        tracer.wrap(verifier, fn, f"search.{fn}", count_hits=True)
    tracer.wrap(verifier, "verify_lower", "verifier.verify_lower")
    tracer.wrap(verifier, "decide_upper", "verifier.decide_upper")


def layer_metrics(tot: dict, traced, passes, extra: dict) -> dict[str, tuple[float, str]]:
    def get(name, field="s"):
        return tot.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    read_s = get("coloring.read_coloring")
    m["coloring.read_coloring.s"] = (read_s, "s")
    m["coloring.read_coloring.calls"] = (get("coloring.read_coloring", "calls"), "count")
    m["coloring.read_coloring.tokens_per_s"] = (ratio(traced.tokens, read_s), "1/s")
    m["coloring.write_coloring.s"] = (get("coloring.write_coloring"), "s")
    m["coloring.is_gallai.s"] = (get("coloring.is_gallai"), "s")
    m["coloring.is_gallai.calls"] = (get("coloring.is_gallai", "calls"), "count")
    for fn in ("gallai_partition", "validate_partition", "reduced_graph"):
        m[f"partition.{fn}.s"] = (get(f"partition.{fn}"), "s")
    kinds = ("path", "cycle", "matching")
    for kind in kinds:
        m[f"search.find_mono.{kind}.s"] = (get(f"search.find_mono.{kind}"), "s")
    calls = sum(get(f"search.find_mono.{k}", "calls") for k in kinds)
    hits = sum(get(f"search.find_mono.{k}", "hits") for k in kinds)
    m["search.find_mono.calls"] = (calls, "count")
    m["search.find_mono.hit_ratio"] = (ratio(hits, calls), "ratio")
    m["search.verify_embedding.s"] = (get("search.verify_embedding"), "s")
    m["search.contains_required.s"] = (get("search.contains_required"), "s")
    through = ("exists_path_through", "exists_cycle_through", "exists_matching_with_edge")
    for fn in through:
        m[f"search.{fn}.s"] = (get(f"search.{fn}"), "s")
        m[f"search.{fn}.calls"] = (get(f"search.{fn}", "calls"), "count")
    calls = sum(get(f"search.{fn}", "calls") for fn in through)
    hits = sum(get(f"search.{fn}", "hits") for fn in through)
    m["search.exists_through.hit_ratio"] = (ratio(hits, calls), "ratio")
    m["construction.build_lower_bound_coloring.s"] = (
        get("construction.build_lower_bound_coloring"), "s")
    m["verifier.verify_lower.s"] = (get("verifier.verify_lower"), "s")
    m["verifier.decide_upper.s"] = (get("verifier.decide_upper"), "s")
    m["verifier.decide_upper.self_s"] = (get("verifier.decide_upper", "self_s"), "s")
    counts = passes[0].counts.values()
    nodes = sum(c["nodes"] for c in counts)
    m["verifier.nodes"] = (nodes, "count")
    prunes = 0
    for rule in ("rainbow", "mono", "symmetry"):
        n = sum(c[f"prunes_{rule}"] for c in counts)
        m[f"verifier.prunes_{rule}"] = (n, "count")
        prunes += n
    m["verifier.prune_ratio"] = (ratio(prunes, nodes), "ratio")
    m["verifier.ledger_changes"] = (extra["ledger_changes"], "count")
    m["verifier.parallel.speedup"] = (extra.get("speedup", 0.0), "ratio")
    m["verifier.parallel.extra_nodes"] = (extra.get("extra_nodes", 0), "count")
    m["verifier.parallel.parity_mismatches"] = (extra.get("parity_mismatches", 0), "count")
    m["trace.overhead_s"] = (extra["overhead_s"], "s")
    m["trace.spans"] = (extra["spans"], "count")
    m["bench.reference_kernel_ms"] = (extra["reference_kernel_ms"], "ms")
    return m


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import speed
    import tracing
    import workloads
    from gallai_ramsey import coloring, partition, search, verifier

    probe = speed.SpeedProbe(workloads.SPEED_POWER.get(workload, 1.0))
    setup, setup_raw = time_setup(workload, seed, probe)
    wl = workloads.make(workload, seed)
    wl.warm()
    ledger = workloads.load_ledger()

    passes = measure(wl, seconds, probe)
    extras = []
    extra: dict = {}
    if workload == "upper-threads2":
        parity, extra["parity_mismatches"] = workloads.parity_probe(ledger)
        extras.append(parity)
    reap_children()

    tot = traced_pass = None
    if traced:
        tracer = tracing.Tracer()
        inputs = wl.inputs(0)
        install_layers(tracer, (coloring, partition, search, verifier))
        try:
            traced_pass = run_pass(wl, inputs, probe)
        finally:
            tracer.uninstall()
        extras.append(traced_pass)
        same = [res.wall for res in passes if res.inputs == 0]
        extra["overhead_s"] = traced_pass.wall - statistics.median(same)
        extra["spans"] = len(tracer)
        tot = tracer.totals()
        if workload == "upper-threads2":
            # the same cases at threads=1, against the untraced threads=2 medians
            sequential = workloads.PassResult()
            t1_s = 0.0
            for case in wl.cases:
                seq = workloads.Case(case.targets, case.n, 1, case.budget)
                probe.sample()
                verdict, stats, start, end = workloads.run_case(seq)
                probe.sample()
                t1_s += (end - start) * probe.factor(start, end)
                sequential.work += stats.nodes
                sequential.counts[seq.key] = workloads.case_counts(verdict, stats)
                sequential.check(workloads.check_case(seq, verdict, workloads.expected_kinds(seq)))
            extras.append(sequential)
            extra["speedup"] = t1_s / sum(case_medians(passes).values())
            extra["extra_nodes"] = passes[0].work - sequential.work
        context = {"workload": workload, "why": workloads.WHY[workload], "seed": seed,
                   "nproc": os.cpu_count(), "python": platform.python_version()}
        tracer.write(SPANS_DIR / f"spans-{workload}.csv.gz", context)
    extra["reference_kernel_ms"] = probe.median() * 1000

    changed = workloads.ledger_changes(ledger, passes + extras)
    extra["ledger_changes"] = len(changed)
    everything = passes + extras
    attempted = sum(res.attempted for res in everything)
    failed = sum(res.failed for res in everything)
    problems = [p for res in everything for p in res.problems]

    wall = statistics.median(res.wall for res in passes)
    items = item_times(passes, isinstance(wl, workloads.UpperWorkload))
    p50, p90 = quantiles(items)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(res.cpu for res in passes), "s"),
        "work_per_s": (passes[0].work / wall, "1/s"),
        "item_ms_p50": (p50 * 1000, "ms"),
        "item_ms_p90": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "wall_s": statistics.median(res.wall_raw for res in passes),
        "cpu_s": statistics.median(res.cpu_raw for res in passes),
    }
    return {
        "workload": workload,
        "seed": seed,
        "pass_walls": [res.wall for res in passes],
        "items": len(items),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ledger_changed": changed,
        "parity_mismatches": extra.get("parity_mismatches"),
        "work": passes[0].work,
        "end_to_end": e2e,
        "raw": raw,
        "reference_kernel_ms": extra["reference_kernel_ms"],
        "per_layer": layer_metrics(tot, traced_pass, passes, extra) if traced else None,
    }


def summary_lines(r: dict, why: str) -> list[str]:
    """Every metric by name with its unit, including the per-workload
    names that the JSON line folds into item_ms_*, work_per_s."""
    e2e = r["end_to_end"]
    lines = [
        f"workload {r['workload']}: {why}",
        f"seed {r['seed']}  nproc {os.cpu_count()}  python {platform.python_version()}"
        f"  load: closed loop, 1 client",
        f"times scaled to the reference speed; reference kernel median "
        f"{r['reference_kernel_ms']:.3f} ms in this run",
        "pass times (s): " + " ".join(f"{w:.3f}" for w in r["pass_walls"]),
    ]

    def line(name, value, unit, note=""):
        lines.append(f"{name:<42} {value:>14.6g} {unit:<6} {note}".rstrip())

    for name, (value, unit) in e2e.items():
        line(name, value, unit, f"raw {r['raw'][name]:.6g} {unit}" if name in r["raw"] else "")
    if r["workload"] == "host-check":
        line("check_ms_p50", e2e["item_ms_p50"][0], "ms", f"over {r['items']} colorings")
        line("check_ms_p90", e2e["item_ms_p90"][0], "ms", f"over {r['items']} colorings")
        line("colorings_per_s", e2e["work_per_s"][0], "1/s")
    else:
        line("nodes", r["work"], "count", "per pass, summed over the cases")
        line("nodes_per_s", e2e["work_per_s"][0], "1/s")
    line("failed_frac", r["failed"] / r["attempted"], "ratio",
         f"{r['failed']} failed / {r['attempted']} attempted")
    if r["parity_mismatches"] is not None:
        line("parity_mismatches", r["parity_mismatches"], "count", "known defect: equal budget shares")
    if r["per_layer"]:
        for name, (value, unit) in r["per_layer"].items():
            line(name, value, unit)
    for key, counts in r["ledger_changed"].items():
        lines.append(f"LEDGER CHANGE {key}: {json.dumps(counts)}")
    lines.extend(f"FAILED {p}" for p in r["problems"][:20])
    return lines


def result_json(r: dict, traced: bool) -> dict:
    metrics = r["per_layer"] if traced else r["end_to_end"]
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit (timed as set-up)")
    args = ap.parse_args(argv)

    if not (SRC / "gallai_ramsey" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WHY:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl = workloads.make(args.workload, args.seed)
        wl.warm()
        wl.inputs(0)
        return 0

    r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for text in summary_lines(r, workloads.WHY[args.workload]):
        print(text)
    print(json.dumps(result_json(r, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
