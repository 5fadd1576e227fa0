"""The benchmark's four workloads and the checks on their outputs.

Three workloads run the exhaustive verifier (`decide_upper`) on fixed
cases whose Gallai-Ramsey values are known in closed form; the seed only
shuffles the order of the cases, so node counts repeat exactly. The
fourth runs the host-side layers (coloring text format, rainbow test,
partitions, whole-class search, the lower-bound construction) on
seeded random Gallai colorings. Every output is checked; a check that
fails counts as one failed operation.

All calls into the package go through its module objects (for example
``coloring.read_coloring``) so that the tracer in tracing.py can wrap them.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Optional

from gallai_ramsey import coloring, formulas, partition, search, targets, verifier

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.json"

WHY = {
    "upper-k2": "two colors, so the rainbow test never runs and the through-edge path/cycle checks dominate",
    "upper-k4": "three or four colors, so the rainbow test, color precedence and the matching check carry the load",
    "upper-threads2": "the same cases split over two worker processes, plus a budget parity probe",
    "host-check": "random Gallai hosts up to n=320 through text I/O, rainbow test, partitions and whole-class search",
}

# How each workload's time follows the reference kernel's (see speed.py):
# measured over ten minutes, the verifier's as its power 0.87, the text
# parse and rainbow test's as 0.6 to 0.7. Unlisted workloads use 1.
SPEED_POWER = {"host-check": 0.65}


@dataclass(frozen=True)
class Case:
    """One `decide_upper` call. A `budget` verdict is accepted only when
    the case fixes its own budget."""

    targets: str
    n: int
    threads: int = 1
    budget: Optional[int] = None

    @property
    def key(self) -> str:
        key = f"{self.targets}@{self.n} threads={self.threads}"
        return key + (f" budget={self.budget}" if self.budget else "")


# Sized so that one pass takes two to three seconds on a 2-core
# machine: the all_forced cases carry the time, the witness
# (bad_coloring) cases check the other verdict. Node counts are in
# ledger.json.
UPPER_K2 = [
    Case("C6,P6", 8),
    Case("P7,P5", 8),
    Case("P6,P6", 8),
    Case("C6,C6", 7),
    Case("P7,P7", 8),
    Case("P7,P5", 7),
]
UPPER_K4 = [
    Case("P5,P5,P5,P3", 7),
    Case("C4,C4,C4", 7),
    Case("M3,M3,M3", 10, budget=100_000),
    Case("P5,P5,P5,P5", 7),
    Case("C4,C4,C4,C4", 7),
]
UPPER_THREADS2 = [
    Case("C6,P6", 8, threads=2),
    Case("P5,P5,P5,P3", 7, threads=2),
    Case("C4,C4,C4", 7, threads=2),
]
# threads=2 must give the verdict threads=1 gives at the same budget.
# The sequential run of C6,C6@8 (ledger entry PARITY_REFERENCE) needs
# fewer nodes than this budget, so the expected verdict is all_forced;
# equal per-subtask budget shares make the split run stop early.
PARITY_PROBE = Case("C6,C6", 8, threads=2, budget=800_000)
PARITY_REFERENCE = Case("C6,C6", 8)

# host-check: 12 hosts per pass, n rising linearly from 20 to 320,
# palettes cycling through 3, 4 and 6 colors; a run makes about ten
# passes, each on fresh hosts. P9, and M5 on hosts up to MATCHING_MAX_N
# vertices, are searched in the densest class, where they are found.
# C8 is not searched on the random hosts: on about 1 in 1,600 of them
# the cycle search runs for more than 10 s (14 s on 59 vertices, 55 s
# on 129), which a run's time limit cannot absorb. Instead every pass searches C8 on SLOW_C8_HOST,
# a random Gallai host where the search takes about 0.7 s, so that this
# cost is measured on every run.
HOST_SIZES = tuple(20 + round(300 * i / 11) for i in range(12))
HOST_PALETTES = (3, 4, 6)
PATH_TARGET = targets.path(9)
CYCLE_TARGET = targets.even_cycle(8)
MATCHING_TARGET = targets.matching(5)
MATCHING_MAX_N = 120
SLOW_C8_HOST = (102, 3, 1741422554)  # random_gallai(n, k, seed); C8 in color 1


def known_value(names: str) -> int:
    """Gallai-Ramsey value of a target list, from the closed forms."""
    ts = targets.parse_target_list(names)
    if len(set(ts)) == 1:
        value = formulas.known_gr(ts[0].name, len(ts))
    elif len(ts) == 2:
        value = formulas.classical_ramsey(*ts)
    elif all(t.kind == targets.PATH and t.size % 2 == 1 for t in ts):
        # odd paths P_{2i+3} are the family members with index i
        indices = [(t.size - 3) // 2 for t in ts]
        spec = formulas.sorted_spec(indices, n=max(3, max(indices) + 2))
        value = formulas.predicted_gr(spec)
    else:
        raise ValueError(f"no closed form pins {names}")
    if not isinstance(value, int):
        raise ValueError(f"{names}: only bounds {value} are known")
    return value


def expected_kinds(case: Case) -> set[str]:
    kind = verifier.ALL_FORCED if case.n >= known_value(case.targets) else verifier.BAD_COLORING
    return {kind, verifier.BUDGET} if case.budget else {kind}


def lower_bound_specs() -> list[formulas.TargetSpec]:
    """The 465 family specs with head C6/C8 or P7/P9 and 2..6 colors."""
    specs = []
    for n in (3, 4):
        for k in range(2, 7):
            for combo in combinations_with_replacement(range(n), k):
                idx = tuple(sorted(combo, reverse=True))
                heads = ("cycle", "path") if idx[0] == n - 1 else ("cycle",)
                for head in heads:
                    specs.append(formulas.sorted_spec(idx, n=n, k=k, head=head))
    return specs


@dataclass
class PassResult:
    """What one pass over a workload's inputs did and when.

    `items` are the timed units whose latencies are reported, as
    (label, start, end) in perf_counter seconds; `blocks` are further
    timed work that counts toward the pass time only. run.py fills in
    the scaled times (see speed.py) and the raw ones.
    """

    inputs: int = 0
    items: list[tuple[str, float, float]] = field(default_factory=list)
    blocks: list[tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0
    wall_raw: float = 0.0
    cpu: float = 0.0
    cpu_raw: float = 0.0
    item_s: list[tuple[str, float]] = field(default_factory=list)
    counts: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work: int = 0
    tokens: int = 0

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_case(case: Case):
    """decide_upper on one case: verdict, stats, start and end time."""
    budget = case.budget or verifier.DEFAULT_BUDGET
    t0 = time.perf_counter()
    verdict, stats = verifier.decide_upper(case.n, case.targets, budget, threads=case.threads)
    return verdict, stats, t0, time.perf_counter()


def case_counts(verdict, stats) -> dict:
    return {
        "verdict": verdict.kind,
        "nodes": stats.nodes,
        "prunes_rainbow": stats.prunes_rainbow,
        "prunes_mono": stats.prunes_mono,
        "prunes_symmetry": stats.prunes_symmetry,
    }


def check_case(case: Case, verdict, kinds: set[str]) -> list[str]:
    problems = []
    if verdict.kind not in kinds:
        problems.append(f"{case.key}: verdict {verdict.kind}, expected {sorted(kinds)}")
    w = verdict.witness
    if w is not None:
        if w.n != case.n:
            problems.append(f"{case.key}: witness on {w.n} vertices")
        if coloring.is_gallai(w) is not True:
            problems.append(f"{case.key}: witness has a rainbow triangle")
        if search.contains_required(w, targets.parse_target_list(case.targets)) is not None:
            problems.append(f"{case.key}: witness contains a target")
    return problems


class UpperWorkload:
    """Fixed verifier cases; the seed only shuffles their order."""

    def __init__(self, cases: list[Case], seed: int):
        self.cases = list(cases)
        random.Random(seed).shuffle(self.cases)
        self.kinds = {c.key: expected_kinds(c) for c in self.cases}

    def warm(self) -> None:
        pass

    def inputs(self, index: int) -> tuple[int, list[Case]]:
        return 0, self.cases

    def run_pass(self, inputs, between) -> PassResult:
        """One pass; `between()` is called before each timed item."""
        key, cases = inputs
        res = PassResult(inputs=key)
        for case in cases:
            between()
            verdict, stats, start, end = run_case(case)
            res.items.append((case.key, start, end))
            res.counts[case.key] = case_counts(verdict, stats)
            res.work += stats.nodes
            res.check(check_case(case, verdict, self.kinds[case.key]))
        return res


def check_host(c: coloring.EdgeColoring, color: int) -> list[str]:
    """write -> read -> rainbow test -> partition -> whole-class search."""
    problems = []
    back = coloring.read_coloring(coloring.write_coloring(c))
    if back != c:
        return [f"n={c.n} k={c.k}: read(write(c)) != c"]
    if coloring.is_gallai(back) is not True:
        problems.append(f"n={c.n} k={c.k}: rainbow triangle in a Gallai coloring")
    p = partition.gallai_partition(back)
    if p is None:
        return problems + [f"n={c.n} k={c.k}: no Gallai partition"]
    if not isinstance(partition.validate_partition(back, p.parts), partition.GallaiPartition):
        problems.append(f"n={c.n} k={c.k}: partition rejected by validate_partition")
    if len(partition.reduced_graph(p).used_colors()) > 2:
        problems.append(f"n={c.n} k={c.k}: reduced graph uses more than 2 colors")
    wanted = (PATH_TARGET, MATCHING_TARGET) if back.n <= MATCHING_MAX_N else (PATH_TARGET,)
    for t in wanted:
        problems += check_find(back, color, t)
    return problems


def check_find(c: coloring.EdgeColoring, color: int, t: targets.TargetGraph) -> list[str]:
    emb = search.find_mono(c, color, t)
    if emb is not None and not search.verify_embedding(c, emb):
        return [f"n={c.n} k={c.k}: {t.name} embedding fails verify_embedding"]
    return []


class HostWorkload:
    """Random Gallai colorings, a fresh batch of HOST_SIZES per pass,
    plus the lower-bound construction over every family spec."""

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = lower_bound_specs()
        self.slow_c8 = coloring.random_gallai(*SLOW_C8_HOST)

    def warm(self) -> None:
        # networkx is imported on the first matching search above 20 vertices
        search.find_mono(coloring.random_gallai(24, 3, 0), 1, targets.matching(2))

    def inputs(self, index: int):
        rng = random.Random(self.seed * 1_000_003 + index)
        batch = []
        for i, n in enumerate(HOST_SIZES):
            k = HOST_PALETTES[i % len(HOST_PALETTES)]
            c = coloring.random_gallai(n, k, rng.randrange(2 ** 32))
            batch.append((c, max(range(1, k + 1), key=c.colors.count)))
        return index, batch

    def run_pass(self, inputs, between) -> PassResult:
        """One pass; `between()` is called before each timed item."""
        key, batch = inputs
        res = PassResult(inputs=key, work=len(batch))
        for c, color in batch:
            between()
            t0 = time.perf_counter()
            problems = check_host(c, color)
            res.items.append((f"n={c.n} k={c.k}", t0, time.perf_counter()))
            res.tokens += c.n * (c.n - 1) // 2 + 2
            res.check(problems)
        between()
        # a copy, so that the class adjacency is built again on every pass
        slow = coloring.EdgeColoring(self.slow_c8.n, self.slow_c8.k, self.slow_c8.colors)
        t0 = time.perf_counter()
        problems = check_find(slow, 1, CYCLE_TARGET)
        res.blocks.append((t0, time.perf_counter()))
        res.check(problems)
        between()
        t0 = time.perf_counter()
        lowers = [(spec, verifier.verify_lower(spec)) for spec in self.specs]
        res.blocks.append((t0, time.perf_counter()))
        for spec, lower in lowers:
            res.check([] if lower.ok else [f"verify_lower {spec.describe()}: not ok"])
        return res


def make(name: str, seed: int):
    if name == "upper-k2":
        return UpperWorkload(UPPER_K2, seed)
    if name == "upper-k4":
        return UpperWorkload(UPPER_K4, seed)
    if name == "upper-threads2":
        return UpperWorkload(UPPER_THREADS2, seed)
    if name == "host-check":
        return HostWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")


def parity_probe(ledger: dict) -> tuple[PassResult, int]:
    """Run PARITY_PROBE once; return its result and 1 on a verdict
    mismatch with the sequential run at the same budget, else 0."""
    reference = ledger[PARITY_REFERENCE.key]["nodes"]
    expected = verifier.ALL_FORCED if reference <= PARITY_PROBE.budget else verifier.BUDGET
    res = PassResult()
    verdict, stats, _, _ = run_case(PARITY_PROBE)
    res.counts[PARITY_PROBE.key] = case_counts(verdict, stats)
    # a budget stop is not a wrong answer; a bad coloring at GR would be
    res.check(check_case(PARITY_PROBE, verdict, expected_kinds(PARITY_PROBE)))
    return res, int(verdict.kind != expected)


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def ledger_changes(ledger: dict, results: list[PassResult]) -> dict[str, dict]:
    """Cases whose verdict, node or prune counts differ from the ledger."""
    changed = {}
    for res in results:
        for key, counts in res.counts.items():
            if ledger.get(key) != counts:
                changed[key] = counts
    return changed
