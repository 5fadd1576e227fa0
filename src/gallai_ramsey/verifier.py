"""Exhaustive, certificate-producing verification of Gallai-Ramsey
upper bounds at desk scale.

decide_upper enumerates k-colorings of K_N edge by edge (lexicographic
pair order, colors ascending) and prunes:

* assignments closing a rainbow triangle (the coloring must stay Gallai);
  one mask per edge holds the vertices joined to its ends in two
  different colors, and a color is pruned unless it is one of the two,
* assignments completing the new color's monochromatic target; the
  check is incremental, restricted to copies through the new edge,
* color-symmetric branches: among colors with identical targets, color
  j+1 may first appear only after color j,
* vertex-symmetric branches: the colors on edges (0,1) and (0,2) must
  be non-decreasing (lex-minimality under swapping vertices 1 and 2).

Every leaf reached is therefore a bad coloring and is returned as a
witness; an empty tree means every Gallai coloring is forced. The two
symmetry rules never change the verdict, only the statistics, and can
be switched off for testing. The search tree can be split at a fixed
prefix depth into independent subtasks for parallel runs; aggregation
takes the first witness in prefix order, so results stay deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeColoring, RainbowWitness, is_gallai, pair_index
from .construction import build_lower_bound_coloring
from .formulas import TargetSpec, predicted_gr
from .search import (
    contains_required,
    exists_cycle_through,
    exists_matching_with_edge,
    exists_path_through,
)
from .targets import CYCLE, PATH, Embedding, TargetGraph, parse_target_list

DEFAULT_BUDGET = 10 ** 9
DEFAULT_SPLIT_DEPTH = 6

ALL_FORCED = "all_forced"
BAD_COLORING = "bad_coloring"
BUDGET = "budget"


@dataclass(frozen=True)
class Verdict:
    """Search outcome: every coloring forced, a concrete bad coloring,
    or an honest budget exhaustion (inconclusive)."""

    kind: str
    witness: Optional[EdgeColoring] = None
    nodes_explored: Optional[int] = None


@dataclass
class SearchStats:
    nodes: int = 0
    prunes_rainbow: int = 0
    prunes_mono: int = 0
    prunes_symmetry: int = 0
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes,
            "prunes_rainbow": self.prunes_rainbow,
            "prunes_mono": self.prunes_mono,
            "prunes_symmetry": self.prunes_symmetry,
            "elapsed": self.elapsed,
        }


class _BudgetExhausted(Exception):
    pass


def _through_check(t: TargetGraph, n: int):
    if t.num_vertices > n:
        return None
    if t.kind == PATH:
        return lambda adj, u, v: exists_path_through(adj, u, v, t.size)
    if t.kind == CYCLE:
        return lambda adj, u, v: exists_cycle_through(adj, u, v, t.size)
    return lambda adj, u, v: exists_matching_with_edge(adj, u, v, t.size, n)


class _Search:
    def __init__(
        self,
        n: int,
        targets: Sequence[TargetGraph],
        budget: int,
        symmetry: bool,
        edge_order: Optional[Sequence[tuple[int, int]]] = None,
    ):
        self.n = n
        self.k = len(targets)
        self.targets = list(targets)
        if edge_order is None:
            self.edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        else:
            self.edges = [tuple(e) for e in edge_order]
        self.m = len(self.edges)
        self.budget = budget
        self.symmetry = symmetry
        self.adj = [[0] * n for _ in range(self.k + 1)]
        self.assigned_nb = [0] * n
        self.assignment = [0] * self.m
        self.used = [0] * (self.k + 1)
        self.stats = SearchStats()
        self.stop_depth = self.m
        self.collector = None
        # predecessor inside each group of identical targets
        prev: list[int] = [0] * (self.k + 1)
        last_seen: dict[TargetGraph, int] = {}
        for col, t in enumerate(self.targets, 1):
            prev[col] = last_seen.get(t, 0)
            last_seen[t] = col
        self.prev_same_target = prev
        # per color: the through-edge check, or None if the target exceeds K_n
        self.checks = [None] + [_through_check(t, n) for t in self.targets]
        # the vertex rule compares edges (0,1) and (0,2) of the lex order
        self.vertex_rule_idx = 1 if (edge_order is None and n >= 3) else -1

    def apply_prefix(self, prefix: Sequence[int]) -> None:
        for idx, col in enumerate(prefix):
            u, v = self.edges[idx]
            for a, b in ((u, v), (v, u)):
                self.adj[col][a] |= 1 << b
                self.assigned_nb[a] |= 1 << b
            self.used[col] += 1
            self.assignment[idx] = col

    def _snapshot(self) -> EdgeColoring:
        colors = [0] * self.m
        for i, (u, v) in enumerate(self.edges):
            colors[pair_index(self.n, u, v)] = self.assignment[i]
        return EdgeColoring(self.n, self.k, colors)

    def _dfs(self, idx: int) -> Optional[EdgeColoring]:
        if idx == self.stop_depth:
            if self.collector is not None:
                self.collector(tuple(self.assignment[:idx]))
                return None
            return self._snapshot()
        u, v = self.edges[idx]
        ubit = 1 << u
        vbit = 1 << v
        adj = self.adj
        nb = self.assigned_nb
        # w joined to u and v in two different colors closes a rainbow
        # triangle unless the new edge takes one of those two colors
        rainbow = 0
        if self.k >= 3:
            rainbow = nb[u] & nb[v]
            for row in adj:
                rainbow &= ~(row[u] & row[v])
        nb[u] |= vbit
        nb[v] |= ubit
        stats = self.stats
        budget = self.budget
        used = self.used
        symmetry = self.symmetry
        checks = self.checks
        assignment = self.assignment
        for col in range(1, self.k + 1):
            stats.nodes += 1
            if stats.nodes > budget:
                raise _BudgetExhausted
            if symmetry:
                if used[col] == 0:
                    p = self.prev_same_target[col]
                    if p and used[p] == 0:
                        stats.prunes_symmetry += 1
                        continue
                if idx == self.vertex_rule_idx and col < assignment[0]:
                    stats.prunes_symmetry += 1
                    continue
            row = adj[col]
            if rainbow and rainbow & ~(row[u] | row[v]):
                stats.prunes_rainbow += 1
                continue
            row[u] |= vbit
            row[v] |= ubit
            check = checks[col]
            if check is not None and check(row, u, v):
                stats.prunes_mono += 1
            else:
                used[col] += 1
                assignment[idx] = col
                found = self._dfs(idx + 1)
                if found is not None:
                    return found
                used[col] -= 1
            row[u] ^= vbit
            row[v] ^= ubit
        nb[u] ^= vbit
        nb[v] ^= ubit
        assignment[idx] = 0
        return None


def _as_targets(spec_or_targets) -> list[TargetGraph]:
    if isinstance(spec_or_targets, TargetSpec):
        return spec_or_targets.targets()
    return parse_target_list(spec_or_targets)


def _run_subtask(args) -> tuple[str, Optional[tuple[int, ...]], tuple[int, int, int, int]]:
    n, target_names, prefix, budget, symmetry = args
    targets = parse_target_list(target_names)
    search = _Search(n, targets, budget, symmetry)
    search.apply_prefix(prefix)
    try:
        witness = search._dfs(len(prefix))
    except _BudgetExhausted:
        s = search.stats
        return BUDGET, None, (s.nodes, s.prunes_rainbow, s.prunes_mono, s.prunes_symmetry)
    s = search.stats
    stats = (s.nodes, s.prunes_rainbow, s.prunes_mono, s.prunes_symmetry)
    if witness is None:
        return ALL_FORCED, None, stats
    return BAD_COLORING, witness.colors, stats


def decide_upper(
    n: int,
    spec_or_targets,
    budget: int = DEFAULT_BUDGET,
    *,
    symmetry: bool = True,
    threads: int = 1,
    split_depth: int = DEFAULT_SPLIT_DEPTH,
    edge_order: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[Verdict, SearchStats]:
    """Exhaustively decide whether every Gallai k-coloring of K_n
    contains some per-color target.

    Returns AllForced, or BadColoring with a concrete avoiding coloring,
    or BudgetExceeded once more than `budget` (edge, color) candidates
    have been tried. With threads > 1 the tree is split at `split_depth`
    edges into independent subtasks, each with an equal budget share.
    """
    targets = _as_targets(spec_or_targets)
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if edge_order is not None:
        if symmetry:
            raise ValueError("a custom edge order requires symmetry=False")
        expected = {(u, v) for u in range(n) for v in range(u + 1, n)}
        if {tuple(sorted(e)) for e in edge_order} != expected or len(edge_order) != len(expected):
            raise ValueError("edge_order must enumerate every pair exactly once")

    start = time.perf_counter()
    m = n * (n - 1) // 2
    if threads <= 1 or m <= split_depth or edge_order is not None:
        search = _Search(n, targets, budget, symmetry, edge_order)
        try:
            witness = search._dfs(0)
            verdict = (
                Verdict(ALL_FORCED)
                if witness is None
                else Verdict(BAD_COLORING, witness=witness)
            )
        except _BudgetExhausted:
            verdict = Verdict(BUDGET, nodes_explored=search.stats.nodes)
        stats = search.stats
        stats.elapsed = time.perf_counter() - start
        return verdict, stats

    # enumerate consistent prefixes, then farm the subtrees out
    prefixes: list[tuple[int, ...]] = []
    enumerator = _Search(n, targets, budget, symmetry)
    enumerator.stop_depth = split_depth
    enumerator.collector = prefixes.append
    try:
        enumerator._dfs(0)
    except _BudgetExhausted:
        stats = enumerator.stats
        stats.elapsed = time.perf_counter() - start
        return Verdict(BUDGET, nodes_explored=stats.nodes), stats
    stats = enumerator.stats
    if not prefixes:
        stats.elapsed = time.perf_counter() - start
        return Verdict(ALL_FORCED), stats

    target_names = [t.name for t in targets]
    per_budget = max(1, (budget - stats.nodes) // len(prefixes))
    witness: Optional[EdgeColoring] = None
    budget_hit = False
    executor = ProcessPoolExecutor(max_workers=threads)
    try:
        futures = [
            executor.submit(_run_subtask, (n, target_names, p, per_budget, symmetry))
            for p in prefixes
        ]
        for fut in futures:
            kind, colors, sub = fut.result()
            stats.nodes += sub[0]
            stats.prunes_rainbow += sub[1]
            stats.prunes_mono += sub[2]
            stats.prunes_symmetry += sub[3]
            if kind == BAD_COLORING:
                witness = EdgeColoring(n, len(targets), colors)
                break
            if kind == BUDGET:
                budget_hit = True
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    stats.elapsed = time.perf_counter() - start
    if witness is not None:
        return Verdict(BAD_COLORING, witness=witness), stats
    if budget_hit:
        return Verdict(BUDGET, nodes_explored=stats.nodes), stats
    return Verdict(ALL_FORCED), stats


@dataclass
class LowerBoundResult:
    """Outcome of checking the layered construction: the witness plus
    whatever defect was found (none on success)."""

    ok: bool
    witness: EdgeColoring
    rainbow: Optional[RainbowWitness]
    hit: Optional[tuple[int, Embedding]]


def verify_lower(spec: TargetSpec) -> LowerBoundResult:
    """Build the layered coloring and check, via the independent
    coloring and search modules, that it is Gallai and avoids every
    per-color target."""
    witness = build_lower_bound_coloring(spec)
    gallai = is_gallai(witness)
    hit = contains_required(witness, spec.targets())
    rainbow = None if gallai is True else gallai
    return LowerBoundResult(
        ok=(gallai is True and hit is None),
        witness=witness,
        rainbow=rainbow,
        hit=hit,
    )


CONFIRMED = "confirmed"
DISCREPANCY = "discrepancy"
INCONCLUSIVE = "inconclusive"


@dataclass
class GrResult:
    """End-to-end Gallai-Ramsey computation: construction lower bound
    plus exhaustive upper search at the predicted value."""

    predicted: int
    status: str
    value: Optional[int]
    lower: LowerBoundResult
    upper_verdict: Verdict
    upper_stats: SearchStats


def compute_gr(
    spec: TargetSpec,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> GrResult:
    """Certify the Gallai-Ramsey value of a spec at desk scale.

    The value is confirmed when the construction on predicted - 1
    vertices is a valid bad coloring and the exhaustive search at the
    predicted vertex count forces every Gallai coloring. A disagreement
    is reported as such rather than guessed away; budget exhaustion is
    inconclusive.
    """
    predicted = predicted_gr(spec)
    lower = verify_lower(spec)
    verdict, stats = decide_upper(predicted, spec, budget, threads=threads)
    if verdict.kind == BUDGET:
        status, value = INCONCLUSIVE, None
    elif verdict.kind == ALL_FORCED and lower.ok:
        status, value = CONFIRMED, predicted
    else:
        status, value = DISCREPANCY, None
    return GrResult(
        predicted=predicted,
        status=status,
        value=value,
        lower=lower,
        upper_verdict=verdict,
        upper_stats=stats,
    )


def report_to_json(
    n: int,
    targets: Sequence[TargetGraph],
    verdict: Verdict,
    stats: SearchStats,
    witness_file: Optional[str] = None,
) -> dict:
    """Verification report in the documented JSON shape."""
    report = {
        "N": n,
        "targets": [t.name for t in targets],
        "verdict": verdict.kind,
        "witness_file": witness_file,
        "stats": stats.to_json(),
    }
    if verdict.witness is not None:
        report["witness"] = list(verdict.witness.colors)
    return report
