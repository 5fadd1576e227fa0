"""Exhaustive, certificate-producing verification of Gallai-Ramsey
upper bounds at desk scale.

decide_upper enumerates k-colorings of K_N edge by edge (lexicographic
pair order, colors ascending) and prunes:

* assignments closing a rainbow triangle (the coloring must stay Gallai);
  one mask per edge holds the vertices joined to its ends in two
  different colors, and a color is pruned unless it is one of the two.
  At edge (u, v), u < v, the colored edges are the earlier ones of the
  lex order, so the vertices joined to both ends are exactly those
  below u: the mask starts from them and drops each w whose two edges
  share a color,
* assignments completing the new color's monochromatic target; the
  check is incremental, restricted to copies through the new edge. Its
  key is the new color's class as a bitmask over edge indices with the
  new edge added. For a matching the key keeps only the class edges
  that avoid both ends of the new edge: a matching M_s through (u, v)
  is that edge plus s - 1 pairs that avoid u and v, so those edges
  alone fix the answer. With three or more colors the result is
  memoized per target under its key, since the class recurs while the
  other colors vary. With two colors the class at an edge fixes every
  earlier edge, so a whole-class key never recurs; a cut matching key
  does, but the caches below answer a repeat while its entry is held,
  and the memo stays at three colors and more. Behind the memo, two
  packed caches per target and edge answer most checks without a
  search. The answer is monotone in the edge set: a class that holds a
  copy through the edge passes it on to every class containing it, and
  a class without one to every class inside it. So the copy cache
  answers yes when the edge mask of a copy found earlier through the
  same edge lies inside the key, and the no-copy cache answers no when
  the key lies inside a key that was answered no. Both rules are exact,
  for cut keys too: a copy of a matching holds the new edge and pairs
  that avoid its ends, so its mask lies inside the class exactly when
  it lies inside the cut key. The search loop asks the memo,
  then the copy cache, then the no-copy cache, and only when none of
  them answers does it run the search module's kernel for the target's
  kind and enter its answer. The kernels share one signature and always
  record the copy they find, whose edge mask `TargetGraph.copy_edges`
  reads off,
* color-symmetric branches: among colors with identical targets, color
  j+1 may first appear only after color j,
* vertex-symmetric branches: the colors on edges (0,1) and (0,2) must
  be non-decreasing (lex-minimality under swapping vertices 1 and 2).

Every leaf reached is therefore a bad coloring and is returned as a
witness; an empty tree means every Gallai coloring is forced. The two
symmetry rules never change the verdict, only the statistics. They can
be switched off for testing: their data then never lets them fire.

One loop, `_Search.leaves`, walks the tree below a prefix and yields
each node at a given depth with the counters reached there, then None
with the final counters once the subtree runs out or the count exceeds
the budget, which bounds the nodes in this sequential order. A
sequential run and each pool subtask take the first item at full depth:
the witness, or the final counters. A parallel run takes every leaf at
SPLIT_DEPTH edges from one search as the prefixes of its subtasks and
folds their results in prefix order, each counted at its sequential
position, so the verdict and witness never depend on the thread count.
The subtasks go out in contiguous chunks, and each pool worker keeps one
search, with its memos and caches, for the whole call, so that
neighbouring prefixes share their entries.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

from .coloring import EdgeColoring, RainbowWitness, all_pairs, is_gallai
from .construction import build_lower_bound_coloring
from .formulas import TargetSpec, predicted_gr
from .search import (
    contains_required,
    exists_cycle_through,
    exists_matching_with_edge,
    exists_path_through,
)
from .targets import CYCLE, MATCHING, PATH, Embedding, TargetGraph, parse_target_list

DEFAULT_BUDGET = 10 ** 9
SPLIT_DEPTH = 6
# a through-edge memo is cleared when it holds this many results; kept
# whole, C4,C4,C4@7 stores 24.8k of them and M3,M3,M2@9 25.2k, and the
# peak memory of either run grows from 16.5 to 18.9 MB
MEMO_SIZE = 4096
# the copy and the no-copy cache of a through-edge check keep this many
# masks per edge, the newest first
CACHE_SIZE = 64

ALL_FORCED = "all_forced"
BAD_COLORING = "bad_coloring"
BUDGET = "budget"


@dataclass(frozen=True)
class Verdict:
    """Search outcome: every coloring forced, a concrete bad coloring,
    or an honest budget exhaustion (inconclusive)."""

    kind: str
    witness: Optional[EdgeColoring] = None


@dataclass
class SearchStats:
    nodes: int = 0
    prunes_rainbow: int = 0
    prunes_mono: int = 0
    prunes_symmetry: int = 0
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


class _Search:
    """The search tree below a prefix of the edge order. A leaf at depth
    m is a full coloring that avoids every target: the witness."""

    def __init__(self, n: int, targets: Sequence[TargetGraph], symmetry: bool):
        self.k = len(targets)
        self.edges = list(all_pairs(n))
        self.m = len(self.edges)
        self.adj = [[0] * n for _ in range(self.k + 1)]
        # the rows of colors 1..k; row 0 stays empty
        self.color_rows = self.adj[1:]
        self.assignment = [0] * self.m
        # per color: its class as a bitmask over edge indices
        self.cls = [0] * (self.k + 1)
        # predecessor inside each group of identical targets; all zeros
        # without symmetry, so the color rule never fires
        prev: list[int] = [0] * (self.k + 1)
        last_seen: dict[TargetGraph, int] = {}
        for col, t in enumerate(targets, 1):
            if symmetry:
                prev[col] = last_seen.get(t, 0)
            last_seen[t] = col
        self.prev_same_target = prev
        # per depth: the rainbow mask of its edge, kept while the search
        # is below it
        self.rainbows = [0] * self.m
        # per vertex pair: its edge's bit in a class mask
        self.bits = [[0] * n for _ in range(n)]
        # per edge index: u, v, their bits, the edge bit, and the ones,
        # low and guard of the packed caches (see leaves)
        self.edge_consts = []
        for idx, (u, v) in enumerate(self.edges):
            self.bits[u][v] = self.bits[v][u] = 1 << idx
            width = idx + 2
            ones = ((1 << width * CACHE_SIZE) - 1) // ((1 << width) - 1)
            guard = ones << width - 1
            self.edge_consts.append((u, v, 1 << u, 1 << v, 1 << idx, ones, guard - ones, guard))
        # per edge index: the mask of the earlier edges that avoid both
        # ends of the edge, a matching's key cut (see leaves)
        avoiding = [
            sum(1 << j for j, (a, b) in enumerate(self.edges[:idx]) if not {a, b} & {u, v})
            for idx, (u, v) in enumerate(self.edges)
        ]
        # per target within K_n: the copy and no-copy caches per edge
        # index, and from three colors on the memo
        self.caches: dict[TargetGraph, tuple[list[int], list[int]]] = {}
        self.memos: dict[TargetGraph, dict[int, bool]] = {}
        # looked up here, not at import, so that a wrapper set on this
        # module's names sees the kernel calls
        kernels = {
            PATH: exists_path_through,
            CYCLE: exists_cycle_through,
            MATCHING: exists_matching_with_edge,
        }
        # per color: what its through-edge check needs, or None if the
        # target exceeds K_n; colors with equal targets share one check
        checks = {}
        for t in targets:
            if t.num_vertices > n or t in checks:
                continue
            copies = [guard for *_, guard in self.edge_consts]
            misses = [0] * self.m
            self.caches[t] = (copies, misses)
            memo = self.memos.setdefault(t, {}) if self.k >= 3 else None
            keep = avoiding if t.kind == MATCHING else [-1] * self.m
            checks[t] = (kernels[t.kind], t.size, t.copy_edges, keep, copies, misses, memo)
        self.checks = [None] + [checks.get(t) for t in targets]
        # the vertex rule compares edges (0,1) and (0,2) of the lex order;
        # at -1, without symmetry, it never fires
        self.vertex_rule_idx = 1 if symmetry and n >= 3 else -1

    def leaves(
        self, prefix: Sequence[int], budget: int, leaf: int
    ) -> Iterator[tuple[Optional[list[int]], SearchStats]]:
        """Color `prefix`, shorter than `leaf`, then yield each node at
        depth `leaf` below it, in the sequential order, as its colors
        with the counters reached there. Once the subtree runs out, or
        once more than `budget` nodes have been tried, yield one last
        item, None with the final counters, and stop; nodes > budget
        tells a budget stop. A leaf at depth m is a witness; a caller
        that stops at a leaf already holds its counters. The class rows
        and class masks an earlier run left, a stop at a witness or at
        the budget included, are cleared first. The memos and the caches
        stay: a key fixes the class graph and the new edge, and a cache
        entry states a fact about an edge set, so neither depends on the
        prefix.

        One loop runs the whole subtree, and it has one exit: it ends
        when the colors at depth `top`, the prefix's length, run out or
        when the count passes the budget, and the last item is yielded
        once, after it. `assignment` is its stack: a depth's entry is the
        color it tries, and `rainbows` keeps the depth's rainbow mask.
        The stack needs no clearing: the prefix writes the entries below
        it, and a depth writes its own before any read, so no entry is
        read before this run has written it.

        `adj` and `cls` are written in three places only: the prefix
        replay, a descent, which enters the edge of the depth it leaves,
        and a backtrack, which takes it out again. At every read they
        therefore hold the edges colored at the depths above, and never
        the new edge: a through-edge kernel reads no edge between u and
        v, so it gets the class rows as they stand, and a leaf's own
        edge is never entered, as nothing reads it.

        The key of a through-edge check is the class mask cut by the
        check's `keep` mask of the edge, with the new edge's bit added.
        The class holds only edges below the new one, so that bit is the
        key's highest. Only a matching cuts: its `keep` holds the earlier
        edges that avoid both ends of the edge. A path's or a cycle's
        `keep` is all ones, so its key is the whole class.

        The packed copy cache holds the edge masks of the copies found
        through that edge, read off by `copy_edges`, and the no-copy
        cache the keys at which there was none. At edge idx each cache
        is one int of CACHE_SIZE fields, idx + 2 bits wide: the idx + 1
        edge bits and a guard bit G, above every key and entry. With
        `rep` the key copied into every field (the key times `ones`, the
        lowest bit of each), a field of copies & ~rep is 0 exactly when
        its copy lies inside the key, and a field of rep & ~misses
        exactly when the key lies inside its miss; both are computed as
        (a | b) ^ b, which spares Python the negative int ~b. Adding
        `low`, all ones below each guard bit, carries into the guard bit
        of every nonzero field and of no other, so one test answers for
        all fields. A copy field not in use holds G alone: it reads
        (G | rep) ^ rep = G, and adding `low`, G - 1 in that field, gives
        2G - 1, which sets the guard bit and carries no further, so it
        never answers. A miss field not in use is 0, while a key always
        holds its edge bit, so it never answers either. A new entry
        shifts in at the bottom and the oldest drops out at the top. With
        two colors whose targets differ, color 2's no-copy cache never
        answers: two nodes at one depth first differ where the later one
        has color 2 and the earlier one color 1, so every earlier key
        lacks an edge that the later key holds."""
        k = self.k
        edge_consts = self.edge_consts
        adj = self.adj
        color_rows = self.color_rows
        cls = self.cls
        assignment = self.assignment
        rainbows = self.rainbows
        checks = self.checks
        bits = self.bits
        prev = self.prev_same_target
        vertex_rule_idx = self.vertex_rule_idx
        # `color_rows` holds the rows of `adj`, so they are cleared in place
        for row in adj:
            row[:] = [0] * len(row)
        cls[:] = [0] * (k + 1)
        for idx, col in enumerate(prefix):
            u, v, ubit, vbit, ebit, *_ = edge_consts[idx]
            adj[col][u] |= vbit
            adj[col][v] |= ubit
            cls[col] |= ebit
            assignment[idx] = col
        idx = top = len(prefix)
        nodes = prunes_rainbow = prunes_mono = prunes_symmetry = 0
        while idx >= top and nodes <= budget:
            # enter depth idx
            u, v, ubit, vbit, ebit, ones, low, guard = edge_consts[idx]
            # w joined to u and v in two different colors closes a rainbow
            # triangle unless the new edge takes one of those two colors;
            # the colored edges are those before (u, v) in the lex order,
            # so w is joined to both ends exactly when w < u
            rainbow = 0
            if k >= 3:
                rainbow = ubit - 1
                for row in color_rows:
                    rainbow &= ~(row[u] & row[v])
            rainbows[idx] = rainbow
            col = 0
            while True:
                if col == k:
                    # every color tried: undo the color the parent tried,
                    # or leave the loop at the top
                    idx -= 1
                    if idx < top:
                        break
                    u, v, ubit, vbit, ebit, ones, low, guard = edge_consts[idx]
                    rainbow = rainbows[idx]
                    col = assignment[idx]
                    cls[col] ^= ebit
                    row = adj[col]
                    row[u] ^= vbit
                    row[v] ^= ubit
                    continue
                col += 1
                nodes += 1
                if nodes > budget:
                    break
                if not cls[col]:
                    p = prev[col]
                    if p and not cls[p]:
                        prunes_symmetry += 1
                        continue
                if idx == vertex_rule_idx and col < assignment[0]:
                    prunes_symmetry += 1
                    continue
                row = adj[col]
                if rainbow and rainbow & ~(row[u] | row[v]):
                    prunes_rainbow += 1
                    continue
                check = checks[col]
                if check is not None:
                    kernel, size, copy_edges, keep, copies, misses, memo = check
                    key = cls[col] & keep[idx] | ebit
                    hit = None if memo is None else memo.get(key)
                    if hit is None:
                        rep = key * ones
                        yes = copies[idx]
                        if (((yes | rep) ^ rep) + low) & guard != guard:
                            hit = True
                        else:
                            no = misses[idx]
                            if (((rep | no) ^ no) + low) & guard != guard:
                                hit = False
                            else:
                                width = idx + 2
                                seq: list[int] = []
                                if kernel(row, u, v, size, seq):
                                    hit = True
                                    mask = 0
                                    for a, b in copy_edges(seq):
                                        mask |= bits[a][b]
                                    copies[idx] = (yes << width | mask) & (low | guard)
                                else:
                                    hit = False
                                    misses[idx] = (no << width | key) & (low | guard)
                        if memo is not None:
                            if len(memo) >= MEMO_SIZE:
                                memo.clear()
                            memo[key] = hit
                    if hit:
                        prunes_mono += 1
                        continue
                assignment[idx] = col
                if idx + 1 < leaf:
                    row[u] |= vbit
                    row[v] |= ubit
                    cls[col] |= ebit
                    idx += 1
                    break
                stats = SearchStats(nodes, prunes_rainbow, prunes_mono, prunes_symmetry)
                yield assignment[:leaf], stats
        yield None, SearchStats(nodes, prunes_rainbow, prunes_mono, prunes_symmetry)


def _as_targets(spec_or_targets) -> list[TargetGraph]:
    if isinstance(spec_or_targets, TargetSpec):
        return spec_or_targets.targets()
    return parse_target_list(spec_or_targets)


# set by the pool's initializer: the search of a pool worker and the
# call's shared first-stop index (see _solve_chunk)
_worker_search: Optional[_Search] = None
_first_stop = None


def _start_worker(n: int, targets: Sequence[TargetGraph], symmetry: bool, first_stop) -> None:
    global _worker_search, _first_stop
    _worker_search = _Search(n, targets, symmetry)
    _first_stop = first_stop


def _solve_chunk(tasks: list[tuple]) -> list[tuple[Optional[list[int]], SearchStats]]:
    """Run a chunk of `(index, prefix, budget)` subtasks in turn on the
    worker's search, each giving the first item of `leaves` at full
    depth: a witness or the final counters. `budget` is what the
    sequential order leaves at the prefix when no subtask runs before it.
    The subtasks earlier in the chunk come just before it in that order,
    so their nodes come off its budget too; in the first chunk what is
    left is then exact. The fold breaks at or before every subtask that stops at a
    witness or past its budget, so a worker that stops lowers the shared
    index to its subtask, and a task past the index comes back at once,
    empty."""
    search = _worker_search
    spent = 0
    results = []
    for index, prefix, budget in tasks:
        if index > _first_stop.value:
            results.append((None, SearchStats()))
            continue
        budget -= spent
        colors, stats = next(search.leaves(prefix, budget, search.m))
        spent += stats.nodes
        if colors is not None or stats.nodes > budget:
            with _first_stop.get_lock():
                _first_stop.value = min(_first_stop.value, index)
        results.append((colors, stats))
    return results


def _add(total: SearchStats, part: SearchStats) -> None:
    total.nodes += part.nodes
    total.prunes_rainbow += part.prunes_rainbow
    total.prunes_mono += part.prunes_mono
    total.prunes_symmetry += part.prunes_symmetry


def _solve_split(n, targets, budget, symmetry, threads) -> tuple[Optional[list[int]], SearchStats]:
    """The first witness of the whole tree, or None, with the counters,
    split at SPLIT_DEPTH: one search yields the prefixes there, each with
    the counters reached at it, and at most `threads` worker processes
    run the subtrees below them. The subtasks go out in contiguous chunks
    of ceil(P / 4W), for P prefixes and W workers, and each worker keeps
    one search, memos included, for the whole call, so that neighbouring
    prefixes, which share memo keys, meet the same memo. Subtask j may
    use the nodes the sequential order leaves at prefix j, less those of
    the subtasks before it in its chunk (_solve_chunk); the fold stops at
    a witness or once the sequential count exceeds the budget. Later
    subtasks are then answered at once through the shared first-stop
    index. The pool is closed and joined, never terminated: a worker
    killed mid-write can keep the result queue's lock and hang the pool's
    teardown for good."""
    top = _Search(n, targets, symmetry)
    # a budget stop up here still hands out the prefixes reached
    *prefixes, (_, top_stats) = top.leaves((), budget, SPLIT_DEPTH)
    if not prefixes:
        return None, top_stats
    stats = SearchStats()
    tasks = [(j, prefix, budget - before.nodes) for j, (prefix, before) in enumerate(prefixes)]
    workers = min(threads, len(tasks))
    size = -(-len(tasks) // (4 * workers))
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    first_stop = multiprocessing.Value("q", len(tasks))
    init = (n, targets, symmetry, first_stop)
    with multiprocessing.Pool(workers, initializer=_start_worker, initargs=init) as pool:
        results = chain.from_iterable(pool.imap(_solve_chunk, chunks))
        for j, ((_, before), (colors, sub)) in enumerate(zip(prefixes, results)):
            _add(stats, sub)
            if colors is not None or before.nodes + stats.nodes > budget:
                _add(stats, before)
                first_stop.value = j
                break
        else:
            _add(stats, top_stats)
        pool.close()
        pool.join()
    return colors, stats


def decide_upper(
    n: int,
    spec_or_targets,
    budget: int = DEFAULT_BUDGET,
    *,
    symmetry: bool = True,
    threads: int = 1,
) -> tuple[Verdict, SearchStats]:
    """Exhaustively decide whether every Gallai k-coloring of K_n
    contains some per-color target.

    Returns a `Verdict` of kind ALL_FORCED, or BAD_COLORING with a
    concrete avoiding coloring, or BUDGET once more than `budget` (edge,
    color) candidates have been tried in the sequential search order.
    A witness is checked by `is_gallai` and `contains_required` before
    it is returned; one that fails either raises RuntimeError, naming
    the check.
    With threads > 1 the tree is split into subtrees run by at most that
    many worker processes; the verdict and witness are those of the
    sequential run, and so are the counters unless the budget runs out
    outside the subtasks of the first chunk, where a stop may count more
    nodes. After a stop each other worker ends its work at its next
    subtask.
    """
    targets = _as_targets(spec_or_targets)
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")

    start = time.perf_counter()
    if threads == 1 or n * (n - 1) // 2 <= SPLIT_DEPTH:
        search = _Search(n, targets, symmetry)
        colors, stats = next(search.leaves((), budget, search.m))
    else:
        colors, stats = _solve_split(n, targets, budget, symmetry, threads)
    stats.elapsed = time.perf_counter() - start
    if stats.nodes > budget:
        return Verdict(BUDGET), stats
    if colors is not None:
        witness = EdgeColoring(n, len(targets), colors)
        rainbow = is_gallai(witness)
        if rainbow is not True:
            raise RuntimeError(f"witness fails is_gallai: rainbow triangle at {rainbow.vertices}")
        hit = contains_required(witness, targets)
        if hit is not None:
            color, emb = hit
            raise RuntimeError(
                f"witness fails contains_required: monochromatic {emb.target.name} in color {color}"
            )
        return Verdict(BAD_COLORING, witness=witness), stats
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
