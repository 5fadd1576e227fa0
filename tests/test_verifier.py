import multiprocessing
import random
import subprocess
import sys
from itertools import combinations
from math import perm

import pytest

from brute import brute_decide_upper, brute_exists_through, brute_labelled_count
from gallai_ramsey import (
    ALL_FORCED,
    BAD_COLORING,
    BUDGET,
    DEFAULT_BUDGET,
    contains_required,
    compute_gr,
    decide_upper,
    is_gallai,
    known_gr,
    parse_target_list,
    report_to_json,
    sorted_spec,
    verify_lower,
)
from gallai_ramsey import verifier
from gallai_ramsey.search import exists_cycle_through, exists_matching_with_edge
from gallai_ramsey.targets import CYCLE, MATCHING, matching
from gallai_ramsey.verifier import (
    CACHE_SIZE,
    MEMO_SIZE,
    SPLIT_DEPTH,
    SearchStats,
    _Search,
    _solve_chunk,
    _start_worker,
)


def kinds(n, targets, **kw):
    verdict, _ = decide_upper(n, targets, **kw)
    return verdict.kind


def unpruned(n, targets):
    """A search of K_n with both symmetry rules off. Their whole state is
    `prev_same_target` and `vertex_rule_idx`: all zeros in the first and
    -1 in the second keep them from firing."""
    search = _Search(n, parse_target_list(targets))
    search.prev_same_target = [0] * (search.k + 1)
    search.vertex_rule_idx = -1
    return search


def test_pigeonhole_triangle():
    assert kinds(3, "P3,P3,P3") == ALL_FORCED
    assert kinds(2, "P3,P3,P3") == BAD_COLORING


def test_two_color_path_cases():
    assert kinds(5, "P5,P3") == ALL_FORCED
    assert kinds(4, "P5,P3") == BAD_COLORING
    assert kinds(7, "P7,P3") == ALL_FORCED
    assert kinds(6, "P7,P3") == BAD_COLORING


def test_cycle_case():
    assert kinds(6, "C6,P3") == ALL_FORCED
    assert kinds(5, "C6,P3") == BAD_COLORING


def test_three_color_case():
    assert kinds(6, "P5,P5,P3") == ALL_FORCED
    assert kinds(5, "P5,P5,P3") == BAD_COLORING


def test_witness_passes_independent_checks():
    for n, targets in [(4, "P5,P3"), (5, "P5,P5"), (5, "C6,P3"), (5, "P5,P5,P3")]:
        verdict, stats = decide_upper(n, targets)
        assert verdict.kind == BAD_COLORING
        w = verdict.witness
        assert is_gallai(w) is True
        assert contains_required(w, parse_target_list(targets)) is None
        assert stats.nodes >= 1


def test_matches_exhaustive_enumeration():
    def unpruned_kind(n, targets):
        colors, _ = first(unpruned(n, targets), ())
        return ALL_FORCED if colors is None else BAD_COLORING

    rng = random.Random(5)
    names = ["P2", "P3", "P4", "P5", "C4", "C6", "M1", "M2", "M3"]
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for _ in range(6):
                targets = parse_target_list([rng.choice(names) for _ in range(k)])
                want = brute_decide_upper(n, targets)
                assert kinds(n, targets) == want
                assert unpruned_kind(n, targets) == want
    # four colors take the memoized through-edge checks; the brute force
    # enumerates up to 4^6 colorings of K_4. Small targets, since with
    # the names above nearly every four-color list has a bad coloring.
    small = ["P2", "P3", "P4", "M1", "M2"]
    verdicts = set()
    for n in (2, 3, 4):
        for _ in range(8):
            targets = parse_target_list([rng.choice(small) for _ in range(4)])
            want = brute_decide_upper(n, targets)
            assert kinds(n, targets) == want
            assert unpruned_kind(n, targets) == want
            verdicts.add(want)
    assert verdicts == {ALL_FORCED, BAD_COLORING}


@pytest.mark.parametrize(
    "n, targets, budget, kind, counts",
    [
        (7, "C4,C4,C4", 10 ** 9, ALL_FORCED, (199_134, 84_366, 48_382, 9)),
        (8, "P6,P6", 10 ** 9, ALL_FORCED, (32_022, 0, 16_011, 1)),
        (10, "M3,M3,M3", 100_000, BUDGET, (100_001, 24_757, 41_895, 6)),
        (7, "P5,P5,P5,P3", DEFAULT_BUDGET, ALL_FORCED, (229_940, 117_685, 54_724, 47)),
        (7, "C4,C4,C4,C4", DEFAULT_BUDGET, BAD_COLORING, (6_791, 3_329, 1_714, 42)),
        (8, "C6,P6", 10 ** 9, ALL_FORCED, (151_420, 0, 75_710, 1)),
        (8, "P7,P5", 10 ** 9, ALL_FORCED, (24_908, 0, 12_454, 1)),
    ],
)
def test_search_statistics_are_pinned(n, targets, budget, kind, counts):
    # the exact tree size and prune counts of seven benchmark cases; a
    # change to the search loop that alters any of them changes the tree
    verdict, stats = decide_upper(n, targets, budget)
    assert verdict.kind == kind
    got = (stats.nodes, stats.prunes_rainbow, stats.prunes_mono, stats.prunes_symmetry)
    assert got == counts


@pytest.mark.parametrize(
    "n, targets, budget, want",
    [
        (7, "C4,C4,C4", 1, (2, 0, 0, 0)),
        (7, "C4,C4,C4", 17, (18, 0, 5, 0)),
        (7, "C4,C4,C4,C4", 5_000, (5_001, 2_501, 1_197, 42)),
    ],
)
def test_counters_at_budget_stops(n, targets, budget, want):
    # the search loop keeps its counters in locals and yields them once
    # when it stops; a stop at the budget must report them as they stood
    # at the node over the budget
    verdict, stats = decide_upper(n, targets, budget)
    assert verdict.kind == BUDGET
    assert counts(stats) == want


def first(search, prefix, budget=DEFAULT_BUDGET):
    """The first item of `leaves` at full depth below `prefix`: the
    witness with its counters, or None with the final counters."""
    return next(search.leaves(prefix, budget, search.m))


@pytest.mark.parametrize(
    "budget, want",
    [(10 ** 9, SearchStats(199_134, 84_366, 48_382, 9)), (17, SearchStats(18, 0, 5, 0))],
    ids=["exhausted", BUDGET],
)
def test_leaves_ends_with_one_counters_item(budget, want):
    # with no witness in C4,C4,C4@7, the search loop yields exactly one
    # item, once the tree runs out or past the budget: None with the
    # final counters
    search = _Search(7, parse_target_list("C4,C4,C4"))
    assert list(search.leaves((), budget, search.m)) == [(None, want)]


def test_prefix_search_counters_at_budget_stop():
    # the split's top levels yield each prefix with the counters reached
    # there and the counters at the stop last: C4,C4,C4,C4@7 at budget
    # 100 reaches 53 prefixes, the last at 100 nodes, and stops at 101
    top = _Search(7, parse_target_list("C4,C4,C4,C4"))
    *prefixes, last = top.leaves((), 100, SPLIT_DEPTH)
    assert last == (None, SearchStats(101, 0, 0, 19))
    assert len(prefixes) == 53
    assert prefixes[-1] == ([1, 2, 1, 1, 1, 2], SearchStats(100, 0, 0, 19))


def test_witness_stop_holds_its_counters():
    # a caller that stops at a witness holds the counters yielded with
    # it, as a budget stop's are those at the node over the budget
    search = _Search(7, parse_target_list("C4,C4,C4,C4"))
    colors, stats = first(search, ())
    assert colors is not None
    assert counts(stats) == (6_791, 3_329, 1_714, 42)


@pytest.mark.parametrize(
    "n, targets, prefixes",
    [
        (7, "C4,C4,C4", [()]),
        (7, "C4,C4,C4", [(1, 2, 3, 1, 2, 3)]),
        (7, "C4,C4,C4", [(1, 2, 3, 1, 2, 3), (1, 1, 2, 3, 3, 2)]),
        (7, "M2,M2,M2,M2", [()]),
    ],
    ids=["whole", "subtask", "reused", "M2,M2,M2,M2@7"],
)
def test_memo_entries_match_direct_checks(n, targets, prefixes):
    # the whole tree of C4,C4,C4@7 meets 24.8k distinct keys, so its
    # memo is cleared on the way; every entry left must decode, by its
    # bits, to the class graph and the new edge whose check it stores.
    # A subtask's prefix colors the edges (0,1)...(0,6), which its keys
    # must hold too; a pool worker runs its subtasks on one search, so
    # the memo must stay true across prefixes. A matching key holds only
    # the class edges that avoid both ends of the new edge, and the edge.
    search = _Search(n, parse_target_list(targets))
    for prefix in prefixes:
        assert first(search, prefix)[0] is None
    ((t, memo),) = search.memos.items()
    assert 0 < len(memo) < MEMO_SIZE
    kernel = {CYCLE: exists_cycle_through, MATCHING: exists_matching_with_edge}[t.kind]
    for key, hit in memo.items():
        top = key.bit_length() - 1
        u, v = search.edges[top]
        if t.kind == MATCHING:
            assert key & ~avoiding(search, top) == 1 << top, (key, u, v)
        assert kernel(decode(search, key), u, v, t.size, []) == hit, (key, u, v)


def decode(search, mask):
    """The class graph, as bitmask adjacency, of a mask over edge indices."""
    rows = [0] * len(search.bits)
    for idx, (a, b) in enumerate(search.edges):
        if mask >> idx & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def avoiding(search, idx):
    """The mask of the edges before edge idx that avoid both its ends."""
    u, v = search.edges[idx]
    return sum(1 << j for j, (a, b) in enumerate(search.edges[:idx]) if not {a, b} & {u, v})


def unpack(packed, idx):
    """The CACHE_SIZE fields, newest first, of a packed cache at edge
    index idx: idx + 2 bits each, the edge bits and the guard bit."""
    width = idx + 2
    assert packed >> width * CACHE_SIZE == 0, (idx, packed)
    return [packed >> width * i & (1 << width) - 1 for i in range(CACHE_SIZE)]


@pytest.mark.parametrize(
    "n, targets, prefixes",
    [
        (8, "C6,P6", [()]),
        (7, "C4,C4,C4", [(1, 2, 3, 1, 2, 3), (1, 1, 2, 3, 3, 2)]),
        (8, "M3,M3", [()]),
    ],
    ids=["C6,P6@8", "C4,C4,C4@7 reused", "M3,M3@8"],
)
def test_cache_entries_are_true_facts(n, targets, prefixes):
    # a copy mask must decode to a class holding a copy of the target
    # through the mask's edge, a no-copy key to one holding none; the
    # caches outlive the prefixes, as on a pool worker. A field that is
    # not in use holds the guard bit alone in the copy cache, 0 in the
    # no-copy cache. For a matching both hold, besides the edge, only
    # edges that avoid its ends
    search = _Search(n, parse_target_list(targets))
    for prefix in prefixes:
        assert first(search, prefix)[0] is None
    for t, (copies, misses) in search.caches.items():
        stored = [0, 0]
        for idx, (u, v) in enumerate(search.edges):
            kept = avoiding(search, idx) if t.kind == MATCHING else (1 << idx) - 1
            for mask in unpack(copies[idx], idx):
                if mask == 1 << idx + 1:
                    continue
                stored[0] += 1
                assert mask >> idx & 1, (t, idx, mask)
                assert mask.bit_length() - 1 == idx, (t, idx, mask)
                assert mask & ~kept == 1 << idx, (t, idx, mask)
                assert brute_exists_through(decode(search, mask), u, v, t), (t, idx, mask)
            for key in unpack(misses[idx], idx):
                if not key:
                    continue
                stored[1] += 1
                assert key.bit_length() - 1 == idx, (t, idx, key)
                assert key & ~kept == 1 << idx, (t, idx, key)
                assert not brute_exists_through(decode(search, key), u, v, t), (t, idx, key)
        assert all(stored), (t, stored)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_matching_key_keeps_the_answer(s):
    # a matching through edge (u, v) is that edge and s - 1 pairs that
    # avoid u and v, so a class holds one exactly when its edges that
    # avoid both ends, with uv, do: the search keys its matching checks
    # by those edges alone. Random classes of K_n, every edge, up to the
    # first n that holds the target
    rng = random.Random(s)
    t = matching(s)
    found = [0, 0]
    for n in range(2, max(8, 2 * s + 1)):
        edges = list(combinations(range(n), 2))
        for u, v in edges:
            for density in (0.3, 0.6, 0.9):
                whole = [0] * n
                kept = [0] * n
                for a, b in edges:
                    if (a, b) != (u, v) and rng.random() >= density:
                        continue
                    graphs = [whole]
                    if (a, b) == (u, v) or not {a, b} & {u, v}:
                        graphs.append(kept)
                    for rows in graphs:
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
                want = brute_exists_through(whole, u, v, t)
                assert brute_exists_through(kept, u, v, t) == want, (n, u, v, whole)
                found[want] += 1
    # M1 is the edge itself, so every class holds one
    assert found[True] and (found[False] or s == 1), found


def test_packed_caches_match_plain_lists(monkeypatch):
    # random queries on the caches of K_11, edge indices 0 to 54, against
    # plain lists of the last CACHE_SIZE copy masks and no-copy keys per
    # edge: a copy inside the key answers yes, a no-copy key holding it
    # answers no, and only otherwise does the kernel run. Here the kernel
    # answers at random and records a random part of the key as its copy.
    # The queries run through the search loop: on M2,M2 both colors share
    # one check, and a prefix that gives color 1 the key's edges below
    # `edge` and color 2 the others asks color 1 at the key and, if that
    # answers yes, color 2 at the complement. The answers show in the leaf
    # reached at depth edge + 1 and in the mono prunes. A matching check
    # is keyed by the class edges that avoid both ends of the new edge, so
    # the lists see each query cut to those edges, and the kernel takes
    # its copy from them. Edges 20, 40 and 54 take more than CACHE_SIZE
    # entries in each cache, so old ones drop out. Edge 17, (1, 9), keeps
    # only the 8 edges (0, x) that avoid both ends, too few keys to fill
    # a cache, and edges 0, 2 and 9 keep none.
    rng = random.Random(54)
    asked = []

    def kernel(row, u, v, size, out):
        # the key is the class in `row`, cut to the kept edges; a yes
        # records the edges of `copy`, most of the key, and 0 is a no
        edge = search.edges.index((u, v))
        key = sum(1 << idx for idx, (a, b) in enumerate(search.edges) if row[a] >> b & 1)
        key = key & avoiding(search, edge) | 1 << edge
        copy = 0
        if rng.random() < 0.5:
            top = key.bit_length() - 1
            copy = key & (1 << top | sum(1 << i for i in range(top) if rng.random() < 0.9))
        for idx, (a, b) in enumerate(search.edges):
            if copy >> idx & 1:
                out += (a, b)
        asked.append(copy)
        return copy != 0

    monkeypatch.setattr(verifier, "exists_matching_with_edge", kernel)
    search = unpruned(11, "M2,M2")
    ((copies, misses),) = search.caches.values()
    plain = {edge: ([], []) for edge in (0, 2, 9, 17, 20, 40, 54)}
    answers = {True: 0, False: 0, None: 0}
    entered = {(edge, yes): 0 for edge in plain for yes in (True, False)}
    queries = 0
    while queries < 6_000:
        edge = rng.choice(list(plain))
        density = rng.uniform(0.2, 0.8)
        key = 1 << edge | sum(1 << i for i in range(edge) if rng.random() < density)
        prefix = [1 if key >> i & 1 else 2 for i in range(edge)]
        leaf, stats = next(search.leaves(prefix, DEFAULT_BUDGET, edge + 1))
        assert leaf is None or leaf[:edge] == prefix, (edge, key)
        # color 1 answers yes unless the leaf took it, color 2 (asked
        # only after a yes) unless the leaf took it
        got = [leaf is None or leaf[edge] == 2]
        if got[0]:
            got.append(leaf is None)
        assert stats.prunes_mono == sum(got), (edge, key)
        yes, no = plain[edge]
        calls = iter(asked)
        for query, hit in zip((key, key ^ (1 << edge) - 1), got):
            query = query & avoiding(search, edge) | 1 << edge
            queries += 1
            if any(mask & query == mask for mask in yes):
                want = True
            elif any(query & mask == query for mask in no):
                want = False
            else:
                want = None
            answers[want] += 1
            if want is None:
                copy = next(calls)
                assert hit == (copy != 0), (edge, query)
                entries, entry = (yes, copy) if hit else (no, query)
                entered[edge, hit] += 1
                entries.insert(0, entry)
                del entries[CACHE_SIZE:]
            else:
                assert hit == want, (edge, query)
        assert next(calls, None) is None, (edge, key)
        asked.clear()
        assert [m for m in unpack(copies[edge], edge) if m != 1 << edge + 1] == yes, edge
        assert [k for k in unpack(misses[edge], edge) if k] == no, edge
    assert min(answers.values()) > 500, answers
    assert all(entered[edge, yes] > CACHE_SIZE for edge in (20, 40, 54) for yes in (True, False))


@pytest.fixture
def kernel_calls(monkeypatch):
    """A count, in a one-element list, of the calls to the verifier's
    through-edge kernels. The kernels are looked up by name when a
    search is built; a wrapper that stops seeing their calls counts too
    few."""
    calls = [0]

    def counted(kernel):
        def wrapper(*args):
            calls[0] += 1
            return kernel(*args)

        return wrapper

    for name in ("exists_path_through", "exists_cycle_through", "exists_matching_with_edge"):
        monkeypatch.setattr(verifier, name, counted(getattr(verifier, name)))
    return calls


def test_caches_answer_most_through_edge_checks(kernel_calls):
    # C6,P6@8 asks 151,419 through-edge checks; run bare, each is a
    # kernel call. The copy and no-copy caches answer all but 33,373 of
    # them (51,744 with four entries per edge instead of CACHE_SIZE),
    # so a cache that is switched off or cut short fails here.
    verdict, stats = decide_upper(8, "C6,P6")
    assert verdict.kind == ALL_FORCED and stats.nodes == 151_420
    assert 25_000 <= kernel_calls[0] <= 40_000


@pytest.mark.parametrize(
    "n, targets, budget, calls",
    [
        (8, "C6,P6", DEFAULT_BUDGET, 33_373),
        (8, "P7,P5", DEFAULT_BUDGET, 6_033),
        (8, "P6,P6", DEFAULT_BUDGET, 4_932),
        (7, "P5,P5,P5,P3", DEFAULT_BUDGET, 1_465),
        (7, "C4,C4,C4", DEFAULT_BUDGET, 6_551),
        (10, "M3,M3,M3", 100_000, 801),
    ],
)
def test_kernel_calls_are_pinned(kernel_calls, n, targets, budget, calls):
    # the exact number of kernel calls behind the memo and the packed
    # caches: a lookup that answers a check it should not, misses an
    # entry, stores one late or skips the memo for a cache hit moves it
    decide_upper(n, targets, budget)
    assert kernel_calls[0] == calls


@pytest.mark.parametrize(
    "n, targets, budget, calls",
    [(8, "C6,P6", DEFAULT_BUDGET, 33_373), (10, "M3,M3,M3", 100_000, 801)],
)
def test_kernels_get_the_class_without_the_new_edge(monkeypatch, n, targets, budget, calls):
    # the class rows hold the edges colored at the depths above: a kernel
    # gets its color's row equal to the class mask's graph, never holding
    # the new edge itself, which it does not read, and the class mask
    # holds no edge at or above the new one, so a path or cycle key needs
    # no cut
    seen = [0]

    def checked(kernel):
        def wrapper(row, u, v, size, out):
            seen[0] += 1
            (col,) = [c for c in range(1, search.k + 1) if search.adj[c] is row]
            assert row == decode(search, search.cls[col]), (u, v, col)
            assert not row[u] >> v & 1 and not row[v] >> u & 1, (u, v, col)
            assert search.cls[col] >> search.edges.index((u, v)) == 0, (u, v, col)
            return kernel(row, u, v, size, out)

        return wrapper

    for name in ("exists_path_through", "exists_cycle_through", "exists_matching_with_edge"):
        monkeypatch.setattr(verifier, name, checked(getattr(verifier, name)))
    search = _Search(n, parse_target_list(targets))
    next(search.leaves((), budget, search.m))
    assert seen[0] == calls


def test_reused_search_matches_fresh_one():
    # a pool worker runs its subtasks on one search; a stop at the
    # budget or at a witness leaves its state part-way down the tree,
    # and the next subtask must not see it. Subtasks of C4,C4,C4,C4@7:
    # (1,1,1,1,1,2) has a witness at 27,493 nodes, (1,1,1,1,2,1) one at
    # 19,089, and (1,1,1,1,2,3) none in 14,728.
    n, targets = 7, parse_target_list("C4,C4,C4,C4")
    runs = [
        ((1, 1, 1, 1, 1, 2), 1_000),
        ((1, 1, 1, 1, 2, 1), DEFAULT_BUDGET),
        ((1, 1, 1, 1, 2, 3), DEFAULT_BUDGET),
    ]
    search = _Search(n, targets)
    got = [first(search, prefix, budget) for prefix, budget in runs]
    want = [first(_Search(n, targets), prefix, budget) for prefix, budget in runs]
    assert [colors for colors, _ in got] == [colors for colors, _ in want]
    assert [counts(stats) for _, stats in got] == [counts(stats) for _, stats in want]
    assert [stats.nodes for _, stats in want] == [1_001, 19_089, 14_728]


def test_stopped_worker_skips_later_subtasks(monkeypatch):
    # the fold breaks at or before the first subtask where a worker
    # stopped, so after a witness or a budget stop every later subtask
    # comes back at once with no nodes, in this worker and, through the
    # shared first-stop index, in every other; a subtask that runs to its
    # end leaves the index as it is. Subtasks of C4,C4,C4,C4@7:
    # (1,1,1,1,1,2) has a witness at 27,493 nodes, (1,1,1,1,2,2) none in
    # 4,588 and (1,1,1,1,2,3) none in 14,728.
    monkeypatch.setattr(verifier, "_worker_search", None)
    monkeypatch.setattr(verifier, "_first_stop", None)
    targets = parse_target_list("C4,C4,C4,C4")
    witness, empty, full = (1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 2, 3)
    first_stop = multiprocessing.Value("q", 100)
    _start_worker(7, targets, first_stop)
    got = _solve_chunk([(0, empty, DEFAULT_BUDGET), (1, full, DEFAULT_BUDGET)])
    assert [stats.nodes for _, stats in got] == [4_588, 14_728]
    assert first_stop.value == 100
    for budget, found, nodes in [(DEFAULT_BUDGET, True, 27_493), (1_000, False, 1_001)]:
        first_stop = multiprocessing.Value("q", 100)
        _start_worker(7, targets, first_stop)
        got = _solve_chunk([(3, witness, budget), (4, full, DEFAULT_BUDGET)])
        (colors, stats), (skipped, zero) = got
        assert (colors is not None, stats.nodes, first_stop.value) == (found, nodes, 3)
        assert skipped is None and counts(zero) == (0, 0, 0, 0)
    # an index lowered by another worker: this worker skips the later
    # subtasks but still runs the earlier ones, and a stop of its own
    # lowers the index further
    first_stop = multiprocessing.Value("q", 100)
    _start_worker(7, targets, first_stop)
    first_stop.value = 5
    ((colors, stats),) = _solve_chunk([(6, empty, DEFAULT_BUDGET)])
    assert colors is None and counts(stats) == (0, 0, 0, 0)
    ((_, stats),) = _solve_chunk([(4, full, DEFAULT_BUDGET)])
    assert stats.nodes == 14_728 and first_stop.value == 5
    ((colors, _),) = _solve_chunk([(2, witness, DEFAULT_BUDGET)])
    assert colors is not None and first_stop.value == 2


def test_chunk_takes_its_earlier_nodes_off_each_share(monkeypatch):
    # subtask 1 of C4,C4,C4,C4@7, (1,1,1,1,2,3), gets a share of 5,000
    # nodes. After (1,1,1,1,2,2) in its chunk, which runs out in 4,588,
    # it may use 412, stops at 413 and lowers the first-stop index to 1;
    # alone in its chunk it stops at 5,001. A chunk charges only its own
    # earlier subtasks, not those the worker ran in other chunks.
    monkeypatch.setattr(verifier, "_worker_search", None)
    monkeypatch.setattr(verifier, "_first_stop", None)
    targets = parse_target_list("C4,C4,C4,C4")
    empty, full = (1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 2, 3)
    first_stop = multiprocessing.Value("q", 100)
    _start_worker(7, targets, first_stop)
    got = _solve_chunk([(0, empty, DEFAULT_BUDGET), (1, full, 5_000)])
    assert [(colors, stats.nodes) for colors, stats in got] == [(None, 4_588), (None, 413)]
    assert first_stop.value == 1
    first_stop.value = 100
    ((colors, stats),) = _solve_chunk([(1, full, 5_000)])
    assert (colors, stats.nodes, first_stop.value) == (None, 5_001, 1)


def test_budget_exhaustion_is_a_verdict():
    verdict, stats = decide_upper(6, "P5,P5", budget=10)
    assert verdict.kind == BUDGET
    assert stats.nodes > 10


def test_deterministic_across_runs():
    v1, s1 = decide_upper(5, "P5,P5")
    v2, s2 = decide_upper(5, "P5,P5")
    assert v1.kind == v2.kind == BAD_COLORING
    assert v1.witness == v2.witness
    assert s1.nodes == s2.nodes


def test_symmetry_off_same_verdict_more_nodes():
    v_on, s_on = decide_upper(6, "P5,P5,P3")
    colors_off, s_off = first(unpruned(6, "P5,P5,P3"), ())
    assert v_on.kind == ALL_FORCED and colors_off is None
    assert s_off.nodes >= s_on.nodes
    assert s_on.prunes_symmetry > 0
    assert s_off.prunes_symmetry == 0


def labelled_census(search):
    """The leaves of the whole tree per number of colors they use; on an
    unpruned search of K_n, the labelled bad colorings of K_n."""
    counts = {}
    for colors, _ in search.leaves((), 10 ** 9, search.m):
        if colors is not None:
            used = len(set(colors))
            counts[used] = counts.get(used, 0) + 1
    return counts


@pytest.mark.parametrize(
    "targets, n, labelled, leaves",
    [
        ("C6,C6", 4, 64, 32),
        ("C6,C6", 5, 1_024, 512),
        ("C6,C6", 6, 13_812, 6_906),
        ("C6,C6", 7, 34_104, 17_052),
        ("C4,C4,C4", 5, 1_236, 206),
        ("C4,C4,C4", 6, 1_296, 216),
        ("P5,P5,P5,P5", 4, 736, 47),
        ("P5,P5,P5,P5", 5, 8_100, 355),
        ("P5,P5,P5,P5", 6, 61_920, 2_580),
    ],
)
def test_color_precedence_keeps_one_coloring_per_orbit(targets, n, labelled, leaves):
    # With all targets identical, permuting the colors maps bad colorings
    # to bad colorings. The orbit of one that uses j of the k colors has
    # (k)_j members, exactly one of them in color-precedence order, so
    # the symmetry-on leaves are sum_j L_j / (k)_j, with L_j the labelled
    # bad colorings that use j colors. The vertex rule never fires here:
    # precedence puts color 1 on (0, 1).
    targets = parse_target_list(targets)
    by_colors = labelled_census(unpruned(n, targets))
    assert sum(by_colors.values()) == labelled
    orbits = 0
    for j, count in by_colors.items():
        assert count % perm(len(targets), j) == 0, (j, count)
        orbits += count // perm(len(targets), j)
    assert sum(labelled_census(_Search(n, targets)).values()) == orbits == leaves


@pytest.mark.parametrize(
    "targets, largest", [("C6,C6", 5), ("C4,C4,C4", 4), ("P5,P5,P5,P5", 4)]
)
def test_labelled_census_matches_brute_force(targets, largest):
    targets = parse_target_list(targets)
    for n in range(2, largest + 1):
        assert labelled_census(unpruned(n, targets)) == brute_labelled_count(n, targets), n


def counts(stats):
    return (stats.nodes, stats.prunes_rainbow, stats.prunes_mono, stats.prunes_symmetry)


def test_parallel_matches_sequential():
    # the budget counts nodes in the sequential order, so at budgets
    # around the sequential node count s the split run stops where the
    # sequential one does (P6,P6@8: all_forced at s = 32,022; P7,P5@7:
    # bad_coloring at s = 1,053); P3,P3,P3@5 dies above SPLIT_DEPTH, so
    # the split run has no prefix to hand out. With three or more colors
    # each worker keeps its memos across its chunk of subtasks:
    # C4,C4,C4,C4@7 finds its witness (s = 6,791) inside the first chunk,
    # and P5,P5,P3@6 is all_forced at s = 4,593 over 108 subtasks.
    # M3,M3@8 (s = 24,904) runs the matching kernel inside the workers.
    cases = [(6, "P5,P5"), (5, "P5,P5"), (6, "C6,P3"), (8, "P6,P6"), (7, "P7,P5"), (5, "P3,P3,P3")]
    cases += [(7, "C4,C4,C4,C4"), (6, "P5,P5,P3"), (8, "M3,M3")]
    for n, targets in cases:
        s = decide_upper(n, targets)[1].nodes
        for budget in (s - 1, s, s + 1):
            v_seq, s_seq = decide_upper(n, targets, budget)
            v_par, s_par = decide_upper(n, targets, budget, threads=2)
            assert v_par.kind == v_seq.kind, (targets, budget)
            assert v_par.witness == v_seq.witness
            assert (v_seq.kind == BUDGET) == (budget < s)
            if v_seq.kind != BUDGET:
                assert counts(s_par) == counts(s_seq)
    # the unpruned trees of three of them, run in sequence: P5,P5,P3@6 is
    # all_forced at s = 9,402, P5,P5@5 bad_coloring at s = 15, and
    # C4,C4,C4,C4@7 finds its witness at s = 11,935
    off = [(6, "P5,P5,P3"), (5, "P5,P5"), (7, "C4,C4,C4,C4")]
    got = [counts(first(unpruned(n, targets), ())[1]) for n, targets in off]
    assert got == [(9_402, 2_684, 3_585, 0), (15, 0, 5, 0), (11_935, 5_950, 2_993, 0)]


@pytest.mark.parametrize(
    "n, targets, budget",
    [
        (8, "C6,P6", 15_142),
        (8, "P6,P6", 3_202),
        (7, "P5,P5,P5,P3", 22_994),
        (7, "C4,C4,C4", 19_913),
        (8, "M3,M3", 2_490),
    ],
)
def test_split_budget_stop_in_first_chunk(n, targets, budget):
    # each stop falls in a subtask of the first chunk: the nodes the
    # worker ran there before it come off that subtask's share, so it
    # stops exactly where the sequential run does. Without them C6,P6@8
    # counts 18,949 nodes instead of 15,143.
    v_seq, s_seq = decide_upper(n, targets, budget)
    v_par, s_par = decide_upper(n, targets, budget, threads=2)
    assert v_seq.kind == v_par.kind == BUDGET
    assert counts(s_par) == counts(s_seq)


def test_split_budget_stop_past_first_chunk():
    # C6,P6@8 at budget 75,710 stops past the first chunk, where a
    # subtask's share can exceed what the sequential order leaves it, so
    # the split run counts more than the sequential 75,711 nodes. Its
    # counters still depend only on the chunks, not on which worker takes
    # which, so every run gives the same.
    assert decide_upper(8, "C6,P6", 75_710)[1].nodes == 75_711
    for _ in range(2):
        verdict, stats = decide_upper(8, "C6,P6", 75_710, threads=2)
        assert verdict.kind == BUDGET
        assert counts(stats) == (77_852, 0, 38_925, 0)


@pytest.mark.parametrize(
    "n, budget, kind",
    [(9, 100_000, BUDGET), (8, DEFAULT_BUDGET, BAD_COLORING)],
    ids=[BUDGET, BAD_COLORING],
)
def test_early_return_stops_workers(n, budget, kind):
    # a stop part-way through the split run: at the budget (P7,P7@9) or
    # at a witness from prefix 0 of 32 (P7,P7@8); no worker may outlive
    # the call, whether busy with a later subtask or idle. A pool that is
    # never terminated warns "unclosed running multiprocessing pool" on
    # stderr when it is collected, even after its workers went idle.
    code = (
        "import multiprocessing, time\n"
        "from gallai_ramsey import decide_upper\n"
        f"verdict, _ = decide_upper({n}, 'P7,P7', {budget}, threads=2)\n"
        "deadline = time.monotonic() + 1.0\n"
        "while multiprocessing.active_children() and time.monotonic() < deadline:\n"
        "    time.sleep(0.01)\n"
        "print(verdict.kind, len(multiprocessing.active_children()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [kind, "0"]
    assert proc.stderr == ""


def test_split_run_never_terminates_a_worker(monkeypatch):
    # a worker killed while it writes a result can keep the result
    # queue's lock, and the pool's teardown then blocks for good; the
    # split run closes and joins its pool instead, after a witness stop
    # (C4,C4,C4,C4@7), a budget stop (P7,P7@9) and a full run (C6,P6@8)
    calls = []
    terminate = multiprocessing.process.BaseProcess.terminate

    def spy(process):
        calls.append(process.pid)
        terminate(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", spy)
    assert kinds(7, "C4,C4,C4,C4", threads=2) == BAD_COLORING
    assert kinds(9, "P7,P7", budget=100_000, threads=2) == BUDGET
    assert kinds(8, "C6,P6", threads=2) == ALL_FORCED
    assert calls == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_split_run_under_start_method(method):
    # the first-stop index reaches the workers through the pool's
    # initializer, so the early stops work under a start method other
    # than fork, where a module global set before the pool starts would
    # never reach them
    code = (
        "import multiprocessing\n"
        "from gallai_ramsey import decide_upper\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "seq, _ = decide_upper(7, 'C4,C4,C4,C4')\n"
        "par, _ = decide_upper(7, 'C4,C4,C4,C4', threads=2)\n"
        "stop, _ = decide_upper(9, 'P7,P7', 100_000, threads=2)\n"
        "print(par.kind, par.witness == seq.witness, stop.kind)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [BAD_COLORING, "True", BUDGET]
    assert proc.stderr == ""


def test_target_larger_than_host_is_unconstrained():
    # a C6 target cannot appear in K_4, so color 1 is a free-for-all
    assert kinds(4, "C6,P3") == BAD_COLORING


def test_single_color_palette():
    assert kinds(3, "P3") == ALL_FORCED
    assert kinds(2, "P3") == BAD_COLORING
    assert kinds(2, "P2") == ALL_FORCED


def test_search_agrees_with_closed_forms_beyond_acceptance():
    # cases not in the acceptance list, cross-checking known_gr; the
    # M2 values hold at every k (Cockayne & Lorimer)
    for targets, value in [
        ("C4,C4", 6),
        ("C4,C4,C4", 7),
        ("P4,P4", 5),
        ("P4,P4,P4", 6),
        ("P6,P6", 8),
        ("M3,M3", 8),
        ("M2,M2,M2", 6),
        ("M2,M2,M2,M2", 7),
    ]:
        names = targets.split(",")
        assert known_gr(names[0], len(names)) == value, targets
        assert kinds(value, targets) == ALL_FORCED, targets
        assert kinds(value - 1, targets) == BAD_COLORING, targets


def test_remaining_two_color_family_cases():
    # completes the n=3 two-color slice of the family left out of the
    # acceptance list; with the acceptance cases this covers every index
    # pair for both heads
    for targets, value in [("C6,P5", 7), ("P7,P5", 8), ("P7,P7", 9)]:
        assert kinds(value, targets) == ALL_FORCED, targets
        assert kinds(value - 1, targets) == BAD_COLORING, targets


def test_verify_lower_examples():
    res = verify_lower(sorted_spec([2, 2, 2, 2], n=3))
    assert res.ok and res.witness.n == 11
    res = verify_lower(sorted_spec([3, 3], n=4))
    assert res.ok and res.witness.n == 10
    res = verify_lower(sorted_spec([1, 0], n=3))
    assert res.ok and res.witness.n == 4


def test_compute_gr_confirms_small_cases():
    result = compute_gr(sorted_spec([1, 0], n=3))
    assert result.status == "confirmed"
    assert result.value == result.predicted == 5
    assert result.lower.ok and result.lower.witness.n == 4
    assert result.upper_verdict.kind == ALL_FORCED

    result = compute_gr(sorted_spec([1, 1, 0], n=3))
    assert result.status == "confirmed" and result.value == 6


def test_compute_gr_budget_is_inconclusive():
    result = compute_gr(sorted_spec([2, 2], n=3), budget=5)
    assert result.status == "inconclusive"
    assert result.value is None


def test_compute_gr_reports_a_failed_construction(monkeypatch):
    # an upper search that forces every coloring does not confirm the
    # value when the construction fails: the two disagree
    spec = sorted_spec([1, 0], n=3)
    lower = verify_lower(spec)
    failed = verifier.LowerBoundResult(False, lower.witness, None, None)
    monkeypatch.setattr(verifier, "verify_lower", lambda spec: failed)
    result = compute_gr(spec)
    assert result.upper_verdict.kind == ALL_FORCED
    assert result.status == "discrepancy"
    assert result.value is None and result.lower is failed


@pytest.mark.parametrize(
    "n, targets, colors, message",
    [
        (4, "P3,P3", [1] * 6, "witness fails contains_required: monochromatic P3 in color 1"),
        (3, "P4,P4,P4", [1, 2, 3], "witness fails is_gallai: rainbow triangle at (0, 1, 2)"),
    ],
    ids=["target", "rainbow"],
)
def test_decide_upper_checks_its_witness(monkeypatch, n, targets, colors, message):
    # an engine that yields a coloring holding a target, or a rainbow
    # triangle, gets no bad_coloring verdict out of decide_upper
    def leaves(self, prefix, budget, leaf):
        yield colors, verifier.SearchStats(nodes=1)

    monkeypatch.setattr(verifier._Search, "leaves", leaves)
    with pytest.raises(RuntimeError) as err:
        decide_upper(n, targets)
    assert str(err.value) == message


def test_report_json_shape():
    targets = parse_target_list("P5,P3")
    verdict, stats = decide_upper(4, targets)
    report = report_to_json(4, targets, verdict, stats, witness_file="w.col")
    assert report["N"] == 4
    assert report["targets"] == ["P5", "P3"]
    assert report["verdict"] == BAD_COLORING
    assert report["witness_file"] == "w.col"
    # the bad coloring's colors, in pair order
    assert report["witness"] == list(verdict.witness.colors)
    assert len(report["witness"]) == 6
    assert set(report["stats"]) == {
        "nodes",
        "prunes_rainbow",
        "prunes_mono",
        "prunes_symmetry",
        "elapsed",
    }
    verdict, stats = decide_upper(5, targets)
    assert verdict.kind == ALL_FORCED
    assert "witness" not in report_to_json(5, targets, verdict, stats)
