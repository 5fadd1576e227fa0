import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations

import pytest

from brute import brute_exists_through, brute_find_sequence
from gallai_ramsey import (
    ALL_FORCED,
    EdgeColoring,
    SpecLengthMismatchError,
    build_lower_bound_coloring,
    contains_required,
    decide_upper,
    even_cycle,
    find_mono,
    matching,
    new_coloring,
    parse_target,
    parse_target_list,
    path,
    random_gallai,
    sorted_spec,
    verify_embedding,
)
from gallai_ramsey import search
from gallai_ramsey.search import (
    _matching_at_least,
    exists_cycle_through,
    exists_matching_with_edge,
    exists_path_through,
)
from gallai_ramsey.targets import CYCLE, PATH, Embedding, embedding_from_json


def mono(n, k=1, color=1):
    return EdgeColoring(n, k, [color] * (n * (n - 1) // 2))


def ring(n, inner=1, outer=2):
    """2-coloring of K_n: ring edges (v, v+1 mod n) inner, rest outer."""
    assign = {}
    for u in range(n):
        for v in range(u + 1, n):
            on_ring = v - u == 1 or (u == 0 and v == n - 1)
            assign[(u, v)] = inner if on_ring else outer
    return new_coloring(n, 2, assign)


def test_target_parsing_and_names():
    assert parse_target("P5") == path(5)
    assert parse_target("C8") == even_cycle(8)
    assert parse_target("M3") == matching(3)
    assert parse_target("m2").name == "M2"
    assert parse_target_list("C6,C6,P3") == [even_cycle(6), even_cycle(6), path(3)]
    assert parse_target_list(" C6 , p3 ") == [even_cycle(6), path(3)]
    # an empty entry would silently drop a color from the palette
    for text, pos in [("C6,,C6", 2), (",C6", 1), ("C6,C6,", 3), ("C6, ,P3", 2)]:
        with pytest.raises(ValueError, match=f"position {pos} of"):
            parse_target_list(text)
    for text in ["", " "]:
        with pytest.raises(ValueError, match="empty target list"):
            parse_target_list(text)
    with pytest.raises(ValueError):
        parse_target("C5")  # odd cycles are not searchable targets
    with pytest.raises(ValueError):
        parse_target("Q4")


def test_find_mono_monochromatic_k5_path():
    emb = find_mono(mono(5), 1, path(5))
    assert emb is not None
    assert emb.vertices == (0, 1, 2, 3, 4)
    assert verify_embedding(mono(5), emb)


def test_find_mono_triangle_in_k4_has_no_p4():
    # color 1 forms a triangle on {0,1,2}; a P4 needs four vertices
    c = new_coloring(
        4, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 2, (1, 3): 2, (2, 3): 2}
    )
    assert find_mono(c, 1, path(4)) is None
    assert find_mono(c, 1, path(3)) is not None


def test_find_mono_target_larger_than_host_returns_none():
    assert find_mono(mono(4), 1, path(5)) is None
    assert find_mono(mono(4), 1, even_cycle(6)) is None
    assert find_mono(mono(4), 1, matching(3)) is None


def test_find_mono_pentagon_has_c4_free_classes():
    c = ring(5)
    # the 5-ring in color 1 and the pentagram in color 2 both lack C4
    assert find_mono(c, 1, even_cycle(4)) is None
    assert find_mono(c, 2, even_cycle(4)) is None


def test_find_mono_even_ring_finds_full_cycle():
    c = ring(6)
    emb = find_mono(c, 1, even_cycle(6))
    assert emb is not None
    assert emb.vertices == (0, 1, 2, 3, 4, 5)
    assert verify_embedding(c, emb)


def test_find_mono_matching_sizes_on_ring():
    c = ring(8)
    assert find_mono(c, 1, matching(4)) is not None
    assert find_mono(c, 1, matching(5)) is None


def test_oracle_agreement_random_colorings():
    rng = random.Random(7)
    targets = (
        [path(m) for m in range(2, 9)]
        + [even_cycle(l) for l in (4, 6, 8)]
        + [matching(s) for s in range(1, 5)]
    )

    def uniform():
        n = rng.randint(2, 8)
        k = rng.randint(1, 4)
        colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        return EdgeColoring(n, k, colors)

    def gallai():
        # blocks, twins and cut vertices, which uniform colorings rarely have
        return random_gallai(rng.randint(2, 9), rng.randint(2, 3), rng.randrange(2**32))

    for make in [uniform] * 60 + [gallai] * 60:
        c = make()
        for t in targets:
            col = rng.randint(1, c.k)
            got = find_mono(c, col, t)
            want = brute_find_sequence(c, col, t)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify_embedding(c, got)
                assert got.vertices == want  # both are lex-least


@pytest.mark.parametrize(
    "host, want",
    [
        ((59, 3, 3391062619), (6, 33, 8, 10, 9, 12, 14, 34)),
        ((129, 4, 1954268780), (0, 22, 24, 37, 25, 38, 26, 23)),
        ((102, 3, 1741422554), (0, 60, 2, 3, 4, 5, 7, 101)),
    ],
)
def test_c8_on_hosts_full_of_dead_ends(host, want):
    # In these classes most simple paths on 7 vertices end where they
    # cannot close a C8 (behind a cut vertex, or off the start's
    # neighborhood); without the dead-end cut each search runs from
    # about a second to over a minute.
    c = random_gallai(*host)
    got = find_mono(c, 1, even_cycle(8))
    assert got is not None and got.vertices == want
    assert verify_embedding(c, got)



GRID_TARGETS = [path(m) for m in range(2, 13)] + [even_cycle(l) for l in (4, 6, 8, 10)]


def test_embeddings_are_pinned_on_a_host_grid():
    # 300 random Gallai hosts on up to 40 vertices, too large for the
    # brute-force oracle: every color's lex-least P2-P12 and C4-C10, or
    # None, as one digest (13,155 searches, 8,240 hits)
    rng = random.Random(23)
    lines = []
    for trial in range(300):
        host = (rng.randint(2, 40), rng.randint(1, 5), rng.randrange(2**32))
        c = random_gallai(*host)
        for color in range(1, c.k + 1):
            for t in GRID_TARGETS:
                emb = find_mono(c, color, t)
                lines.append(f"{host} {color} {t.name} {None if emb is None else emb.vertices}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9fa98a3e9a6daee881db1c0e4db2692e0fcd890cf217b9eab87727441f36ab43"

def two_blobs(size, seed, p=0.4):
    """2-coloring of K_{2 size}: color 1 holds two random graphs on
    `size` vertices each, edge probability p, and nothing between them."""
    rng = random.Random(seed)
    n = 2 * size
    assign = {
        (u, v): 1 if u // size == v // size and rng.random() < p else 2
        for u in range(n)
        for v in range(u + 1, n)
    }
    return new_coloring(n, 2, assign)


def test_path_memo_is_shared_across_starts(monkeypatch):
    # No P14 fits in components of 13 vertices, so every start fails.
    # With one memo across starts this host takes 167,193 kernel calls,
    # with a fresh memo per start 642,378, and with none 15.5 million.
    calls = 0
    kernel = search._reach_end

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(search, "_reach_end", counted)
    assert find_mono(two_blobs(13, 7), 1, path(14)) is None
    assert calls <= 400_000
    assert find_mono(two_blobs(12, 7), 1, even_cycle(14)) is None


LONG_PATHS = {
    (59, 3, 3391062619): (
        0, 2, 1, 3, 4, 5, 7, 6, 33, 8, 10, 9, 12, 14, 13, 15, 28, 11, 29, 16,
        30, 17, 31, 18, 32, 19, 34, 20, 21, 22, 23, 35, 24, 36, 25, 37, 26, 27, 38, 39,
    ),
    (102, 3, 1741422554): (
        0, 60, 1, 101, 16, 18, 17, 19, 22, 20, 23, 21, 24, 53, 25, 54, 26, 55, 27, 56,
        28, 57, 29, 58, 30, 59, 31, 61, 32, 62, 33, 63, 34, 35, 64, 36, 65, 37, 40, 66,
    ),
}


def test_long_paths_are_the_kernels_first_hit(monkeypatch):
    # The lex-least P40 is read off the kernel's first hit. Rebuilding it
    # one vertex at a time, each step proved again from scratch, took 742
    # kernel calls on the first host.
    calls = 0
    kernel = search._reach_end

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(search, "_reach_end", counted)
    counts = []
    for host, vertices in LONG_PATHS.items():
        c = random_gallai(*host)
        calls = 0
        emb = find_mono(c, 1, path(40))
        assert emb.vertices == vertices
        assert verify_embedding(c, emb)
        counts.append(calls)
    assert counts[0] <= 2 * 40


def line_host(n, ring):
    """2-coloring of K_n whose color 1 is the path 0-1-...-(n-1), closed
    into a cycle by the edge (0, n-1) when `ring` is set."""
    colors = [
        1 if v - u == 1 or (ring and (u, v) == (0, n - 1)) else 2
        for u in range(n)
        for v in range(u + 1, n)
    ]
    return EdgeColoring(n, 2, colors)


@pytest.mark.parametrize(
    "n, ring, target", [(1100, False, path(1050)), (1000, True, even_cycle(1000))]
)
def test_targets_longer_than_the_recursion_limit(n, ring, target):
    # the kernel recurses once per vertex of the target, so these outgrow
    # the default limit of 1000; the search makes room for the call and
    # gives the limit back afterwards
    limit = sys.getrecursionlimit()
    emb = find_mono(line_host(n, ring), 1, target)
    assert emb.vertices == tuple(range(target.num_vertices))
    assert sys.getrecursionlimit() == limit


def test_concurrent_long_searches_keep_the_recursion_limit():
    # the limit is the whole process's: searches in four threads, switched
    # often, must each keep their room and leave the limit as it was
    c = line_host(1100, False)
    limit = sys.getrecursionlimit()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    pool = ThreadPoolExecutor(4)
    try:
        runs = [
            pool.submit(lambda: [find_mono(c, 1, path(1050)) for _ in range(10)])
            for _ in range(4)
        ]
        found = [emb.vertices for run in runs for emb in run.result(timeout=60)]
    finally:
        pool.shutdown(wait=False)
        sys.setswitchinterval(interval)
    assert found == [tuple(range(1050))] * 40
    assert sys.getrecursionlimit() == limit


def class_host(n, joined):
    """2-coloring of K_n: color 1 on the pairs (u, v), u < v, where
    `joined` holds, color 2 on the rest."""
    return EdgeColoring(
        n, 2, [1 if joined(u, v) else 2 for u in range(n) for v in range(u + 1, n)]
    )


TWIN_HOSTS = {
    # color 1 is two disjoint K_{20,20}: a side's vertices are apart, with
    # equal neighborhoods
    "bicliques": class_host(80, lambda u, v: u // 40 == v // 40 and u // 20 != v // 20),
    # color 1 is two disjoint K_21: a block's vertices are joined, with
    # equal closed neighborhoods
    "cliques": class_host(42, lambda u, v: u // 21 == v // 21),
}


@pytest.mark.parametrize(
    "host, target, calls",
    [
        ("bicliques", path(42), 161),
        ("bicliques", even_cycle(42), 80),
        ("bicliques", path(41), 157),
        ("cliques", path(22), 41),
        ("cliques", even_cycle(22), 40),
    ],
)
def test_twin_rule_skips_both_kinds_of_twins(monkeypatch, host, target, calls):
    # No target fits in a component, yet the matching cut passes each,
    # so the kernel rules them out with the twin rule: without the key of
    # the open neighborhoods the K_{20,20} searches run on and on, and
    # without that of the closed ones the K_21 searches
    count = 0
    kernel = search._reach_end

    def counted(*args):
        nonlocal count
        count += 1
        if count > 2000:
            raise AssertionError("the twin rule skipped too little")
        return kernel(*args)

    monkeypatch.setattr(search, "_reach_end", counted)
    assert find_mono(TWIN_HOSTS[host], 1, target) is None
    assert count == calls


def blow_up(rng, base_n, copies):
    """Random graph on `base_n` vertices with each vertex replaced by 1 to
    `copies` twins: equal neighborhoods, the copies of a vertex pairwise
    joined or pairwise not."""
    joined = {(i, j): rng.random() < 0.5 for i in range(base_n) for j in range(i, base_n)}
    owner = [i for i in range(base_n) for _ in range(rng.randint(1, copies))]
    adj = [0] * len(owner)
    for a in range(len(owner)):
        for b in range(a + 1, len(owner)):
            if joined[owner[a], owner[b]]:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def test_keyed_twin_test_matches_the_pairwise_definition():
    # two vertices agree outside their pair exactly when the open or the
    # closed neighborhood of one is a key of the other: its open or its
    # closed neighborhood. blow_up plants twins of both kinds
    rng = random.Random(34)
    twins = {False: 0, True: 0}
    for _ in range(500):
        adj = blow_up(rng, rng.randint(1, 8), 4)
        for w, f in permutations(range(len(adj)), 2):
            wbit, fbit = 1 << w, 1 << f
            outside = ~(wbit | fbit)
            pairwise = adj[w] & outside == adj[f] & outside
            keys = (adj[f], adj[f] | fbit)
            assert (adj[w] in keys or adj[w] | wbit in keys) == pairwise, (adj, w, f)
            if pairwise:
                twins[bool(adj[w] & fbit)] += 1
    assert min(twins.values()) > 5000, twins


def uniform_classes(rng, count=40):
    """`count` classes on 2 to 8 vertices, each of its own random density."""
    classes = []
    for trial in range(count):
        n = rng.randint(2, 8)
        density = rng.random()
        adj = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        classes.append(adj)
    return classes


THROUGH_TARGETS = (
    [path(m) for m in range(2, 9)]
    + [even_cycle(l) for l in (4, 6, 8)]
    + [matching(s) for s in range(1, 5)]
)


def through_check(t, adj, u, v, out):
    if t.kind == PATH:
        return exists_path_through(adj, u, v, t.size, out)
    if t.kind == CYCLE:
        return exists_cycle_through(adj, u, v, t.size, out)
    return exists_matching_with_edge(adj, u, v, t.size, out)


def test_through_edge_checks_match_oracle():
    rng = random.Random(29)
    classes = [(THROUGH_TARGETS, adj) for adj in uniform_classes(rng)]
    # uniform classes rarely have twins, which the checks skip; Gallai
    # hosts and blow-ups are full of them. Targets larger than the host
    # are left out, as the verifier never asks for them.
    shapes = [path(m) for m in range(2, 10)] + [even_cycle(l) for l in (4, 6, 8)]

    def twin_targets(n):
        return [t for t in shapes if t.num_vertices <= n]

    for trial in range(6):
        c = random_gallai(rng.randint(7, 9), rng.randint(2, 3), rng.randrange(2**32))
        classes += [(twin_targets(c.n), adj) for adj in c.color_adjacency().values()]
    for base_n, copies in [(3, 3), (4, 2)] * 4:
        adj = blow_up(rng, base_n, copies)
        classes.append((twin_targets(len(adj)), adj))
    for trial, (ts, adj) in enumerate(classes):
        n = len(adj)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1]
        for t in ts:
            for a, b in edges:
                # a target larger than the host has no copy at all
                want = t.num_vertices <= n and brute_exists_through(adj, a, b, t)
                for u, v in ((a, b), (b, a)):
                    assert through_check(t, adj, u, v, []) == want, (trial, adj, t.name, u, v)


def test_through_edge_checks_record_real_copies():
    # a yes must come with a copy of the target through the edge in
    # `out`: distinct vertices in the target's shape, every edge in the
    # class; a no leaves `out` empty.
    for trial, adj in enumerate(uniform_classes(random.Random(29))):
        n = len(adj)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1]
        for t in THROUGH_TARGETS:
            for a, b in edges:
                want = t.num_vertices <= n and brute_exists_through(adj, a, b, t)
                for u, v in ((a, b), (b, a)):
                    out = []
                    got = through_check(t, adj, u, v, out)
                    where = (trial, adj, t.name, u, v, out)
                    assert got == want, where
                    if not got:
                        assert out == [], where
                        continue
                    assert len(out) == t.num_vertices == len(set(out)), where
                    if t.kind == PATH:
                        pairs = list(zip(out, out[1:]))
                    elif t.kind == CYCLE:
                        pairs = list(zip(out, out[1:] + out[:1]))
                    else:
                        pairs = list(zip(out[::2], out[1::2]))
                    assert all(adj[x] >> y & 1 for x, y in pairs), where
                    assert {a, b} in [{x, y} for x, y in pairs], where


def test_through_edge_checks_ignore_the_edge_itself():
    # the verifier hands a kernel the class without the new edge (u, v):
    # a kernel reads no edge between u and v, so with and without it in
    # `adj` it gives the same answer and records the same copy. Random
    # classes on K_3 to K_11, a random pair each, every target that fits
    rng = random.Random(33)
    found = [0, 0]
    for n in range(3, 12):
        for trial in range(120):
            density = rng.random()
            adj = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < density:
                        adj[a] |= 1 << b
                        adj[b] |= 1 << a
            u, v = rng.sample(range(n), 2)
            without = list(adj)
            without[u] &= ~(1 << v)
            without[v] &= ~(1 << u)
            with_edge = list(without)
            with_edge[u] |= 1 << v
            with_edge[v] |= 1 << u
            for t in THROUGH_TARGETS:
                if t.num_vertices > n:
                    continue
                got = []
                for rows in (without, with_edge):
                    out = []
                    got.append((through_check(t, rows, u, v, out), out))
                assert got[0] == got[1], (n, without, u, v, t.name, got)
                found[got[0][0]] += 1
    assert min(found) > 2_000, found


def test_through_edge_checks_start_at_the_narrow_end(monkeypatch):
    # Both checks start at the end of the edge with fewer free neighbors,
    # the higher vertex on a tie, so the search is the same whichever way
    # round the edge is given. The verifier passes u < v, and v tends to
    # be the narrow end: behind the verifier's caches, P6,P6@8 takes
    # 43,051 kernel calls, 56,578 from u and 59,326 from the wide end.
    # The lower bounds fail a wrapper that stops seeing the calls.
    calls = 0

    def counted(kernel):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        return wrapper

    monkeypatch.setattr(search, "_reach_end", counted(search._reach_end))
    monkeypatch.setattr(search, "_two_arms", counted(search._two_arms))
    # the 40 uniform classes of test_through_edge_checks_match_oracle
    for trial, adj in enumerate(uniform_classes(random.Random(29))):
        n = len(adj)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1]
        for check, sizes in [
            (exists_path_through, range(3, n + 1)),
            (exists_cycle_through, range(4, n + 1, 2)),
        ]:
            for size in sizes:
                for a, b in edges:
                    counts = []
                    for u, v in ((a, b), (b, a)):
                        calls = 0
                        check(adj, u, v, size, [])
                        counts.append(calls)
                    assert counts[0] == counts[1] > 0, (trial, adj, check.__name__, size, a, b)
    calls = 0
    assert decide_upper(8, "P6,P6")[0].kind == ALL_FORCED
    assert 30_000 <= calls <= 50_000


def test_cycle_phase_counts_lower_vertices_as_used():
    # the phase of vertex 2 counts 0, 1 and 2 itself as used; 0 and 1 are
    # joined to the C6 on 2..7 (chord 2-5) but lie on no C6
    edges = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 7), (2, 5), (0, 2), (0, 3), (1, 2), (1, 3)]
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    c = new_coloring(8, 2, {e: 1 if e in edges else 2 for e in pairs})
    got = find_mono(c, 1, even_cycle(6))
    assert got is not None and got.vertices == brute_find_sequence(c, 1, even_cycle(6))
    assert got.vertices == (2, 3, 4, 5, 6, 7)


def split_class(b, s, extra=(), label=None):
    """2-coloring whose color 1 is a class of the layered construction: s
    independent vertices, then a clique on b vertices joined to them, then
    two isolated vertices; `extra` adds edges to color 1, and vertex x is
    renamed label[x] when a labelling is given."""
    n = s + b + 2
    label = label or list(range(n))
    edges = {(u, v) for v in range(s, s + b) for u in range(v)} | set(extra)
    edges = {tuple(sorted((label[u], label[v]))) for u, v in edges}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return new_coloring(n, 2, {e: 1 if e in edges else 2 for e in pairs})


def test_matching_cut_on_split_classes(monkeypatch):
    # Every edge of a split class touches its clique, so it holds at most
    # b disjoint edges, and the cut rules out P_{2b+2}, P_{2b+3} and
    # C_{2b+2} before the search. P_{2b+1} and C_{2b} fit exactly when
    # there are enough independent vertices. One more edge between two
    # independent or two isolated vertices raises the matching number to
    # b + 1, so the cut passes P_{2b+2} and the search decides. The oracle
    # walks every path: at b = 4 it takes 0.5-3.7 s a host for s = 5-7,
    # so there s stops at 4.
    calls = 0
    kernel = search._reach_end

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(search, "_reach_end", counted)
    rng = random.Random(31)
    searched = {True: 0, False: 0}
    for b in range(1, 5):
        for s in range(8 if b < 4 else 5):
            n = s + b + 2
            shapes = [path(m) for m in (2 * b + 1, 2 * b + 2, 2 * b + 3)]
            shapes += [even_cycle(l) for l in (2 * b, 2 * b + 2) if l >= 4]
            raised = [(n - 2, n - 1)] + ([(0, 1)] if s >= 2 else [])
            for extra in [()] + [(e,) for e in raised]:
                for label in (None, rng.sample(range(n), n)):
                    c = split_class(b, s, extra, label)
                    for t in shapes:
                        calls = 0
                        got = find_mono(c, 1, t)
                        want = brute_find_sequence(c, 1, t)
                        assert (got and got.vertices) == want, (b, s, extra, label, t.name)
                        if t.num_vertices > 2 * b + 1 and not extra:
                            assert calls == 0, (b, s, label, t.name)
                        if t == path(2 * b + 2) and extra and s >= b + 2:
                            assert calls > 0, (b, s, extra, label)
                            searched[want is not None] += 1
    # the search found P_{2b+2} on some raised classes and ruled it out
    # on others
    assert searched[True] and searched[False]


def test_path_monotonicity():
    rng = random.Random(13)
    for trial in range(40):
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)
        c = EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])
        col = rng.randint(1, k)
        hits = [m for m in range(2, n + 1) if find_mono(c, col, path(m))]
        # if P_m appears, every shorter path appears
        assert hits == list(range(2, max(hits) + 1)) if hits else True


def test_cycle_hit_implies_path_hit():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(4, 8)
        c = EdgeColoring(n, 2, [rng.randint(1, 2) for _ in range(n * (n - 1) // 2)])
        for length in (4, 6, 8):
            for col in (1, 2):
                if find_mono(c, col, even_cycle(length)):
                    assert find_mono(c, col, path(length))


def test_contains_required_first_color_wins():
    c = mono(6, k=2)
    hit = contains_required(c, [even_cycle(6), path(3)])
    assert hit is not None
    color, emb = hit
    assert color == 1 and emb.target == even_cycle(6)
    assert verify_embedding(c, emb)


def test_contains_required_pentagon_pentagram_p4():
    hit = contains_required(ring(5), [path(4), path(4)])
    assert hit is not None


def test_contains_required_spec_length_mismatch():
    with pytest.raises(SpecLengthMismatchError):
        contains_required(mono(4, k=2), [path(3)])


def test_verify_embedding_rejects_bad_certificates():
    c = mono(5, k=2)
    good = find_mono(c, 1, path(4))
    assert verify_embedding(c, good)
    assert not verify_embedding(c, Embedding(path(4), 1, (0, 1, 1, 2)))
    assert not verify_embedding(c, Embedding(path(4), 2, (0, 1, 2, 3)))
    assert not verify_embedding(c, Embedding(path(4), 1, (0, 1, 2)))
    assert not verify_embedding(c, Embedding(path(4), 1, (0, 1, 2, 7)))
    assert not verify_embedding(c, Embedding(path(4), 3, (0, 1, 2, 3)))
    # cycle wrap-around edge must match too
    cyc = ring(6)
    assert not verify_embedding(cyc, Embedding(even_cycle(4), 1, (0, 1, 2, 3)))
    assert verify_embedding(cyc, Embedding(even_cycle(6), 1, (0, 1, 2, 3, 4, 5)))
    # too few vertices, though every edge they span has the color
    assert not verify_embedding(c, Embedding(even_cycle(6), 1, (0, 1, 2, 3, 4)))
    # a matching takes exactly 2s vertices, each pair in the claimed color
    assert verify_embedding(c, Embedding(matching(2), 1, (0, 1, 2, 3)))
    assert not verify_embedding(c, Embedding(matching(2), 1, (0, 1, 2)))
    assert not verify_embedding(cyc, Embedding(matching(2), 1, (0, 1, 2, 3, 4, 5)))
    assert not verify_embedding(c, Embedding(matching(2), 1, (0, 1, 2, 2)))
    assert not verify_embedding(cyc, Embedding(matching(2), 1, (0, 1, 2, 4)))


def test_matching_oracle_agrees_with_blossom():
    import networkx as nx

    def host(n, edges):
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        g = nx.Graph(edges)
        return adj, len(nx.max_weight_matching(g, maxcardinality=True))

    rng = random.Random(23)
    hosts = []
    for trial in range(42):
        # the last hosts are sparse, where greedy often falls short and
        # augmenting paths decide
        if trial < 30:
            n, density = rng.randint(2, 12), 0.3
        else:
            n, density = rng.randint(21, 26), 0.08
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hosts.append((n, [e for e in pairs if rng.random() < density]))
    # sparse hosts of 30 to 120 vertices, about 1.5 to 4.5 neighbors a
    # vertex, where a maximum matching needs many augmenting paths
    for n in range(30, 121, 6):
        density = rng.uniform(1.5, 4.5) / n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hosts.append((n, [e for e in pairs if rng.random() < density]))
    top = 0
    for n, edges in hosts:
        adj, best = host(n, edges)
        top = max(top, best)
        full = (1 << n) - 1
        for r in range(0, n // 2 + 2):
            assert _matching_at_least(adj, full, r) == (r <= best), (n, r)
    assert top >= 55
    # multi-hub hosts: every edge touches one of the hubs, so hubs + 1
    # disjoint edges never fit, and every root must be ruled out
    for n in (20, 60, 200):
        full = (1 << n) - 1
        for hubs in range(4, 8):
            adj, best = host(n, [(h, w) for h in range(hubs) for w in range(h + 1, n)])
            assert best == hubs
            for r in (hubs, hubs + 1):
                assert _matching_at_least(adj, full, r) == (r <= best)


def test_root_skip_agrees_with_blossom(monkeypatch):
    # Hosts full of unmatched roots that are twins within `free`: a root
    # whose neighborhood equals a failed root's is skipped. Checked at
    # r = nu and r = nu + 1, on all vertices and on random vertex sets.
    import networkx as nx

    rng = random.Random(37)

    def edges_of(adj):
        return [(a, b) for a in range(len(adj)) for b in range(a + 1, len(adj)) if adj[a] >> b & 1]

    def relabeled(edges, n):
        label = rng.sample(range(n), n)
        adj = [0] * n
        for u, v in edges:
            adj[label[u]] |= 1 << label[v]
            adj[label[v]] |= 1 << label[u]
        return adj

    hosts = []
    # K_{b,s} with s much larger than b, hubs first and relabeled
    for b, s in [(1, 9), (2, 12), (3, 20), (4, 40), (6, 60)]:
        hosts.append([((1 << s) - 1) << b] * b + [(1 << b) - 1] * s)
        hosts.append(relabeled([(h, b + w) for h in range(b) for w in range(s)], b + s))
    # the classes of relabeled constructions
    for n, idx in [(3, (2, 2, 1)), (4, (3, 2, 2, 1)), (5, (4, 3, 2, 1)), (6, (5, 5, 3)), (7, (6, 4, 4, 2))]:
        for head in ("cycle", "path"):
            c = build_lower_bound_coloring(sorted_spec(idx, n=n, head=head))
            for adj in c.color_adjacency().values():
                hosts.append(relabeled(edges_of(adj), c.n))
    # hubs with pendant twins: each leaf hangs off one or two random hubs,
    # and some hubs are joined
    for trial in range(40):
        hubs, leaves = rng.randint(2, 6), rng.randint(6, 30)
        edges = {(h, g) for h in range(hubs) for g in range(h + 1, hubs) if rng.random() < 0.3}
        for w in range(hubs, hubs + leaves):
            edges |= {(h, w) for h in rng.sample(range(hubs), rng.randint(1, 2))}
        hosts.append(relabeled(edges, hubs + leaves))
    for adj in hosts:
        n = len(adj)
        for free in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(4)]:
            g = nx.Graph((a, b) for a, b in edges_of(adj) if free >> a & free >> b & 1)
            nu = len(nx.max_weight_matching(g, maxcardinality=True))
            for r in (nu, nu + 1):
                out = []
                assert _matching_at_least(adj, free, r, out) == (r == nu), (adj, free, r)
                if r == nu:
                    pairs = list(zip(out[::2], out[1::2]))
                    assert len(pairs) == nu == len({*out}) // 2
                    assert all(adj[a] >> b & 1 and free >> a & free >> b & 1 for a, b in pairs)
    # on K_{b,s} greedy matches every hub, and the s - b unmatched leaves
    # are twins: one search for an augmenting path rules them all out
    calls = 0
    augment = search._augment

    def counted(*args):
        nonlocal calls
        calls += 1
        return augment(*args)

    monkeypatch.setattr(search, "_augment", counted)
    adj = relabeled([(h, 4 + w) for h in range(4) for w in range(40)], 44)
    assert not _matching_at_least(adj, (1 << 44) - 1, 5)
    assert calls == 1


def greedy_short_host(n):
    """Greedy takes 0-2 and is stuck at one edge; 0-3 with 1-2 gives two.
    Vertices from 4 on are isolated in color 1."""
    edges = [(0, 2), (1, 2), (0, 3)]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assign = {(u, v): 2 for u in range(n) for v in range(u + 1, n)}
    assign.update({e: 1 for e in edges})
    return adj, new_coloring(n, 2, assign)


@pytest.mark.parametrize("n", [4, 23])
def test_matching_where_greedy_falls_short(n):
    adj, c = greedy_short_host(n)
    full = (1 << n) - 1
    assert _matching_at_least(adj, full, 2)
    assert not _matching_at_least(adj, full, 3)
    assert find_mono(c, 1, matching(2)).vertices == (0, 3, 1, 2)


def test_matching_needs_no_networkx(monkeypatch):
    # networkx is a test-only oracle: with it unimportable, the exact
    # matching oracle, find_mono and the verifier's matching checks run
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError):
        import networkx  # noqa: F401
    adj, c = greedy_short_host(23)
    full = (1 << 23) - 1
    assert _matching_at_least(adj, full, 2)
    assert not _matching_at_least(adj, full, 3)
    assert find_mono(c, 1, matching(2)).vertices == (0, 3, 1, 2)
    assert find_mono(c, 1, matching(3)) is None
    assert decide_upper(8, "M3,M3")[0].kind == ALL_FORCED


def test_matching_on_22_vertex_host():
    # 22 vertices: color 1 holds exactly 5 disjoint edges plus noise
    n = 22
    assign = {}
    for u in range(n):
        for v in range(u + 1, n):
            assign[(u, v)] = 2
    for i in range(5):
        assign[(2 * i, 2 * i + 1)] = 1
    c = new_coloring(n, 2, assign)
    got = find_mono(c, 1, matching(5))
    assert got is not None and verify_embedding(c, got)
    assert got.vertices == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert find_mono(c, 1, matching(6)) is None
    big = find_mono(c, 2, matching(n // 2))
    assert big is not None and verify_embedding(c, big)


def test_embedding_json_round_trip():
    emb = Embedding(even_cycle(6), 2, (0, 3, 1, 4, 2, 5))
    data = emb.to_json()
    assert data == {"target": "C6", "color": 2, "vertices": [0, 3, 1, 4, 2, 5]}
    assert embedding_from_json(data) == emb
