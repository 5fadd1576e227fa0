import random

import pytest

from brute import brute_gallai_partition, brute_validate_partition
from gallai_ramsey import (
    EdgeColoring,
    GallaiPartition,
    NotAPartitionError,
    ViolationReport,
    build_lower_bound_coloring,
    gallai_partition,
    is_gallai,
    new_coloring,
    pair_index,
    random_gallai,
    reduced_graph,
    sorted_spec,
    validate_partition,
)
from gallai_ramsey import partition
from gallai_ramsey.construction import layers


def two_colored(n, seed=0):
    rng = random.Random(seed)
    return EdgeColoring(n, 2, [rng.randint(1, 2) for _ in range(n * (n - 1) // 2)])


def rainbow_triangle():
    return new_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})


def test_singletons_partition_any_two_coloring():
    c = two_colored(7, seed=1)
    result = validate_partition(c, [[v] for v in range(7)])
    assert isinstance(result, GallaiPartition)
    assert set(result.between_colors) <= {1, 2}


def test_gallai_partition_two_colored_succeeds():
    c = two_colored(9, seed=2)
    p = gallai_partition(c)
    assert p is not None
    assert len(p.parts) >= 2


def test_gallai_partition_rainbow_triangle_is_none():
    assert gallai_partition(rainbow_triangle()) is None


def test_gallai_partition_monochromatic():
    c = EdgeColoring(5, 1, [1] * 10)
    p = gallai_partition(c)
    assert p is not None
    assert p.between_colors == (1,)


def test_validate_partition_non_homogeneous_pair():
    c = new_coloring(
        4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 2): 2, (0, 3): 1, (1, 3): 1}
    )
    report = validate_partition(c, [[0, 1], [2, 3]])
    assert isinstance(report, ViolationReport)
    assert report.kind == "non_homogeneous"
    assert report.part_pair == (0, 1)
    (u1, v1, c1), (u2, v2, c2) = report.witness_edges
    assert c1 != c2
    assert {c.color(u1, v1), c.color(u2, v2)} == {c1, c2}


def test_validate_partition_three_between_colors():
    # three singleton-ish parts pairwise joined in three distinct colors
    c = new_coloring(
        6,
        3,
        {
            (0, 1): 1, (2, 3): 2, (4, 5): 3,
            (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1,
            (0, 4): 2, (0, 5): 2, (1, 4): 2, (1, 5): 2,
            (2, 4): 3, (2, 5): 3, (3, 4): 3, (3, 5): 3,
        },
    )
    report = validate_partition(c, [[0, 1], [2, 3], [4, 5]])
    assert isinstance(report, ViolationReport)
    assert report.kind == "extra_between_colors"
    assert len(report.witness_edges) == 3


def test_validate_partition_not_a_partition():
    c = two_colored(4)
    with pytest.raises(NotAPartitionError):
        validate_partition(c, [[0, 1, 2, 3]])
    with pytest.raises(NotAPartitionError):
        validate_partition(c, [[0, 1], [1, 2, 3]])
    with pytest.raises(NotAPartitionError):
        validate_partition(c, [[0, 1], [2]])
    with pytest.raises(NotAPartitionError):
        validate_partition(c, [[0, 1], [], [2, 3]])


def test_construction_layers_are_a_valid_partition():
    # layered coloring for three even-cycle/path targets: the nonempty
    # layers themselves satisfy both structure conditions
    spec = sorted_spec([2, 2, 1], n=3, head="cycle")
    c = build_lower_bound_coloring(spec)
    parts = [list(r) for r in layers(spec) if len(r)]
    result = validate_partition(c, parts)
    assert isinstance(result, GallaiPartition)
    assert result.between_colors == (2, 3)

    spec2 = sorted_spec([2, 2, 0], n=3, head="cycle")
    c2 = build_lower_bound_coloring(spec2)
    parts2 = [list(r) for r in layers(spec2) if len(r)]
    result2 = validate_partition(c2, parts2)
    assert isinstance(result2, GallaiPartition)
    assert result2.between_colors == (2,)


def test_construction_last_layer_split():
    # separating the last layer from the rest uses one between-color
    spec = sorted_spec([2, 2, 2], n=3, head="cycle")
    c = build_lower_bound_coloring(spec)
    blocks = layers(spec)
    rest = [v for r in blocks[:-1] for v in r]
    result = validate_partition(c, [rest, list(blocks[-1])])
    assert isinstance(result, GallaiPartition)
    assert result.between_colors == (3,)


def test_reduced_graph_two_parts_single_edge():
    c = two_colored(6, seed=5)
    p = validate_partition(c, [[0, 1, 2], [3, 4, 5]])
    if isinstance(p, GallaiPartition):
        r = reduced_graph(p)
        assert r.n == 2
    # regardless of homogeneity above, a concrete valid 2-split:
    spec = sorted_spec([2, 2], n=3, head="cycle")
    built = build_lower_bound_coloring(spec)
    blocks = layers(spec)
    p2 = validate_partition(built, [list(blocks[0]), list(blocks[1])])
    assert isinstance(p2, GallaiPartition)
    r2 = reduced_graph(p2)
    assert r2.n == 2 and r2.color(0, 1) == 2


def test_reduced_graph_singletons_reproduce_coloring():
    c = two_colored(6, seed=8)
    p = validate_partition(c, [[v] for v in range(6)])
    assert isinstance(p, GallaiPartition)
    assert reduced_graph(p) == c


def test_reduced_graph_of_computed_partition_is_gallai():
    for seed in range(5):
        c = random_gallai(14, 4, seed)
        p = gallai_partition(c)
        r = reduced_graph(p)
        assert len(r.used_colors()) <= 2
        assert is_gallai(r) is True


def quotient_round_trip(c, p):
    where = {}
    for i, part in enumerate(p.parts):
        for v in part:
            where[v] = i
    r = reduced_graph(p)
    colors = [0] * (c.n * (c.n - 1) // 2)
    for u in range(c.n - 1):
        for v in range(u + 1, c.n):
            iu, iv = where[u], where[v]
            colors[pair_index(c.n, u, v)] = (
                c.color(u, v) if iu == iv else r.color(iu, iv)
            )
    return EdgeColoring(c.n, c.k, colors)


def test_partition_properties_random_sample():
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(2, 24)
        k = rng.randint(1, 6)
        c = random_gallai(n, k, rng.randrange(2 ** 32))
        p = gallai_partition(c)
        assert p is not None
        confirmed = validate_partition(c, p.parts)
        assert isinstance(confirmed, GallaiPartition)
        assert len(p.between_colors) <= 2
        assert quotient_round_trip(c, p) == c


def test_partition_matches_brute_force_oracle():
    # validity alone would pass a coarser partition; this pins which
    # partition comes back on Gallai, near-Gallai and arbitrary inputs
    rng = random.Random(47)
    hosts = []
    for _ in range(60):
        n, k = rng.randint(2, 10), rng.randint(1, 5)
        hosts.append(EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]))
    # recolored edges make most of these non-Gallai; on them, unlike on
    # Gallai hosts, parts of the first components can need merging
    for _ in range(150):
        n, k = rng.randint(3, 40), rng.randint(2, 5)
        colors = list(random_gallai(n, k, rng.randrange(2 ** 32)).colors)
        for _ in range(rng.randint(1, 3)):
            colors[rng.randrange(len(colors))] = rng.randint(1, k)
        hosts.append(EdgeColoring(n, k, colors))
    for _ in range(30):
        n, k = rng.randint(2, 40), rng.randint(1, 6)
        hosts.append(random_gallai(n, k, rng.randrange(2 ** 32)))
    outcomes = set()
    for c in hosts:
        p = gallai_partition(c)
        got = None if p is None else (p.parts, p.between_colors, p.pair_color)
        assert got == brute_gallai_partition(c)
        outcomes.add(p is None)
    assert outcomes == {True, False}


def merge_chain(p, h):
    """Parts {2t, 2t+1}, joined inside in color 3. Part t sees part t+1
    in color 1 and every later part in color 2, except that part h-1
    sees part h in color 2; the last two parts see each other in both
    colors, split by vertex parity."""

    def color(u, v):
        s, t = u // 2, v // 2
        if s == t:
            return 3
        if s == p - 2 and t == p - 1:
            return 1 + (u + v) % 2
        return 1 if t == s + 1 and s != h - 1 else 2

    n = 2 * p
    return EdgeColoring(n, 3, [color(u, v) for u in range(n) for v in range(u + 1, n)])


def test_partition_merge_chain():
    # with between colors (1, 2) the parts start as the 12 color-3
    # pairs. Only the last two show both colors across, and each merge
    # exposes one more: part p-3 sees the merged part in color 1 and
    # color 2, then part p-4, and so on down to part h, seven merges,
    # each found only after the one before. Part h-1 sees the rest in
    # color 2 alone and stays.
    c = merge_chain(12, 4)
    p = gallai_partition(c)
    assert p.parts == ((0, 1), (2, 3), (4, 5), (6, 7), tuple(range(8, 24)))
    assert p.between_colors == (1, 2)
    assert (p.parts, p.between_colors, p.pair_color) == brute_gallai_partition(c)


def test_linking_rounds_run_only_on_non_gallai_input(monkeypatch):
    # on a Gallai coloring the first components are joined pairwise in one
    # color (module docstring), so every between set takes one component
    # pass; the merge chain, not Gallai, takes eight at (1, 2): seven
    # merges and the pass that finds none
    runs = []
    components = partition._components
    try_between_set = partition._try_between_set

    def counted(*args):
        runs[-1][1] += 1
        return components(*args)

    def per_set(c, between):
        runs.append([between, 0])
        found = try_between_set(c, between)
        runs[-1].append(found is not None)
        return found

    monkeypatch.setattr(partition, "_components", counted)
    monkeypatch.setattr(partition, "_try_between_set", per_set)
    rng = random.Random(34)
    for _ in range(400):
        n, k = rng.randint(2, 60), rng.randint(1, 7)
        assert gallai_partition(random_gallai(n, k, rng.randrange(2 ** 32))) is not None
    assert {passes for _, passes, _ in runs} == {1}
    # some two-color sets reach the linking loop with two or more parts
    assert any(len(between) == 2 and found for between, _, found in runs)
    runs.clear()
    gallai_partition(merge_chain(12, 4))
    assert runs == [[(1,), 1, False], [(1, 2), 8, True]]


def test_validate_partition_matches_brute_force_oracle():
    # the computed partition, a random cut, and the computed partition
    # with one part split into singletons (homogeneous pairs, often
    # three or more between colors)
    rng = random.Random(61)
    outcomes = set()
    for _ in range(80):
        n, k = rng.randint(3, 40), rng.randint(1, 6)
        c = random_gallai(n, k, rng.randrange(2 ** 32))
        computed = gallai_partition(c).parts
        m = rng.randint(2, n)
        label = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(label)
        cut = [[v for v in range(n) if label[v] == i] for i in range(m)]
        split = rng.randrange(len(computed))
        refined = [p for i, p in enumerate(computed) if i != split]
        refined += [[v] for v in computed[split]]
        rng.shuffle(refined)
        for parts in (computed, cut, refined):
            got = validate_partition(c, parts)
            assert got == brute_validate_partition(c, parts)
            outcomes.add(got.kind if isinstance(got, ViolationReport) else "valid")
    assert outcomes == {"valid", "non_homogeneous", "extra_between_colors"}


def test_partition_deterministic():
    c = random_gallai(18, 4, 12345)
    p1 = gallai_partition(c)
    p2 = gallai_partition(c)
    assert p1.parts == p2.parts
    assert p1.pair_color == p2.pair_color


def test_partition_json_shape():
    c = two_colored(5, seed=3)
    p = gallai_partition(c)
    data = p.to_json()
    assert set(data) == {"parts", "between_colors", "pair_colors"}
    assert sorted(v for part in data["parts"] for v in part) == list(range(5))
    for entry in data["pair_colors"]:
        assert set(entry) == {"i", "j", "color"}
