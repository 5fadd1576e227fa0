import hashlib
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from brute import brute_adjacency, brute_rainbow
from gallai_ramsey import (
    ColorOutOfRangeError,
    EdgeColoring,
    MissingEdgeError,
    ParseError,
    RainbowWitness,
    find_mono,
    gallai_partition,
    is_gallai,
    new_coloring,
    pair_index,
    random_gallai,
    read_coloring,
    write_coloring,
)
from gallai_ramsey import coloring
from gallai_ramsey.targets import path

# the host sizes and palettes of the benchmark's host-check workload
HOST_SIZES = [(20 + round(300 * i / 11), (3, 4, 6)[i % 3]) for i in range(12)]


def mono(n, k=1, color=1):
    return EdgeColoring(n, k, [color] * (n * (n - 1) // 2))


def test_pair_index_is_lexicographic():
    n = 6
    ranks = [pair_index(n, u, v) for u in range(n) for v in range(u + 1, n)]
    assert ranks == list(range(n * (n - 1) // 2))
    assert pair_index(n, 4, 2) == pair_index(n, 2, 4)


def test_new_coloring_monochromatic_triangle():
    c = new_coloring(3, 1, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    assert c.color(0, 1) == c.color(2, 1) == 1


def test_new_coloring_rainbow_triangle_is_valid_but_not_gallai():
    c = new_coloring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert c.k == 3
    assert is_gallai(c) == RainbowWitness((0, 1, 2))


def test_new_coloring_single_edge_wide_palette():
    c = new_coloring(2, 5, {(0, 1): 4})
    assert c.color(1, 0) == 4


def test_new_coloring_accepts_either_orientation():
    c = new_coloring(3, 2, {(1, 0): 2, (0, 2): 1, (2, 1): 1})
    assert c.color(0, 1) == 2


def test_new_coloring_missing_edge():
    with pytest.raises(MissingEdgeError):
        new_coloring(3, 2, {(0, 1): 1, (0, 2): 1})


def test_new_coloring_color_out_of_range():
    with pytest.raises(ColorOutOfRangeError):
        new_coloring(3, 2, {(0, 1): 1, (0, 2): 3, (1, 2): 1})


def test_new_coloring_rejects_bad_pairs():
    with pytest.raises(ValueError):
        new_coloring(3, 2, {(0, 0): 1, (0, 2): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        new_coloring(3, 2, {(0, 3): 1, (0, 2): 1, (1, 2): 1})


def test_color_lookup_is_symmetric():
    c = random_gallai(9, 3, 5)
    for u in range(9):
        for v in range(u + 1, 9):
            assert c.color(u, v) == c.color(v, u)


def test_is_gallai_monochromatic_k5():
    assert is_gallai(mono(5)) is True


def test_is_gallai_two_colors_always_true():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 10)
        colors = [rng.randint(1, 2) for _ in range(n * (n - 1) // 2)]
        assert is_gallai(EdgeColoring(n, 2, colors)) is True


def test_is_gallai_witness_is_lex_least():
    # two rainbow triangles; (0,1,3) beats (1,2,3)
    c = new_coloring(
        4,
        3,
        {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 2): 1, (1, 3): 3, (2, 3): 2},
    )
    w = is_gallai(c)
    assert w == RainbowWitness((0, 1, 3))


def _relabeled(c, rng):
    """`c` with its vertices renamed by a random permutation."""
    perm = list(range(c.n))
    rng.shuffle(perm)
    return new_coloring(
        c.n, c.k, {(perm[u], perm[v]): c.color(u, v) for u, v in combinations(range(c.n), 2)}
    )


def test_is_gallai_permutation_invariant():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(3, 9)
        k = rng.randint(1, 4)
        colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        c = EdgeColoring(n, k, colors)
        assert (is_gallai(c) is True) == (is_gallai(_relabeled(c, rng)) is True)
    # Gallai hosts whose twins no longer sit at consecutive vertices
    for trial in range(20):
        c = random_gallai(rng.randint(10, 40), rng.randint(3, 7), rng.randrange(2 ** 32))
        assert is_gallai(c) is True
        assert is_gallai(_relabeled(c, rng)) is True


def _near_twin(seed):
    """A random Gallai host in which a vertex y takes an earlier vertex
    x's colors, after which two of y's edges swap colors: y keeps x's
    per-color degrees, but it is not x's twin unless the two colors are
    equal."""
    rng = random.Random(seed)
    n, k = rng.randint(5, 9), rng.randint(4, 6)
    c = random_gallai(n, k, rng.randrange(2 ** 32))
    x, y = sorted(rng.sample(range(n), 2))
    colors = list(c.colors)
    others = [w for w in range(n) if w not in (x, y)]
    for w in others:
        colors[pair_index(n, y, w)] = c.color(x, w)
    i, j = (pair_index(n, y, w) for w in rng.sample(others, 2))
    colors[i], colors[j] = colors[j], colors[i]
    return EdgeColoring(n, k, colors)


def test_is_gallai_matches_brute_force_oracle():
    # k up to 10 gives rows of up to ten blocks; palettes drawn from part
    # of [1, k] leave colors unused
    rng = random.Random(59)
    small = []
    for _ in range(1500):
        n, k = rng.randint(2, 12), rng.randint(1, 10)
        palette = rng.sample(range(1, k + 1), rng.randint(1, k))
        small.append(EdgeColoring(n, k, [rng.choice(palette) for _ in range(n * (n - 1) // 2)]))
    # one recolored edge of a larger Gallai host: non-Gallai inputs at scale
    large = []
    for _ in range(40):
        n, k = rng.randint(20, 80), rng.randint(3, 10)
        colors = list(random_gallai(n, k, rng.randrange(2 ** 32)).colors)
        colors[rng.randrange(len(colors))] = rng.randint(1, k)
        large.append(EdgeColoring(n, k, colors))
    # near twins: seeds 24, 50, 64, 155 and 191 give a wrong answer when
    # the twin test sees only the first two color blocks
    near = [_near_twin(seed) for seed in range(200)]
    # twins scattered by a relabeling, then one recolored edge
    scattered = []
    for _ in range(40):
        n, k = rng.randint(10, 60), rng.randint(3, 8)
        colors = list(_relabeled(random_gallai(n, k, rng.randrange(2 ** 32)), rng).colors)
        colors[rng.randrange(len(colors))] = rng.randint(1, k)
        scattered.append(EdgeColoring(n, k, colors))
    for hosts in (small, large, near, scattered):
        verdicts = set()
        for c in hosts:
            got = is_gallai(c)
            assert got == brute_rainbow(c), (c.n, c.k, c.colors)
            verdicts.add(got is True)
        assert verdicts == {True, False}


def _with_rainbow_twins(base, twins, inner):
    """`base` with its last vertex split into three twins at the sorted
    positions `twins` of K_{n+2}, the others keeping their order. The
    twins' edges take `inner` in pair order. Two twins see every other
    vertex in one color, so on a Gallai base the twins' triangle is the
    only rainbow one when `inner` holds three distinct colors."""
    n = base.n + 2
    image = dict(zip([x for x in range(n) if x not in twins], range(base.n - 1)))
    image.update((t, base.n - 1) for t in twins)
    inside = dict(zip(combinations(twins, 2), inner))
    colors = [
        inside[(x, y)] if image[x] == image[y] else base.color(image[x], image[y])
        for x, y in combinations(range(n), 2)
    ]
    return EdgeColoring(n, max(base.k, *inner), colors)


def test_is_gallai_rainbow_only_at_last_least_vertex():
    # the only rainbow triangle is the last one, n-3 < n-2 < n-1
    rng = random.Random(67)
    for n, k in [(60, 3), (61, 4), (64, 6), (70, 9)]:
        base = random_gallai(n - 2, k, rng.randrange(2 ** 32))
        c = _with_rainbow_twins(base, (n - 3, n - 2, n - 1), rng.sample(range(1, k + 1), 3))
        assert is_gallai(c) == brute_rainbow(c) == RainbowWitness((n - 3, n - 2, n - 1))
        assert is_gallai(random_gallai(n, k, rng.randrange(2 ** 32))) is True


@pytest.mark.parametrize("labels", ["last two", "first and last"])
def test_is_gallai_labels_at_least_vertex(labels):
    # the two colors at the least vertex of the only rainbow triangle are
    # the last two used colors, or the first and the last, either way round
    rng = random.Random(71)
    for trial in range(24):
        n, k = rng.randint(6, 40), rng.randint(4, 9)
        pair = (k - 1, k) if labels == "last two" else (1, k)
        third = rng.choice([a for a in range(1, k + 1) if a not in pair])
        a, b = pair if trial % 2 else pair[::-1]
        if trial % 3:
            twins = tuple(sorted(rng.sample(range(n), 3)))
        else:
            # the witness's middle vertex right after its least one
            start = rng.randrange(n - 2)
            twins = (start, start + 1, rng.randrange(start + 2, n))
        c = _with_rainbow_twins(random_gallai(n - 2, k, rng.randrange(2 ** 32)), twins, (a, b, third))
        used = c.used_colors()
        assert (used[-2:] if labels == "last two" else [used[0], used[-1]]) == list(pair)
        assert is_gallai(c) == brute_rainbow(c) == RainbowWitness(twins)


def test_is_gallai_many_colors_numbered_apart():
    # nine or more used colors, none consecutive: blocks follow the rank
    # of a used color, not its value
    rng = random.Random(73)
    verdicts = set()
    for trial in range(60):
        palette = sorted(rng.sample(range(1, 300, 3), rng.randint(9, 14)))
        n = rng.randint(10, 30)
        if trial % 3 == 0:
            colors = [rng.choice(palette) for _ in range(n * (n - 1) // 2)]
        else:
            host = random_gallai(n, len(palette), rng.randrange(2 ** 32))
            colors = [palette[a - 1] for a in host.colors]
            if trial % 3 == 1:
                colors[rng.randrange(len(colors))] = rng.choice(palette)
        c = EdgeColoring(n, 300, colors)
        if len(c.used_colors()) < 9:
            continue
        got = is_gallai(c)
        assert got == brute_rainbow(c), (n, colors)
        verdicts.add(got is True)
    assert verdicts == {True, False}


def test_random_gallai_is_gallai():
    for n, k, seed in [(2, 1, 0), (7, 3, 1), (40, 4, 7), (25, 6, 99), (13, 2, 4)]:
        assert is_gallai(random_gallai(n, k, seed)) is True


def test_random_gallai_deterministic_per_seed():
    a = random_gallai(15, 4, 42)
    b = random_gallai(15, 4, 42)
    assert a == b
    variants = {random_gallai(15, 4, s).colors for s in range(6)}
    assert len(variants) > 1


@pytest.mark.parametrize(
    "n, k, seed, digest",
    [
        (320, 6, 1, "58090f3e8dabfa2112cb6147b661284cfd4d9cec334a8cb8bcaa2aae767ba429"),
        (102, 3, 1741422554, "44d1fb1db9d97edadbd081d42017a56ea18cbf59f54f28d07fa2219a0488e3f7"),
        (129, 4, 1954268780, "79d0dda9dfc6df4828200d14353f0c456860956f2ad977073bf0dcc4f82ebcf8"),
        (59, 3, 3391062619, "682a2dd486f84ff6587d26b70ef3e039c0e77c94ee5bceccc5f10a9f9e9b14e1"),
        (8, 1, 3, "8a81c695a060f7cc1a396634355b4b34397deb726c8679d040baf7430ba4840a"),
        (2, 5, 0, "ae8b97402c013c555df3147097ef8921c747f1198d18f4e9475a24c73ea6b989"),
    ],
)
def test_random_gallai_output_is_pinned(n, k, seed, digest):
    # the hosts the benchmark and CI search are fixed by their seeds; a
    # faster generator must draw the same random numbers in the same order
    text = write_coloring(random_gallai(n, k, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_gallai_single_color_is_monochromatic():
    c = random_gallai(8, 1, 3)
    assert set(c.colors) == {1}


def test_random_gallai_two_vertices():
    c = random_gallai(2, 5, 0)
    assert c.n == 2 and len(c.colors) == 1


def test_read_coloring_example():
    c = read_coloring("3 2\n1 1 2")
    assert c.n == 3 and c.k == 2
    assert c.color(0, 1) == 1 and c.color(0, 2) == 1 and c.color(1, 2) == 2


def test_read_coloring_comments_and_layout():
    text = "# header\n3 2\n1 # inline\n1\n2\n"
    c = read_coloring(text)
    assert c.color(1, 2) == 2


def test_read_coloring_missing_edge():
    with pytest.raises(ParseError):
        read_coloring("3 2\n1 1")


def test_read_coloring_error_positions():
    with pytest.raises(ParseError) as err:
        read_coloring("3 2\n1 x 2")
    assert err.value.line == 2 and err.value.column == 3
    with pytest.raises(ParseError) as err:
        read_coloring("3 2\n1 1 9")
    assert err.value.line == 2 and err.value.column == 5
    with pytest.raises(ParseError) as err:
        read_coloring("3 2\n1 1 2 2")
    assert err.value.line == 2 and err.value.column == 7


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("# c\n3 2\n1 1\n  # x\n 1 x\n", "unexpected trailing token 'x'", 5, 4),
        ("3 2\n1 # 5 x\n1\n", "expected 3 edge colors, found 2", 3, 1),
        ("", "missing vertex count n", 1, 1),
        ("1 2", "vertex count n must be at least 2, got 1", 1, 1),
        ("3 0 # k", "palette size k must be at least 1, got 0", 1, 3),
        ("3 two\n1 1 1", "expected integer for palette size k, got 'two'", 1, 3),
        ("3 2\n9 x 1", "color 9 outside palette [1, 2]", 2, 1),
        ("3 2\n1\t1\n\n  x2 1", "expected integer edge color, got 'x2'", 4, 3),
        # a non-canonical token misses the token table; the read goes on
        # to the first bad token after it
        ("3 2\n01 1 x", "expected integer edge color, got 'x'", 2, 6),
        ("3 2\n+1 7 1", "color 7 outside palette [1, 2]", 2, 4),
    ],
)
def test_read_coloring_error_messages_across_lines(text, message, line, column):
    # positions count comment lines and blank lines; the first bad token
    # in reading order is the one reported
    with pytest.raises(ParseError) as err:
        read_coloring(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_round_trip_coloring_to_text():
    for seed in range(5):
        c = random_gallai(10, 3, seed)
        assert read_coloring(write_coloring(c)) == c


def test_round_trip_text_to_coloring():
    text = write_coloring(random_gallai(7, 2, 1))
    assert write_coloring(read_coloring(text)) == text


def test_edge_coloring_validation():
    with pytest.raises(MissingEdgeError):
        EdgeColoring(3, 2, [1, 1])
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 1, 2, 2])
    with pytest.raises(ColorOutOfRangeError):
        EdgeColoring(3, 2, [1, 1, 5])
    with pytest.raises(ValueError):
        EdgeColoring(1, 2, [])


def test_edge_coloring_holds_one_byte_per_pair():
    # the input's type does not matter: colors below 256 are bytes
    values = [1, 3, 255, 2, 3, 1]
    colorings = [EdgeColoring(4, 255, make(values)) for make in (list, tuple, bytes, bytearray)]
    for c in colorings:
        assert type(c.colors) is bytes
        assert list(c.colors) == values and c.color(3, 0) == 255
        assert c.used_colors() == [1, 2, 3, 255]
        assert c == colorings[0] and hash(c) == hash(colorings[0])


@pytest.mark.parametrize("big", [256, 10**9])
def test_edge_coloring_keeps_a_tuple_past_a_byte(big):
    c = EdgeColoring(3, big, [1, big, 2])
    assert c.colors == (1, big, 2)
    assert c.used_colors() == [1, 2, big]
    assert c == EdgeColoring(3, big, (1, big, 2))


@pytest.mark.parametrize("make", [list, bytes])
@pytest.mark.parametrize("bad", [0, 3])
def test_edge_coloring_names_the_first_bad_color(make, bad):
    # a 0 and a k + 1 both fall outside [1, k]; the first one is named
    other = 3 if bad == 0 else 0
    with pytest.raises(ColorOutOfRangeError) as err:
        EdgeColoring(4, 2, make([1, 2, bad, 1, other, 2]))
    assert str(err.value) == f"color {bad} outside palette [1, 2]"


@pytest.mark.parametrize("k, kind", [(9, bytes), (99, bytes), (1000, tuple)])
def test_round_trip_one_two_and_many_digit_palettes(k, kind):
    # one-digit colors take the byte reader, two digits the token reader
    # into bytes, and colors past a byte the token reader into a tuple
    c = random_gallai(60, k, 5)
    assert type(c.colors) is kind
    back = read_coloring(write_coloring(c))
    assert back == c and type(back.colors) is kind


def _random_coloring(n, k, rng, palette=None):
    """A coloring of K_n drawing each edge from `palette` (default all
    of [1, k])."""
    palette = palette or range(1, k + 1)
    return EdgeColoring(n, k, [rng.choice(palette) for _ in range(n * (n - 1) // 2)])


def _builds(c):
    """The rows of both builds, run directly on c."""
    return [
        build(c.n, c.colors, c.used_colors())
        for build in (coloring._rows_from_pairs, coloring._rows_from_bytes)
    ]


def test_color_adjacency_matches_pair_oracle():
    rng = random.Random(23)
    hosts = []
    for n in range(2, 41):
        k = rng.randint(1, 9)
        # a palette drawn from part of [1, k] leaves colors unused
        hosts.append(_random_coloring(n, k, rng, rng.sample(range(1, k + 1), rng.randint(1, k))))
    for n in (100, 213, 320):
        hosts.append(random_gallai(n, rng.randint(2, 7), rng.randrange(2 ** 32)))
    # 205 used colors, up to 1000: byte codes are ranks, not colors
    hosts.append(random_gallai(320, 1000, 1))
    # colors above 255 on a host the byte build takes
    hosts.append(_random_coloring(60, 1000, rng, (300, 999)))
    # the largest color that is its own byte code, and the least that is not
    hosts.append(_random_coloring(60, 256, rng, (1, 128, 255)))
    hosts.append(_random_coloring(60, 256, rng, (2, 255, 256)))
    for c in hosts:
        want = brute_adjacency(c)
        assert c.color_adjacency() == want, (c.n, c.k)
        for got in _builds(c):
            assert got == want, (c.n, c.k)
    # more than 255 used colors: beyond the byte codes, so only the loop
    # over pairs can take it
    c = EdgeColoring(30, 1000, rng.sample(range(1, 1001), 435))
    assert len(c.used_colors()) == 435
    assert c.color_adjacency() == brute_adjacency(c)


@pytest.mark.parametrize(
    "n, used, build",
    [
        (23, 2, "pairs"),
        (24, 2, "bytes"),
        (35, 3, "pairs"),
        (36, 3, "bytes"),
        (288, 24, "bytes"),
        (300, 25, "pairs"),
    ],
)
def test_color_adjacency_build_choice(monkeypatch, n, used, build):
    # the byte build needs at least BYTE_BUILD_RATIO vertices per used
    # color and at most BYTE_BUILD_MAX_COLORS of them
    ran = []
    for name in ("_rows_from_pairs", "_rows_from_bytes"):
        real = getattr(coloring, name)

        def spy(*args, real=real, name=name):
            ran.append(name)
            return real(*args)

        monkeypatch.setattr(coloring, name, spy)
    rng = random.Random(n)
    colors = list(range(1, used + 1))
    colors += [rng.randint(1, used) for _ in range(n * (n - 1) // 2 - used)]
    rng.shuffle(colors)
    c = EdgeColoring(n, used + 2, colors)
    assert c.color_adjacency() == brute_adjacency(c)
    assert ran == [f"_rows_from_{build}"]


def test_color_adjacency_holds_used_colors_only():
    c = EdgeColoring(3, 10**6, [2, 5, 2])
    assert c.color_adjacency() == {2: [0b010, 0b101, 0b010], 5: [0b100, 0, 0b001]}


def test_cost_follows_used_colors_not_palette():
    # a rainbow K_3 declaring a million colors: the rainbow test, the
    # partition search and the class search loop over the 3 used colors
    c = read_coloring("3 1000000\n1 2 3")
    for check, want in [
        (lambda: is_gallai(c), RainbowWitness((0, 1, 2))),
        (lambda: gallai_partition(c), None),
        (lambda: find_mono(c, 3, path(2)).vertices, (1, 2)),
    ]:
        start = time.perf_counter()
        assert check() == want
        assert time.perf_counter() - start < 1.0


def test_memory_follows_used_colors_not_palette():
    # one used color of a million declared: rows for the declared colors
    # would take 8 MB, and at k = 10**9 about 8 GB
    for check in [
        lambda c: gallai_partition(c).parts == ((0,), (1,), (2,)),
        lambda c: find_mono(c, 10**6, path(2)) is None,
    ]:
        c = read_coloring("3 1000000\n1 1 1")
        tracemalloc.start()
        try:
            assert check(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


def _write_per_row(c):
    """write_coloring as one str() per color, the reference layout."""
    lines = [f"{c.n} {c.k}"]
    idx = 0
    for u in range(c.n - 1):
        lines.append(" ".join(map(str, c.colors[idx:idx + c.n - 1 - u])))
        idx += c.n - 1 - u
    return "\n".join(lines) + "\n"


def test_write_coloring_matches_per_row_reference():
    rng = random.Random(31)
    hosts = [random_gallai(n, k, rng.randrange(2 ** 32)) for n, k in HOST_SIZES]
    hosts += [random_gallai(40, 1000, 3), EdgeColoring(2, 7, [7])]
    # one-digit colors take the byte path, any color of two digits the
    # token path
    for n in range(2, 41):
        hosts.append(_random_coloring(n, n % 12 + 1, rng))
        for used in ((9,), (9, 10), (1, 10), (3, 9)):
            hosts.append(_random_coloring(n, 12, rng, used))
    for c in hosts:
        text = write_coloring(c)
        assert text == _write_per_row(c)
        assert read_coloring(text) == c


def test_read_coloring_noncanonical_tokens():
    # tokens that are not a palette color's canonical spelling go
    # through int(), as do colors above the number of edges
    assert read_coloring("3 2\n01\t+2\t1\n") == EdgeColoring(3, 2, [1, 2, 1])
    assert read_coloring("3 2\n1 1 002") == EdgeColoring(3, 2, [1, 1, 2])
    assert read_coloring("3 10\n7 1 2") == EdgeColoring(3, 10, [7, 1, 2])
    with pytest.raises(ParseError) as err:
        read_coloring("3 2\n1 +3 1")
    assert str(err.value) == "line 2, column 3: color 3 outside palette [1, 2]"


def test_text_format_wide_palette_is_fast():
    # the token tables are sized by the colors, not by k
    text = "3 1000000000\n1 2 1000000000\n"
    start = time.perf_counter()
    c = read_coloring(text)
    assert c.colors == (1, 2, 10**9)
    assert write_coloring(c) == "3 1000000000\n1 2\n1000000000\n"
    assert time.perf_counter() - start < 1.0


def _read_both(monkeypatch, text):
    """read_coloring's coloring or error, and the token reader's."""

    def outcome():
        try:
            return read_coloring(text)
        except ParseError as err:
            return type(err), str(err), err.line, err.column

    fast = outcome()
    with monkeypatch.context() as m:
        m.setattr(coloring, "_read_digits", lambda text: None)
        return fast, outcome()


def _perturbed(rng):
    """A random_gallai text with one color token set to 0, to k + 1 or
    to two digits, deleted or duplicated."""
    n, k = rng.randint(2, 12), rng.randint(1, 10)
    lines = write_coloring(random_gallai(n, k, rng.randrange(2 ** 32))).split("\n")
    row = rng.randrange(1, n)
    tokens = lines[row].split(" ")
    i = rng.randrange(len(tokens))
    op = rng.randrange(5)
    if op < 3:
        tokens[i] = ("0", str(k + 1), str(rng.randint(10, 99)))[op]
    elif op == 3:
        del tokens[i]
    else:
        tokens.insert(i, tokens[i])
    lines[row] = " ".join(tokens)
    return "\n".join(lines)


READ_CORPUS = [
    # layout
    "3 2\r\n1 2\r\n1\r\n",
    "3\t2\n1\t2\t1",
    "3 2\x0b1 2\x0c1\n",
    "3 2\n1\x1c2\x1d1\x1e\x1f",
    "3 2\n1\xa02 1",
    "3\xa02\n1 2 1",
    "3 2\n1\x00 2 1",
    "3 2\n1 \ud800 1",
    "3 2\n1 2 1\x00",
    # header
    "+3 2\n1 2 1",
    "02 2\n1 2 1",
    "3 02\n1 2 1",
    "\u0663 2\n1 2 1",
    "3 \u00b2\n1 2 1",
    "3\n2\n1 2 1",
    "3 2 1 2 1",
    "1" * 5000 + " 2\n1",
    "3 " + "9" * 5000 + "\n1 2 1",
    "",
    "3",
    "3 2\n",
    "1 2\n1",
    "3 0\n1 1 1",
    # body
    "3 2\n1 \u0661 1",
    "3 2\n1 2 1 # c",
    "# c\n3 2\n1 2 1",
    "3 2\n1 0 1",
    "3 2\n1 3 1",
    "3 2\n1 2",
    "3 2\n1 2 1 1",
    "3 2\n12 1",
    "3 9\n9 1 5\n",
    "3 10\n9 1 5\n",
    "3 10\n10 1 5\n",
]


def test_read_coloring_byte_path_matches_token_reader(monkeypatch):
    # the byte path gives the token reader's coloring on every text it
    # takes, and hands every other text over, so each error, with its
    # line and column, stays the token reader's
    rng = random.Random(37)
    texts = READ_CORPUS + [_perturbed(rng) for _ in range(1000)]
    for text in texts:
        fast, slow = _read_both(monkeypatch, text)
        assert fast == slow, text[:80]
    # canonical texts of up to nine colors take the byte path
    for k in range(1, 10):
        text = write_coloring(random_gallai(30, k, k))
        assert coloring._read_digits(text) == read_coloring(text)
    assert coloring._read_digits("3 10\n9 1 5\n") == EdgeColoring(3, 10, [9, 1, 5])
    assert coloring._read_digits("3 10\n10 1 5\n") is None
