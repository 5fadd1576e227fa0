import random

import pytest

from brute import brute_rainbow
from gallai_ramsey import (
    ColorOutOfRangeError,
    EdgeColoring,
    MissingEdgeError,
    ParseError,
    RainbowWitness,
    is_gallai,
    new_coloring,
    pair_index,
    random_gallai,
    read_coloring,
    write_coloring,
)


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


def test_is_gallai_permutation_invariant():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(3, 9)
        k = rng.randint(1, 4)
        colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        c = EdgeColoring(n, k, colors)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = new_coloring(
            n, k, {(perm[u], perm[v]): c.color(u, v) for u in range(n) for v in range(u + 1, n)}
        )
        assert (is_gallai(c) is True) == (is_gallai(relabeled) is True)


def test_is_gallai_matches_brute_force_oracle():
    # k up to 10 packs up to four bit-planes; palettes drawn from part of
    # [1, k] leave colors unused
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
    for hosts in (small, large):
        verdicts = set()
        for c in hosts:
            got = is_gallai(c)
            assert got == brute_rainbow(c), (c.n, c.k, c.colors)
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
