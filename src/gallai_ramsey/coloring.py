"""Edge colorings of complete graphs and the rainbow-triangle test.

A coloring assigns one of k colors (1-based) to every unordered vertex
pair of K_n. Colors live in a flat triangular array in lexicographic
pair order (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1); that
order is also the wire format used by read_coloring/write_coloring.

The rainbow test works on bit-planes. With L = k.bit_length(), plane j
of vertex v is the mask of the w whose color c(v, w) has binary digit j
set; the L planes of v are packed into one int, plane j at bits j*n and
up. Two vertices u, v then see w in different colors exactly where the
XOR of their packed ints has a bit in some plane, so each pair costs a
constant number of big-int operations, whatever k is.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union


class MissingEdgeError(ValueError):
    """Some unordered pair has no color assigned."""


class ColorOutOfRangeError(ValueError):
    """A color value falls outside the declared palette [1, k]."""


class ParseError(ValueError):
    """Malformed coloring text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class RainbowWitness:
    """Vertex triple whose three edges carry three pairwise distinct colors."""

    vertices: tuple[int, int, int]


def pair_index(n: int, u: int, v: int) -> int:
    """Rank of the pair {u, v} in lexicographic order over K_n."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def all_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All unordered pairs of [0, n) in lexicographic order."""
    for u in range(n - 1):
        for v in range(u + 1, n):
            yield u, v


class EdgeColoring:
    """A k-edge-coloring of K_n. Treat instances as immutable values.

    `colors` is the flat triangular array; `color(u, v)` is O(1) and
    symmetric in its arguments.
    """

    __slots__ = ("n", "k", "colors", "_adj")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        if k < 1:
            raise ValueError(f"need at least 1 color, got k={k}")
        colors = tuple(colors)
        expected = n * (n - 1) // 2
        if len(colors) < expected:
            raise MissingEdgeError(
                f"expected {expected} edge colors for n={n}, got {len(colors)}"
            )
        if len(colors) > expected:
            raise ValueError(
                f"expected {expected} edge colors for n={n}, got {len(colors)}"
            )
        for c in colors:
            if not 1 <= c <= k:
                raise ColorOutOfRangeError(f"color {c} outside palette [1, {k}]")
        self.n = n
        self.k = k
        self.colors = colors
        self._adj = None

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"no self-loop edge ({u}, {v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) outside [0, {self.n})")
        return self.colors[pair_index(self.n, u, v)]

    def used_colors(self) -> list[int]:
        return sorted(set(self.colors))

    def color_adjacency(self) -> list[list[int]]:
        """Per-color neighbor bitmasks, indexed adj[color][vertex].

        Slot 0 is unused. Built once and cached; cheap to share since
        the coloring never changes after construction.
        """
        if self._adj is None:
            adj = [[0] * self.n for _ in range(self.k + 1)]
            idx = 0
            cols = self.colors
            for u in range(self.n - 1):
                for v in range(u + 1, self.n):
                    c = cols[idx]
                    idx += 1
                    adj[c][u] |= 1 << v
                    adj[c][v] |= 1 << u
            self._adj = adj
        return self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.n, self.k, self.colors) == (other.n, other.k, other.colors)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.colors))

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, k={self.k})"


PairMap = Mapping[tuple[int, int], int]


def new_coloring(n: int, k: int, assignment: PairMap) -> EdgeColoring:
    """Build a validated coloring from a pair -> color mapping.

    The mapping must cover every unordered pair exactly once (either
    orientation of the pair is accepted) with colors in [1, k].
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if k < 1:
        raise ValueError(f"need at least 1 color, got k={k}")
    normalized: dict[tuple[int, int], int] = {}
    for key, c in assignment.items():
        u, v = key
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"invalid vertex pair {key} for n={n}")
        if u > v:
            u, v = v, u
        if (u, v) in normalized:
            raise ValueError(f"pair ({u}, {v}) assigned twice")
        normalized[(u, v)] = c
    colors = []
    for u, v in all_pairs(n):
        if (u, v) not in normalized:
            raise MissingEdgeError(f"pair ({u}, {v}) has no color")
        colors.append(normalized[(u, v)])
    return EdgeColoring(n, k, colors)


def is_gallai(c: EdgeColoring) -> Union[bool, RainbowWitness]:
    """True if no triangle carries three distinct colors, else the
    lexicographically least witness triple.

    A pair u < v of color a has a witness w > v when both c(u, w) and
    c(v, w) differ from a and from each other. The first two conditions
    are a mask over w; it is copied into each of the L bit-planes (one
    multiply) and met with the XOR of the packed planes of u and v, which
    has a bit in some plane of w exactly when c(u, w) != c(v, w). That is
    a constant number of big-int operations per pair; only a hit folds
    the planes back to find its least w.
    """
    if len(set(c.colors)) <= 2:
        return True
    n = c.n
    adj = c.color_adjacency()
    planes = c.k.bit_length()
    packed = [0] * n
    for a in range(1, c.k + 1):
        for j in range(planes):
            if a >> j & 1:
                shift = j * n
                for v, row in enumerate(adj[a]):
                    packed[v] |= row << shift
    rep = sum(1 << (j * n) for j in range(planes))
    full = (1 << n) - 1
    highs = [full & ~((2 << v) - 1) for v in range(n)]
    cols = c.colors
    idx = 0
    for u in range(n - 1):
        pu = packed[u]
        for v in range(u + 1, n):
            adj_a = adj[cols[idx]]
            idx += 1
            cand = highs[v] & ~(adj_a[u] | adj_a[v])
            if not cand:
                continue
            hit = (pu ^ packed[v]) & cand * rep
            if hit:
                ws = 0
                for j in range(planes):
                    ws |= hit >> (j * n)
                ws &= full
                w = (ws & -ws).bit_length() - 1
                return RainbowWitness((u, v, w))
    return True


def random_gallai(n: int, k: int, seed: int) -> EdgeColoring:
    """Random rainbow-triangle-free coloring, deterministic per seed.

    Generated top-down: split the vertices into 2..6 blocks, 2-color the
    block pairs with two palette colors, then recurse into each block
    with the full palette. Every coloring produced this way is Gallai.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if k < 1:
        raise ValueError(f"need at least 1 color, got k={k}")
    rng = random.Random(seed)
    colors = [0] * (n * (n - 1) // 2)

    def fill(verts: list[int]) -> None:
        m = len(verts)
        if m <= 1:
            return
        if k == 1:
            for i in range(m):
                for j in range(i + 1, m):
                    colors[pair_index(n, verts[i], verts[j])] = 1
            return
        p = rng.randint(2, min(m, 6))
        cuts = sorted(rng.sample(range(1, m), p - 1))
        bounds = [0] + cuts + [m]
        blocks = [verts[bounds[i]:bounds[i + 1]] for i in range(p)]
        ca, cb = rng.sample(range(1, k + 1), 2)
        for i in range(p):
            for j in range(i + 1, p):
                col = rng.choice((ca, cb))
                for x in blocks[i]:
                    for y in blocks[j]:
                        colors[pair_index(n, x, y)] = col
        for block in blocks:
            fill(block)

    fill(list(range(n)))
    return EdgeColoring(n, k, colors)


_TOKEN = re.compile(r"\S+")


def read_coloring(text: str) -> EdgeColoring:
    """Parse the text coloring format.

    Line 1 holds "n k"; the remaining lines hold the n(n-1)/2 colors in
    lexicographic pair order, whitespace-separated with any line layout.
    Lines starting with '#' (and trailing '#' comments) are ignored.
    """
    lines = text.splitlines()
    bodies = [line.split("#", 1)[0] for line in lines]
    tokens = " ".join(bodies).split()
    last_line = max(len(lines), 1)

    def error(message: str, index: int) -> ParseError:
        # a token's line and column are worked out only for the error;
        # an index past the last token points at the end of the text
        for lineno, body in enumerate(bodies, 1):
            for m in _TOKEN.finditer(body):
                if index == 0:
                    return ParseError(message, lineno, m.start() + 1)
                index -= 1
        return ParseError(message, last_line, 1)

    def take_int(index: int, what: str, minimum: int) -> int:
        if index >= len(tokens):
            raise error(f"missing {what}", index)
        try:
            value = int(tokens[index])
        except ValueError:
            raise error(f"expected integer for {what}, got {tokens[index]!r}", index)
        if value < minimum:
            raise error(f"{what} must be at least {minimum}, got {value}", index)
        return value

    n = take_int(0, "vertex count n", 2)
    k = take_int(1, "palette size k", 1)
    expected = n * (n - 1) // 2
    body = tokens[2:2 + expected]
    try:
        colors = list(map(int, body))
        ok = not colors or (min(colors) >= 1 and max(colors) <= k)
    except ValueError:
        ok = False
    if not ok:
        # report the first bad token, as a token-by-token read would
        for index, tok in enumerate(body, 2):
            try:
                value = int(tok)
            except ValueError:
                raise error(f"expected integer edge color, got {tok!r}", index)
            if not 1 <= value <= k:
                raise error(f"color {value} outside palette [1, {k}]", index)
    if len(body) < expected:
        raise error(f"expected {expected} edge colors, found {len(body)}", len(tokens))
    if len(tokens) > 2 + expected:
        raise error(f"unexpected trailing token {tokens[2 + expected]!r}", 2 + expected)
    return EdgeColoring(n, k, colors)


def write_coloring(c: EdgeColoring) -> str:
    """Serialize to the canonical text layout: one row per first vertex."""
    lines = [f"{c.n} {c.k}"]
    idx = 0
    for u in range(c.n - 1):
        row_len = c.n - 1 - u
        row = c.colors[idx:idx + row_len]
        idx += row_len
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"
