"""Edge colorings of complete graphs and the rainbow-triangle test.

A coloring assigns one of k colors (1-based) to every unordered vertex
pair of K_n. Colors live in a flat triangular array in lexicographic
pair order (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1); that
order is also the wire format used by read_coloring/write_coloring.
The array is a bytes object, one byte per pair, when every color is
below 256, and a tuple only when some color is 256 or more. The used
colors of a bytes array come from two translates over the 256 byte
values, not from a set of its colors.

The rainbow test takes one least vertex at a time, at one big-int OR
per vertex pair, (used colors) * n bits wide (see is_gallai). It skips
every vertex with a lower twin, a vertex that sees every other vertex
in the same color; a Gallai coloring is a substitution of smaller ones
into a 2-colored graph, so it is full of twins.

The per-edge work of the core runs at C speed where it can:
- the class adjacency of a host with many vertices per used color
  comes from one n x n byte matrix of color codes, turned into each
  color's rows by one translate and one int(row, 2) per vertex (see
  _rows_from_bytes); colors below 256 are their own codes, so the
  coloring's bytes are the flat array. Small hosts and hosts with many
  colors keep the loop over pairs, which is faster there;
- read_coloring reads an ASCII text without comments whose n and k
  are digits and whose colors are palette colors of one digit each
  (so every text write_coloring makes for a palette of at most nine
  colors) by three translates of the whole body (see _read_digits).
  Any other text goes to the token reader, which parses and
  range-checks a palette color's canonical token by one dict lookup
  and reports every error. The one-digit reader's byte string becomes
  the coloring's array without a copy;
- write_coloring puts one-digit colors into every other byte of one
  buffer of blanks, by one extended slice; other colors are named once
  each and their rows joined from slices of one token list;
- random_gallai writes each block pair with one slice assignment per
  vertex of the first block, since every block is a vertex range, into
  a bytearray when every palette color fits in a byte.
Everything sized by the palette follows the colors used, not k: the
class adjacency holds rows for the used colors only.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union


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


# every byte value once, in order
_BYTE_VALUES = bytes(range(256))


class EdgeColoring:
    """A k-edge-coloring of K_n. Treat instances as immutable values.

    `colors` is the flat triangular array: a bytes object, one byte per
    pair, when every color is below 256, and a tuple only when some
    color is 256 or more, which a byte cannot hold. Either way indexing
    and iterating it gives ints, and equality and hash go by content.
    `color(u, v)` is O(1) and symmetric in its arguments.
    """

    __slots__ = ("n", "k", "colors", "_used", "_adj")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        if k < 1:
            raise ValueError(f"need at least 1 color, got k={k}")
        if not isinstance(colors, bytes):
            try:
                colors = bytes(colors)
            except ValueError:  # a color outside range(256)
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
        # the range check reads the ends of the used colors; only a
        # failure scans for the first bad color, so the message names it.
        # The byte values absent from the colors, deleted from all 256,
        # leave the used ones in order.
        if isinstance(colors, bytes):
            used = list(_BYTE_VALUES.translate(None, _BYTE_VALUES.translate(None, colors)))
        else:
            used = sorted(set(colors))
        if not (1 <= used[0] and used[-1] <= k):
            for c in colors:
                if not 1 <= c <= k:
                    raise ColorOutOfRangeError(f"color {c} outside palette [1, {k}]")
        self.n = n
        self.k = k
        self.colors = colors
        self._used = used
        self._adj = None

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"no self-loop edge ({u}, {v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) outside [0, {self.n})")
        return self.colors[pair_index(self.n, u, v)]

    def used_colors(self) -> list[int]:
        return list(self._used)

    def color_adjacency(self) -> dict[int, list[int]]:
        """Per-color neighbor bitmasks, adj[color][vertex], keyed by the
        used colors only, so the build costs nothing per unused color.
        Built once and cached; cheap to share since the coloring never
        changes after construction. Callers must not mutate the rows.

        A host with at least BYTE_BUILD_RATIO vertices per used color
        and at most BYTE_BUILD_MAX_COLORS used colors gets its rows from
        a byte matrix (_rows_from_bytes), any other from the loop over
        pairs (_rows_from_pairs); both give the same rows.
        """
        if self._adj is None:
            n = self.n
            used = self._used
            if len(used) <= min(n // BYTE_BUILD_RATIO, BYTE_BUILD_MAX_COLORS):
                self._adj = _rows_from_bytes(n, self.colors, used)
            else:
                self._adj = _rows_from_pairs(n, self.colors, used)
        return self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.n, self.k, self.colors) == (other.n, other.k, other.colors)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.colors))

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, k={self.k})"


# The byte build costs a few slice copies per vertex plus, per used
# color, a translate of n*n bytes and one int() of n digits per vertex;
# the loop costs one Python step per pair. On uniform random colorings
# (2-core VM, Python 3.11) the byte build won from 8 to 14 vertices per
# used color on (n = 28 with 2 colors, 30 with 3, 48 with 6), and at no
# n once some 30 colors are used, as its per-color cost grows like n*n
# too (at n = 320: 0.69 of the loop's time with 20 colors, 0.82 with
# 26, 1.2 with 40). The two limits below sit inside those bounds.
BYTE_BUILD_RATIO = 12
BYTE_BUILD_MAX_COLORS = 24


def _rows_from_pairs(n: int, colors: Sequence[int], used: Sequence[int]) -> dict[int, list[int]]:
    """The rows of each used color, one pair at a time."""
    adj = {a: [0] * n for a in used}
    idx = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            row = adj[colors[idx]]
            idx += 1
            row[u] |= 1 << v
            row[v] |= 1 << u
    return adj


def _rows_from_bytes(n: int, colors: Sequence[int], used: Sequence[int]) -> dict[int, list[int]]:
    """The rows of each used color, from one byte matrix.

    A color below 256 is its own byte code, so the coloring's bytes are
    the flat array; past that, the i-th of the used colors (at most 255
    of them) has code i. Cell (u, v) of an n x n bytearray holds the
    code of c(u, v) and the diagonal holds 0: the slice of row u in the
    flat array goes into row u right of the diagonal and, by one step-n
    extended slice, into column u below it. Reversed, the matrix holds
    vertex v's row at row n-1-v with vertex w at column n-1-w, so once
    a translate maps one code to "1" and every other byte to "0",
    int(row, 2) of that row has bit w set exactly where c(v, w) is that
    color.
    """
    if used[-1] < 256:
        codes = used
        flat = colors
    else:
        codes = range(1, len(used) + 1)
        flat = bytes(map(dict(zip(used, codes)).__getitem__, colors))
    size = n * n
    matrix = bytearray(size)
    idx = 0
    for u in range(n - 1):
        seg = flat[idx:idx + n - 1 - u]
        idx += n - 1 - u
        matrix[u * n + u + 1:u * n + n] = seg
        matrix[u * n + n + u::n] = seg
    matrix.reverse()
    table = bytearray(b"0" * 256)
    adj = {}
    for a, code in zip(used, codes):
        table[code] = ord("1")
        bits = matrix.translate(table)
        table[code] = ord("0")
        rows = [int(bits[i:i + n], 2) for i in range(0, size, n)]
        rows.reverse()
        adj[a] = rows
    return adj


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

    packed[v] holds v's class rows side by side, block i for the i-th
    used color. For a least vertex u and a color r at u, the OR of
    packed[v] over the v above u with c(u, v) = r has a bit at w in
    block i when some such v has c(v, w) equal to the i-th color; u, v,
    w is rainbow when that color is neither r nor c(u, w). Each color
    at u leaves `left`, the w still to pair with u, before its test, so
    a triangle is tested at the first of its two colors at u.

    Twins u < v see every other vertex in the same color, so they have
    equal per-color degrees; v is compared only with the unmarked
    vertices of equal degrees, and marked when
    (packed[u] ^ packed[v]) & ~(repk << u | repk << v) == 0. A marked
    vertex is never a least vertex, and it drops out of its class's OR
    only after the class has left `left`. This is exact. Let t be the
    lowest twin of a marked v: a rainbow triangle with least vertex v
    maps to one with least vertex t, scanned earlier, and a rainbow
    u, v, w maps to u, t, w, whose least vertex is t, scanned earlier,
    or u, with t still in the class. So the first least vertex with a
    rainbow triangle is scanned, and its test hits as without the marks.
    """
    used = c._used
    if len(used) <= 2:
        return True
    n = c.n
    rows = list(map(c.color_adjacency().__getitem__, used))
    packed = [0] * n
    for i, row in enumerate(rows):
        for v in range(n):
            packed[v] |= row[v] << i * n
    full = (1 << n) - 1
    repk = sum(1 << i * n for i in range(len(used)))
    # mark each vertex that has a lower twin
    skip = 0
    groups = {}
    for v, degrees in enumerate(zip(*(map(int.bit_count, row) for row in rows))):
        group = groups.setdefault(degrees, [])
        for u in group:
            if not (packed[u] ^ packed[v]) & ~(repk << u | repk << v):
                skip |= 1 << v
                break
        else:
            group.append(v)
    keep = ~skip
    for u in range(n - 2):
        if skip >> u & 1:
            continue
        left = above = full & -(2 << u)
        z = above * repk & ~packed[u]
        for i, row in enumerate(rows):
            sel = row[u] & above
            if not sel:
                continue
            left &= ~sel
            if not left:
                break
            sel &= keep
            un = 0
            while sel:
                low = sel & -sel
                un |= packed[low.bit_length() - 1]
                sel ^= low
            if un & z & left * repk & ~(full << i * n):
                return _least_witness(c, u, packed, repk)
    return True


def _least_witness(c: EdgeColoring, u: int, packed: list[int], repk: int) -> RainbowWitness:
    """The least v, then w, of a rainbow triangle u < v < w that the
    caller found; packed[v] & ~packed[u] marks c(v, w) != c(u, w)."""
    n = c.n
    full = (1 << n) - 1
    adj = c.color_adjacency()
    idx = pair_index(n, u, u + 1)
    for v in range(u + 1, n):
        row = adj[c.colors[idx]]
        idx += 1
        # the w above v whose edges to u and v avoid c(u, v)
        hit = packed[v] & ~packed[u] & (full & -(2 << v) & ~(row[u] | row[v])) * repk
        if hit:
            ws = 0
            while hit:
                ws |= hit & full
                hit >>= n
            return RainbowWitness((u, v, (ws & -ws).bit_length() - 1))
    raise AssertionError(f"no rainbow triangle has least vertex {u}")


def random_gallai(n: int, k: int, seed: int) -> EdgeColoring:
    """Random rainbow-triangle-free coloring, deterministic per seed.

    Generated top-down: split the vertices into 2..6 blocks of
    consecutive vertices, 2-color the block pairs with two palette
    colors, then recurse into each block with the full palette. Every
    coloring produced this way is Gallai.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if k < 1:
        raise ValueError(f"need at least 1 color, got k={k}")
    if k == 1:
        return EdgeColoring(n, k, [1] * (n * (n - 1) // 2))
    rng = random.Random(seed)
    # a bytearray when a byte holds every color: its final copy into
    # the coloring's bytes is one memcpy, not one step per pair
    colors = bytearray(n * (n - 1) // 2) if k < 256 else [0] * (n * (n - 1) // 2)

    def fill(lo: int, hi: int) -> None:
        m = hi - lo
        if m <= 1:
            return
        p = rng.randint(2, min(m, 6))
        cuts = sorted(rng.sample(range(1, m), p - 1))
        bounds = [lo] + [lo + cut for cut in cuts] + [hi]
        ca, cb = rng.sample(range(1, k + 1), 2)
        for i in range(p):
            for j in range(i + 1, p):
                # the pairs from x to block j are consecutive in pair order
                y = bounds[j]
                row = [rng.choice((ca, cb))] * (bounds[j + 1] - y)
                for x in range(bounds[i], bounds[i + 1]):
                    start = pair_index(n, x, y)
                    colors[start:start + len(row)] = row
        for i in range(p):
            fill(bounds[i], bounds[i + 1])

    fill(0, n)
    return EdgeColoring(n, k, colors)


_TOKEN = re.compile(r"\S+")
# the ASCII bytes at which str.split() splits
_BLANKS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_NONZERO = b"123456789"
_SHAPE = bytes.maketrans(_NONZERO, b"d" * 9)
_FROM_DIGIT = bytes.maketrans(_NONZERO, bytes(range(1, 10)))
_TO_DIGIT = bytes.maketrans(bytes(range(1, 10)), _NONZERO)


def read_coloring(text: str) -> EdgeColoring:
    """Parse the text coloring format.

    Line 1 holds "n k"; the remaining lines hold the n(n-1)/2 colors in
    lexicographic pair order, whitespace-separated with any line layout.
    Lines starting with '#' (and trailing '#' comments) are ignored.
    """
    return _read_digits(text) or _read_tokens(text)


def _read_digits(text: str) -> Optional[EdgeColoring]:
    """The coloring of an ASCII text whose n and k are digits and whose
    colors are palette colors of one digit each, by a few bytes
    operations over the whole body; None for any other text (a '#'
    comment among them), which _read_tokens reads and reports on."""
    head = text.split(None, 2)
    if len(head) < 3 or not (head[0] + head[1]).isdigit() or not text.isascii():
        return None
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:  # past the interpreter's limit on int() digits
        return None
    raw = head[2].encode()
    # only blanks and the digits of palette colors, never two digits in
    # a row; then one byte per color is left once the blanks are gone
    if raw.translate(None, _BLANKS + _NONZERO[:k]) or b"dd" in raw.translate(_SHAPE):
        return None
    colors = raw.translate(_FROM_DIGIT, _BLANKS)
    if len(colors) != n * (n - 1) // 2:
        return None
    return EdgeColoring(n, k, colors)


def _read_tokens(text: str) -> EdgeColoring:
    """read_coloring for any text, one token at a time."""
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
    # one lookup parses and range-checks a palette color's canonical
    # token; any other token ("01", "+2", a bad one) goes through int()
    values = range(1, min(k, len(body)) + 1)
    try:
        colors = list(map(dict(zip(map(str, values), values)).__getitem__, body))
    except KeyError:
        # a token-by-token read, which reports the first bad token
        colors = []
        for index, tok in enumerate(body, 2):
            try:
                value = int(tok)
            except ValueError:
                raise error(f"expected integer edge color, got {tok!r}", index)
            if not 1 <= value <= k:
                raise error(f"color {value} outside palette [1, {k}]", index)
            colors.append(value)
    if len(body) < expected:
        raise error(f"expected {expected} edge colors, found {len(body)}", len(tokens))
    if len(tokens) > 2 + expected:
        raise error(f"unexpected trailing token {tokens[2 + expected]!r}", 2 + expected)
    return EdgeColoring(n, k, colors)


def write_coloring(c: EdgeColoring) -> str:
    """Serialize to the canonical text layout: one row per first vertex.

    With one-digit colors every token is one byte followed by one blank,
    so the digits fill every other byte of one buffer and each row ends
    at a newline.
    """
    n = c.n
    if c._used[-1] <= 9:
        body = bytearray(b" ") * (2 * len(c.colors))
        body[::2] = c.colors.translate(_TO_DIGIT)
        end = 0
        for length in range(n - 1, 0, -1):
            end += 2 * length
            body[end - 1] = ord("\n")
        return f"{n} {c.k}\n{body.decode()}"
    names = {a: str(a) for a in c._used}
    tokens = list(map(names.__getitem__, c.colors))
    lines = [f"{n} {c.k}"]
    idx = 0
    for u in range(n - 1):
        lines.append(" ".join(tokens[idx:idx + n - 1 - u]))
        idx += n - 1 - u
    return "\n".join(lines) + "\n"
