"""Independent brute-force oracles shared by the test modules.

These stay deliberately naive: plain recursion over injective vertex
sequences and full enumeration of colorings, with none of the library's
bitmask, memoization or twin-skipping machinery.
"""

from itertools import combinations, product

from gallai_ramsey import (
    EdgeColoring,
    GallaiPartition,
    RainbowWitness,
    ViolationReport,
)
from gallai_ramsey.targets import CYCLE, MATCHING, PATH, TargetGraph


def brute_adjacency(c: EdgeColoring):
    """adj[color][vertex] for the used colors, as color_adjacency gives
    it, from one color() lookup per ordered pair."""
    adj = {}
    for u in range(c.n):
        for v in range(c.n):
            if u != v:
                adj.setdefault(c.color(u, v), [0] * c.n)[u] |= 1 << v
    return adj


def brute_rainbow(c: EdgeColoring):
    """True, or the lex-least triple u < v < w whose three edges carry
    three distinct colors."""
    for u, v, w in combinations(range(c.n), 3):
        if len({c.color(u, v), c.color(u, w), c.color(v, w)}) == 3:
            return RainbowWitness((u, v, w))
    return True


def brute_validate_partition(c: EdgeColoring, parts):
    """validate_partition on a valid vertex partition, by reading every
    cross edge of every part pair in row-major order."""
    parts = [tuple(sorted(set(p))) for p in parts]
    pair_color = {}
    seen_colors = {}
    for i, j in combinations(range(len(parts)), 2):
        first_edge = None
        for u in parts[i]:
            for v in parts[j]:
                col = c.color(u, v)
                if first_edge is None:
                    first_edge = (u, v, col)
                elif col != first_edge[2]:
                    return ViolationReport(
                        kind="non_homogeneous",
                        part_pair=(i, j),
                        witness_edges=(first_edge, (u, v, col)),
                    )
        pair_color[(i, j)] = first_edge[2]
        seen_colors.setdefault(first_edge[2], first_edge[:2])
    if len(seen_colors) > 2:
        return ViolationReport(
            kind="extra_between_colors",
            part_pair=None,
            witness_edges=tuple((u, v, col) for col, (u, v) in sorted(seen_colors.items())),
        )
    return GallaiPartition(
        parts=tuple(parts),
        between_colors=tuple(sorted(seen_colors)),
        pair_color=pair_color,
        n=c.n,
        k=c.k,
    )


def brute_find_sequence(c: EdgeColoring, color: int, target: TargetGraph):
    """Lex-least injective sequence realizing the target, or None."""
    n = c.n
    length = target.num_vertices
    if length > n:
        return None
    seq: list[int] = []

    def admissible(pos: int, w: int) -> bool:
        if target.kind == PATH:
            return pos == 0 or c.color(seq[pos - 1], w) == color
        if target.kind == CYCLE:
            if pos > 0 and c.color(seq[pos - 1], w) != color:
                return False
            if pos == length - 1 and c.color(w, seq[0]) != color:
                return False
            return True
        # matching: only the second vertex of each pair is constrained
        return pos % 2 == 0 or c.color(seq[pos - 1], w) == color

    def rec(pos: int) -> bool:
        if pos == length:
            return True
        for w in range(n):
            if w in seq:
                continue
            if admissible(pos, w):
                seq.append(w)
                if rec(pos + 1):
                    return True
                seq.pop()
        return False

    return tuple(seq) if rec(0) else None


def brute_exists_through(adj, u: int, v: int, target: TargetGraph) -> bool:
    """Does the class with bitmask adjacency `adj` hold a copy of the
    target that uses the edge uv?"""
    n = len(adj)
    joined = {(a, b) for a in range(n) for b in range(n) if adj[a] >> b & 1}
    length = target.num_vertices
    seq: list[int] = []

    def closed_edges(pos: int) -> list[tuple[int, int]]:
        # target edges whose later endpoint is the vertex at `pos`
        if target.kind == MATCHING:
            return [(seq[pos - 1], seq[pos])] if pos % 2 == 1 else []
        out = [(seq[pos - 1], seq[pos])] if pos > 0 else []
        if target.kind == CYCLE and pos == length - 1:
            out.append((seq[pos], seq[0]))
        return out

    def rec(used: bool) -> bool:
        pos = len(seq)
        if pos == length:
            return used
        for w in range(n):
            if w in seq:
                continue
            seq.append(w)
            closed = closed_edges(pos)
            if all(e in joined for e in closed) and rec(
                used or any({a, b} == {u, v} for a, b in closed)
            ):
                return True
            seq.pop()
        return False

    return rec(False)


def brute_bad_colorings(n: int, targets):
    """Every coloring of K_n, with labelled vertices and fixed colors,
    that has no rainbow triangle and avoids each color's target, as its
    color tuple in lex edge order. Tiny n only."""
    k = len(targets)
    m = n * (n - 1) // 2
    for combo in product(range(1, k + 1), repeat=m):
        c = EdgeColoring(n, k, combo)
        if brute_rainbow(c) is not True:
            continue
        if all(brute_find_sequence(c, col, t) is None for col, t in enumerate(targets, 1)):
            yield combo


def brute_decide_upper(n: int, targets) -> str:
    """Verdict by filtering every coloring of K_n. Tiny n only."""
    if next(brute_bad_colorings(n, targets), None) is None:
        return "all_forced"
    return "bad_coloring"


def brute_labelled_count(n: int, targets) -> dict[int, int]:
    """The number of bad colorings of K_n, labelled, per number of
    colors they use. Tiny n only."""
    counts: dict[int, int] = {}
    for combo in brute_bad_colorings(n, targets):
        used = len(set(combo))
        counts[used] = counts.get(used, 0) + 1
    return counts


def brute_gallai_partition(c: EdgeColoring):
    """(parts, between_colors, pair_color) of the library's Gallai
    partition, or None: between-sets in lex order, each starting from the
    components of the other colors and merging two parts while their
    cross edges show two colors; the first with two or more parts wins."""
    n = c.n
    used = c.used_colors()
    for between in sorted([(a,) for a in used] + list(combinations(used, 2))):
        label = list(range(n))

        def join(x: int, y: int) -> None:
            old = label[y]
            for w in range(n):
                if label[w] == old:
                    label[w] = label[x]

        for u, v in combinations(range(n), 2):
            if c.color(u, v) not in between and label[u] != label[v]:
                join(u, v)
        while True:
            groups = sorted(
                [w for w in range(n) if label[w] == l] for l in set(label)
            )
            clash = next(
                (
                    (p[0], q[0])
                    for p, q in combinations(groups, 2)
                    if len({c.color(u, v) for u in p for v in q}) >= 2
                ),
                None,
            )
            if clash is None:
                break
            join(*clash)
        if len(groups) >= 2:
            pair_color = {
                (i, j): c.color(groups[i][0], groups[j][0])
                for i, j in combinations(range(len(groups)), 2)
            }
            parts = tuple(tuple(g) for g in groups)
            return parts, tuple(sorted(set(pair_color.values()))), pair_color
    return None
