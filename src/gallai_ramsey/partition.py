"""Gallai partitions: computing one for any Gallai coloring, validating
candidate partitions, and contracting to the reduced graph.

The classical structure theorem guarantees that every rainbow-triangle-
free coloring of K_n (n >= 2) splits into p >= 2 parts with monochromatic
part pairs and at most two colors total between parts. The theorem is
non-constructive; the algorithm here searches candidate between-color
sets: edges colored outside the candidate set are forced inside parts,
and non-monochromatic part pairs are forced to merge, so a fixpoint of
component-merging finds a partition whenever one exists for that set.
The order of the merges does not matter: two parts joined in two colors
lie inside one part of every valid partition that coarsens them both, so
each merge is forced and the fixpoint is the unique finest valid
coarsening of the first components, its parts ordered by least vertex.

On a Gallai coloring the first components are already joined pairwise
in one color, for every between set B, so no merge happens. Suppose x
in P sees y in Q in one color and y' in Q in another. Every edge
between two components has its color in B. Walk from y to y' inside Q
along edges colored outside B: at some step z z' of the walk the color
from x changes, so c(x, z) and c(x, z') are two colors of B while
c(z, z') lies outside B, and x z z' is a rainbow triangle. The linking
rounds therefore run only on non-Gallai input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .coloring import EdgeColoring


class NotAPartitionError(ValueError):
    """Input parts are not a partition of the vertex set into >= 2
    nonempty classes."""


@dataclass
class ViolationReport:
    """Why a candidate partition fails the two structure conditions.

    kind "non_homogeneous": part_pair names the offending pair and
    witness_edges holds two edges of distinct colors between them.
    kind "extra_between_colors": witness_edges holds one representative
    edge per between-part color (three or more entries).
    """

    kind: str
    part_pair: Optional[tuple[int, int]]
    witness_edges: tuple[tuple[int, int, int], ...]


@dataclass
class GallaiPartition:
    """Parts plus the induced between-part coloring."""

    parts: tuple[tuple[int, ...], ...]
    between_colors: tuple[int, ...]
    pair_color: dict[tuple[int, int], int]
    n: int
    k: int

    def to_json(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "between_colors": list(self.between_colors),
            "pair_colors": [
                {"i": i, "j": j, "color": c}
                for (i, j), c in sorted(self.pair_color.items())
            ],
        }


def _components(h: list[int], n: int) -> list[int]:
    """Connected components of a bitmask adjacency, as vertex masks
    ordered by least vertex."""
    comps = []
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        comp = 0
        frontier = 1 << v
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                nxt |= h[bit.bit_length() - 1]
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def _try_between_set(c: EdgeColoring, between: tuple[int, ...]) -> Optional[list[int]]:
    """Partition with between-part colors inside `between`, or None.

    Parts start as the components of the other colors. Each round links
    every pair of parts joined in both between colors and recomputes the
    components, until a round links nothing.

    Every pair has one color, so the other colors join v to every other
    vertex but its neighbors in the between colors: the start costs a
    step per vertex and between color, however many colors there are.
    """
    n = c.n
    adj = c.color_adjacency()
    full = (1 << n) - 1
    h = [full ^ 1 << v for v in range(n)]
    for a in between:
        h = [others ^ row for others, row in zip(h, adj[a])]
    while True:
        parts = _components(h, n)
        if len(parts) < 2:
            return None
        # one between color cannot show two colors across a pair
        if len(between) < 2:
            return parts
        adj_a, adj_b = (adj[a] for a in between)
        linked = False
        for i, p in enumerate(parts):
            reach_a = reach_b = 0
            for v in _bits(p):
                reach_a |= adj_a[v]
                reach_b |= adj_b[v]
            u = (p & -p).bit_length() - 1
            for q in parts[i + 1 :]:
                if reach_a & q and reach_b & q:
                    w = (q & -q).bit_length() - 1
                    h[u] |= 1 << w
                    h[w] |= 1 << u
                    linked = True
        if not linked:
            return parts


def gallai_partition(c: EdgeColoring) -> Optional[GallaiPartition]:
    """A valid Gallai partition of the coloring, or None.

    Guaranteed to succeed on Gallai inputs; on non-Gallai inputs this is
    a best-effort diagnostic. Candidate between-color sets are tried in
    ascending lexicographic order and the first hit is returned, so the
    result is deterministic even though Gallai partitions are not unique.
    The fixpoint's parts, as vertex masks, go through the structure
    checks of `validate_partition`, which accept them: each part pair is
    joined in one color, and at most two colors lie between parts.
    """
    used = c.used_colors()
    for between in sorted([(a,) for a in used] + list(combinations(used, 2))):
        masks = _try_between_set(c, between)
        if masks is not None:
            return _check_parts(c, [tuple(_bits(m)) for m in masks], masks)
    return None


def validate_partition(
    c: EdgeColoring, parts: Sequence[Iterable[int]]
) -> Union[GallaiPartition, ViolationReport]:
    """Check the two structure conditions directly on a candidate
    partition, keeping the caller's part order.

    Part pairs are scanned in order on class masks. For parts i < j, let
    col be the color of the edge between their least vertices. The pair
    is homogeneous exactly when mask_j & ~adj[col][x] is empty for every
    x in part i; otherwise the first such x and the lowest bit y of that
    set give the first edge (x, y), in row-major order over the two
    parts, whose color differs from col.
    """
    normalized = [tuple(sorted(set(p))) for p in parts]
    if len(normalized) < 2:
        raise NotAPartitionError("need at least 2 parts")
    if any(not p for p in normalized):
        raise NotAPartitionError("parts must be nonempty")
    covered: set[int] = set()
    total = 0
    for p in normalized:
        total += len(p)
        covered.update(p)
    if len(covered) != total:
        raise NotAPartitionError("parts must be disjoint")
    if covered != set(range(c.n)):
        raise NotAPartitionError(f"parts must cover exactly the vertices [0, {c.n})")

    return _check_parts(c, normalized, [sum(1 << v for v in p) for p in normalized])


def _check_parts(
    c: EdgeColoring, parts: Sequence[tuple[int, ...]], masks: Sequence[int]
) -> Union[GallaiPartition, ViolationReport]:
    """The structure checks of `validate_partition` on a partition of
    the vertices into >= 2 parts, each given as its ascending vertices
    and as its vertex mask."""
    adj = c.color_adjacency()
    pair_color: dict[tuple[int, int], int] = {}
    seen_colors: dict[int, tuple[int, int]] = {}
    for i, j in combinations(range(len(parts)), 2):
        u, v = parts[i][0], parts[j][0]
        col = c.color(u, v)
        adj_col = adj[col]
        mask_j = masks[j]
        for x in parts[i]:
            off = mask_j & ~adj_col[x]
            if off:
                y = (off & -off).bit_length() - 1
                return ViolationReport(
                    kind="non_homogeneous",
                    part_pair=(i, j),
                    witness_edges=((u, v, col), (x, y, c.color(x, y))),
                )
        pair_color[(i, j)] = col
        seen_colors.setdefault(col, (u, v))
    if len(seen_colors) > 2:
        witnesses = tuple(
            (u, v, col) for col, (u, v) in sorted(seen_colors.items())
        )
        return ViolationReport(
            kind="extra_between_colors", part_pair=None, witness_edges=witnesses
        )
    return GallaiPartition(
        parts=tuple(parts),
        between_colors=tuple(sorted(seen_colors)),
        pair_color=pair_color,
        n=c.n,
        k=c.k,
    )


def reduced_graph(p: GallaiPartition) -> EdgeColoring:
    """Contract each part to one vertex; edge (i, j) keeps the single
    color used between parts i and j. Uses at most 2 effective colors."""
    m = len(p.parts)
    colors = []
    for i in range(m - 1):
        for j in range(i + 1, m):
            colors.append(p.pair_color[(i, j)])
    return EdgeColoring(m, p.k, colors)
