"""Detection of monochromatic paths, even cycles and matchings inside
one color class of an edge coloring.

All searches run over bitmask adjacency (one int per vertex) and return
the lexicographically least embedding, so certificates are
reproducible. Paths and cycles share one kernel, `_reach_end`: can a
simple path ending at a given vertex take so many more vertices, the
last one in a mask of allowed ends? `find_mono` has it record its first
hit. A path search is one call from a virtual vertex joined to every
vertex with a class neighbor, so its starts are the kernel's own
candidates. The verifier's through-edge checks ask whether there is a
copy through a given edge: directly for cycles, and for paths through
`_two_arms`, which grows two arms from the ends of the edge. They
share one signature, (adj, u, v, size, out), and always record the copy
they found in the list `out`, in the format of `TargetGraph.copy_edges`:
the path or the cycle in order, or the matching's pairs, the edge's own
pair last. A through-edge kernel reads no edge between u and v: it
masks both ends out of every neighborhood it reads, so its answer and
`out` are the same whether or not `adj` holds (u, v). The path and
cycle checks start at the end with fewer free neighbors, the higher
vertex on a tie. A path or cycle through the edge holds both ends, so
the choice orders the search but cannot change the answer, and the tie
rule makes it ignore the order of the arguments. The verifier colors
edges in lex order and passes the class without (u, v): at (u, v) with
u < v, every class neighbor of v lies below u, so v is usually the
narrow end.

Before the kernel runs, `find_mono` asks the matching oracle below for
the disjoint edges the target holds: m // 2 for a path on m vertices,
and length // 2 among the vertices with two class neighbors for a
cycle. A class short of them holds no copy, so the search answers None
in polynomial time. Every class of the layered construction is ruled
out this way: color j's edges all touch its block of i_j vertices, and
its target P_{2 i_j + 3} needs i_j + 1 disjoint edges. On a pass the
kernel runs as before, so the embedding does not change.

The kernel tries candidates lowest first, and four devices keep it
small; each only drops candidates or states that cannot lead to a hit,
so the first hit is the lex-least:

* after a candidate fails, its twins among the later candidates are
  skipped: the vertices that agree with it outside their pair. Swapping
  two twins is an automorphism of the color class, so they fail
  identically. Extremal colorings are full of twins, which is exactly
  where naive DFS blows up. Two vertices are twins exactly when they
  are apart with equal neighborhoods, or joined with equal closed
  neighborhoods. No vertex's neighborhood equals another's closed one,
  as that needs a loop, so one list of keys serves both kinds: a failed
  f adds adj[f] and adj[f] | 1 << f, and w is skipped when adj[w] or
  adj[w] | 1 << w is in it. `_two_arms` and the cycle starts keep the
  same list. The matching oracle's root skip below is the same rule
  with open neighborhoods only, as its roots are never joined.
* `find_mono` memoizes failed (last vertex, visited mask) states; the
  through-edge checks pass no memo.
* the final vertex is drawn from one mask of allowed ends (for a cycle,
  the start's neighbors). With two vertices to go, the kernel asks
  whether some candidate has a free neighbor in that mask.
* a dead-end cut fails a state when no free vertex of the ends mask is
  left, or when a bitmask walk from the last vertex through the free
  vertices reaches none: no extension of such a state can close. For
  paths every vertex is an end, and both tests reduce to "no candidate".

`_matching_at_least`, the feasibility oracle of the lex-least matching
search, first builds a greedy maximal matching; reaching the asked size
there answers yes. When greedy falls short, `_augment` grows it by
Edmonds' augmenting paths (Edmonds, "Paths, trees, and flowers", 1965),
contracting blossoms by relabelling their vertices' base, from one
unmatched vertex at a time; a vertex with no augmenting path never gets
one later, so the loop ends when too few untried vertices are left. A
root whose free neighborhood equals that of a failed root fails too and
is skipped, so on a blow-up host one search rules out a whole block of
unmatched twins. This is polynomial on every host and needs no outside
library. The oracle is exact, so the matching search is a plain loop
with no backtracking: it takes, once per pair, the lex-least pair whose
removal leaves enough disjoint edges for the rest.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .coloring import ColorOutOfRangeError, EdgeColoring
from .targets import CYCLE, PATH, Embedding, TargetGraph

class SpecLengthMismatchError(ValueError):
    """Target list length differs from the coloring's palette size."""


def _reaches(adj: list[int], reach: int, free: int, ends: int) -> bool:
    """Does a walk from the vertex set `reach`, which holds no vertex of
    `ends`, through the vertices in `free` meet a free vertex of `ends`?"""
    frontier = reach if ends & free else 0
    while frontier:
        grow = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grow |= adj[bit.bit_length() - 1]
        frontier = grow & free & ~reach
        if frontier & ends:
            return True
        reach |= frontier
    return False


def _reach_end(
    adj: list[int],
    last: int,
    mask: int,
    need: int,
    ends: int,
    failed: Optional[set[tuple[int, int]]],
    out: list[int],
) -> bool:
    """Can a simple path ending at `last` take `need` more vertices from
    outside `mask` (the vertices already used, or ruled out), the final
    one in `ends`? An `ends` of -1 leaves the end free. On a hit, the
    lex-least such vertices are appended to `out`, last first.

    The twin skip needs swapping two candidates to fix every input, so
    callers keep `ends` at -1 or the neighborhood of a vertex in `mask`.
    Failed (last, mask) states with `need` >= 3 are recorded in `failed`
    when given. The key ignores `ends`, and `need` too, so a memo may be
    shared only by calls that fix `ends` and whose mask fixes `need`.
    """
    cand = adj[last] & ~mask
    if need == 2:
        # some candidate has a free neighbor in `ends` (a class has no loops)
        ends &= ~mask
        while cand:
            bit = cand & -cand
            cand ^= bit
            hit = adj[bit.bit_length() - 1] & ends
            if hit:
                out += ((hit & -hit).bit_length() - 1, bit.bit_length() - 1)
                return True
        return False
    if need < 2:
        hit = cand & ends
        if need and hit:
            out.append((hit & -hit).bit_length() - 1)
        return need == 0 or hit != 0
    if failed is not None and (last, mask) in failed:
        return False
    # dead-end cut: the final vertex must be a free vertex of `ends` that
    # a walk from `last` through free vertices reaches
    if cand & ends or _reaches(adj, cand, ~mask, ends):
        twins: list[int] = []
        while cand:
            bit = cand & -cand
            cand ^= bit
            w_adj = adj[bit.bit_length() - 1]
            if w_adj in twins or w_adj | bit in twins:
                continue
            if _reach_end(adj, bit.bit_length() - 1, mask | bit, need - 1, ends, failed, out):
                out.append(bit.bit_length() - 1)
                return True
            twins += (w_adj, w_adj | bit)
    if failed is not None:
        failed.add((last, mask))
    return False


def _two_arms(adj: list[int], last: int, mask: int, need: int, hop: int, out: list[int]) -> int:
    """Can two disjoint arms, one from `last` and one from `hop`, take
    `need` more vertices from outside `mask` between them? Either the arm
    at `hop` takes them all, or the arm at `last` grows by one. Returns
    how many vertices the arm at `hop` takes, or -1 when there are no
    such arms. On a hit, `out` receives the arm at `hop` and then the
    arm at `last`, each from its far end back, as the recursion unwinds;
    on a miss it is left as it was."""
    if _reach_end(adj, hop, mask, need, -1, None, out):
        return need
    cand = adj[last] & ~mask
    twins: list[int] = []
    while cand:
        bit = cand & -cand
        cand ^= bit
        w = bit.bit_length() - 1
        w_adj = adj[w]
        if w_adj in twins or w_adj | bit in twins:
            continue
        split = _two_arms(adj, w, mask | bit, need - 1, hop, out)
        if split >= 0:
            out.append(w)
            return split
        twins += (w_adj, w_adj | bit)
    return -1


_recursion_lock = threading.Lock()


@contextmanager
def _recursion_room(depth: int):
    """Raise the recursion limit by `depth` for the block, then restore
    it: `_reach_end` recurses once per vertex of the target, and a long
    target outgrows the default limit. The limit is the whole process's,
    so one lock is held from the save to the restore: blocks that
    overlapped in two threads would each restore the limit while the
    other still needs the room, or leave the other's raise behind."""
    with _recursion_lock:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + depth)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)


def _find_path_sequence(adj: list[int], n: int, m: int) -> Optional[list[int]]:
    active = reduce(or_, adj, 0)  # the vertices with a class neighbor
    if active.bit_count() < m:
        return None
    # a path on m vertices holds m // 2 disjoint edges
    if not _matching_at_least(adj, active, m // 2):
        return None
    # the starts are the candidates of a virtual vertex n joined to every
    # active vertex; one memo serves them all, as the mask holds the start
    out: list[int] = []
    with _recursion_room(m):
        if _reach_end([*adj, active], n, 0, m, -1, set(), out):
            return out[::-1]
    return None


def _find_cycle_sequence(adj: list[int], n: int, length: int) -> Optional[list[int]]:
    active = [v for v in range(n) if adj[v].bit_count() >= 2]
    # a cycle of this length holds length // 2 disjoint edges, all between
    # vertices with two class neighbors; fewer than `length` such vertices
    # fail the matching check's first test
    if not _matching_at_least(adj, sum(1 << v for v in active), length // 2):
        return None
    twins: list[int] = []
    out: list[int] = []
    # phase s searches cycles whose minimum vertex is s, so every later
    # vertex lies above s and the first hit is lex-least overall
    with _recursion_room(length):
        for s in active:
            sbit = 1 << s
            # the vertices below s count as used
            used = (sbit << 1) - 1
            ends = adj[s] & ~used
            if ends.bit_count() < 2:
                continue
            if adj[s] in twins or adj[s] | sbit in twins:
                continue
            # a fresh memo per phase: `used` and `ends` change with s
            if _reach_end(adj, s, used, length - 1, ends, set(), out):
                return [s, *reversed(out)]
            twins += (adj[s], adj[s] | sbit)
    return None


def _augment(adj: list[int], free: int, mate: dict[int, int], root: int) -> int:
    """Edmonds' search for an augmenting path inside `free` from the
    unmatched `root`: flips the path in `mate` and returns its other
    end, or -1 when there is none. The tree's outer vertices are the
    root and the mates of its inner ones; an edge between two outer
    vertices closes a blossom, contracted by relabelling the `base` of
    its vertices to the blossom's base."""
    base = list(range(free.bit_length()))
    parent = [-1] * len(base)
    outer = 1 << root
    inner = 0
    queue = [root]
    for v in queue:
        cand = adj[v] & free
        while cand:
            wbit = cand & -cand
            cand ^= wbit
            w = wbit.bit_length() - 1
            if base[v] == base[w]:  # an edge inside one blossom
                continue
            if wbit & outer:
                # the blossom's base: the first base on the root path of v
                # that is also on the root path of w
                a = base[v]
                path = 1 << a
                while a != root:
                    a = base[parent[mate[a]]]
                    path |= 1 << a
                b = base[w]
                while not path >> b & 1:
                    b = base[parent[mate[b]]]
                # bases on either side of the blossom, their tree edges
                # turned to lead back through the closing edge v-w
                blossom = 0
                for x, child in ((v, w), (w, v)):
                    while base[x] != b:
                        m = mate[x]
                        blossom |= 1 << base[x] | 1 << base[m]
                        parent[x] = child
                        child = m
                        x = parent[m]
                for x, bx in enumerate(base):
                    if blossom >> bx & 1:
                        base[x] = b
                        if not outer >> x & 1:
                            outer |= 1 << x
                            queue.append(x)
            elif not wbit & inner:
                parent[w] = v
                inner |= wbit
                if w not in mate:
                    end = w
                    while w >= 0:
                        v = parent[w]
                        nxt = mate.get(v, -1)
                        mate[v] = w
                        mate[w] = v
                        w = nxt
                    return end
                m = mate[w]
                outer |= 1 << m
                queue.append(m)
    return -1


def _matching_at_least(
    adj: list[int], free: int, r: int, out: Optional[list[int]] = None
) -> bool:
    """Does the class restricted to `free` contain r disjoint edges? On a
    hit, the pairs of such a matching are appended to `out` when given.

    A root whose neighborhood within `free` equals that of a root that
    already failed is skipped, and fails too:

    * unmatched vertices are never adjacent, because greedy is maximal
      and augmenting only grows the matched set; so neither root lies in
      the other's neighborhood.
    * a failed root x never gets an augmenting path later and never
      becomes matched (Edmonds).
    * an augmenting path from its twin y becomes one from x: swap y for
      x, whose neighborhood holds the path's second vertex, or reverse
      the path if x is its far end.
    """
    if r <= 0:
        return True
    if free.bit_count() < 2 * r:
        return False
    # a greedy maximal matching first, the start of the augmenting paths
    mate: dict[int, int] = {}
    matched = touched = 0
    left = free
    while left:
        ubit = left & -left
        left ^= ubit
        u = ubit.bit_length() - 1
        nbrs = adj[u] & left
        if nbrs:
            wbit = nbrs & -nbrs
            left ^= wbit
            w = wbit.bit_length() - 1
            mate[u] = w
            mate[w] = u
            matched |= ubit | wbit
            touched |= adj[u] | adj[w]
            if len(mate) == 2 * r:
                break
    # greedy is maximal, so an unmatched vertex with a free neighbor
    # touches a matched one: these are the only possible path ends
    roots = touched & free & ~matched
    # an augmenting path joins two unmatched vertices, and a root without
    # one never gets one later (Edmonds): each missing edge needs two
    # untried roots. The neighborhoods of the failed roots rule out their
    # twins.
    dead: set[int] = set()
    while 0 < 2 * r - len(mate) <= roots.bit_count():
        rbit = roots & -roots
        roots ^= rbit
        root = rbit.bit_length() - 1
        nbrs = adj[root] & free
        if nbrs in dead:
            continue
        end = _augment(adj, free, mate, root)
        if end >= 0:
            roots &= ~(1 << end)
        else:
            dead.add(nbrs)
    if len(mate) < 2 * r:
        return False
    if out is not None:
        for a, b in mate.items():
            if a < b:
                out += (a, b)
    return True


def _find_matching_sequence(adj: list[int], n: int, pairs: int) -> Optional[list[int]]:
    free = (1 << n) - 1
    if not _matching_at_least(adj, free, pairs):
        return None
    # a partner b < a is never needed: (b, a) leaves the same vertices
    # and was tried first
    out: list[int] = []
    for left in range(pairs - 1, -1, -1):
        above = free
        pair = 0
        while not pair:
            a = (above & -above).bit_length() - 1
            above ^= 1 << a
            # `above` now holds the free vertices after a
            cand = adj[a] & above
            while cand:
                bbit = cand & -cand
                cand ^= bbit
                if left == 0 or _matching_at_least(adj, free ^ 1 << a ^ bbit, left):
                    pair = 1 << a | bbit
                    break
        out += (a, bbit.bit_length() - 1)
        free ^= pair
    return out


def find_mono(c: EdgeColoring, color: int, target: TargetGraph) -> Optional[Embedding]:
    """Lex-least embedding of `target` in the given color class, or None.

    Targets with more vertices than the host return None rather than
    raising; the verifier probes shrinking hosts and relies on this.
    Path and cycle searches in several threads take turns at their
    kernel, as each raises the process's recursion limit for it.
    """
    if not 1 <= color <= c.k:
        raise ColorOutOfRangeError(f"color {color} outside palette [1, {c.k}]")
    # every target has an edge, so an unused color's empty class holds none
    if target.num_vertices > c.n or color not in c._used:
        return None
    adj = c.color_adjacency()[color]
    if target.kind == PATH:
        seq = _find_path_sequence(adj, c.n, target.size)
    elif target.kind == CYCLE:
        seq = _find_cycle_sequence(adj, c.n, target.size)
    else:
        seq = _find_matching_sequence(adj, c.n, target.size)
    if seq is None:
        return None
    return Embedding(target=target, color=color, vertices=tuple(seq))


def contains_required(
    c: EdgeColoring, targets: Sequence[TargetGraph]
) -> Optional[tuple[int, Embedding]]:
    """First color (ascending) whose per-color target appears, with its
    certificate; None when the coloring avoids every target."""
    if len(targets) != c.k:
        raise SpecLengthMismatchError(
            f"{len(targets)} targets for a {c.k}-color palette"
        )
    for color, target in enumerate(targets, 1):
        emb = find_mono(c, color, target)
        if emb is not None:
            return color, emb
    return None


def verify_embedding(c: EdgeColoring, e: Embedding) -> bool:
    """Independent certificate check: do the embedding's edges exist in
    the claimed color and shape?"""
    verts = e.vertices
    if not 1 <= e.color <= c.k:
        return False
    if any(not 0 <= v < c.n for v in verts):
        return False
    if len(set(verts)) != len(verts):
        return False
    if len(verts) != e.target.num_vertices:
        return False
    return all(c.color(u, v) == e.color for u, v in e.target.copy_edges(verts))


# ---------------------------------------------------------------------------
# Incremental existence checks used by the exhaustive verifier. These ask
# only whether a target exists THROUGH a given edge; the verifier keeps the
# invariant that a class never contained its target before the newest edge,
# so any fresh copy must use that edge.


def _narrow_end(adj: list[int], u: int, v: int, mask: int) -> tuple[int, int]:
    """The ends of edge (u,v), the one with fewer neighbors outside
    `mask` first; on a tie the higher vertex, so the order of u and v
    does not matter."""
    du = (adj[u] & ~mask).bit_count()
    dv = (adj[v] & ~mask).bit_count()
    if du < dv or (du == dv and u > v):
        return u, v
    return v, u


def exists_path_through(adj: list[int], u: int, v: int, m: int, out: list[int]) -> bool:
    # a path through edge (u,v) is two disjoint arms, one from each end.
    # The two ends play the same part, so the arm grown step by step can
    # sit at either: it sits at the narrow end, and the other end is `hop`
    mask = (1 << u) | (1 << v)
    last, hop = _narrow_end(adj, u, v, mask)
    split = _two_arms(adj, last, mask, m - 2, hop, out)
    if split < 0:
        return False
    # the arms' m - 2 vertices came in from their far ends, the arm at
    # `hop` first: it takes `split` of them
    cut = len(out) - (m - 2)
    arms = out[cut:]
    out[cut:] = [*arms[:split], hop, last, *reversed(arms[split:])]
    return True


def exists_cycle_through(adj: list[int], u: int, v: int, length: int, out: list[int]) -> bool:
    # a cycle through edge (u,v) is a path on `length` vertices between
    # its ends; read backwards it is one from the other end, so it is
    # walked from the narrow end. The kernel records that path's inner
    # vertices from `other`'s neighbor back to `last`'s
    mask = (1 << u) | (1 << v)
    last, other = _narrow_end(adj, u, v, mask)
    if _reach_end(adj, last, mask, length - 2, adj[other], None, out):
        out += (last, other)
        return True
    return False


def exists_matching_with_edge(adj: list[int], u: int, v: int, pairs: int, out: list[int]) -> bool:
    # the other pairs - 1 edges avoid u and v
    free = ((1 << len(adj)) - 1) & ~((1 << u) | (1 << v))
    if _matching_at_least(adj, free, pairs - 1, out):
        out += (u, v)
        return True
    return False
