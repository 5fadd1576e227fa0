"""Layered extremal colorings witnessing the lower bounds.

The coloring lives on one fewer vertex than the predicted Gallai-Ramsey
value: a block of (order of the head color's target) - 1 vertices, then
one block of i_j vertices per other color j, in color order. Each edge
takes the color of its later end's block. Blocks of size zero add no
vertex but keep their color, so certificates use the caller's palette.
"""

from __future__ import annotations

from itertools import chain

from .coloring import EdgeColoring
from .formulas import TargetSpec, predicted_gr


def layer_sizes(spec: TargetSpec) -> list[int]:
    """Block sizes per color, color 1 first."""
    sizes = list(spec.indices)
    sizes[spec.head_color() - 1] = spec.largest_order() - 1
    return sizes


def layers(spec: TargetSpec) -> list[range]:
    """Vertex ranges per color, color 1 first (empty ranges for zero
    indices); the head color's range starts at vertex 0."""
    sizes = layer_sizes(spec)
    head = spec.head_color()
    out = [range(sizes[head - 1])] * spec.k
    start = sizes[head - 1]
    for j, size in enumerate(sizes, 1):
        if j != head:
            out[j - 1] = range(start, start + size)
            start += size
    return out


def build_lower_bound_coloring(spec: TargetSpec) -> EdgeColoring:
    """The layered coloring that avoids every per-color target.

    It is rainbow-triangle-free and has exactly predicted_gr(spec) - 1
    vertices; both properties are what make it a lower-bound witness.
    """
    blocks = layers(spec)
    n = sum(map(len, blocks))
    assert n == predicted_gr(spec) - 1
    block = [0] * n
    for j, vertices in enumerate(blocks, 1):
        block[vertices.start:vertices.stop] = [j] * len(vertices)
    # pair (u, v), u < v, takes the color of v's block: row u is block[u + 1:]
    colors = list(chain.from_iterable(block[v:] for v in range(1, n)))
    return EdgeColoring(n, spec.k, colors)
