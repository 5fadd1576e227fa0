"""Layered extremal colorings witnessing the lower bounds.

The coloring lives on one fewer vertex than the predicted Gallai-Ramsey
value: a first block of (order of the largest target) - 1 vertices and
one block of i_j vertices per further color j. Edges inside block j get
color j; edges from block j to every earlier block also get color j.
Blocks of size zero contribute nothing but keep their color index, so
certificates always reference the caller's palette.
"""

from __future__ import annotations

from .coloring import EdgeColoring
from .formulas import TargetSpec, predicted_gr


def layer_sizes(spec: TargetSpec) -> list[int]:
    """Block sizes per color, color 1 first."""
    return [spec.largest_order() - 1] + [spec.indices[j] for j in range(1, spec.k)]


def layers(spec: TargetSpec) -> list[range]:
    """Vertex ranges per color block (empty ranges for zero indices)."""
    sizes = layer_sizes(spec)
    out = []
    start = 0
    for s in sizes:
        out.append(range(start, start + s))
        start += s
    return out


def build_lower_bound_coloring(spec: TargetSpec) -> EdgeColoring:
    """The layered coloring that avoids every per-color target.

    It is rainbow-triangle-free and has exactly predicted_gr(spec) - 1
    vertices; both properties are what make it a lower-bound witness.
    """
    block = [j for j, vertices in enumerate(layers(spec)) for _ in vertices]
    n = len(block)
    colors = [max(block[u], block[v]) + 1 for u in range(n - 1) for v in range(u + 1, n)]
    assert n == predicted_gr(spec) - 1
    return EdgeColoring(n, spec.k, colors)
