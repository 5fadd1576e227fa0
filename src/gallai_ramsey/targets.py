"""Monochromatic target graphs (paths, even cycles, matchings) and
embedding certificates.

Targets are named in the compact form P<m> (path on m vertices),
C<L> (cycle on L vertices, L even), M<s> (matching of s edges); the same
names appear in the CLI target-list grammar and in embedding JSON.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

PATH = "path"
CYCLE = "cycle"
MATCHING = "matching"


@dataclass(frozen=True)
class TargetGraph:
    """One target: kind plus its size parameter.

    size means: vertex count for paths, cycle length for cycles,
    number of edges for matchings.
    """

    kind: str
    size: int

    def __post_init__(self):
        if self.kind == PATH:
            if self.size < 2:
                raise ValueError(f"path needs at least 2 vertices, got {self.size}")
        elif self.kind == CYCLE:
            if self.size < 4 or self.size % 2 != 0:
                raise ValueError(
                    f"cycle length must be even and at least 4, got {self.size}"
                )
        elif self.kind == MATCHING:
            if self.size < 1:
                raise ValueError(f"matching needs at least 1 edge, got {self.size}")
        else:
            raise ValueError(f"unknown target kind {self.kind!r}")

    @property
    def num_vertices(self) -> int:
        if self.kind == MATCHING:
            return 2 * self.size
        return self.size

    @property
    def name(self) -> str:
        letter = {PATH: "P", CYCLE: "C", MATCHING: "M"}[self.kind]
        return f"{letter}{self.size}"

    def __str__(self) -> str:
        return self.name

    def copy_edges(self, seq: Sequence[int]) -> Iterator[tuple[int, int]]:
        """The edges of a copy given by its vertex order, the one format
        of embeddings and of the verifier's through-edge kernels: a path
        or a cycle in order, the cycle's closing edge last, and a
        matching as consecutive pairs."""
        if self.kind == MATCHING:
            return zip(seq[::2], seq[1::2])
        if self.kind == CYCLE:
            return zip(seq, seq[1:] + seq[:1])
        return zip(seq, seq[1:])


def path(m: int) -> TargetGraph:
    return TargetGraph(PATH, m)


def even_cycle(length: int) -> TargetGraph:
    return TargetGraph(CYCLE, length)


def matching(edges: int) -> TargetGraph:
    return TargetGraph(MATCHING, edges)


_NAME = re.compile(r"^([PCM])(\d+)$")


def parse_target(name: str) -> TargetGraph:
    """Parse a single target name like "P5", "C8" or "M3"."""
    m = _NAME.match(name.strip().upper())
    if not m:
        raise ValueError(f"bad target name {name!r}; expected P<m>, C<L> or M<s>")
    letter, size = m.group(1), int(m.group(2))
    kind = {"P": PATH, "C": CYCLE, "M": MATCHING}[letter]
    return TargetGraph(kind, size)


def parse_target_list(text) -> list[TargetGraph]:
    """Parse "C6,C6,P3" or an iterable of names into target graphs.

    An empty entry such as the middle one of "C6,,C6" raises ValueError
    rather than being dropped: the list length is the palette size.
    """
    if isinstance(text, str):
        names = text.split(",") if text.strip() else []
        for pos, part in enumerate(names, 1):
            if not part.strip():
                raise ValueError(f"empty target at position {pos} of {text!r}")
    else:
        names = list(text)
    if not names:
        raise ValueError("empty target list")
    return [t if isinstance(t, TargetGraph) else parse_target(t) for t in names]


@dataclass(frozen=True)
class Embedding:
    """Ordered vertex list witnessing a monochromatic target copy, in
    the format of `TargetGraph.copy_edges`.
    """

    target: TargetGraph
    color: int
    vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "target": self.target.name,
            "color": self.color,
            "vertices": list(self.vertices),
        }


def embedding_from_json(data: dict) -> Embedding:
    return Embedding(
        target=parse_target(data["target"]),
        color=int(data["color"]),
        vertices=tuple(int(v) for v in data["vertices"]),
    )
