"""Closed-form Ramsey and Gallai-Ramsey values for paths, even cycles,
matchings and the triangle.

The target family is parameterized by n >= 3: colors get paths on
5, 7, ..., 2n-1 vertices (index i means a path on 2i+3 vertices for
i <= n-2), and index n-1 means the head target, either the cycle C_{2n}
or the long path P_{2n+1}. A TargetSpec fixes n, the color count k, an
index per color in the caller's order, and the head interpretation. Its
head color is the first with the largest index; permuting the colors
together with their indices leaves the predicted value unchanged.

known_gr holds one rule per family of named targets. With h = m // 2
for P_m and C_m, and h = s for the matching M_s, the construction gives
GR_k >= (h-1)k + h + 1, plus one for paths on an odd number of vertices.
For matchings the rule is exact at every size: Cockayne and Lorimer's
k-color Ramsey number of M_s is that value, and GR_k <= R_k. For paths
and cycles it is exact through P9 and C8 (C4 alone is k + 4 for k >= 2,
and 4 for one color), and at every size for k <= 2, where it is |H| and
R(H, H); past those it is the lower bound, paired with the general upper
bound (h-1)k + 3h.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .targets import CYCLE, PATH, TargetGraph, even_cycle, path


class InvalidSpecError(ValueError):
    """Malformed target-family specification."""


class IndexOutOfRangeError(InvalidSpecError):
    """A raw target index lies outside [0, n-1]."""


class UnsupportedPairError(ValueError):
    """Pair outside the three closed-form two-color theorems."""


class OutOfHypothesesError(ValueError):
    """Requested value is not pinned by any cited closed form."""


HEAD_CYCLE = "cycle"
HEAD_PATH = "path"


@dataclass(frozen=True)
class TargetSpec:
    """Per-color target indices within one family, in the caller's color
    order: color j gets indices[j-1]."""

    n: int
    k: int
    indices: tuple[int, ...]
    head: str = HEAD_CYCLE

    def __post_init__(self):
        if self.n < 3:
            raise InvalidSpecError(f"family parameter n must be >= 3, got {self.n}")
        if self.k < 2:
            raise InvalidSpecError(f"need at least 2 colors, got k={self.k}")
        if self.head not in (HEAD_CYCLE, HEAD_PATH):
            raise InvalidSpecError(f"head must be 'cycle' or 'path', got {self.head!r}")
        if len(self.indices) != self.k:
            raise InvalidSpecError(
                f"{len(self.indices)} indices for k={self.k} colors"
            )
        for i in self.indices:
            if not 0 <= i <= self.n - 1:
                raise IndexOutOfRangeError(
                    f"index {i} outside [0, {self.n - 1}]"
                )

    def target(self, color: int) -> TargetGraph:
        """Target graph for color `color` (1-based)."""
        i = self.indices[color - 1]
        if i <= self.n - 2:
            return path(2 * i + 3)
        if self.head == HEAD_CYCLE:
            return even_cycle(2 * self.n)
        return path(2 * self.n + 1)

    def targets(self) -> list[TargetGraph]:
        return [self.target(j) for j in range(1, self.k + 1)]

    def head_color(self) -> int:
        """The first color with the largest index (1-based)."""
        return self.indices.index(max(self.indices)) + 1

    def largest_order(self) -> int:
        """Vertex count of the head color's target."""
        return self.target(self.head_color()).num_vertices

    def describe(self) -> str:
        items = ",".join(str(i) for i in self.indices)
        return f"n={self.n} k={self.k} head={self.head} i={items}"


def sorted_spec(
    indices: Sequence[int], n: int, k: int | None = None, head: str = HEAD_CYCLE
) -> TargetSpec:
    """The TargetSpec with its colors renumbered by non-increasing index,
    the order in which the paper states its conjecture. TargetSpec checks
    the index count and range."""
    raw = list(indices)
    return TargetSpec(
        n=n,
        k=len(raw) if k is None else k,
        indices=tuple(sorted(raw, reverse=True)),
        head=head,
    )


_SPEC_ITEM = re.compile(r"^(n|k|head|i)=(.+)$")


def parse_spec_string(text: str) -> TargetSpec:
    """Parse the CLI spec syntax, e.g. "n=3 k=3 head=cycle i=2,2,2". The
    indices keep the order given: the i-th entry is color i's."""
    fields: dict[str, str] = {}
    for token in text.split():
        m = _SPEC_ITEM.match(token)
        if not m:
            raise InvalidSpecError(f"bad spec token {token!r}")
        key, value = m.groups()
        if key in fields:
            raise InvalidSpecError(f"duplicate spec key {key!r}")
        fields[key] = value
    if "n" not in fields or "i" not in fields:
        raise InvalidSpecError("spec needs at least n=<int> and i=<list>")
    items = fields["i"].split(",")
    for pos, part in enumerate(items, 1):
        if not part:
            raise InvalidSpecError(f"empty index at position {pos} of {fields['i']!r}")
    try:
        n = int(fields["n"])
        indices = [int(part) for part in items]
        k = int(fields["k"]) if "k" in fields else len(indices)
    except ValueError as e:
        raise InvalidSpecError(f"bad spec value: {e}")
    head = fields.get("head", HEAD_CYCLE).lower()
    return TargetSpec(n=n, k=k, indices=tuple(indices), head=head)


def predicted_gr(spec: TargetSpec) -> int:
    """Order of the head color's target plus the sum of the other indices."""
    return spec.largest_order() + sum(spec.indices) - max(spec.indices)


def classical_ramsey(h1: TargetGraph, h2: TargetGraph) -> int:
    """Two-color Ramsey number for the covered pairs.

    Covered: equal even cycles C_{2n} with n >= 3 (3n - 1); a path P_m
    against an even cycle C_{2n} with 2n >= m >= 3 (2n + floor(m/2) - 1);
    two paths P_m, P_n with n >= m >= 2 (n + floor(m/2) - 1).
    """
    kinds = {h1.kind, h2.kind}
    if kinds == {CYCLE}:
        if h1.size != h2.size:
            raise UnsupportedPairError(
                f"unequal even cycles ({h1}, {h2}) are not covered"
            )
        half = h1.size // 2
        if half < 3:
            raise UnsupportedPairError(f"({h1}, {h2}) needs cycle length >= 6")
        return 3 * half - 1
    if kinds == {PATH, CYCLE}:
        p, cyc = (h1, h2) if h1.kind == PATH else (h2, h1)
        if p.size < 3 or cyc.size < p.size:
            raise UnsupportedPairError(
                f"({p}, {cyc}) outside the range cycle length >= path order >= 3"
            )
        return cyc.size + p.size // 2 - 1
    if kinds == {PATH}:
        lo, hi = sorted((h1.size, h2.size))
        return hi + lo // 2 - 1
    raise UnsupportedPairError(f"no closed form covers ({h1}, {h2})")


def _two_colorable_triangle_max(k: int) -> int:
    # largest complete graph admitting a k-coloring in which every
    # triangle sees exactly two colors
    if k % 2 == 0:
        return 5 ** (k // 2)
    return 2 * 5 ** ((k - 1) // 2)


_NAME = re.compile(r"^([PCKM])(\d+)$")

Bounds = tuple[int, int]


def known_gr(name: str, k: int) -> Union[int, Bounds]:
    """Gallai-Ramsey value GR_k for a named target, from the cited
    closed forms.

    Paths, even cycles and matchings follow one rule each: with h = m // 2
    for P_m and C_m and h = s for M_s, the value is (h-1)k + h + 1, plus
    one for odd paths. For every matching M_s, s >= 1, and every k it is
    exact: Cockayne & Lorimer (The Ramsey number for stripes, J. Austral.
    Math. Soc. 19, 1975) give R_k(M_s) = (s-1)k + s + 1, the layered
    coloring on one vertex fewer is Gallai and holds no M_s, and
    GR_k <= R_k. For paths and cycles it is exact through P9 and C8 (C4
    is k + 4 for k >= 2 and 4 for k = 1, where K_4 is itself a C4), and
    at every size for k <= 2: one color on K_|H| is itself a copy of H,
    and two colors give R(H, H), 3h - 1 plus one for odd paths
    (Gerencser & Gyarfas 1967 for paths, Faudree & Schelp 1974 and
    Rosta 1973 for cycles). Past those it is a (lower, upper) pair: that
    construction lower bound and the general upper bound (h-1)k + 3h.
    Odd cycles through C15 and K3 have their own forms. Raises
    OutOfHypothesesError for targets no cited statement covers.
    """
    if k < 1:
        raise OutOfHypothesesError(f"need k >= 1, got {k}")
    m = _NAME.match(name.strip().upper())
    if not m:
        raise OutOfHypothesesError(
            f"bad target name {name!r}; expected K3, P<m>, C<L> or M<s>"
        )
    letter, size = m.group(1), int(m.group(2))

    if letter == "K" or (letter == "C" and size == 3):
        if letter == "K" and size != 3:
            raise OutOfHypothesesError("complete-graph targets beyond K3 are not covered")
        return _two_colorable_triangle_max(k) + 1

    if letter == "P":
        if size < 3:
            raise OutOfHypothesesError(f"no closed form for P{size}")
        half, exact_through = size // 2, 9
        lower = (half - 1) * k + half + 1 + size % 2
    elif letter == "C":
        if size % 2 == 1:
            half = (size - 1) // 2
            if 2 <= half <= 7:
                return half * 2 ** k + 1
            raise OutOfHypothesesError(f"no closed form for the odd cycle C{size}")
        if size == 4:
            # Faudree, Gould, Jacobson & Magnant (2010) give k + 4 for
            # k >= 2; one color on K_4 is itself a C4
            return k + 4 if k >= 2 else 4
        if size < 6:
            raise OutOfHypothesesError(f"no closed form for C{size}")
        half, exact_through = size // 2, 8
        lower = (half - 1) * k + half + 1
    else:
        if size < 1:
            raise OutOfHypothesesError(f"no closed form for M{size}")
        return (size - 1) * k + size + 1
    if size <= exact_through or k <= 2:
        return lower
    return lower, (half - 1) * k + 3 * half
