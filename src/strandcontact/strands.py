"""Strand diagrams on segmented places, their product and differential.

A strand diagram is a partial bijection on the places of a tuple of
segments: each strand runs from a place p to a place phi(p) >= p on the
same segment.  Crossings between strands are inversions; the product
concatenates diagrams when inversion counts add exactly, and the
differential resolves one crossing at a time.  Everything is linear over
the two-element field, so a sum of diagrams is a frozenset of them and
addition is symmetric difference (`^`); differential() returns one.

Diagrams are validated where they come in, by the StrandDiagram
constructor.  A product or a resolution of valid diagrams is valid by
construction, so multiply() and differential() build theirs through the
trusted _derived() and count crossings on the plain strand tuple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class StrandDiagram:
    """A set of strands (p, phi(p)) with phi(p) >= p, within segments.

    Strands are stored sorted by start place, which is the canonical form
    used for equality in GF(2) sums.
    """

    sizes: tuple[int, ...]
    strands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "strands", tuple(sorted(self.strands)))
        total = sum(self.sizes)
        bounds = _segment_bounds(self.sizes)
        starts = [p for p, _ in self.strands]
        ends = [q for _, q in self.strands]
        if len(set(starts)) != len(starts):
            raise ValueError("duplicate strand start")
        if len(set(ends)) != len(ends):
            raise ValueError("duplicate strand end")
        for p, q in self.strands:
            if not (1 <= p <= total and 1 <= q <= total):
                raise ValueError(f"place out of range in strand {p}->{q}")
            if q < p:
                raise ValueError(f"strand {p}->{q} decreases")
            if bounds[p - 1] != bounds[q - 1]:
                raise ValueError(f"strand {p}->{q} crosses a segment boundary")

    @property
    def strand_count(self) -> int:
        return len(self.strands)

    @property
    def source(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.strands)

    @property
    def target(self) -> frozenset[int]:
        return frozenset(q for _, q in self.strands)

    def image(self, p: int) -> int:
        for a, b in self.strands:
            if a == p:
                return b
        raise KeyError(p)

    def __str__(self) -> str:
        inner = ", ".join(f"{p}->{q}" for p, q in self.strands)
        return "{" + inner + "}"


@functools.lru_cache(maxsize=None)
def _segment_bounds(sizes: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for j, n in enumerate(sizes):
        out.extend([j] * n)
    return tuple(out)


_new = object.__new__
_set = object.__setattr__


def _derived(sizes: tuple[int, ...], strands: tuple[tuple[int, int], ...]) -> StrandDiagram:
    """A diagram known to be valid, with strands already sorted by start."""
    m = _new(StrandDiagram)
    _set(m, "sizes", sizes)
    _set(m, "strands", strands)
    return m


def crossing_count(strands: tuple[tuple[int, int], ...]) -> int:
    """Number of inversions of a strand tuple sorted by start place."""
    count = 0
    earlier: list[int] = []
    for _, q in strands:
        for f in earlier:
            if f > q:
                count += 1
        earlier.append(q)
    return count


def inversions(m: StrandDiagram) -> frozenset[tuple[int, int]]:
    """Pairs of strand starts i < j whose images cross: phi(i) > phi(j)."""
    out = []
    for a in range(len(m.strands)):
        for b in range(a + 1, len(m.strands)):
            (i, fi), (j, fj) = m.strands[a], m.strands[b]
            if fi > fj:
                out.append((i, j))
    return frozenset(out)


def multiply(m: StrandDiagram, n: StrandDiagram) -> Optional[StrandDiagram]:
    """Concatenate diagrams; None when ends mismatch or inversions are lost.

    The composite survives only if its inversion count is exactly the sum
    of the factors' counts (no pair of strands crossing twice).
    """
    if m.sizes != n.sizes or len(m.strands) != len(n.strands):
        return None
    image = dict(n.strands)
    joined = []
    for p, q in m.strands:
        r = image.get(q)
        if r is None:
            return None
        joined.append((p, r))
    composite = tuple(joined)
    if crossing_count(composite) != crossing_count(m.strands) + crossing_count(n.strands):
        return None
    return _derived(m.sizes, composite)


def differential(m: StrandDiagram) -> frozenset[StrandDiagram]:
    """Sum of single-crossing resolutions that lose exactly one inversion.

    Swapping the images of a crossing (i, j) loses exactly one inversion
    iff no strand starting between i and j has its image between theirs;
    every other swap loses an odd number greater than one.
    """
    strands = m.strands
    ends = [q for _, q in strands]
    out = []
    for a, fa in enumerate(ends):
        for b in range(a + 1, len(ends)):
            fb = ends[b]
            if fa <= fb:
                continue
            for fc in ends[a + 1:b]:
                if fb < fc < fa:
                    break  # the swap would lose at least three inversions
            else:
                resolved = list(strands)
                resolved[a] = (strands[a][0], fb)
                resolved[b] = (strands[b][0], fa)
                out.append(_derived(m.sizes, tuple(resolved)))
    return frozenset(out)
