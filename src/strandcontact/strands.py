"""Strand diagrams on segmented places, their product and differential.

A strand diagram is a partial bijection on the places of a tuple of
segments: each strand runs from a place p to a place phi(p) >= p on the
same segment.  Crossings between strands are inversions; the product
concatenates diagrams when inversion counts add exactly, and the
differential resolves one crossing at a time.  Everything is linear over
the two-element field, so a sum of diagrams is a frozenset of them and
addition is symmetric difference (`^`); differential() returns one.

StrandDiagram is the validating type at the boundary: a (sizes, strands)
tuple whose constructor checks the strands against the segments.  The
kernel below (crossing_count, inversions, multiply, differential) works
on the plain strand tuple of a valid diagram, sorted by start place,
with the segments implicit.  A product or a resolution of valid diagrams
is valid by construction, so the kernel builds its results as plain
tuples without re-validating them; hashing and equality of those tuples
run in C.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Optional

# The strands (p, phi(p)) of a valid diagram, sorted by start place.
Strands = tuple[tuple[int, int], ...]


class StrandDiagram(tuple):
    """A set of strands (p, phi(p)) with phi(p) >= p, within segments.

    A (sizes, strands) tuple.  Strands are stored sorted by start place,
    which is the canonical form used for equality in GF(2) sums.
    """

    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...], strands: Strands) -> StrandDiagram:
        sizes = tuple(sizes)
        strands = tuple(sorted(strands))
        total = sum(sizes)
        bounds = _segment_bounds(sizes)
        starts = [p for p, _ in strands]
        ends = [q for _, q in strands]
        if len(set(starts)) != len(starts):
            raise ValueError("duplicate strand start")
        if len(set(ends)) != len(ends):
            raise ValueError("duplicate strand end")
        for p, q in strands:
            if not (1 <= p <= total and 1 <= q <= total):
                raise ValueError(f"place out of range in strand {p}->{q}")
            if q < p:
                raise ValueError(f"strand {p}->{q} decreases")
            if bounds[p - 1] != bounds[q - 1]:
                raise ValueError(f"strand {p}->{q} crosses a segment boundary")
        return tuple.__new__(cls, (sizes, strands))

    sizes = property(itemgetter(0), doc="Number of places on each segment.")
    strands = property(itemgetter(1), doc="The strands, sorted by start place.")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"StrandDiagram(sizes={self.sizes!r}, strands={self.strands!r})"

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


def crossing_count(strands: Strands) -> int:
    """Number of inversions of a strand tuple sorted by start place."""
    count = 0
    earlier: list[int] = []
    for _, q in strands:
        for f in earlier:
            if f > q:
                count += 1
        earlier.append(q)
    return count


def inversions(strands: Strands) -> frozenset[tuple[int, int]]:
    """Pairs of strand starts i < j whose images cross: phi(i) > phi(j)."""
    out = []
    for a in range(len(strands)):
        for b in range(a + 1, len(strands)):
            (i, fi), (j, fj) = strands[a], strands[b]
            if fi > fj:
                out.append((i, j))
    return frozenset(out)


def multiply(m: Strands, n: Strands) -> Optional[Strands]:
    """Concatenate two diagrams on the same segments; None when ends
    mismatch or inversions are lost.

    The composite survives only if its inversion count is exactly the sum
    of the factors' counts (no pair of strands crossing twice).
    """
    if len(m) != len(n):
        return None
    image = dict(n)
    joined = []
    for p, q in m:
        r = image.get(q)
        if r is None:
            return None
        joined.append((p, r))
    composite = tuple(joined)
    if crossing_count(composite) != crossing_count(m) + crossing_count(n):
        return None
    return composite


def differential(m: Strands) -> frozenset[Strands]:
    """Sum of single-crossing resolutions that lose exactly one inversion.

    Swapping the images of a crossing (i, j) loses exactly one inversion
    iff no strand starting between i and j has its image between theirs;
    every other swap loses an odd number greater than one.  Scanning the
    strands after i, below is the highest image under phi(i) seen so far,
    so a crossing strand j qualifies iff its image lies above it.
    """
    ends = [q for _, q in m]
    out = []
    for a, fa in enumerate(ends):
        below = 0
        for b in range(a + 1, len(ends)):
            fb = ends[b]
            if below < fb < fa:
                resolved = list(m)
                resolved[a] = (m[a][0], fb)
                resolved[b] = (m[b][0], fa)
                out.append(tuple(resolved))
                below = fb
    return frozenset(out)
