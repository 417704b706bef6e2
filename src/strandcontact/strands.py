"""The strand kernel: products and differentials of strand tuples.

A strand diagram is a partial bijection on the places of a tuple of
segments, each strand (p, phi(p)) running up, phi(p) >= p, within one
segment.  The kernel takes a valid diagram as the plain tuple of its
strands sorted by start place, the segments implicit.  Crossings are
inversions; the product concatenates diagrams when inversion counts add
exactly, and the differential resolves one crossing at a time.  Results
of valid diagrams are valid by construction, so they are built as plain
tuples.  Over GF(2) a sum of diagrams is a frozenset of them and addition
is symmetric difference (`^`); differential() returns one.
"""

from __future__ import annotations

from typing import Optional

# The strands (p, phi(p)) of a valid diagram, sorted by start place.
Strands = tuple[tuple[int, int], ...]


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
