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

from .arcdiag import block_cached

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
    mismatch or a pair of strands crosses twice.

    The composite survives only if its inversion count is exactly the sum
    of the factors' counts, i.e. no pair crosses in both factors.  Strands
    a before b of m, joined to n's r_a and r_b, cross in m iff q_a > q_b,
    and then in n iff r_a < r_b; one pass over the joined strands tests
    every earlier one.
    """
    if len(m) != len(n):
        return None
    image = dict(n)
    joined = []
    earlier: list[tuple[int, int]] = []
    for p, q in m:
        r = image.get(q)
        if r is None:
            return None
        for qa, ra in earlier:
            if qa > q and ra < r:
                return None
        earlier.append((q, r))
        joined.append((p, r))
    return tuple(joined)


@block_cached
def _resolving_pairs(ends: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Index pairs (a, b) of the crossings whose swap loses exactly one
    inversion, for strands with these end places in start order.

    Swapping the images of a crossing (i, j) loses exactly one inversion
    iff no strand starting between i and j has its image between theirs;
    every other swap loses an odd number greater than one.  Scanning the
    strands after i, below is the highest image under phi(i) seen so far,
    so a crossing strand j qualifies iff its image lies above it.  A key
    has one end place per strand, so the cache is in the block scope.
    """
    out = []
    for a, fa in enumerate(ends):
        below = 0
        for b in range(a + 1, len(ends)):
            fb = ends[b]
            if below < fb < fa:
                out.append((a, b))
                below = fb
    return tuple(out)


def differential(m: Strands) -> frozenset[Strands]:
    """Sum of single-crossing resolutions that lose exactly one inversion.

    Which crossings resolve depends only on the order of the end places,
    so it is looked up once per tuple of end places.
    """
    out = []
    for a, b in _resolving_pairs(tuple([q for _, q in m])):
        resolved = list(m)
        resolved[a] = (m[a][0], m[b][1])
        resolved[b] = (m[b][0], m[a][1])
        out.append(tuple(resolved))
    return frozenset(out)
