"""The constrained strand algebra of an arc diagram.

Generators are symmetrised constrained diagrams: a set of moving strands
(strictly increasing, hitting each label at most once among starts and at
most once among ends) together with dotted labels, each of which stands
for the GF(2) sum of a horizontal strand at either twin place.  A
generator with j dotted labels expands to 2^j concrete diagrams; products
and differentials are computed on the expansions and regrouped into the
symmetrised basis, erroring loudly if the result ever failed to regroup.

A generator is a (moving, dotted) tuple.  expand is the one check of a
generator's strands: it checks them against the arc diagram itself the
first time the generator is expanded.  Its expansions, their resolutions
and their products are plain strand tuples sorted by start place
(strands.Strands), valid by construction.  start, end, triple,
hom_grading and generator_json do not check: they read only generators
that are checked already, from enumerate_basis, from regroup or accepted
by expand.

Gradings: the homological grading is the multiplicity vector of interior
steps swept by moving strands; the Maslov grading is kept doubled
(maslov2) so the half-integers of the crossing-minus-multiplicity formula
stay exact.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Optional

from .arcdiag import ArcDiagram, _step_from, interior_steps
from .strands import Strands, crossing_count, differential, multiply
from .strands import inversions  # unused here; perfbench/tracing.py wraps this binding

# (start labels, end labels, homological grading): the summand of a generator.
Triple = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


class NotInSymmetrisedSpan(RuntimeError):
    """A product or differential left the symmetrised-generator span.

    This would falsify the basis description of the constrained algebra;
    it signals an internal inconsistency, never expected on valid input.
    """


class SymGenerator(tuple):
    """A symmetrised constrained diagram: moving strands plus dotted labels.

    A (moving, dotted) tuple.  moving is sorted by start place and
    contains no horizontal strand; dotted lists, sorted, the labels
    carrying a symmetrised horizontal pair.  The constructor only sorts:
    expand is the one check of a generator's strands, and start, end,
    triple, hom_grading and generator_json read only checked generators.
    """

    __slots__ = ()

    def __new__(cls, moving: Strands, dotted: tuple[int, ...]) -> SymGenerator:
        return tuple.__new__(cls, (tuple(sorted(moving)), tuple(sorted(dotted))))

    moving = property(itemgetter(0), doc="Moving strands, sorted by start place.")
    dotted = property(itemgetter(1), doc="Dotted labels, sorted.")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"SymGenerator(moving={self.moving!r}, dotted={self.dotted!r})"

    @property
    def strand_count(self) -> int:
        return len(self.moving) + len(self.dotted)


# Builds a generator from (moving, dotted) that are already sorted.
_new = tuple.__new__


def start(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return frozenset([d.matching[p - 1] for p, _ in g.moving]).union(g.dotted)


def end(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return frozenset([d.matching[q - 1] for _, q in g.moving]).union(g.dotted)


@functools.lru_cache(maxsize=None)
def expand(d: ArcDiagram, g: SymGenerator) -> tuple[Strands, ...]:
    """The 2^j concrete diagrams of a generator with j dotted labels, as
    strand tuples sorted by start place.

    ValueError unless the generator is constrained and every expansion is
    a valid diagram: each moving strand p -> q has p < q on one segment of
    d, no label repeats among the starts nor among the ends, and the
    dotted labels are distinct and touch no moving strand.  Distinct
    labels imply distinct places.
    """
    moving = g.moving
    for p, q in moving:
        if p >= q or d.segment_of(p) != d.segment_of(q):  # raises off d
            raise ValueError(f"moving strand {p}->{q} does not rise within a segment")
    label = d.matching
    starts = {label[p - 1] for p, _ in moving}
    ends = {label[q - 1] for _, q in moving}
    if len(starts) != len(moving) or len(ends) != len(moving):
        raise ValueError(f"moving strands {moving} repeat a label among starts or ends")
    touched = starts | ends
    if len(set(g.dotted)) != len(g.dotted) or not touched.isdisjoint(g.dotted):
        raise ValueError(f"dotted labels {list(g.dotted)} clash with moving strands {moving}")
    if not g.dotted:
        return (moving,)
    pairs = [d.pair(lab) for lab in g.dotted]
    return tuple([
        tuple(sorted(moving + tuple([(x, x) for x in places])))
        for places in itertools.product(*pairs)
    ])


def regroup(d: ArcDiagram, terms: frozenset[Strands]) -> frozenset[SymGenerator]:
    """Rewrite a GF(2) sum of strand tuples in the symmetrised basis.

    A constrained term (no label twice among its starts, nor among its
    ends) lies in the expansion of exactly one generator: its moving
    strands, with its horizontal strands' labels dotted.  Each bucket is
    thus a subset of that expansion, and the orbit is complete iff the
    bucket holds all 2^|dotted| of its diagrams.
    """
    label = (0,) + d.matching  # label[p] is the label at place p
    buckets: dict[tuple, list[Strands]] = {}
    for m in terms:
        if len({label[p] for p, _ in m}) != len(m) or len({label[q] for _, q in m}) != len(m):
            raise NotInSymmetrisedSpan(f"diagram {m} is not constrained")
        moving = tuple([strand for strand in m if strand[0] != strand[1]])
        dotted = tuple(sorted([label[p] for p, q in m if p == q]))
        buckets.setdefault((moving, dotted), []).append(m)
    out = []
    for key, got in buckets.items():
        g = _new(SymGenerator, key)
        if len(got) != 1 << len(g.dotted):
            raise NotInSymmetrisedSpan(
                f"partial twin-swap orbit for generator {g}: {sorted(got)}"
            )
        out.append(g)
    return frozenset(out)


def mul_generators(
    d: ArcDiagram, g1: SymGenerator, g2: SymGenerator
) -> frozenset[SymGenerator]:
    """Product of two generators, re-expressed in the symmetrised basis.

    An expansion of g1 composes at most with the one expansion of g2 whose
    start places are its end places (the expansions of g2 differ in their
    starts), so only that pair is multiplied.
    """
    if end(d, g1) != start(d, g2):
        return frozenset()
    by_starts = {tuple([p for p, _ in n]): n for n in expand(d, g2)}
    acc: set[Strands] = set()
    for m in expand(d, g1):
        n = by_starts.get(tuple(sorted([q for _, q in m])))
        if n is not None:
            prod = multiply(m, n)
            if prod is not None:
                acc ^= {prod}
    return regroup(d, frozenset(acc))


def diff_generator(d: ArcDiagram, g: SymGenerator) -> frozenset[SymGenerator]:
    """Differential of a generator in the symmetrised basis."""
    acc: set[Strands] = set()
    for m in expand(d, g):
        acc ^= differential(m)
    return regroup(d, frozenset(acc))


def mul_sums(
    d: ArcDiagram, x: frozenset[SymGenerator], y: frozenset[SymGenerator]
) -> frozenset[SymGenerator]:
    acc: frozenset[SymGenerator] = frozenset()
    for g1 in x:
        for g2 in y:
            acc ^= mul_generators(d, g1, g2)
    return acc


def hom_grading(d: ArcDiagram, g: SymGenerator) -> tuple[int, ...]:
    """Homological grading of a generator; dotted pairs contribute zero."""
    step = _step_from(d)
    h = [0] * len(interior_steps(d))
    for p, q in g.moving:
        for r in range(p, q):
            h[step[r]] += 1
    return tuple(h)


def triple(d: ArcDiagram, g: SymGenerator) -> Triple:
    """The (s, t, h) summand a generator lives in."""
    return (start(d, g), end(d, g), hom_grading(d, g))


def generator_maslov2(
    d: ArcDiagram, g: SymGenerator, h: Optional[tuple[int, ...]] = None
) -> int:
    """Maslov grading of a generator (twin-swap invariant, kept doubled).

    Twice the crossings, minus the multiplicities of h on the steps either
    side of each start place, of the expansion with each dotted label at
    its first place x; the horizontal strand there crosses each moving
    p -> q with p < x < q.  A caller that already holds the generator's
    homological grading h passes it, so that it is not computed again.
    """
    step = _step_from(d)
    if h is None:
        h = hom_grading(d, g)
    dots = [d.pair(lab)[0] for lab in g.dotted]
    crossings = crossing_count(g.moving)
    for p, q in g.moving:
        for x in dots:
            if p < x < q:
                crossings += 1
    multiplicity = 0
    for p in [p for p, _ in g.moving] + dots:
        for i in (step[p - 1], step[p]):
            if i is not None:
                multiplicity += h[i]
    return 2 * crossings - multiplicity


@functools.lru_cache(maxsize=None)
def enumerate_basis(d: ArcDiagram, i: int) -> tuple[SymGenerator, ...]:
    """All symmetrised generators with i strands, deterministically ordered.

    Moving parts are built by choosing strands in increasing start order,
    keeping starts and ends injective on labels; dotted labels fill the
    remaining strand count from labels untouched by the moving part.
    """
    if not 0 <= i <= d.k:
        return ()
    total = 2 * d.k
    label = d.matching
    out: list[SymGenerator] = []

    candidates = [
        (p, q)
        for p in range(1, total + 1)
        for q in range(p + 1, total + 1)
        if d.segment_of(p) == d.segment_of(q)
    ]

    def fill_dotted(moving: tuple[tuple[int, int], ...], touched: set[int]):
        free = [lab for lab in range(1, d.k + 1) if lab not in touched]
        need = i - len(moving)
        for dotted in itertools.combinations(free, need):
            out.append(_new(SymGenerator, (moving, dotted)))

    def extend(pos: int, chosen: list[tuple[int, int]], used_ends: set[int],
               start_labels: set[int], end_labels: set[int]):
        if len(chosen) <= i:
            fill_dotted(tuple(chosen), start_labels | end_labels)
        if len(chosen) == i:
            return
        for idx in range(pos, len(candidates)):
            p, q = candidates[idx]
            if chosen and p <= chosen[-1][0]:
                continue
            if q in used_ends:
                continue
            lp, lq = label[p - 1], label[q - 1]
            if lp in start_labels or lq in end_labels:
                continue
            chosen.append((p, q))
            used_ends.add(q)
            start_labels.add(lp)
            end_labels.add(lq)
            extend(idx + 1, chosen, used_ends, start_labels, end_labels)
            chosen.pop()
            used_ends.discard(q)
            start_labels.discard(lp)
            end_labels.discard(lq)

    extend(0, [], set(), set(), set())
    return tuple(sorted(out, key=lambda g: (g.moving, g.dotted)))


def idempotent(d: ArcDiagram, s: frozenset[int]) -> SymGenerator:
    """The symmetrised idempotent on a label set."""
    return SymGenerator((), tuple(sorted(s)))


def generator_json(d: ArcDiagram, g: SymGenerator) -> dict:
    return {
        "s": sorted(start(d, g)),
        "t": sorted(end(d, g)),
        "moving": [list(strand) for strand in g.moving],
        "dotted": list(g.dotted),
    }
