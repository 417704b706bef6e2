"""The constrained strand algebra of an arc diagram.

Generators are symmetrised constrained diagrams: a set of moving strands
(strictly increasing, hitting each label at most once among starts and at
most once among ends) together with dotted labels, each of which stands
for the GF(2) sum of a horizontal strand at either twin place.  A
generator with j dotted labels expands to 2^j concrete diagrams; products
and differentials are computed on the expansions and regrouped into the
symmetrised basis, erroring loudly if the result ever failed to regroup.

A generator is a (moving, dotted) tuple, and many generators share one
moving part.  The record of a moving part (_moving_part, cached per
diagram and moving strands) is the one check of moving strands: it
checks them against the arc diagram itself when it is first built, and
holds their start and end labels as bitmasks, their homological grading
and their doubled Maslov degree, negated.  start, end, triple,
hom_grading, generator_maslov2 and generator_json read that record, so
they raise ValueError on moving strands that fail the check.  expand
adds the check of the dotted labels (generator_maslov2 checks only that
they lie in 1..k; start, end and triple do not check them).  Its
expansions, their resolutions and their products are plain strand tuples
sorted by start place (strands.Strands), valid by construction.  Label
sets are frozensets from one cache keyed by bitmask, so the summands'
keys share them.

Gradings: the homological grading is the multiplicity vector of interior
steps swept by moving strands; the Maslov grading is kept doubled
(maslov2) so the half-integers of the crossing-minus-multiplicity formula
stay exact.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import AbstractSet, NamedTuple

from .arcdiag import ArcDiagram, _step_from, cached, interior_steps
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
    carrying a symmetrised horizontal pair.  The constructor only sorts.
    The record of the moving part is the one check of the moving strands,
    and expand adds the check of the dotted labels.
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


class _Part(NamedTuple):
    """The record of a checked moving part.  Label l is bit l of a mask.

    neg_maslov2 is minus the doubled Maslov degree of the moving strands
    alone: h summed over the steps either side of each start place, less
    twice the crossings.  Each crossing nests a start place inside a
    strand that covers both its steps, so it is never negative, and held
    this way it is a small int that Python shares, not one per record.
    """

    starts: int
    ends: int
    h: tuple[int, ...]
    neg_maslov2: int


@cached
def _moving_part(d: ArcDiagram, moving: Strands) -> _Part:
    """Check moving strands against d, then record what gradings read.

    ValueError unless each moving strand p -> q has p < q on one segment
    of d and no label repeats among the starts nor among the ends.
    """
    label = d.matching
    step = _step_from(d)
    h = [0] * len(interior_steps(d))
    starts = ends = 0
    for p, q in moving:
        if p >= q or d.segment_of(p) != d.segment_of(q):  # raises off d
            raise ValueError(f"moving strand {p}->{q} does not rise within a segment")
        s, e = 1 << label[p - 1], 1 << label[q - 1]
        if starts & s or ends & e:
            raise ValueError(f"moving strands {moving} repeat a label among starts or ends")
        starts |= s
        ends |= e
        for r in range(p, q):
            h[step[r]] += 1
    neg_maslov2 = -2 * crossing_count(moving)
    for p, _ in moving:
        for i in (step[p - 1], step[p]):
            if i is not None:
                neg_maslov2 += h[i]
    return _Part(starts, ends, tuple(h), neg_maslov2)


@cached
def _label_set(mask: int) -> frozenset[int]:
    """The labels whose bits are set in mask, one shared frozenset per mask."""
    return frozenset([lab for lab in range(mask.bit_length()) if mask >> lab & 1])


def _masks(d: ArcDiagram, g: SymGenerator) -> tuple[int, int, _Part]:
    """(start mask, end mask, moving-part record) of a generator."""
    part = _moving_part(d, g.moving)
    dotted = 0
    for lab in g.dotted:
        dotted |= 1 << lab
    return part.starts | dotted, part.ends | dotted, part


@cached
def _horizontals(d: ArcDiagram) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry lab: the horizontal strands (x, x) at the two places of label
    lab, first place first (entry 0 unused)."""
    return ((),) + tuple(
        tuple([(x, x) for x in d.pair(lab)]) for lab in range(1, d.k + 1)
    )


def start(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return _label_set(_masks(d, g)[0])


def end(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return _label_set(_masks(d, g)[1])


@cached
def expand(d: ArcDiagram, g: SymGenerator) -> tuple[Strands, ...]:
    """The 2^j concrete diagrams of a generator with j dotted labels, as
    strand tuples sorted by start place.

    ValueError unless the generator is constrained and every expansion is
    a valid diagram: the moving strands pass the check of their record,
    and the dotted labels are labels of d, distinct, and touch no moving
    strand.  Distinct labels imply distinct places.
    """
    moving, dotted = g
    part = _moving_part(d, moving)
    if not dotted:
        return (moving,)
    touched = part.starts | part.ends
    seen = 0
    for lab in dotted:
        if not 1 <= lab <= d.k:
            raise ValueError(f"dotted label {lab} is not a label 1..{d.k} of the diagram")
        bit = 1 << lab
        if seen & bit or touched & bit:
            raise ValueError(f"dotted labels {list(dotted)} clash with moving strands {moving}")
        seen |= bit
    horizontal = _horizontals(d)
    return tuple([
        tuple(sorted(moving + chosen))
        for chosen in itertools.product(*[horizontal[lab] for lab in dotted])
    ])


def regroup(d: ArcDiagram, terms: AbstractSet[Strands]) -> frozenset[SymGenerator]:
    """Rewrite a GF(2) sum of strand tuples in the symmetrised basis.

    A constrained term (no label twice among its starts, nor among its
    ends) lies in the expansion of exactly one generator: its moving
    strands, with its horizontal strands' labels dotted.  Each bucket is
    thus a subset of that expansion, and the orbit is complete iff the
    bucket counts all 2^|dotted| of its diagrams.  One pass over a term
    takes its start and end labels as bitmasks (constrained iff each has
    one bit per strand) and its horizontal strands' labels.
    """
    label = (0,) + d.matching  # label[p] is the label at place p
    counts: dict[tuple, int] = {}
    for m in terms:
        starts = ends = 0
        dotted = []
        for p, q in m:
            starts |= 1 << label[p]
            ends |= 1 << label[q]
            if p == q:
                dotted.append(label[p])
        n = len(m)
        if starts.bit_count() != n or ends.bit_count() != n:
            raise NotInSymmetrisedSpan(f"diagram {m} is not constrained")
        dotted.sort()
        key = (tuple([strand for strand in m if strand[0] != strand[1]]), tuple(dotted))
        counts[key] = counts.get(key, 0) + 1
    for key, count in counts.items():
        if count != 1 << len(key[1]):
            raise NotInSymmetrisedSpan(
                f"partial twin-swap orbit for generator {_new(SymGenerator, key)}: "
                f"{count} of its {1 << len(key[1])} expansions"
            )
    return frozenset([_new(SymGenerator, key) for key in counts])


def mul_generators(
    d: ArcDiagram, g1: SymGenerator, g2: SymGenerator
) -> frozenset[SymGenerator]:
    """Product of two generators, re-expressed in the symmetrised basis.

    An expansion of g1 composes at most with the one expansion of g2 whose
    start places are its end places (the expansions of g2 differ in their
    starts), so only that pair is multiplied.  Places determine labels, so
    when the end idempotent of g1 is not the start idempotent of g2 no
    pair matches and the product is empty.
    """
    by_starts = {tuple([p for p, _ in n]): n for n in expand(d, g2)}
    acc: set[Strands] = set()
    for m in expand(d, g1):
        n = by_starts.get(tuple(sorted([q for _, q in m])))
        if n is not None:
            prod = multiply(m, n)
            if prod is not None:
                acc ^= {prod}
    return regroup(d, acc)


def diff_generator(d: ArcDiagram, g: SymGenerator) -> frozenset[SymGenerator]:
    """Differential of a generator in the symmetrised basis."""
    expansions = expand(d, g)
    acc = differential(expansions[0])
    for m in expansions[1:]:
        acc ^= differential(m)
    return regroup(d, acc)


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
    return _moving_part(d, g.moving).h


def triple(d: ArcDiagram, g: SymGenerator) -> Triple:
    """The (s, t, h) summand a generator lives in."""
    s, t, part = _masks(d, g)
    return (_label_set(s), _label_set(t), part.h)


def generator_maslov2(d: ArcDiagram, g: SymGenerator) -> int:
    """Maslov grading of a generator (twin-swap invariant, kept doubled).

    Twice the crossings, minus the multiplicities of h on the steps either
    side of each start place, of the expansion with each dotted label at
    its first place x.  The record holds this for the moving strands; the
    horizontal strand at x adds a crossing with each moving p -> q with
    p < x < q, and x a start place.  ValueError on a dotted label outside
    1..k; the other checks of dotted labels are expand's.
    """
    moving, dotted = g
    part = _moving_part(d, moving)
    maslov2 = -part.neg_maslov2
    if not dotted:
        return maslov2
    h = part.h
    k = d.k
    step = _step_from(d)
    horizontal = _horizontals(d)
    for lab in dotted:
        if not 1 <= lab <= k:
            raise ValueError(f"dotted label {lab} is not a label 1..{k} of the diagram")
        x = horizontal[lab][0][0]  # the strand (x, x) at the first place
        for p, q in moving:
            if p < x < q:
                maslov2 += 2
        for i in (step[x - 1], step[x]):
            if i is not None:
                maslov2 -= h[i]
    return maslov2


@cached
def _basis(d: ArcDiagram) -> tuple[tuple[SymGenerator, ...], ...]:
    """Entry i: every generator with i strands, from one walk over the
    moving parts.

    Moving parts are built by choosing strands in increasing start order,
    keeping starts and ends injective on labels; the walk visits a part
    before its extensions and tries strands in sorted order, so it meets
    the parts sorted.  Each part fills every strand count from its own up
    with the combinations of the labels it leaves untouched, so each entry
    comes out sorted by (moving, dotted).
    """
    k = d.k
    total = 2 * k
    label = d.matching
    candidates = [
        (p, q)
        for p in range(1, total + 1)
        for q in range(p + 1, total + 1)
        if d.segment_of(p) == d.segment_of(q)
    ]
    out: list[list[SymGenerator]] = [[] for _ in range(k + 1)]

    def extend(pos: int, chosen: list[tuple[int, int]], starts: int, ends: int):
        moving = tuple(chosen)
        touched = starts | ends
        free = [lab for lab in range(1, k + 1) if not touched >> lab & 1]
        for need in range(len(free) + 1):
            by_count = out[len(moving) + need]
            for dotted in itertools.combinations(free, need):
                by_count.append(_new(SymGenerator, (moving, dotted)))
        for idx in range(pos, len(candidates)):
            p, q = candidates[idx]
            if chosen and p <= chosen[-1][0]:
                continue
            s, e = 1 << label[p - 1], 1 << label[q - 1]
            if starts & s or ends & e:  # distinct end labels imply distinct ends
                continue
            chosen.append((p, q))
            extend(idx + 1, chosen, starts | s, ends | e)
            chosen.pop()

    extend(0, [], 0, 0)
    return tuple([tuple(gens) for gens in out])


@cached
def enumerate_basis(d: ArcDiagram, i: int) -> tuple[SymGenerator, ...]:
    """All symmetrised generators with i strands, sorted by (moving, dotted)."""
    if not 0 <= i <= d.k:
        return ()
    return _basis(d)[i]


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
