"""The constrained strand algebra of an arc diagram.

Generators are symmetrised constrained diagrams: a set of moving strands
(strictly increasing, hitting each label at most once among starts and at
most once among ends) together with dotted labels, each of which stands
for the GF(2) sum of a horizontal strand at either twin place.  A
generator with j dotted labels expands to 2^j concrete diagrams; products
and differentials are computed on the expansions and regrouped into the
symmetrised basis, erroring loudly if the result ever failed to regroup.
The differential of an undotted generator is already a set of generators
and is not regrouped; the summand build refuses any term of it that is
not a generator of its basis.

A generator is a (moving, dotted) tuple, and many generators share one
moving part.  The record of a moving part (_moving_part, cached per
diagram and moving strands) is the one check of moving strands: it
checks them against the arc diagram itself when it is first built, and
holds their start and end labels as bitmasks, their homological grading
and their doubled Maslov degree, negated; records with equal gradings
share one tuple (_grading).  triple and generator_maslov2 read that
record, so they raise ValueError on moving strands that fail the check.
expansions adds the check of the dotted labels; ArcDiagram.pair is the
one check that they lie in 1..k, for expansions and generator_maslov2
alike (triple does not check them).  The expansions, their resolutions
and their products are plain strand tuples sorted by start place
(strands.Strands), valid by construction.
Label sets are frozensets from one cache keyed by bitmask, so the
summands' keys share them.  enumerate_basis walks the generators of one
strand count alone and is in the block scope, so no cache holds the
generators of the whole diagram; those of one strand count share one
dotted tuple per label set and one tuple per moving strand.

A result is cached only where it is read again: products read a factor
many times, so expand caches, from its expansions, the masks of their
start and end places, while diff_generator, called once per generator,
reads expansions uncached.  expand is keyed by a generator, so it is in
the block scope.

Gradings: the homological grading is the multiplicity vector of interior
steps swept by moving strands; the Maslov grading is kept doubled
(maslov2) so the half-integers of the crossing-minus-multiplicity formula
stay exact.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, NamedTuple

from .arcdiag import ArcDiagram, block_cached, cached
from .strands import Strands, crossing_count, differential, multiply
from .strands import inversions  # unused here; perfbench/tracing.py wraps this binding

# (start labels, end labels, homological grading): the summand of a generator.
Triple = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


class NotInSymmetrisedSpan(RuntimeError):
    """A product or differential left the symmetrised-generator span.

    This would falsify the basis description of the constrained algebra;
    it signals an internal inconsistency, never expected on valid input.
    """


class _SymGeneratorFields(NamedTuple):
    moving: Strands
    dotted: tuple[int, ...]


class SymGenerator(_SymGeneratorFields):
    """A symmetrised constrained diagram: moving strands plus dotted labels.

    A (moving, dotted) tuple.  moving is sorted by start place and
    contains no horizontal strand; dotted lists, sorted, the labels
    carrying a symmetrised horizontal pair.  The constructor only sorts.
    The record of the moving part is the one check of the moving strands,
    and the expansions add the check of the dotted labels.
    """

    __slots__ = ()

    def __new__(cls, moving: Strands, dotted: tuple[int, ...]) -> SymGenerator:
        return super().__new__(cls, tuple(sorted(moving)), tuple(sorted(dotted)))

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
    bit = d.label_bits
    step = d.step_from
    h = [0] * len(d.interior_steps)
    starts = ends = 0
    for p, q in moving:
        if p >= q or d.segment_of(p) != d.segment_of(q):  # raises off d
            raise ValueError(f"moving strand {p}->{q} does not rise within a segment")
        s, e = bit[p], bit[q]
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
    return _Part(starts, ends, _grading(tuple(h)), neg_maslov2)


@cached
def _grading(h: tuple[int, ...]) -> tuple[int, ...]:
    """h itself, the first time: records with equal gradings share one tuple."""
    return h


@cached
def label_set(mask: int) -> frozenset[int]:
    """The labels whose bits are set in mask, one shared frozenset per mask."""
    return frozenset([lab for lab in range(mask.bit_length()) if mask >> lab & 1])


@cached
def _horizontals(d: ArcDiagram) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry lab: the horizontal strands (x, x) at the two places of label
    lab, first place first (entry 0 unused)."""
    return ((),) + tuple(
        tuple([(x, x) for x in d.pair(lab)]) for lab in range(1, d.k + 1)
    )


def expansions(d: ArcDiagram, g: SymGenerator) -> tuple[Strands, ...]:
    """The 2^j concrete diagrams of a generator with j dotted labels, as
    strand tuples sorted by start place.

    ValueError unless the generator is constrained and every expansion is
    a valid diagram: the moving strands pass the check of their record,
    and the dotted labels are labels of d (pair's check), distinct, and
    touch no moving strand.  Distinct labels imply distinct places.
    """
    moving, dotted = g
    part = _moving_part(d, moving)
    if not dotted:
        return (moving,)
    touched = part.starts | part.ends
    seen = 0
    for lab in dotted:
        d.pair(lab)  # raises on a label outside 1..k
        bit = 1 << lab
        if seen & bit or touched & bit:
            raise ValueError(f"dotted labels {list(dotted)} clash with moving strands {moving}")
        seen |= bit
    horizontal = _horizontals(d)
    return tuple([
        tuple(sorted(moving + chosen))
        for chosen in itertools.product(*[horizontal[lab] for lab in dotted])
    ])


@block_cached
def expand(d: ArcDiagram, g: SymGenerator) -> dict[int, tuple[int, Strands]]:
    """What a product reads of a factor g: its expansions, each keyed by
    its start places, with its end places.  A set of places is the
    bitmask with bit p for place p; the expansions of g differ in their
    starts.  Its misses count the generators multiplied, and a
    generator's expansions have its strand count, so in the block scope."""
    index = {}
    for m in expansions(d, g):
        starts = ends = 0
        for p, q in m:
            starts |= 1 << p
            ends |= 1 << q
        index[starts] = (ends, m)
    return index


def regroup(d: ArcDiagram, terms: AbstractSet[Strands]) -> frozenset[SymGenerator]:
    """Rewrite a GF(2) sum of strand tuples in the symmetrised basis.

    A constrained term (no label twice among its starts, nor among its
    ends) lies in the expansion of exactly one generator: its moving
    strands, with its horizontal strands' labels dotted.  Each bucket is
    thus a subset of that expansion, and the orbit is complete iff the
    bucket counts all 2^|dotted| of its diagrams.  One pass over a term
    takes its start and end labels as bitmasks, each place's bit read
    from the diagram's table (constrained iff each mask has one bit per
    strand), its moving strands and its horizontal strands' labels.
    """
    bit = d.label_bits
    label = d.matching
    counts: dict[tuple, int] = {}
    for m in terms:
        starts = ends = 0
        moving = []
        dotted = []
        for strand in m:
            p, q = strand
            starts |= bit[p]
            ends |= bit[q]
            if p == q:
                dotted.append(label[p - 1])
            else:
                moving.append(strand)
        n = len(m)
        if starts.bit_count() != n or ends.bit_count() != n:
            raise NotInSymmetrisedSpan(f"diagram {m} is not constrained")
        dotted.sort()
        key = (tuple(moving), tuple(dotted))
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
    starts), so only that pair is multiplied; both sides key a set of
    places as the bitmask with bit p for place p.  Places determine
    labels, so when the end idempotent of g1 is not the start idempotent
    of g2 no pair matches and the product is empty.  Both sides' masks
    are read from the factors' cached indexes (expand).
    """
    by_starts = expand(d, g2)
    acc: set[Strands] = set()
    for ends, m in expand(d, g1).values():
        right = by_starts.get(ends)
        if right is not None:
            prod = multiply(m, right[1])
            if prod is not None:
                acc ^= {prod}
    return regroup(d, acc)


def diff_generator(d: ArcDiagram, g: SymGenerator) -> frozenset[SymGenerator]:
    """Differential of a generator in the symmetrised basis, from its
    uncached expansions: each generator is differentiated once.

    An undotted generator's differential is already a set of generators:
    resolving p1 -> q1, p2 -> q2 with p1 < p2 < q2 < q1 keeps the start
    and end places, so each term is constrained and has no horizontal
    strand, and is its own orbit.  Its terms skip regroup; a term that is
    not a generator of the basis is refused where the summand is built.
    """
    ms = expansions(d, g)
    if not g.dotted:
        return frozenset([_new(SymGenerator, (term, ())) for term in differential(ms[0])])
    acc = differential(ms[0])
    for m in ms[1:]:
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


def triple(d: ArcDiagram, g: SymGenerator) -> Triple:
    """The (s, t, h) summand a generator lives in: its start and end
    labels, each dotted label among both, and the grading of its moving
    strands (dotted pairs contribute zero)."""
    part = _moving_part(d, g.moving)
    dotted = 0
    for lab in g.dotted:
        dotted |= 1 << lab
    return (label_set(part.starts | dotted), label_set(part.ends | dotted), part.h)


def generator_maslov2(d: ArcDiagram, g: SymGenerator) -> int:
    """Maslov grading of a generator (twin-swap invariant, kept doubled).

    Twice the crossings, minus the multiplicities of h on the steps either
    side of each start place, of the expansion with each dotted label at
    its first place x.  The record holds this for the moving strands; the
    horizontal strand at x adds a crossing with each moving p -> q with
    p < x < q, and x a start place.  ArcDiagram.pair raises ValueError on
    a dotted label outside 1..k; the other checks of dotted labels are
    the expansions'.
    """
    moving, dotted = g
    part = _moving_part(d, moving)
    maslov2 = -part.neg_maslov2
    if not dotted:
        return maslov2
    h = part.h
    step = d.step_from
    for lab in dotted:
        x = d.pair(lab)[0]  # the strand (x, x) at the first place
        for p, q in moving:
            if p < x < q:
                maslov2 += 2
        for i in (step[x - 1], step[x]):
            if i is not None:
                maslov2 -= h[i]
    return maslov2


@block_cached
def enumerate_basis(d: ArcDiagram, i: int) -> tuple[SymGenerator, ...]:
    """All symmetrised generators with i strands, sorted by (moving, dotted),
    from one walk over the moving parts of at most i strands.

    Moving parts are built by choosing strands in increasing start order,
    keeping starts and ends injective on labels; the walk visits a part
    before its extensions and tries strands in sorted order, so it meets
    the parts sorted.  Each part is followed by the combinations of
    i - |moving| labels it leaves untouched, so the generators come out
    sorted.  They share the table's strand tuples and one dotted tuple per
    label set.
    """
    k = d.k
    if not 0 <= i <= k:
        return ()
    total = 2 * k
    bit = d.label_bits
    # (strand, start label bit, end label bit, index of the first strand
    # that starts higher) for each strand rising within a segment, sorted
    table: list[tuple[tuple[int, int], int, int, int]] = []
    for p in range(1, total + 1):
        seg = d.segment_of(p)
        rising = [q for q in range(p + 1, total + 1) if d.segment_of(q) == seg]
        table += [((p, q), bit[p], bit[q], len(table) + len(rising)) for q in rising]
    out: list[SymGenerator] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}

    def extend(pos: int, chosen: list[tuple[int, int]], starts: int, ends: int):
        touched = starts | ends
        need = i - len(chosen)
        if need <= k - touched.bit_count():
            moving = tuple(chosen)
            free = [lab for lab in range(1, k + 1) if not touched >> lab & 1]
            for dotted in itertools.combinations(free, need):
                out.append(_new(SymGenerator, (moving, shared.setdefault(dotted, dotted))))
        if not need:
            return
        for strand, s, e, higher in table[pos:]:
            if starts & s or ends & e:  # distinct end labels imply distinct ends
                continue
            if need == 1:  # the extension is one undotted generator
                out.append(_new(SymGenerator, ((*chosen, strand), ())))
                continue
            chosen.append(strand)
            extend(higher, chosen, starts | s, ends | e)
            chosen.pop()

    extend(0, [], 0, 0)
    # extend refers to itself through its closure; without this the cycle
    # would hold the walk's lists until the cyclic collector ran
    del extend
    return tuple(out)


def idempotent(d: ArcDiagram, s: frozenset[int]) -> SymGenerator:
    """The symmetrised idempotent on a label set."""
    return SymGenerator((), tuple(sorted(s)))
