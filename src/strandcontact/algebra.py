"""The constrained strand algebra of an arc diagram.

Generators are symmetrised constrained diagrams: a set of moving strands
(strictly increasing, hitting each label at most once among starts and at
most once among ends) together with dotted labels, each of which stands
for the GF(2) sum of a horizontal strand at either twin place.  A
generator with j dotted labels expands to 2^j concrete diagrams; products
and differentials are computed on the expansions and regrouped into the
symmetrised basis, erroring loudly if the result ever failed to regroup.

Gradings: the homological grading is the multiplicity vector of interior
steps swept by moving strands; the Maslov grading is kept doubled
(maslov2) so the half-integers of the crossing-minus-multiplicity formula
stay exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .arcdiag import ArcDiagram, interior_steps, step_after, step_before
from .strands import StrandDiagram, differential, inversions, multiply

# (start labels, end labels, homological grading): the summand of a generator.
Triple = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


class NotInSymmetrisedSpan(RuntimeError):
    """A product or differential left the symmetrised-generator span.

    This would falsify the basis description of the constrained algebra;
    it signals an internal inconsistency, never expected on valid input.
    """


@dataclass(frozen=True)
class SymGenerator:
    """A symmetrised constrained diagram: moving strands plus dotted labels.

    moving is sorted by start place and contains no horizontal strand;
    dotted lists labels carrying a symmetrised horizontal pair.
    """

    moving: tuple[tuple[int, int], ...]
    dotted: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moving", tuple(sorted(self.moving)))
        object.__setattr__(self, "dotted", tuple(sorted(self.dotted)))

    @property
    def strand_count(self) -> int:
        return len(self.moving) + len(self.dotted)


def start(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return frozenset(d.label(p) for p, _ in g.moving) | frozenset(g.dotted)


def end(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    return frozenset(d.label(q) for _, q in g.moving) | frozenset(g.dotted)


@functools.lru_cache(maxsize=None)
def expand(d: ArcDiagram, g: SymGenerator) -> tuple[StrandDiagram, ...]:
    """The 2^j concrete diagrams of a generator with j dotted labels."""
    out = []
    pairs = [d.pair(lab) for lab in g.dotted]
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        horizontals = tuple((pair[c], pair[c]) for pair, c in zip(pairs, choice))
        out.append(StrandDiagram(d.segment_sizes, g.moving + horizontals))
    return tuple(out)


def is_constrained(d: ArcDiagram, m: StrandDiagram) -> bool:
    """Whether a diagram begins and ends at sections (no matched pair)."""
    src = [d.label(p) for p in m.source]
    tgt = [d.label(q) for q in m.target]
    return len(set(src)) == len(src) and len(set(tgt)) == len(tgt)


def from_diagram(d: ArcDiagram, m: StrandDiagram) -> SymGenerator:
    """The unique generator whose expansion contains a constrained diagram."""
    if not is_constrained(d, m):
        raise NotInSymmetrisedSpan(f"diagram {m} is not constrained")
    moving = tuple((p, q) for p, q in m.strands if p != q)
    dotted = tuple(d.label(p) for p, q in m.strands if p == q)
    return SymGenerator(moving, dotted)


def regroup(d: ArcDiagram, terms: frozenset[StrandDiagram]) -> frozenset[SymGenerator]:
    """Rewrite a GF(2) sum of diagrams in the symmetrised basis.

    Greedy orbit matching: classify each diagram by its generator and
    require every orbit to be complete.
    """
    buckets: dict[SymGenerator, set[StrandDiagram]] = {}
    for m in terms:
        buckets.setdefault(from_diagram(d, m), set()).add(m)
    out = set()
    for g, got in buckets.items():
        if got != set(expand(d, g)):
            raise NotInSymmetrisedSpan(
                f"partial twin-swap orbit for generator {g}: {sorted(map(str, got))}"
            )
        out.add(g)
    return frozenset(out)


def mul_generators(
    d: ArcDiagram, g1: SymGenerator, g2: SymGenerator
) -> frozenset[SymGenerator]:
    """Product of two generators, re-expressed in the symmetrised basis."""
    if end(d, g1) != start(d, g2):
        return frozenset()
    acc: set[StrandDiagram] = set()
    for m in expand(d, g1):
        for n in expand(d, g2):
            prod = multiply(m, n)
            if prod is not None:
                acc ^= {prod}
    return regroup(d, frozenset(acc))


def diff_generator(d: ArcDiagram, g: SymGenerator) -> frozenset[SymGenerator]:
    """Differential of a generator in the symmetrised basis."""
    acc: set[StrandDiagram] = set()
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


def diff_sum(d: ArcDiagram, x: frozenset[SymGenerator]) -> frozenset[SymGenerator]:
    acc: frozenset[SymGenerator] = frozenset()
    for g in x:
        acc ^= diff_generator(d, g)
    return acc


def hom_vector(d: ArcDiagram, m: StrandDiagram) -> tuple[int, ...]:
    """Multiplicity of each interior step under the strands of a diagram."""
    return tuple(
        sum(1 for p, q in m.strands if p <= s < q) for s in interior_steps(d)
    )


def hom_grading(d: ArcDiagram, g: SymGenerator) -> tuple[int, ...]:
    """Homological grading of a generator; dotted pairs contribute zero."""
    return hom_vector(d, StrandDiagram(d.segment_sizes, g.moving))


def triple(d: ArcDiagram, g: SymGenerator) -> Triple:
    """The (s, t, h) summand a generator lives in."""
    return (start(d, g), end(d, g), hom_grading(d, g))


def doubled_multiplicity(d: ArcDiagram, places: frozenset[int], h: tuple[int, ...]) -> int:
    """Twice the summed average multiplicity of h around the given places."""
    total = 0
    for p in places:
        for i in (step_before(d, p), step_after(d, p)):
            if i is not None:
                total += h[i]
    return total


def maslov2(d: ArcDiagram, m: StrandDiagram) -> int:
    """Doubled Maslov grading: crossings minus multiplicity at the source."""
    h = hom_vector(d, m)
    return 2 * len(inversions(m)) - doubled_multiplicity(d, m.source, h)


def generator_maslov2(d: ArcDiagram, g: SymGenerator) -> int:
    """Maslov grading of a generator (twin-swap invariant, kept doubled)."""
    return maslov2(d, expand(d, g)[0])


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
    out: list[SymGenerator] = []

    candidates = [
        (p, q)
        for p in range(1, total + 1)
        for q in range(p + 1, total + 1)
        if d.segment_of(p) == d.segment_of(q)
    ]

    def fill_dotted(moving: tuple[tuple[int, int], ...]):
        touched = {d.label(p) for p, _ in moving} | {d.label(q) for _, q in moving}
        free = [lab for lab in range(1, d.k + 1) if lab not in touched]
        need = i - len(moving)
        for dotted in itertools.combinations(free, need):
            out.append(SymGenerator(moving, dotted))

    def extend(pos: int, chosen: list[tuple[int, int]], used_ends: set[int],
               start_labels: set[int], end_labels: set[int]):
        if len(chosen) <= i:
            fill_dotted(tuple(chosen))
        if len(chosen) == i:
            return
        for idx in range(pos, len(candidates)):
            p, q = candidates[idx]
            if chosen and p <= chosen[-1][0]:
                continue
            if q in used_ends:
                continue
            lp, lq = d.label(p), d.label(q)
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
