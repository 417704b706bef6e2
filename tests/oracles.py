"""Brute-force reference implementations that only the tests use.

Each one is the exhaustive way of doing a job that the package does more
cleverly, so a test can compare the two on small inputs.
"""

import functools
import itertools
from typing import Optional

from strandcontact.algebra import (
    NotInSymmetrisedSpan,
    SymGenerator,
    Triple,
    end,
    start,
)
from strandcontact.arcdiag import (
    ArcDiagram,
    QuadSurface,
    interior_steps,
    step_after,
    step_before,
    to_quad_surface,
)
from strandcontact.contact import ContactStructure, ca_table, make_structure, stack
from strandcontact.isoverify import _canonical_key, _compositions, _pairings, _diagram_ok
from strandcontact.strands import StrandDiagram, inversions


def enumerate_tight_pair(
    surface: QuadSurface, bottom: frozenset[int], top: frozenset[int]
) -> tuple[ContactStructure, ...]:
    """All tight structures between two basic dividing sets.

    Candidates are the subsets of interior steps, in ascending bitmask
    order, so the output order is deterministic.
    """
    n = len(interior_steps(surface.diagram))
    out = []
    for bits in range(1 << n):
        used = frozenset(i for i in range(n) if (bits >> i) & 1)
        xi = make_structure(surface, bottom, top, used)
        if xi.tight:
            out.append(xi)
    return tuple(out)


def dense_products(d: ArcDiagram) -> dict[tuple[int, int], int | None]:
    """Stack every ordered pair of basis structures, composable or not.

    (i, j) -> basis index of the stacked structure, or None when it is
    zero, over all dim^2 pairs of ca_table(d).basis.
    """
    surface = to_quad_surface(d)
    basis = ca_table(d).basis
    position = {xi: i for i, xi in enumerate(basis)}
    products = {}
    for i, x0 in enumerate(basis):
        for j, x1 in enumerate(basis):
            prod = stack(surface, x0, x1)
            products[(i, j)] = position[prod] if prod is not None else None
    return products


def used_steps(m: StrandDiagram) -> frozenset[tuple[int, int]]:
    """Interior steps (p, p + 1) swept by some strand's vertical extent."""
    ends = set(itertools.accumulate(m.sizes))  # last place of each segment
    return frozenset(
        (s, s + 1)
        for s in range(1, sum(m.sizes))
        if s not in ends and any(p <= s < q for p, q in m.strands)
    )


def all_diagrams(sizes: tuple[int, ...], count: int) -> tuple[StrandDiagram, ...]:
    """Every strand diagram with the given strand count, lexicographically."""
    total = sum(sizes)
    bounds = tuple(j for j, n in enumerate(sizes) for _ in range(n))  # segment of each place
    results: list[StrandDiagram] = []

    def extend(start: int, chosen: list[tuple[int, int]], used_ends: set[int]):
        if len(chosen) == count:
            results.append(StrandDiagram(sizes, tuple(chosen)))
            return
        if total - start + 1 < count - len(chosen):
            return
        for p in range(start, total + 1):
            seg = bounds[p - 1]
            for q in range(p, total + 1):
                if bounds[q - 1] != seg:
                    break
                if q in used_ends:
                    continue
                chosen.append((p, q))
                used_ends.add(q)
                extend(p + 1, chosen, used_ends)
                chosen.pop()
                used_ends.discard(q)

    extend(1, [], set())
    return tuple(results)


def sections(d: ArcDiagram, s: frozenset[int]) -> list[frozenset[int]]:
    """All twin-choice place sets mapping bijectively onto the labels s."""
    labels = sorted(s)
    out = []
    for choice in itertools.product((0, 1), repeat=len(labels)):
        out.append(
            frozenset(d.pair(lab)[c] for lab, c in zip(labels, choice))
        )
    return out


# ---------------------------------------------------------------------------
# The chain kernel by the direct route: every diagram goes through the
# validating StrandDiagram constructor, crossings are recounted as sets,
# orbits are compared as sets and gradings are read off a concrete diagram.


def multiply_by_recount(m: StrandDiagram, n: StrandDiagram) -> Optional[StrandDiagram]:
    """Concatenation, zero unless the inversion sets' sizes add up."""
    if m.sizes != n.sizes or m.target != n.source:
        return None
    composite = StrandDiagram(m.sizes, tuple((p, n.image(q)) for p, q in m.strands))
    if len(inversions(composite)) != len(inversions(m)) + len(inversions(n)):
        return None
    return composite


def differential_by_recount(m: StrandDiagram) -> frozenset[StrandDiagram]:
    """Resolve every crossing and keep those that lose exactly one inversion."""
    base = len(inversions(m))
    out: set[StrandDiagram] = set()
    for i, j in inversions(m):
        swapped = dict(m.strands)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        resolved = StrandDiagram(m.sizes, tuple(swapped.items()))
        if len(inversions(resolved)) == base - 1:
            out ^= {resolved}
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def validating_expand(d: ArcDiagram, g: SymGenerator) -> tuple[StrandDiagram, ...]:
    """The 2^j concrete diagrams of a generator, each one validated."""
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


def regroup_by_sets(d: ArcDiagram, terms: frozenset[StrandDiagram]) -> frozenset[SymGenerator]:
    """Bucket terms by generator; each bucket must equal its whole expansion."""
    buckets: dict[SymGenerator, set[StrandDiagram]] = {}
    for m in terms:
        buckets.setdefault(from_diagram(d, m), set()).add(m)
    for g, got in buckets.items():
        if got != set(validating_expand(d, g)):
            raise NotInSymmetrisedSpan(f"partial twin-swap orbit for generator {g}")
    return frozenset(buckets)


def mul_generators_by_recount(
    d: ArcDiagram, g1: SymGenerator, g2: SymGenerator
) -> frozenset[SymGenerator]:
    if end(d, g1) != start(d, g2):
        return frozenset()
    acc: set[StrandDiagram] = set()
    for m in validating_expand(d, g1):
        for n in validating_expand(d, g2):
            prod = multiply_by_recount(m, n)
            if prod is not None:
                acc ^= {prod}
    return regroup_by_sets(d, frozenset(acc))


def diff_generator_by_recount(d: ArcDiagram, g: SymGenerator) -> frozenset[SymGenerator]:
    acc: set[StrandDiagram] = set()
    for m in validating_expand(d, g):
        acc ^= differential_by_recount(m)
    return regroup_by_sets(d, frozenset(acc))


def hom_vector(d: ArcDiagram, m: StrandDiagram) -> tuple[int, ...]:
    """Multiplicity of each interior step under the strands of a diagram."""
    return tuple(
        sum(1 for p, q in m.strands if p <= s < q) for s in interior_steps(d)
    )


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


def generator_maslov2_of_expansion(d: ArcDiagram, g: SymGenerator) -> int:
    return maslov2(d, validating_expand(d, g)[0])


def triple_of_expansion(d: ArcDiagram, g: SymGenerator) -> Triple:
    return (start(d, g), end(d, g), hom_vector(d, StrandDiagram(d.segment_sizes, g.moving)))


# ---------------------------------------------------------------------------
# The corpus, validating every candidate before deduplicating


def corpus_validate_first(max_k: int, max_l: int) -> list[ArcDiagram]:
    """isoverify.corpus as it was: validate each candidate, then deduplicate."""
    out: list[ArcDiagram] = []
    seen: set = set()
    for k in range(1, max_k + 1):
        places = list(range(1, 2 * k + 1))
        for l in range(1, min(max_l, 2 * k) + 1):
            for comp in _compositions(2 * k, l):
                for pairing in _pairings(places):
                    matching = [0] * (2 * k)
                    for lab, (v, w) in enumerate(pairing, start=1):
                        matching[v - 1] = matching[w - 1] = lab
                    d = ArcDiagram(tuple(comp), tuple(matching))
                    if not _diagram_ok(d):
                        continue
                    key = _canonical_key(d)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(d)
    return out
