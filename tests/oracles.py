"""Brute-force reference implementations that only the tests use.

Each one is the exhaustive way of doing a job that the package does more
cleverly, so a test can compare the two on small inputs.  arc_diagrams
draws the random inputs that property tests compare them on, and
valid_arc_diagrams random valid ones.
"""

import functools
import itertools
from operator import itemgetter
from typing import Optional

from hypothesis import strategies as st

from strandcontact.algebra import (
    NotInSymmetrisedSpan,
    SymGenerator,
    Triple,
    _new,
    diff_generator,
    generator_maslov2,
    triple,
)
from strandcontact.arcdiag import (
    ArcDiagram,
    QuadSurface,
    to_quad_surface,
)
from strandcontact.contact import ContactStructure, CubeData, ca_table, make_structure, stack
from strandcontact import homology
from strandcontact.homology import (
    BOTH,
    END_ONLY,
    INTERIOR,
    NEG_BDY,
    NEITHER,
    OUT,
    START_ONLY,
    HomSummand,
    NotACycle,
    _place_class,
    gf2_in_span,
    summand_nonzero,
)
from strandcontact.isoverify import _pairings, corpus
from strandcontact.strands import Strands, inversions


def twin(d: ArcDiagram, place: int) -> int:
    """The other place carrying the same label (d.label refuses a place
    off the diagram)."""
    v, w = d.pair(d.label(place))
    return w if place == v else v


def segment_places(d: ArcDiagram, segment: int) -> range:
    """The places of a 0-based segment, in order."""
    start = 1 + sum(d.segment_sizes[:segment])
    return range(start, start + d.segment_sizes[segment])


class StrandDiagram(tuple):
    """A set of strands (p, phi(p)) with phi(p) >= p, within segments.

    A (sizes, strands) tuple whose constructor checks the strands against
    the segments.  Strands are stored sorted by start place, which is the
    canonical form used for equality in GF(2) sums.
    """

    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...], strands: Strands) -> "StrandDiagram":
        sizes = tuple(sizes)
        strands = tuple(sorted(strands))
        total = sum(sizes)
        segment = tuple(j for j, n in enumerate(sizes) for _ in range(n))  # of each place
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
            if segment[p - 1] != segment[q - 1]:
                raise ValueError(f"strand {p}->{q} crosses a segment boundary")
        return tuple.__new__(cls, (sizes, strands))

    sizes = property(itemgetter(0), doc="Number of places on each segment.")
    strands = property(itemgetter(1), doc="The strands, sorted by start place.")

    def __repr__(self) -> str:
        return f"StrandDiagram(sizes={self.sizes!r}, strands={self.strands!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p}->{q}" for p, q in self.strands) + "}"

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
        return dict(self.strands)[p]


def enumerate_tight_pair(
    surface: QuadSurface, bottom: frozenset[int], top: frozenset[int]
) -> tuple[ContactStructure, ...]:
    """All tight structures between two basic dividing sets.

    Candidates are the subsets of interior steps, in ascending bitmask
    order, so the output order is deterministic.
    """
    n = len(surface.diagram.interior_steps)
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


def start(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    """The start labels of a generator, read off its triple."""
    return triple(d, g)[0]


def end(d: ArcDiagram, g: SymGenerator) -> frozenset[int]:
    """The end labels of a generator, read off its triple."""
    return triple(d, g)[1]


def hom_grading(d: ArcDiagram, g: SymGenerator) -> tuple[int, ...]:
    """The homological grading of a generator, read off its triple."""
    return triple(d, g)[2]


def algebra_triples(d: ArcDiagram) -> list[Triple]:
    """Every triple realised by a basis generator, by strand count, then
    in basis order.  Unlike the verbs, which walk the strand counts with
    homology.blocks and release each, this keeps every block's grouping
    cached."""
    return [trip for i in range(d.k + 1) for trip in homology._basis_by_triple(d, i)]


# ---------------------------------------------------------------------------
# The chain kernel by the direct route: every diagram goes through the
# validating StrandDiagram constructor above, crossings are recounted as sets,
# orbits are compared as sets and gradings are read off a concrete diagram.


def multiply_by_recount(m: StrandDiagram, n: StrandDiagram) -> Optional[StrandDiagram]:
    """Concatenation, zero unless the inversion sets' sizes add up."""
    if m.sizes != n.sizes or m.target != n.source:
        return None
    composite = StrandDiagram(m.sizes, tuple((p, n.image(q)) for p, q in m.strands))
    crossings = len(inversions(m.strands)) + len(inversions(n.strands))
    if len(inversions(composite.strands)) != crossings:
        return None
    return composite


def differential_by_recount(m: StrandDiagram) -> frozenset[StrandDiagram]:
    """Resolve every crossing and keep those that lose exactly one inversion."""
    base = len(inversions(m.strands))
    out: set[StrandDiagram] = set()
    for i, j in inversions(m.strands):
        swapped = dict(m.strands)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        resolved = StrandDiagram(m.sizes, tuple(swapped.items()))
        if len(inversions(resolved.strands)) == base - 1:
            out ^= {resolved}
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def validating_expand(d: ArcDiagram, g: SymGenerator) -> tuple[StrandDiagram, ...]:
    """The 2^j concrete diagrams of a generator, each one validated and
    each one required to be constrained; a moving strand must not be
    horizontal."""
    if any(p == q for p, q in g.moving):
        raise ValueError(f"{g} has a horizontal moving strand")
    out = []
    pairs = [d.pair(lab) for lab in g.dotted]
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        horizontals = tuple((pair[c], pair[c]) for pair, c in zip(pairs, choice))
        m = StrandDiagram(d.segment_sizes, g.moving + horizontals)
        if not is_constrained(d, m):
            raise ValueError(f"expansion {m} of {g} is not constrained")
        out.append(m)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def enumerate_basis_per_count(d: ArcDiagram, i: int) -> tuple[SymGenerator, ...]:
    """All symmetrised generators with i strands, deterministically ordered:
    a walk over the moving parts for strand count i that tries every later
    candidate strand and skips those that do not start higher, where
    algebra.enumerate_basis jumps to the next start place.

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


def diff_sum(d: ArcDiagram, x: frozenset[SymGenerator]) -> frozenset[SymGenerator]:
    """Differential of a GF(2) sum of generators."""
    acc: frozenset[SymGenerator] = frozenset()
    for g in x:
        acc ^= diff_generator(d, g)
    return acc


def is_boundary_by_rederiving(
    d: ArcDiagram, trip: Triple, summand: HomSummand, cycle: frozenset[SymGenerator]
) -> bool:
    """homology.is_boundary on the summand of trip, re-deriving each term's
    triple, Maslov degree and differential instead of reading them off the
    built summand."""
    if not cycle:
        return True
    degrees = {generator_maslov2(d, g) for g in cycle}
    triples = {triple(d, g) for g in cycle}
    if len(degrees) != 1 or triples != {trip}:
        raise ValueError("element does not live in one degree of this summand")
    m = next(iter(degrees))
    if diff_sum(d, cycle):
        raise NotACycle("element has nonzero differential")
    index = {g: i for i, g in enumerate(summand.graded_basis[m])}
    vec = sum(1 << index[g] for g in cycle)
    return gf2_in_span(vec, summand.boundary.get(m + 2, ()))


def local_case(
    d: ArcDiagram,
    h: tuple[int, ...],
    s: frozenset[int],
    t: frozenset[int],
    lab: int,
) -> Optional[tuple[str, str, str]]:
    """Classify one matched pair against supp h and the idempotents.

    h must be 0/1-valued.  Returns the (v_class, w_class, membership)
    case, or None when it falls outside homology.ALLOWED_CASES.
    """
    v, w = d.pair(lab)
    membership = {
        (True, True): BOTH,
        (True, False): START_ONLY,
        (False, True): END_ONLY,
        (False, False): NEITHER,
    }[lab in s, lab in t]
    case = (_place_class(d, h, v), _place_class(d, h, w), membership)
    return case if case in homology.ALLOWED_CASES else None


def local_nonzero(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> bool:
    """The local table read one triple at a time: the summand survives iff
    h is 0/1 and every matched pair falls in an allowed case."""
    if any(mult not in (0, 1) for mult in h):
        return False
    return all(local_case(d, h, s, t, lab) is not None for lab in range(1, d.k + 1))


def local_maslov2(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> int:
    """The doubled Maslov degree of a nonzero summand's homology, counted
    per triple: minus the run starts of supp h (neg_bdy places) and twice
    the (interior, interior, both) labels."""
    run_starts = sum(
        _place_class(d, h, p) == NEG_BDY for p in range(1, 2 * d.k + 1)
    )
    interior_both = sum(
        local_case(d, h, s, t, lab) == (INTERIOR, INTERIOR, BOTH)
        for lab in range(1, d.k + 1)
    )
    return -(run_starts + 2 * interior_both)


def crossingless_generators(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> tuple[SymGenerator, ...]:
    """All generators of a nonzero summand with no crossings in any expansion,
    the witnesses that homology.closed_form reads its degree off.

    Built directly from the local data: each maximal run of supp h is
    covered by a chain of strands broken exactly at the interior twins
    whose label lies in both s and t (one twin choice per such label);
    dotted labels are those in s and t away from the support.
    """
    if not summand_nonzero(d, s, t, h):
        return ()
    dotted = []
    choice_labels = []
    for lab in sorted(s & t):
        v, w = d.pair(lab)
        classes = (_place_class(d, h, v), _place_class(d, h, w))
        if classes == (OUT, OUT):
            dotted.append(lab)
        elif classes == (INTERIOR, INTERIOR):
            choice_labels.append(lab)

    # Maximal runs of used steps per segment, as place intervals.
    runs: list[tuple[int, int]] = []
    for j in range(d.l):
        places = segment_places(d, j)
        run_start = None
        for a in places[:-1]:
            used = h[d.step_after(a)] > 0
            if used and run_start is None:
                run_start = a
            if not used and run_start is not None:
                runs.append((run_start, a))
                run_start = None
        if run_start is not None:
            runs.append((run_start, places[-1]))

    out = []
    for choice in itertools.product((0, 1), repeat=len(choice_labels)):
        breakpoints = {
            d.pair(lab)[c] for lab, c in zip(choice_labels, choice)
        }
        moving = []
        for lo, hi in runs:
            # a run lies in one segment, and places are numbered segment
            # by segment, so lo < p < hi puts p on the run's segment
            stops = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
            moving.extend(zip(stops, stops[1:]))
        out.append(SymGenerator(tuple(moving), tuple(dotted)))
    return tuple(out)


def hom_vector(d: ArcDiagram, m: StrandDiagram) -> tuple[int, ...]:
    """Multiplicity of each interior step under the strands of a diagram."""
    return tuple(
        sum(1 for p, q in m.strands if p <= s < q) for s in d.interior_steps
    )


def doubled_multiplicity(d: ArcDiagram, places: frozenset[int], h: tuple[int, ...]) -> int:
    """Twice the summed average multiplicity of h around the given places."""
    total = 0
    for p in places:
        for i in (d.step_before(p), d.step_after(p)):
            if i is not None:
                total += h[i]
    return total


def maslov2(d: ArcDiagram, m: StrandDiagram) -> int:
    """Doubled Maslov grading: crossings minus multiplicity at the source."""
    h = hom_vector(d, m)
    return 2 * len(inversions(m.strands)) - doubled_multiplicity(d, m.source, h)


def generator_maslov2_of_expansion(d: ArcDiagram, g: SymGenerator) -> int:
    return maslov2(d, validating_expand(d, g)[0])


def triple_of_expansion(d: ArcDiagram, g: SymGenerator) -> Triple:
    return (start(d, g), end(d, g), hom_vector(d, StrandDiagram(d.segment_sizes, g.moving)))


# ---------------------------------------------------------------------------
# The corpus, validating every candidate before deduplicating


def surgery_circle_by_sub_arcs(d: ArcDiagram) -> Optional[tuple[int, ...]]:
    """surgery_circle by a walk over sub-arcs named (segment, local index):
    sub-arc (j, i) is the piece of segment j ending at its local place i
    (for i < n) and starting at its local place i - 1 (for i > 0)."""
    def local_index(p: int) -> int:
        return p - segment_places(d, d.segment_of(p)).start

    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for p in range(1, 2 * d.k + 1):
        q = twin(d, p)
        succ[(d.segment_of(p), local_index(p))] = (d.segment_of(q), local_index(q) + 1)
    visited: set[tuple[int, int]] = set()
    for j in range(d.l):
        arc = (j, 0)
        while True:
            visited.add(arc)
            if arc[1] == d.segment_sizes[arc[0]]:
                break  # reached a segment end: this component is an arc
            arc = succ[arc]
    leftovers = sorted(
        (j, i)
        for j, n in enumerate(d.segment_sizes)
        for i in range(n + 1)
        if (j, i) not in visited
    )
    if not leftovers:
        return None
    start = leftovers[0]
    circle: list[int] = []
    arc = start
    while True:
        in_place = segment_places(d, arc[0])[arc[1]]
        circle.append(in_place)
        circle.append(twin(d, in_place))
        arc = succ[arc]
        if arc == start:
            break
    # Rotate by whole (in, out) pairs so the alternation survives.
    pivot = min(range(0, len(circle), 2), key=lambda i: circle[i])
    return tuple(circle[pivot:] + circle[:pivot])


def boundary_components_by_pivot(surface: QuadSurface) -> int:
    """The boundary components of a quadrangulated surface, by a walk
    around the squares' side slots.  The gluing reverses induced boundary
    orientations, so from a free slot the boundary goes on at the next
    slot of its square, pivoting across each glued side to the slot after
    its partner, until it meets a free slot."""
    partner = {}
    for a, b in surface.gluings:
        partner[a] = b
        partner[b] = a

    def next_boundary(ref):
        cur = (ref[0], (ref[1] + 1) % 4)
        while cur in partner:
            cur = partner[cur]
            cur = (cur[0], (cur[1] + 1) % 4)
        return cur

    seen = set()
    components = 0
    for sq in surface.squares:
        for ref in ((sq.label, i) for i in range(4)):
            if ref in partner or ref in seen:
                continue
            components += 1
            while ref not in seen:
                seen.add(ref)
                ref = next_boundary(ref)
    return components


@st.composite
def arc_diagrams(draw, min_k: int = 4, max_k: int = 8) -> ArcDiagram:
    """Any arc diagram with min_k <= k <= max_k, valid or not: a
    composition of the 2k places into segments, from a set of cut points,
    and a pairing of the places, from a permutation, labelled in the order
    of the pairs' first places.  The set of cut points tends to be large,
    so most draws have many short segments."""
    k = draw(st.integers(min_k, max_k))
    n = 2 * k
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = sorted(sorted(order[i:i + 2]) for i in range(0, n, 2))
    matching = [0] * n
    for lab, (v, w) in enumerate(pairs, start=1):
        matching[v - 1] = matching[w - 1] = lab
    return ArcDiagram(sizes, matching)


def valid_arc_diagrams(min_k: int, max_k: int, max_l: int):
    """A valid arc diagram with min_k <= k <= max_k on at most max_l
    segments: a diagram of corpus(max_k, max_l), which lists one of each
    class of segment orders, with its segments in a drawn order.  Validity
    does not depend on the segment order, so every draw is valid."""
    pool = [d for d in corpus(max_k, max_l) if d.k >= min_k]
    return st.sampled_from(pool).flatmap(_in_some_segment_order)


def _in_some_segment_order(d: ArcDiagram):
    return st.permutations(range(d.l)).map(
        lambda order: ArcDiagram(
            tuple(d.segment_sizes[j] for j in order),
            tuple(d.label(p) for j in order for p in segment_places(d, j)),
        )
    )


def compositions(total: int, parts: int):
    """Every composition of total into parts, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_arc_diagrams(k: int, l: int):
    """Every structurally well-formed diagram with k labels on l segments,
    valid or not: each composition with each pairing, labelled in the
    order of the pairs' first places."""
    places = list(range(1, 2 * k + 1))
    for comp in compositions(2 * k, l):
        for pairing in _pairings(places):
            matching = [0] * (2 * k)
            for lab, (v, w) in enumerate(pairing, start=1):
                matching[v - 1] = matching[w - 1] = lab
            yield ArcDiagram(comp, matching)


def canonical_key_all_orders(d: ArcDiagram):
    """Minimal (sizes, matching) encoding over all l! segment orders."""
    best = None
    segments = [[d.label(p) for p in segment_places(d, j)] for j in range(d.l)]
    for perm in itertools.permutations(range(d.l)):
        sizes = tuple(d.segment_sizes[j] for j in perm)
        relabel: dict[int, int] = {}
        matching = tuple(
            relabel.setdefault(lab, len(relabel) + 1) for j in perm for lab in segments[j]
        )
        key = (sizes, matching)
        if best is None or key < best:
            best = key
    return best


def corpus_validate_first(max_k: int, max_l: int) -> list[ArcDiagram]:
    """Every composition, every candidate validated, then deduplicated by
    the key over all segment orders."""
    out: list[ArcDiagram] = []
    seen: set = set()
    for k in range(1, max_k + 1):
        for l in range(1, min(max_l, 2 * k) + 1):
            for d in all_arc_diagrams(k, l):
                if surgery_circle_by_sub_arcs(d) is not None:
                    continue
                key = canonical_key_all_orders(d)
                if key in seen:
                    continue
                seen.add(key)
                out.append(d)
    return out


def cube_data(surface: QuadSurface, xi: ContactStructure, square: int) -> CubeData:
    """One cube's face data, read off the square's side slots (after_v,
    before_w, after_w, before_v); an exterior slot is never used."""
    after_v, before_w, after_w, before_v = surface.squares[square - 1].sides
    used = [i is not None and i in xi.used_arcs for i in (before_v, after_v, before_w, after_w)]
    return CubeData(square in xi.bottom, square in xi.top, *used)


def swap_vw(c: CubeData) -> CubeData:
    """The same cube with the roles of the twins v and w exchanged."""
    return CubeData(
        c.bottom_on,
        c.top_on,
        c.used_before_w,
        c.used_after_w,
        c.used_before_v,
        c.used_after_v,
    )


# ---------------------------------------------------------------------------
# Cube tightness re-derived by counting dividing curves on the rounded
# cube boundary.
#
# The cube has six faces; each carries one of the two non-crossing
# matchings of its four edge midpoints, selected by the face state.  The
# matchings glue across shared edges into closed curves.  On the top and
# bottom faces the matching is forced: an "on" face must leave room for
# the diagonal joining its two positive corners, so its arcs cut off the
# negative corners.  The side faces' spiral convention is not readable
# from text alone and is calibrated from three anchor cases instead.


class CalibrationUnresolved(RuntimeError):
    """The anchor cases failed to pin down a unique face-state convention."""


_EDGES = (
    "b_av", "b_bw", "b_aw", "b_bv",  # bottom square, cyclic
    "t_av", "t_bw", "t_aw", "t_bv",  # top square, cyclic
    "v_v", "v_n1", "v_w", "v_n2",   # vertical edges at v, n1, w, n2
)

# Faces as cyclic edge lists.  Side faces are listed in the frame
# (bottom edge, vertical shared with the next side, top edge, vertical
# shared with the previous side), which the cube's rotational symmetry
# carries from side to side.
_BOTTOM = ("b_av", "b_bw", "b_aw", "b_bv")
_TOP = ("t_av", "t_bw", "t_aw", "t_bv")
_SIDES = (
    ("b_av", "v_n1", "t_av", "v_v"),
    ("b_bw", "v_w", "t_bw", "v_n1"),
    ("b_aw", "v_n2", "t_aw", "v_w"),
    ("b_bv", "v_v", "t_bv", "v_n2"),
)


def _matching(face: tuple[str, str, str, str], variant: int):
    a, b, c, e = face
    if variant == 0:
        return ((a, b), (c, e))
    return ((b, c), (e, a))


def _curve_components(c: CubeData, side_variant: int) -> int:
    # Variant 0 on a horizontal face pairs the edges around each negative
    # corner, which is the "on" state by the principal-diagonal criterion.
    arcs = []
    arcs.extend(_matching(_BOTTOM, 0 if c.bottom_on else 1))
    arcs.extend(_matching(_TOP, 0 if c.top_on else 1))
    side_states = (c.used_after_v, c.used_before_w, c.used_after_w, c.used_before_v)
    for face, used in zip(_SIDES, side_states):
        arcs.extend(_matching(face, side_variant if used else 1 - side_variant))
    neighbours: dict[str, list[str]] = {e: [] for e in _EDGES}
    for a, b in arcs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen: set[str] = set()
    components = 0
    for start in _EDGES:
        if start in seen:
            continue
        components += 1
        stackq = [start]
        while stackq:
            cur = stackq.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stackq.extend(neighbours[cur])
    return components


_ANCHORS = (
    (CubeData(True, True, False, False, False, False), True),
    (CubeData(False, True, False, False, False, False), False),
    (CubeData(True, False, False, True, False, False), True),
)


@functools.lru_cache(maxsize=1)
def _calibrated_side_variant() -> int:
    """Fix the side-face spiral convention from the three anchors."""
    survivors = [
        variant
        for variant in (0, 1)
        if all(
            (_curve_components(anchor, variant) == 1) == verdict
            for anchor, verdict in _ANCHORS
        )
    ]
    if len(survivors) != 1:
        raise CalibrationUnresolved(
            f"anchors admit {len(survivors)} side conventions instead of 1"
        )
    return survivors[0]


def dividing_curve_components(c: CubeData) -> int:
    """Closed components of the glued per-face matchings on the cube."""
    return _curve_components(c, _calibrated_side_variant())
