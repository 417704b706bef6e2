"""The strand kernel against the direct route in tests/oracles.py.

The kernel checks a generator once, in its expansions, against the arc
diagram itself, works on plain strand tuples from there on, counts
crossings as an integer, resolves only the crossings that lose exactly
one inversion and checks orbits by their size.  These tests compare it with the route
that validates every diagram and recounts inversion sets, hold the
expansions' check to that route on arbitrary generators, and pin the guards the
kernel keeps.  mul_generators multiplies only the expansions that meet,
and is_boundary reads degree and closedness off the built summand; both
are compared with the routes that do neither.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    StrandDiagram,
    algebra_triples,
    all_diagrams,
    diff_generator_by_recount,
    differential_by_recount,
    end,
    enumerate_basis_per_count,
    generator_maslov2_of_expansion,
    is_boundary_by_rederiving,
    mul_generators_by_recount,
    multiply_by_recount,
    regroup_by_sets,
    start,
    triple_of_expansion,
    validating_expand,
)
from strandcontact import algebra
from strandcontact.algebra import (
    NotInSymmetrisedSpan,
    SymGenerator,
    diff_generator,
    enumerate_basis,
    expand,
    expansions,
    generator_maslov2,
    mul_generators,
    regroup,
    triple,
)
from strandcontact.arcdiag import ArcDiagram
from strandcontact.homology import (
    NotACycle,
    build_summand,
    gf2_kernel_basis,
    is_boundary,
)
from strandcontact.isoverify import corpus
from strandcontact.strands import crossing_count, differential, inversions, multiply

TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))
K4_SLOWEST = ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2))  # perfbench/inputs/verify-k4-slowest.arc
K5 = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc
K6_A = ArcDiagram((3, 9), (3, 4, 2, 6, 4, 1, 5, 6, 1, 5, 3, 2))  # perfbench/inputs/homology-k6-a.arc
K6_B = ArcDiagram((5, 7), (4, 6, 2, 4, 5, 6, 1, 5, 3, 2, 3, 1))  # perfbench/inputs/homology-k6-b.arc


def generators(d):
    return [g for i in range(d.k + 1) for g in enumerate_basis(d, i)]


def name(d):
    return " ".join(map(str, d.segment_sizes)) + "|" + " ".join(map(str, d.matching))


def assert_direct_route(d, gens):
    for g in gens:
        assert diff_generator(d, g) == diff_generator_by_recount(d, g)
        assert generator_maslov2(d, g) == generator_maslov2_of_expansion(d, g)
        assert triple(d, g) == triple_of_expansion(d, g)


@pytest.mark.parametrize("d", corpus(3, 3) + [K4_SLOWEST, K5], ids=name)
def test_generators_match_direct_route(d):
    assert_direct_route(d, generators(d))


def test_k6_slice_matches_direct_route():
    """A deterministic slice of the k=6 basis: every generator with at
    least 3 dotted labels, whose degree adds most to the record's, plus
    every 50th other generator."""
    gens = generators(K6_A)
    dotted = [g for g in gens if len(g.dotted) >= 3]
    others = [g for g in gens if len(g.dotted) < 3][::50]
    assert (len(dotted), len(others)) == (591, 316)
    assert_direct_route(K6_A, dotted + others)


@pytest.mark.parametrize("d", corpus(3, 3) + [K4_SLOWEST, K5, K6_A], ids=name)
def test_basis_walk_matches_per_count_enumeration(d, fresh_caches):
    """The walk of block i, which goes no deeper than i strands and jumps
    to the next start place, gives the generators, in the order, of the
    walk per strand count that checks every strand."""
    for i in range(-1, d.k + 2):
        got = enumerate_basis(d, i)
        assert got == enumerate_basis_per_count(d, i)
        assert all(type(g) is SymGenerator for g in got)


@pytest.mark.parametrize("d, total", [(K6_A, 16380), (K6_B, 10802)], ids=["k6-a", "k6-b"])
def test_k6_generator_totals(d, total):
    assert sum(len(enumerate_basis(d, i)) for i in range(d.k + 1)) == total


@pytest.mark.parametrize("d", [TORUS, ANNULUS, K4_SLOWEST], ids=name)
def test_diff_generator_differentiates_each_expansion_once(d, monkeypatch):
    """diff_generator calls the algebra.differential binding, which the
    tracer and the fault-injection tests patch, once per expansion."""
    seen = []

    def recording(m):
        seen.append(m)
        return differential(m)

    monkeypatch.setattr(algebra, "differential", recording)
    for g in generators(d):
        seen.clear()
        diff_generator(d, g)
        assert seen == list(expansions(d, g))


def test_summands_leave_the_expansion_cache_empty(fresh_caches):
    """Building every summand differentiates each generator once, through
    the uncached expansions: expand's cache holds only the factors that
    products read again, and building summands multiplies nothing."""
    for s, t, h in algebra_triples(K5):
        build_summand(K5, s, t, h)
    info = expand.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize(
    "d, counts", [(K5, (1606, 741, 32, 226)), (K6_A, (16380, 7633, 64, 1217))], ids=["k5", "k6-a"]
)
def test_generators_and_records_share_equal_tuples(d, counts):
    """The generators of one strand count hold one dotted tuple per label
    set and one tuple per moving strand, and the records of their moving
    parts one grading tuple per distinct h: equal values are one object."""
    gens = generators(d)
    parts = {g.moving: algebra._moving_part(d, g.moving) for g in gens}.values()
    dotted = {g.dotted for g in gens}
    gradings = {part.h for part in parts}
    assert (len(gens), len(parts), len(dotted), len(gradings)) == counts
    for i in range(d.k + 1):
        block = enumerate_basis(d, i)
        assert len({id(g.dotted) for g in block}) == len({g.dotted for g in block})
        strands = [strand for g in block for strand in g.moving]
        assert len({id(strand) for strand in strands}) == len(set(strands))
    assert len({id(part.h) for part in parts}) == len(gradings)


@pytest.mark.parametrize("d", corpus(3, 3) + [K4_SLOWEST], ids=name)
def test_products_match_direct_route(d, monkeypatch):
    """mul_generators multiplies only expansions that meet, and still agrees
    with multiplying every pair of expansions.  On a pair whose idempotents
    differ no expansions meet: the product is empty and multiply is never
    called (tried against the first and last generator of each other start
    set)."""
    calls = 0

    def meeting_multiply(m, n):
        nonlocal calls
        calls += 1
        assert sorted(q for _, q in m) == [p for p, _ in n]
        return multiply(m, n)

    monkeypatch.setattr(algebra, "multiply", meeting_multiply)
    by_start = {}
    for g in generators(d):
        by_start.setdefault(start(d, g), []).append(g)
    for g1 in generators(d):
        for g2 in by_start.get(end(d, g1), []):
            assert mul_generators(d, g1, g2) == mul_generators_by_recount(d, g1, g2)
    assert calls
    calls = 0
    for g1 in generators(d):
        for s, gens in by_start.items():
            if s != end(d, g1):
                for g2 in (gens[0], gens[-1]):
                    assert mul_generators(d, g1, g2) == frozenset()
    assert calls == 0


def outcome(fn, *args):
    """What an is_boundary route returns, or the type of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("d", corpus(3, 3) + [K4_SLOWEST], ids=name)
def test_is_boundary_matches_rederiving(d):
    """The closedness and degree read off the built summand agree with
    re-deriving them term by term: on every kernel vector, on every
    one-generator element, on an element spread over two degrees and on a
    generator of another summand."""
    seen = {NotACycle: 0, ValueError: 0}
    open_generators = 0
    triples = algebra_triples(d)
    summands = [build_summand(d, *trip) for trip in triples]
    for trip, summand, other in zip(triples, summands, summands[1:] + summands[:1]):
        graded = summand.graded_basis
        open_generators += sum(1 for cols in summand.boundary.values() for col in cols if col)
        elements = [frozenset({g}) for basis in graded.values() for g in basis]
        for m, basis in graded.items():
            for vec in gf2_kernel_basis(summand.boundary[m]):
                elements.append(frozenset(g for i, g in enumerate(basis) if vec >> i & 1))
        if len(graded) > 1:
            elements.append(frozenset(basis[0] for basis in graded.values()))
        elements.append(frozenset({next(iter(other.graded_basis.values()))[0]}))
        for cycle in elements:
            got = outcome(is_boundary, summand, cycle)
            assert got == outcome(is_boundary_by_rederiving, d, trip, summand, cycle), cycle
            if got in seen:
                seen[got] += 1
    assert seen[ValueError] >= len(summands)
    assert seen[NotACycle] == open_generators


def test_diagram_products_match_recount():
    for sizes in [(4,), (2, 2), (3, 1)]:
        diagrams = [m for count in range(sum(sizes) + 1) for m in all_diagrams(sizes, count)]
        for m, n in itertools.product(diagrams, diagrams):
            expected = multiply_by_recount(m, n)
            expected = None if expected is None else expected.strands
            assert multiply(m.strands, n.strands) == expected


def rising_strands(draw, places, starts):
    """Strands from the given starts that never go down.  Each start, from
    the bottom up, draws its end among the free places at or above it
    that leave the starts above it an end each (Hall's condition: at
    least j free places at or above the j-th start from the top).  Ends
    are offered from the top down, so the simplest draws cross the most."""
    free = list(places)
    above = sorted(starts)
    strands = []
    while above:
        p = above.pop(0)

        def leaves_room(q):
            rest = [e for e in free if e != q]
            return all(
                sum(e >= s for e in rest) >= len(above) - j for j, s in enumerate(above)
            )

        q = draw(st.sampled_from([e for e in reversed(free) if e >= p and leaves_room(e)]))
        free.remove(q)
        strands.append((p, q))
    return strands


def segment_places(sizes):
    first = 1
    for n in sizes:
        yield list(range(first, first + n))
        first += n


@st.composite
def strand_diagrams(draw, max_size=6, sparse=False):
    """A valid diagram: on each segment, starts drawn among its places and
    rising strands from them.  With sparse, a segment of n places has
    n // 3 to n // 2 strands, which leaves room above their ends."""
    sizes = tuple(draw(st.lists(st.integers(1, max_size), min_size=1, max_size=3)))
    strands = []
    for places in segment_places(sizes):
        n = len(places)
        count = draw(st.integers(n // 3, n // 2) if sparse else st.integers(0, n))
        subset = st.lists(st.sampled_from(places), min_size=count, max_size=count, unique=True)
        strands += rising_strands(draw, places, draw(subset))
    return StrandDiagram(sizes, tuple(strands))


@st.composite
def meeting_pairs(draw):
    """A sparse diagram m from strand_diagrams and a diagram n on the same
    segments whose starts are m's ends."""
    m = draw(strand_diagrams(max_size=12, sparse=True))
    strands = []
    for places in segment_places(m.sizes):
        starts = sorted(q for _, q in m.strands if q in places)
        strands += rising_strands(draw, places, starts)
    return m, StrandDiagram(m.sizes, tuple(strands))


def double_crossings(m, n):
    """Index pairs (a, b), in m's start order, of strands that cross in m
    and again in n."""
    image = dict(n.strands)
    ends = [q for _, q in m.strands]
    return [
        (a, b)
        for a, b in itertools.combinations(range(len(ends)), 2)
        if ends[a] > ends[b] and image[ends[a]] < image[ends[b]]
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(strand_diagrams())
def test_crossing_count_and_differential_match_recount(m):
    assert crossing_count(m.strands) == len(inversions(m.strands))
    assert differential(m.strands) == {r.strands for r in differential_by_recount(m)}


def test_multiply_matches_recount_on_meeting_pairs():
    """On random meeting pairs, multiply's one pass agrees with recounting
    inversion sets.  Some draws are rejected only by pairs crossing twice
    with another strand starting between them, which a test of adjacent
    strands alone would miss."""
    rejected_around_a_strand = 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(meeting_pairs())
    def check(pair):
        nonlocal rejected_around_a_strand
        m, n = pair
        expected = multiply_by_recount(m, n)
        got = multiply(m.strands, n.strands)
        assert got == (None if expected is None else expected.strands)
        twice = double_crossings(m, n)
        assert (got is None) == bool(twice)
        if twice and all(b - a > 1 for a, b in twice):
            rejected_around_a_strand += 1

    check()
    assert rejected_around_a_strand


def strand_diagrams_of(d, terms):
    return frozenset(StrandDiagram(d.segment_sizes, m) for m in terms)


def orbits(d, gens):
    """The GF(2) sum of the expansions of the given generators."""
    terms = set()
    for g in gens:
        terms ^= set(expansions(d, g))
    return frozenset(terms)


def k5_generators(dotted):
    return [g for g in generators(K5) if len(g.dotted) == dotted]


# id: (the generators whose orbits are summed, how many terms have a
# horizontal strand)
REGROUP_SUMS = {
    # each term is its own moving part
    "no-horizontals": (lambda: k5_generators(0)[::7], "none"),
    # whole orbits of one and of two dotted labels
    "horizontals": (lambda: k5_generators(1)[::5] + k5_generators(2)[::5], "all"),
    # both kinds in one sum, as a differential gives them
    "mixed": (lambda: generators(K5)[::11], "some"),
}


@pytest.mark.parametrize("case", list(REGROUP_SUMS))
def test_regroup_matches_regrouping_by_sets(case):
    gens, horizontals = REGROUP_SUMS[case]
    terms = orbits(K5, gens())
    with_horizontal = sum(any(p == q for p, q in m) for m in terms)
    assert len(terms) > 20
    assert {0: "none", len(terms): "all"}.get(with_horizontal, "some") == horizontals
    assert regroup(K5, terms) == regroup_by_sets(K5, strand_diagrams_of(K5, terms))


def test_regroup_rejects_a_truncated_orbit():
    # one dotted label on the torus; two on K5, beside a moving strand
    for d, g in [
        (TORUS, SymGenerator(((1, 3),), (2,))),
        (K5, SymGenerator(((1, 2),), (3, 4))),
    ]:
        orbit = frozenset(expansions(d, g))
        n = 1 << len(g.dotted)
        assert len(orbit) == n
        assert regroup(d, orbit) == {g}
        for m in orbit:
            with pytest.raises(NotInSymmetrisedSpan, match="partial twin-swap orbit"):
                regroup_by_sets(d, strand_diagrams_of(d, orbit - {m}))
            with pytest.raises(NotInSymmetrisedSpan) as got:
                regroup(d, orbit - {m})
            assert str(got.value) == (
                f"partial twin-swap orbit for generator {g}: {n - 1} of its {n} expansions"
            )


@pytest.mark.parametrize(
    "strands",
    [((1, 2), (3, 4)), ((1, 2), (4, 4)), ((1, 1), (3, 4)), ((1, 4), (2, 2))],
    ids=[
        "label-1-starts-twice",
        "label-2-ends-twice",
        "horizontal-label-1-starts-twice",
        "horizontal-label-2-ends-twice",
    ],
)
def test_regroup_rejects_an_unconstrained_term(strands):
    # a horizontal strand counts among the starts and the ends
    m = StrandDiagram(TORUS.segment_sizes, strands).strands
    with pytest.raises(NotInSymmetrisedSpan) as got:
        regroup(TORUS, frozenset({m}))
    assert str(got.value) == f"diagram {m} is not constrained"


# id: (diagram, generator, the label the error must name or None)
REJECTED = {
    # the moving strand ends on label 2
    "dotted-touches-end": (TORUS, SymGenerator(((1, 2),), (2,)), None),
    # the moving strand starts on label 1
    "dotted-touches-start": (TORUS, SymGenerator(((1, 2),), (1,)), None),
    "dotted-twice": (TORUS, SymGenerator((), (1, 1)), None),
    "crosses-boundary": (ANNULUS, SymGenerator(((3, 4),), ()), None),
    "decreasing": (ANNULUS, SymGenerator(((2, 1),), ()), None),
    # starts twice on label 1, ends twice on label 2
    "unconstrained-moving": (TORUS, SymGenerator(((1, 2), (3, 4)), ()), None),
    # a horizontal strand among the moving ones
    "horizontal-moving": (TORUS, SymGenerator(((1, 1),), ()), None),
    # the torus has places 1..4
    "place-out-of-range": (TORUS, SymGenerator(((1, 9),), ()), None),
    # the torus has labels 1..2
    "dotted-off-diagram": (TORUS, SymGenerator((), (5,)), r"label 5\b"),
    "dotted-zero": (TORUS, SymGenerator((), (0,)), r"label 0\b"),
    "dotted-negative": (TORUS, SymGenerator((), (-1,)), r"label -1\b"),
}
MOVING_STRAND_FAULTS = [
    "crosses-boundary",
    "decreasing",
    "unconstrained-moving",
    "horizontal-moving",
    "place-out-of-range",
]


@pytest.mark.parametrize("case", list(REJECTED))
def test_expand_rejects_what_validation_rejects(case):
    d, g, names = REJECTED[case]
    with pytest.raises(ValueError, match=names):
        validating_expand(d, g)
    for fn in (expansions, expand):
        with pytest.raises(ValueError, match=names):
            fn(d, g)


@pytest.mark.parametrize("reader", [triple, generator_maslov2], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", MOVING_STRAND_FAULTS)
def test_readers_check_moving_strands(case, reader):
    """Whatever reads a generator's gradings or label sets reads the record
    of its moving part, and building that record checks the strands.  The
    label sets and the grading are read through triple (tests/oracles.py's
    start, end and hom_grading are its fields)."""
    d, g, _ = REJECTED[case]
    with pytest.raises(ValueError):
        reader(d, g)


@pytest.mark.parametrize("case", ["dotted-off-diagram", "dotted-zero", "dotted-negative"])
def test_maslov2_checks_dotted_range(case):
    """generator_maslov2 reads a dotted label's first place, so it rejects
    a label outside 1..k by name, as expansions does."""
    d, g, names = REJECTED[case]
    with pytest.raises(ValueError, match=names):
        generator_maslov2(d, g)


def arbitrary_generators(d):
    """Any (moving, dotted) pair over a little more than the places and
    labels of d: strands may decrease, stay horizontal, leave their
    segment or leave the diagram, and labels may repeat or not exist."""
    places = st.integers(0, 2 * d.k + 1)
    rising = [(p, q) for p, q in itertools.combinations(range(1, 2 * d.k + 1), 2)
              if d.segment_of(p) == d.segment_of(q)]
    strand = st.sampled_from(rising) | st.tuples(places, places)
    label = st.integers(1, d.k) | st.integers(0, d.k + 1)
    return st.builds(
        lambda moving, dotted: (d, SymGenerator(tuple(moving), tuple(dotted))),
        st.lists(strand, max_size=2),
        st.lists(label, max_size=2),
    )


def expansions_or_error(fn, d, g):
    try:
        return fn(d, g)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of([arbitrary_generators(d) for d in (TORUS, ANNULUS, K4_SLOWEST)]))
def test_expand_checks_like_validation(case):
    """expansions, checking a generator against the diagram, accepts exactly
    what the StrandDiagram route accepts, and then expands it the same."""
    d, g = case
    got = expansions_or_error(expansions, d, g)
    expected = expansions_or_error(validating_expand, d, g)
    if expected is not ValueError:
        expected = tuple(m.strands for m in expected)
    assert got == expected
