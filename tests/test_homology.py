import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strandcontact import algebra, homology
from strandcontact.arcdiag import ArcDiagram, interior_steps, release_caches
from strandcontact.algebra import (
    SymGenerator,
    diff_generator,
    end,
    enumerate_basis,
    generator_maslov2,
    hom_grading,
    idempotent,
    mul_sums,
    start,
)
from strandcontact.homology import (
    HomSummand,
    NotACycle,
    algebra_triples,
    build_summand,
    closed_form,
    gf2_in_span,
    gf2_kernel_basis,
    gf2_rank,
    homology_dims,
    is_boundary,
    representative,
    ring_product,
    summand_nonzero,
    total_dim,
)
from strandcontact.isoverify import corpus
from oracles import local_case, local_maslov2, local_nonzero

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))
K5 = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc


def mat(rows, cols, entries):
    """Column bitmasks of a matrix given row by row."""
    return tuple(
        sum(1 << r for r in range(rows) if entries[r][c]) for c in range(cols)
    )


def apply(columns, v):
    """The matrix with these columns times the vector v (bitmasks)."""
    image = 0
    for c, col in enumerate(columns):
        if (v >> c) & 1:
            image ^= col
    return image


def test_gf2_rank_identity():
    assert gf2_rank(mat(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_gf2_rank_zero():
    assert gf2_rank(mat(2, 4, [[0, 0, 0, 0], [0, 0, 0, 0]])) == 0


def test_gf2_rank_hand_example():
    assert gf2_rank(mat(2, 3, [[1, 1, 0], [0, 1, 1]])) == 2


def test_gf2_rank_dependent_rows():
    assert gf2_rank(mat(3, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def test_gf2_kernel():
    m = mat(2, 3, [[1, 1, 0], [0, 1, 1]])
    basis = gf2_kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert apply(m, v) == 0
    assert v == 0b111


def test_gf2_span():
    columns = [0b011, 0b110]
    assert gf2_in_span(0b101, columns)
    assert not gf2_in_span(0b001, columns)
    assert gf2_in_span(0, columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 63), max_size=8), st.integers(0, 255))
def test_gf2_reduction_consistent(columns, v):
    rank = gf2_rank(columns)
    kernel = gf2_kernel_basis(columns)
    assert rank + len(kernel) == len(columns)
    assert gf2_rank([apply(columns, w) for w in kernel]) == 0
    assert gf2_rank(kernel) == len(kernel)
    v &= (1 << len(columns)) - 1
    assert gf2_in_span(apply(columns, v), columns)
    assert gf2_in_span(v, columns) == (gf2_rank([*columns, v]) == rank)


def triples_of(d):
    """Every (s, t, h) triple realised by some basis generator."""
    seen = {}
    for i in range(d.k + 1):
        for g in enumerate_basis(d, i):
            key = (start(d, g), end(d, g), hom_grading(d, g))
            seen.setdefault(key, []).append(g)
    return seen


def test_build_summand_square_idempotent():
    s = frozenset({1})
    summand = build_summand(SQUARE, s, s, ())
    assert summand.graded_basis == {0: (idempotent(SQUARE, s),)}
    assert homology_dims(summand) == {0: 1}


def test_summand_fields_are_read_only():
    summand = build_summand(SQUARE, frozenset({1}), frozenset({1}), ())
    with pytest.raises(AttributeError):
        summand.h = (1,)
    assert summand.h == ()


def test_square_total_homology_dimension():
    total = 0
    for (s, t, h) in triples_of(SQUARE):
        total += total_dim(build_summand(SQUARE, s, t, h))
    assert total == 2


def test_summand_partition_counts():
    for d in (TORUS, ANNULUS):
        expected = sum(len(enumerate_basis(d, i)) for i in range(d.k + 1))
        got = sum(
            len(basis)
            for (s, t, h) in triples_of(d)
            for basis in build_summand(d, s, t, h).graded_basis.values()
        )
        assert got == expected


def test_boundary_squares_to_zero():
    for d in (TORUS, ANNULUS):
        for (s, t, h) in triples_of(d):
            summand = build_summand(d, s, t, h)
            for m, columns in summand.boundary.items():
                nxt = summand.boundary.get(m - 2)
                if nxt is None:
                    continue
                for col in columns:
                    assert apply(nxt, col) == 0


def test_local_case_examples():
    d = TORUS
    zero = (0, 0, 0)
    # nothing used, label absent from s and t
    case = local_case(d, zero, frozenset(), frozenset(), 1)
    assert case == ("out", "out", "neither")
    # strand begins at v=1 and ends at w=3 with label in both
    h = (1, 1, 0)
    case = local_case(d, h, frozenset({1}), frozenset({1}), 1)
    assert case == ("neg_bdy", "pos_bdy", "both")
    # both twins at the positive boundary is disallowed
    h2 = (1, 0, 1)
    assert local_case(d, h2, frozenset({2}), frozenset({2}), 2) is None


def test_summand_nonzero_idempotents():
    d = TORUS
    zero = (0, 0, 0)
    for labels in [frozenset(), frozenset({1}), frozenset({1, 2})]:
        assert summand_nonzero(d, labels, labels, zero)
    assert not summand_nonzero(d, frozenset({1}), frozenset({2}), zero)
    assert not summand_nonzero(d, frozenset(), frozenset({1}), zero)


def test_summand_nonzero_rejects_multiplicity_two():
    assert not summand_nonzero(TORUS, frozenset({1}), frozenset({1}), (2, 0, 0))


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_nonzero_agrees_with_chain_dims(d):
    # the central cross-check: closed form against GF(2) chain homology
    realised = triples_of(d)
    for (s, t, h) in realised:
        summand = build_summand(d, s, t, h)
        dims = homology_dims(summand)
        total = sum(dims.values())
        assert total in (0, 1)
        assert len(dims) <= 1
        assert summand_nonzero(d, s, t, h) == (total == 1)
    # triples not realised by any generator must also be dead in closed form
    subsets = [
        frozenset(c)
        for r in range(d.k + 1)
        for c in itertools.combinations(range(1, d.k + 1), r)
    ]
    n = len(interior_steps(d))
    for s in subsets:
        for t in subsets:
            for bits in itertools.product((0, 1), repeat=n):
                if (s, t, tuple(bits)) not in realised:
                    assert not summand_nonzero(d, s, t, tuple(bits))


def test_torus_summand_dimensions():
    # frozen from the hand count of tight structures on the two-square torus
    d = TORUS
    by_pair = {}
    for (s, t, h) in triples_of(d):
        dim = total_dim(build_summand(d, s, t, h))
        key = (tuple(sorted(s)), tuple(sorted(t)))
        by_pair[key] = by_pair.get(key, 0) + dim
    assert by_pair[((), ())] == 1
    assert by_pair[((1, 2), (1, 2))] == 1
    assert by_pair[((1,), (1,))] == 2
    assert by_pair[((2,), (2,))] == 2
    assert by_pair[((1,), (2,))] == 3
    assert by_pair[((2,), (1,))] == 1
    assert sum(by_pair.values()) == 10


def test_is_boundary_basics():
    d = TORUS
    s = frozenset({1})
    summand = build_summand(d, s, s, (0, 0, 0))
    assert is_boundary(summand, frozenset())
    gen = idempotent(d, s)
    assert not is_boundary(summand, frozenset({gen}))


def test_is_boundary_rejects_non_cycles():
    d = TORUS
    g = SymGenerator(((1, 3),), (2,))
    s, t, h = start(d, g), end(d, g), hom_grading(d, g)
    summand = build_summand(d, s, t, h)
    with pytest.raises(NotACycle):
        is_boundary(summand, frozenset({g}))


def test_differential_image_is_boundary():
    d = TORUS
    for i in range(d.k + 1):
        for g in enumerate_basis(d, i):
            image = diff_generator(d, g)
            if not image:
                continue
            summand = build_summand(
                d, start(d, g), end(d, g), hom_grading(d, g)
            )
            assert is_boundary(summand, image)


def test_summands_grade_each_generator_once():
    """Building every summand checks each moving part once and grades each
    generator once: the record of a moving part is built on its first use,
    and triple, generator_maslov2 and expand each look it up once per
    generator."""
    release_caches()
    for trip in algebra_triples(K5):
        build_summand(K5, *trip)
    generators = [g for i in range(K5.k + 1) for g in enumerate_basis(K5, i)]
    info = algebra._moving_part.cache_info()
    assert info.misses == len({g.moving for g in generators}) == 741
    assert info.hits + info.misses == 3 * len(generators) == 3 * 1606


@pytest.mark.parametrize("d", [TORUS, ANNULUS, K5])
def test_homology_dims_reduces_each_boundary_map_once(monkeypatch, d):
    reduced = []

    def counting(columns):
        reduced.append(columns)
        return gf2_rank(columns)

    monkeypatch.setattr(homology, "gf2_rank", counting)
    for trip in algebra_triples(d):
        summand = build_summand(d, *trip)
        reduced.clear()
        homology_dims(summand)
        assert sorted(reduced) == sorted(summand.boundary.values())

@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_representative_is_generating_cycle(d):
    for (s, t, h) in triples_of(d):
        summand = build_summand(d, s, t, h)
        rep = representative(summand)
        if total_dim(summand) == 0:
            assert rep is None
        else:
            assert rep
            assert not is_boundary(summand, rep)


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS, K5])
def test_crossingless_generators_realise_summands(d):
    from oracles import crossingless_generators

    for (s, t, h) in triples_of(d):
        summand = build_summand(d, s, t, h)
        gens = crossingless_generators(d, s, t, h)
        if not summand_nonzero(d, s, t, h):
            assert gens == ()
            continue
        assert gens
        basis_all = {g for basis in summand.graded_basis.values() for g in basis}
        for g in gens:
            assert g in basis_all
            assert generator_maslov2(d, g) == closed_form(d)[(s, t, h)]
            assert diff_generator(d, g) == frozenset()
            assert not is_boundary(summand, frozenset({g}))
        # all crossingless realisations are homologous
        first = gens[0]
        for g in gens[1:]:
            pair = frozenset({first, g}) if first != g else frozenset()
            assert is_boundary(summand, pair)


@pytest.mark.parametrize("d", [TORUS, ANNULUS])
def test_ring_product_matches_chain_level(d):
    nonzero = [
        (s, t, h) for (s, t, h) in triples_of(d) if summand_nonzero(d, s, t, h)
    ]
    # idempotent triples may be missing from triples_of only if the basis
    # lacked them, which cannot happen; keep them explicit anyway
    reps = {
        trip: representative(build_summand(d, *trip)) for trip in nonzero
    }
    for t0 in nonzero:
        for t1 in nonzero:
            closed = ring_product(d, t0, t1)
            chain = mul_sums(d, reps[t0], reps[t1])
            if not chain:
                chain_class = None
            else:
                term = next(iter(chain))
                trip = (start(d, term), end(d, term), hom_grading(d, term))
                summand = build_summand(d, *trip)
                chain_class = None if is_boundary(summand, chain) else trip
            assert closed == chain_class


def test_ring_product_identity_and_overlap():
    d = TORUS
    strand_triple = (frozenset({1}), frozenset({1}), (1, 1, 0))
    idem_start = (frozenset({1}), frozenset({1}), (0, 0, 0))
    assert ring_product(d, strand_triple, idem_start) == strand_triple
    assert ring_product(d, idem_start, strand_triple) == strand_triple
    # shared used step kills the product
    assert ring_product(d, strand_triple, strand_triple) is None


def survives_by_three_conditions(d, s, t, h):
    """Independent oracle for summand_nonzero, transcribing the three
    survival conditions directly: 0/1 multiplicities, the interior-twin
    exclusion, and a brute-force search for a crossingless constrained
    diagram with the right endpoints and grading."""
    from oracles import all_diagrams, hom_vector, is_constrained
    from strandcontact.strands import inversions

    if any(m not in (0, 1) for m in h):
        return False
    idx = {step: i for i, step in enumerate(interior_steps(d))}
    for lab in range(1, d.k + 1):
        v, w = d.pair(lab)
        for a, b in ((v, w), (w, v)):
            from strandcontact.homology import _place_class

            if (
                _place_class(d, h, a) == "interior"
                and _place_class(d, h, b) != "interior"
                and lab in s
                and lab in t
            ):
                return False
    for m in all_diagrams(d.segment_sizes, len(s)):
        if not is_constrained(d, m):
            continue
        if {d.label(p) for p in m.source} != s:
            continue
        if {d.label(q) for q in m.target} != t:
            continue
        if hom_vector(d, m) != h:
            continue
        if not inversions(m.strands):
            return True
    return False


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_local_table_matches_three_conditions(d):
    n = len(interior_steps(d))
    subsets = [
        frozenset(c)
        for r in range(d.k + 1)
        for c in itertools.combinations(range(1, d.k + 1), r)
    ]
    for s in subsets:
        for t in subsets:
            if len(s) != len(t):
                continue
            for bits in itertools.product((0, 1), repeat=n):
                h = tuple(bits)
                assert summand_nonzero(d, s, t, h) == survives_by_three_conditions(
                    d, s, t, h
                ), (sorted(s), sorted(t), h)


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_closed_form_matches_per_triple_oracle(d):
    """The table holds exactly the triples that the local table accepts
    one matched pair at a time, with their per-triple degree; zero
    summands and gradings with a 2 are absent."""
    table = closed_form(d)
    labels = range(1, d.k + 1)
    subsets = [frozenset(c) for r in range(d.k + 1) for c in itertools.combinations(labels, r)]
    n = len(interior_steps(d))
    seen = 0
    for s in subsets:
        for t in subsets:
            for h in itertools.product((0, 1, 2), repeat=n):
                nonzero = local_nonzero(d, s, t, h)
                assert summand_nonzero(d, s, t, h) == nonzero, (sorted(s), sorted(t), h)
                if nonzero:
                    assert table[(s, t, h)] == local_maslov2(d, s, t, h)
                    seen += 1
    assert seen == len(table)


@pytest.mark.parametrize(
    "d",
    [*corpus(3, 3), K5],
    ids=lambda d: "-".join(map(str, d.segment_sizes)) + "_" + "".join(map(str, d.matching)),
)
def test_closed_form_equals_chain_homology(d):
    """Chain = local as a tier-1 test: the table maps each summand whose
    chain homology is one-dimensional to that dimension's degree."""
    chain = {}
    for trip in algebra_triples(d):
        dims = homology_dims(build_summand(d, *trip))
        if dims:
            ((m, dim),) = dims.items()
            assert dim == 1, trip
            chain[trip] = m
    assert closed_form(d) == chain


def test_ring_product_associative():
    for d in (TORUS, ANNULUS):
        nonzero = [
            trip for trip in triples_of(d) if summand_nonzero(d, *trip)
        ]
        for a in nonzero:
            for b in nonzero:
                ab = ring_product(d, a, b)
                for c in nonzero:
                    bc = ring_product(d, b, c)
                    lhs = ring_product(d, ab, c) if ab else None
                    rhs = ring_product(d, a, bc) if bc else None
                    assert lhs == rhs
