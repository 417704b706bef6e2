import itertools
import pickle
import sys

import pytest

from oracles import (
    StrandDiagram,
    all_diagrams,
    diff_sum,
    end,
    from_diagram,
    hom_grading,
    hom_vector,
    is_constrained,
    maslov2,
    sections,
    start,
    twin,
)
from strandcontact.arcdiag import ArcDiagram
from strandcontact.algebra import (
    SymGenerator,
    diff_generator,
    enumerate_basis,
    expansions,
    generator_maslov2,
    idempotent,
    mul_generators,
    mul_sums,
)

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))


def constrained_diagrams(d, i):
    """Independent oracle: every constrained i-strand diagram, brute force."""
    return [m for m in all_diagrams(d.segment_sizes, i) if is_constrained(d, m)]


def twin_orbit(d, m):
    """All twin re-choices of the horizontal strands of a diagram."""
    moving = [(p, q) for p, q in m.strands if p != q]
    horizontals = [p for p, q in m.strands if p == q]
    orbit = set()
    for choice in itertools.product((0, 1), repeat=len(horizontals)):
        spots = [
            p if c == 0 else twin(d, p) for p, c in zip(horizontals, choice)
        ]
        orbit.add(StrandDiagram(d.segment_sizes, tuple(moving) + tuple((x, x) for x in spots)))
    return frozenset(orbit)


def test_sections_empty():
    assert sections(TORUS, frozenset()) == [frozenset()]


def test_sections_single_label():
    assert sections(TORUS, frozenset({1})) == [frozenset({1}), frozenset({3})]


def test_sections_two_labels():
    got = sections(TORUS, frozenset({1, 2}))
    assert len(got) == 4
    assert frozenset({1, 2}) in got and frozenset({3, 4}) in got


def test_square_basis():
    assert enumerate_basis(SQUARE, 0) == (SymGenerator((), ()),)
    assert enumerate_basis(SQUARE, 1) == (SymGenerator((), (1,)),)


def test_torus_basis_one_strand_count():
    # oracle: 4 horizontals in 2 twin orbits, plus 6 moving strands
    got = enumerate_basis(TORUS, 1)
    assert len(got) == 8


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_basis_partitions_constrained_diagrams(d):
    for i in range(d.k + 1):
        oracle = {m.strands for m in constrained_diagrams(d, i)}
        orbits = [set(expansions(d, g)) for g in enumerate_basis(d, i)]
        covered = set()
        for ex in orbits:
            assert not (covered & ex), "expansions overlap"
            covered |= ex
        assert covered == oracle
        for g, ex in zip(enumerate_basis(d, i), orbits):
            some = StrandDiagram(d.segment_sizes, next(iter(ex)))
            assert {m.strands for m in twin_orbit(d, some)} == ex
            assert from_diagram(d, some) == g


def test_hom_grading_idempotent_zero():
    assert hom_grading(TORUS, idempotent(TORUS, frozenset({1}))) == (0, 0, 0)


def test_hom_grading_interval():
    g = SymGenerator(((1, 3),), ())
    assert hom_grading(TORUS, g) == (1, 1, 0)


def test_maslov_idempotent_zero():
    assert generator_maslov2(TORUS, idempotent(TORUS, frozenset({1, 2}))) == 0


def test_maslov_single_short_strand():
    # one strand over one step: crossing count 0, multiplicity 1/2 at source
    m = StrandDiagram(TORUS.segment_sizes, ((1, 2),))
    assert maslov2(TORUS, m) == -1


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_maslov_twin_swap_invariant(d):
    for i in range(d.k + 1):
        for g in enumerate_basis(d, i):
            diagrams = [StrandDiagram(d.segment_sizes, m) for m in expansions(d, g)]
            values = {maslov2(d, m) for m in diagrams}
            assert len(values) == 1
            homs = {hom_vector(d, m) for m in diagrams}
            assert len(homs) == 1


def all_generators(d):
    return [g for i in range(d.k + 1) for g in enumerate_basis(d, i)]


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_idempotent_orthogonality(d):
    subsets = [
        frozenset(c)
        for r in range(d.k + 1)
        for c in itertools.combinations(range(1, d.k + 1), r)
    ]
    for s in subsets:
        for t in subsets:
            prod = mul_generators(d, idempotent(d, s), idempotent(d, t))
            if s == t:
                assert prod == frozenset({idempotent(d, s)})
            else:
                assert prod == frozenset()


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_identity_action(d):
    for g in all_generators(d):
        assert mul_generators(d, g, idempotent(d, end(d, g))) == frozenset({g})
        assert mul_generators(d, idempotent(d, start(d, g)), g) == frozenset({g})


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_mul_matches_diagram_level_oracle(d):
    gens = all_generators(d)
    for g1 in gens:
        for g2 in gens:
            got = mul_generators(d, g1, g2)
            # oracle: bilinear product of the expansions, regrouped by orbit
            acc = set()
            for m in expansions(d, g1):
                for n in expansions(d, g2):
                    from strandcontact.strands import multiply

                    prod = multiply(m, n)
                    if prod is not None:
                        acc ^= {StrandDiagram(d.segment_sizes, prod)}
            regot = set()
            while acc:
                some = next(iter(sorted(acc, key=str)))
                orbit = twin_orbit(d, some)
                assert orbit <= acc, "product sum is not a union of orbits"
                acc -= orbit
                regot.add(from_diagram(d, some))
            assert got == frozenset(regot)


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_diff_squared_zero_and_maslov_drop(d):
    for g in all_generators(d):
        dg = diff_generator(d, g)
        assert diff_sum(d, dg) == frozenset()
        m2 = generator_maslov2(d, g)
        h = hom_grading(d, g)
        for term in dg:
            assert generator_maslov2(d, term) == m2 - 2
            assert hom_grading(d, term) == h
            assert start(d, term) == start(d, g)
            assert end(d, term) == end(d, g)


def test_diff_crossingless_zero():
    assert diff_generator(TORUS, SymGenerator(((1, 3),), ())) == frozenset()
    assert diff_generator(TORUS, idempotent(TORUS, frozenset({1, 2}))) == frozenset()


def test_diff_resolves_hidden_crossing():
    # a dotted label with one twin inside a moving strand's span crosses it
    # in one expansion only; the resolution chains the strand through it
    g = SymGenerator(((1, 3),), (2,))
    assert diff_generator(TORUS, g) == frozenset(
        {SymGenerator(((1, 2), (2, 3)), ())}
    )


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_leibniz_on_generators(d):
    gens = all_generators(d)
    by_start = {}
    for g in gens:
        by_start.setdefault(start(d, g), []).append(g)
    for g1 in gens:
        for g2 in by_start.get(end(d, g1), []):
            lhs = diff_sum(d, mul_generators(d, g1, g2))
            rhs = mul_sums(d, diff_generator(d, g1), frozenset({g2}))
            rhs ^= mul_sums(d, frozenset({g1}), diff_generator(d, g2))
            assert lhs == rhs


@pytest.mark.parametrize("d", [TORUS, ANNULUS])
def test_hom_additivity_on_products(d):
    gens = all_generators(d)
    for g1 in gens:
        for g2 in gens:
            for term in mul_generators(d, g1, g2):
                expected = tuple(
                    a + b for a, b in zip(hom_grading(d, g1), hom_grading(d, g2))
                )
                assert hom_grading(d, term) == expected


def test_product_endpoints():
    d = TORUS
    gens = all_generators(d)
    for g1 in gens:
        for g2 in gens:
            for term in mul_generators(d, g1, g2):
                assert start(d, term) == start(d, g1)
                assert end(d, term) == end(d, g2)


def test_associativity_small():
    for d in (SQUARE, TORUS):
        gens = all_generators(d)
        for g1 in gens:
            for g2 in gens:
                if end(d, g1) != start(d, g2):
                    continue
                left = mul_generators(d, g1, g2)
                for g3 in gens:
                    if end(d, g2) != start(d, g3):
                        continue
                    lhs = mul_sums(d, left, frozenset({g3}))
                    rhs = mul_sums(d, frozenset({g1}), mul_generators(d, g2, g3))
                    assert lhs == rhs


def test_generator_is_an_immutable_tuple_of_its_fields():
    """A generator is a NamedTuple of (moving, dotted) with no __dict__:
    the constructor sorts both, and it is equal to and hashed as the plain
    tuple of its fields."""
    g = SymGenerator([(3, 4), (1, 2)], [5, 2])
    assert g == (((1, 2), (3, 4)), (2, 5)) and hash(g) == hash(tuple(g))
    assert (g.moving, g.dotted, g.strand_count) == (((1, 2), (3, 4)), (2, 5), 4)
    assert repr(g) == "SymGenerator(moving=((1, 2), (3, 4)), dotted=(2, 5))"
    assert not hasattr(g, "__dict__")
    assert sys.getsizeof(g) == sys.getsizeof(tuple(g))
    with pytest.raises(AttributeError):
        g.dotted = ()
    assert pickle.loads(pickle.dumps(g)) == g
