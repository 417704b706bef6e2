import itertools
from collections import Counter

import pytest

from oracles import (
    cube_data,
    dense_products,
    dividing_curve_components,
    enumerate_tight_pair,
    swap_vw,
)
from strandcontact.algebra import mul_sums
from strandcontact.arcdiag import ArcDiagram, interior_steps, label_subsets, to_quad_surface
from strandcontact.contact import (
    CubeData,
    ca_table,
    cube_tight,
    enumerate_tight,
    make_structure,
    stack,
    structure_json,
)
from strandcontact.homology import build_summand, representative, ring_product
from strandcontact.isoverify import corpus, phi

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))
K4_SLOWEST = ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2))  # perfbench/inputs/verify-k4-slowest.arc


def cube(bottom, top, before_v=False, after_v=False, before_w=False, after_w=False):
    return CubeData(bottom, top, before_v, after_v, before_w, after_w)


def spelled_out_tight(c):
    """The ten tight cube cases, transcribed independently of cube_tight."""
    used = {
        name
        for name, flag in [
            ("before_v", c.used_before_v),
            ("after_v", c.used_after_v),
            ("before_w", c.used_before_w),
            ("after_w", c.used_after_w),
        ]
        if flag
    }
    cases = []
    # all sides unused; both on or both off
    cases.append((set(), True, True))
    cases.append((set(), False, False))
    # one side used
    for x in ("v", "w"):
        cases.append(({f"after_{x}"}, True, False))
        cases.append(({f"before_{x}"}, False, True))
    # two adjacent sides used
    cases.append(({"after_v", "before_w"}, True, True))
    cases.append(({"after_w", "before_v"}, True, True))
    cases.append(({"before_v", "after_v"}, False, False))
    cases.append(({"before_w", "after_w"}, False, False))
    # three sides used
    for x, y in (("v", "w"), ("w", "v")):
        unused_after = {"before_v", "before_w", f"after_{y}"}
        cases.append((unused_after, False, True))
        unused_before = {"after_v", "after_w", f"before_{y}"}
        cases.append((unused_before, True, False))
    # all four used; both on or both off
    every = {"before_v", "after_v", "before_w", "after_w"}
    cases.append((every, True, True))
    cases.append((every, False, False))
    return (used, c.bottom_on, c.top_on) in [
        (u, b, t) for u, b, t in cases
    ]


def all_cubes():
    for bits in itertools.product((False, True), repeat=6):
        yield CubeData(*bits)


def test_cube_tight_matches_spelled_out_list():
    for c in all_cubes():
        assert cube_tight(c) == spelled_out_tight(c), c


def test_cube_tight_examples():
    assert cube_tight(cube(True, True))
    assert cube_tight(cube(True, False, after_v=True))
    assert not cube_tight(cube(False, True))
    assert not cube_tight(
        cube(True, True, after_v=True, after_w=True)
    )  # opposite pair


def test_cube_tight_vw_symmetry():
    for c in all_cubes():
        assert cube_tight(c) == cube_tight(swap_vw(c))


def test_cube_data_binding():
    surface = to_quad_surface(TORUS)
    ds = frozenset({1})
    xi = make_structure(surface, ds, ds, frozenset({0, 1}))
    c1 = cube_data(surface, xi, 1)
    # square 1 has places 1, 3; steps [1,2] and [2,3] are arcs 0 and 1
    assert c1.bottom_on and c1.top_on
    assert c1.used_after_v and c1.used_before_w
    assert not c1.used_before_v and not c1.used_after_w
    c2 = cube_data(surface, xi, 2)
    assert not c2.bottom_on and not c2.top_on
    assert c2.used_before_v and c2.used_after_v
    assert not c2.used_before_w and not c2.used_after_w


def test_structure_fields_are_read_only():
    xi = make_structure(to_quad_surface(TORUS), frozenset(), frozenset(), frozenset())
    with pytest.raises(AttributeError):
        xi.tight = False
    assert xi.tight


@pytest.mark.parametrize("d", [TORUS, K4_SLOWEST], ids=["torus", "verify-k4-slowest"])
def test_make_structure_reads_every_cube(d):
    """make_structure's verdict is the cube table on the cube_data of every
    square, read off its side slots by the oracle."""
    surface = to_quad_surface(d)
    n = len(interior_steps(d))
    subsets = label_subsets(d)
    for bits in range(1 << n):
        used = frozenset(i for i in range(n) if (bits >> i) & 1)
        for bottom, top in itertools.product(subsets, subsets):
            xi = make_structure(surface, bottom, top, used)
            cubes = [cube_data(surface, xi, sq.label) for sq in surface.squares]
            assert xi.tight == all(cube_tight(c) for c in cubes)


def test_exterior_slots_unused():
    surface = to_quad_surface(SQUARE)
    ds = frozenset({1})
    xi = make_structure(surface, ds, ds, frozenset())
    assert xi.tight
    c = cube_data(surface, xi, 1)
    assert c.used_count == 0


def pair_counts(d):
    """Number of tight structures from each bottom to each top."""
    return Counter(
        (tuple(sorted(xi.bottom)), tuple(sorted(xi.top)))
        for xi in enumerate_tight(to_quad_surface(d))
    )


def test_enumerate_tight_square():
    counts = pair_counts(SQUARE)
    assert counts[((1,), (1,))] == 1
    assert counts[((1,), ())] == 0
    assert counts[((), (1,))] == 0
    assert counts[((), ())] == 1


def test_enumerate_tight_torus_counts():
    # frozen from the hand enumeration over used-arc subsets
    counts = pair_counts(TORUS)
    assert counts[((), ())] == 1
    assert counts[((1, 2), (1, 2))] == 1
    assert counts[((1,), (1,))] == 2
    assert counts[((2,), (2,))] == 2
    assert counts[((1,), (2,))] == 3
    assert counts[((2,), (1,))] == 1
    assert sum(counts.values()) == 10


def test_euler_class():
    # the Euler class k - 2|on| of a basic dividing set is the same at
    # both ends of every tight structure
    assert len(label_subsets(TORUS)) == 4
    for d in (SQUARE, TORUS, ANNULUS):
        for xi in ca_table(d).basis:
            assert len(xi.bottom) == len(xi.top)


BRUTE_FORCE_CASES = corpus(3, 3) + [ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2))]


@pytest.mark.parametrize(
    "d",
    BRUTE_FORCE_CASES,
    ids=lambda d: "_".join(map(str, d.segment_sizes)) + "-" + "".join(map(str, d.matching)),
)
def test_enumerate_tight_matches_brute_force(d):
    # the per-pair search over every used-arc subset, concatenated over
    # (bottom, top) in label_subsets order, gives the same basis in the
    # same order
    surface = to_quad_surface(d)
    sets = label_subsets(d)
    expected = tuple(
        xi
        for bottom in sets
        for top in sets
        for xi in enumerate_tight_pair(surface, bottom, top)
    )
    assert enumerate_tight(surface) == expected


def test_stack_identity():
    surface = to_quad_surface(TORUS)
    table = ca_table(TORUS)

    def identity(ds):
        return make_structure(surface, ds, ds, frozenset())

    for xi in table.basis:
        left = stack(surface, identity(xi.bottom), xi)
        right = stack(surface, xi, identity(xi.top))
        assert left == xi
        assert right == xi


def test_stack_shared_arc_is_zero():
    surface = to_quad_surface(TORUS)
    one = frozenset({1})
    # used arcs {0,1} runs from {1} to {1}; it cannot stack on itself
    xi = make_structure(surface, one, one, frozenset({0, 1}))
    assert xi.tight
    assert stack(surface, xi, xi) is None


def test_stack_composability():
    surface = to_quad_surface(TORUS)
    table = ca_table(TORUS)
    for x0 in table.basis:
        for x1 in table.basis:
            got = stack(surface, x0, x1)
            if x0.top != x1.bottom:
                assert got is None
                continue
            if x0.used_arcs & x1.used_arcs:
                assert got is None
                continue
            union = make_structure(
                surface, x0.bottom, x1.top, x0.used_arcs | x1.used_arcs
            )
            assert (got is not None) == union.tight
            if got is not None:
                assert got.used_arcs == x0.used_arcs | x1.used_arcs
                assert len(got.bottom) == len(got.top)


def test_ca_table_square():
    table = ca_table(SQUARE)
    assert len(table.basis) == 2
    assert sorted(table.identities) == [0, 1]
    for i in range(2):
        for j in range(2):
            expected = i if i == j else None
            assert table.products.get((i, j)) == expected


def test_ca_unit_two_sided():
    for d in (SQUARE, TORUS, ANNULUS):
        table = ca_table(d)
        for i, xi in enumerate(table.basis):
            hits_left = [
                table.products.get((e, i))
                for e in table.identities
                if table.products.get((e, i)) is not None
            ]
            hits_right = [
                table.products.get((i, e))
                for e in table.identities
                if table.products.get((i, e)) is not None
            ]
            assert hits_left == [i]
            assert hits_right == [i]


@pytest.mark.parametrize("d", [SQUARE, TORUS, ANNULUS])
def test_ca_table_closed_and_associative(d):
    table = ca_table(d)
    n = len(table.basis)
    for i in range(n):
        for j in range(n):
            ij = table.products.get((i, j))
            assert ij is None or 0 <= ij < n
            for k in range(n):
                jk = table.products.get((j, k))
                lhs = table.products.get((ij, k)) if ij is not None else None
                rhs = table.products.get((i, jk)) if jk is not None else None
                assert lhs == rhs


@pytest.mark.parametrize(
    "d",
    BRUTE_FORCE_CASES,
    ids=lambda d: "_".join(map(str, d.segment_sizes)) + "-" + "".join(map(str, d.matching)),
)
def test_sparse_products_match_dense_oracle(d):
    # the table keeps exactly the composable pairs, and every pair it
    # leaves out is zero on all three sides of the ring check
    table = ca_table(d)
    dense = dense_products(d)
    basis = table.basis
    composable = {
        (i, j)
        for i, x0 in enumerate(basis)
        for j, x1 in enumerate(basis)
        if x0.top == x1.bottom
    }
    assert set(table.products) == composable
    assert all(table.products[key] == dense[key] for key in composable)
    assert all(dense[key] is None for key in dense.keys() - composable)
    triples = [phi(d, xi) for xi in basis]
    reps = [representative(build_summand(d, *trip)) for trip in triples]
    for i, j in dense.keys() - composable:
        assert ring_product(d, triples[i], triples[j]) is None
        assert mul_sums(d, reps[i], reps[j]) == frozenset()


def test_structure_json():
    surface = to_quad_surface(TORUS)
    one = frozenset({1})
    xi = make_structure(surface, one, one, frozenset({0, 1}))
    assert structure_json(TORUS, xi) == {
        "bottom": [1],
        "top": [1],
        "used": [0, 1],
        "tight": True,
    }


def test_curve_oracle_matches_cube_tight():
    for c in all_cubes():
        components = dividing_curve_components(c)
        assert components >= 1
        assert (components == 1) == cube_tight(c), c


def test_curve_oracle_anchor_counts():
    assert dividing_curve_components(cube(True, True)) == 1
    assert dividing_curve_components(cube(False, True)) >= 2
