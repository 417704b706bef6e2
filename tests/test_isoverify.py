import hashlib
import itertools
import json

import pytest

from oracles import canonical_key_all_orders, corpus_validate_first, diff_sum
from strandcontact import algebra, contact, homology, isoverify, strands
from strandcontact.algebra import NotInSymmetrisedSpan, enumerate_basis
from strandcontact.arcdiag import (
    ArcDiagram,
    InvalidDiagramError,
    release_caches,
    surgery_circle,
    to_quad_surface,
)
from strandcontact.contact import ca_table
from strandcontact.homology import build_summand, representative, summand_nonzero
from strandcontact.isoverify import (
    NotRealizable,
    _canonical_key,
    corpus,
    phi,
    phi_inv,
    sfh_table,
    verify,
)

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))
LOOP = ArcDiagram((2,), (1, 1))


def test_phi_identity_structure():
    table = ca_table(SQUARE)
    for e in table.identities:
        s, t, h = phi(SQUARE, table.basis[e])
        assert s == t
        assert all(m == 0 for m in h)


def test_phi_injective_and_nonzero():
    for d in (SQUARE, TORUS, ANNULUS):
        table = ca_table(d)
        triples = [phi(d, xi) for xi in table.basis]
        assert len(set(triples)) == len(triples)
        for trip in triples:
            assert summand_nonzero(d, *trip)


def test_phi_roundtrips():
    for d in (SQUARE, TORUS, ANNULUS):
        table = ca_table(d)
        for xi in table.basis:
            trip = phi(d, xi)
            assert phi_inv(d, *trip) == xi
            assert phi(d, phi_inv(d, *trip)) == trip


def test_phi_inv_rejects_zero_summand():
    with pytest.raises(NotRealizable):
        phi_inv(SQUARE, frozenset({1}), frozenset(), ())


def test_verify_square():
    report = verify(SQUARE)
    assert report.success
    assert report.ca_dim == 2
    assert report.homology_dim == 2
    assert report.unit_ok
    assert report.products_checked == 4


def test_verify_torus():
    report = verify(TORUS)
    assert report.success
    assert report.ca_dim == 10
    assert report.homology_dim == 10
    euler = {row["e"]: row for row in report.by_euler}
    assert euler[2]["ca_dim"] == 1
    assert euler[0]["ca_dim"] == 8
    assert euler[-2]["ca_dim"] == 1


def test_verify_annulus():
    report = verify(ANNULUS)
    assert report.success
    assert report.ca_dim == report.homology_dim


def test_verify_rejects_invalid():
    with pytest.raises(InvalidDiagramError):
        verify(LOOP)


def test_report_json_shape():
    data = verify(SQUARE).to_json()
    assert data["schema"] == 1
    assert data["success"] is True
    assert data["mismatches"] == []
    assert {"s", "t", "h", "contact", "local", "chain", "maslov2"} <= set(
        data["summands"][0]
    )


def test_sfh_table_square():
    table = sfh_table(SQUARE)
    assert table.dividing_sets == ((), (1,))
    assert table.matrix == ((1, 0), (0, 1))


def test_sfh_table_torus():
    table = sfh_table(TORUS)
    sets = table.dividing_sets
    assert sets == ((), (1,), (2,), (1, 2))
    by = {
        (sets[i], sets[j]): table.matrix[i][j]
        for i in range(4)
        for j in range(4)
    }
    assert by[((), ())] == 1
    assert by[((1,), (2,))] == 3
    assert by[((2,), (1,))] == 1
    # diagonal entries always carry the identity morphism
    for s in sets:
        assert by[(s, s)] >= 1
    assert sum(table.matrix[i][j] for i in range(4) for j in range(4)) == 10


def test_sfh_row_block_sums():
    table = sfh_table(TORUS)
    sets = table.dividing_sets
    block = sum(
        table.matrix[i][j]
        for i in range(4)
        for j in range(4)
        if len(sets[i]) == 1 and len(sets[j]) == 1
    )
    report = verify(TORUS)
    euler = {row["i"]: row for row in report.by_euler}
    assert block == euler[1]["h_dim"] == 8


def test_corpus_small():
    diagrams = corpus(1, 2)
    assert diagrams == [SQUARE]
    diagrams = corpus(2, 2)
    assert TORUS in diagrams
    for d in diagrams:
        assert d.k <= 2 and d.l <= 2


def test_corpus_dedups_segment_permutation():
    diagrams = corpus(2, 3)
    keys = set()
    for d in diagrams:
        from strandcontact.isoverify import _canonical_key

        key = _canonical_key(d)
        assert key not in keys
        keys.add(key)
    # (1,3) and (3,1) segment splits are the same diagram class
    sizes = sorted(tuple(sorted(d.segment_sizes)) for d in diagrams)
    assert all(s == tuple(sorted(s)) for s in sizes)


def test_corpus_verifies_quickly_at_k2():
    for d in corpus(2, 3):
        report = verify(d)
        assert report.success, (d, report.mismatches)


def disjoint_union(d1, d2):
    """Z1 beside Z2, the labels of Z2 shifted past those of Z1."""
    return ArcDiagram(
        d1.segment_sizes + d2.segment_sizes,
        d1.matching + tuple(lab + d1.k for lab in d2.matching),
    )


def test_verify_disconnected_surface():
    report = verify(disjoint_union(SQUARE, SQUARE))
    assert report.success, report.mismatches
    assert report.ca_dim == 4


def test_ca_dim_multiplies_over_disjoint_union():
    for d1, d2 in itertools.combinations_with_replacement(corpus(2, 2), 2):
        union = ca_table(disjoint_union(d1, d2))
        assert len(union.basis) == len(ca_table(d1).basis) * len(ca_table(d2).basis)


@pytest.fixture
def fresh_caches():
    """Empty the caches, which a patched local table or chain kernel would
    otherwise poison; no cache holds contact-side results."""
    release_caches()
    yield
    release_caches()


def test_verify_reports_contact_side_disagreement(monkeypatch):
    # every cube with no used side becomes tight: extra contact-side basis
    # elements that the chain side has no representative for
    real = contact.cube_tight
    monkeypatch.setattr(contact, "cube_tight", lambda c: c.used_count == 0 or real(c))
    report = verify(TORUS)
    assert not report.success
    assert any("{'s': [], 't': [1], 'h': [0, 0, 0]}" in m for m in report.mismatches)


def test_cube_table_follows_cube_tight(monkeypatch):
    """Every verdict is read from _cube_table(cube_tight): the table is
    cube_tight on all 64 cubes, and a replaced cube_tight gets a table of
    its own, so a stale table would let the second verify succeed."""
    table = contact._cube_table(contact.cube_tight)
    for bits in itertools.product((False, True), repeat=6):
        index = sum(bit << (5 - i) for i, bit in enumerate(bits))
        assert table[index] == contact.cube_tight(contact.CubeData(*bits)), bits
    assert verify(TORUS).success
    real = contact.cube_tight
    monkeypatch.setattr(contact, "cube_tight", lambda c: c.used_count == 0 or real(c))
    assert not verify(TORUS).success


@pytest.mark.parametrize(
    "row", sorted(homology._ALLOWED_HALF), ids=lambda row: "-".join(row)
)
def test_verify_catches_a_missing_local_row(monkeypatch, fresh_caches, row):
    mirror = (row[1], row[0], row[2])
    monkeypatch.setattr(homology, "ALLOWED_CASES", homology.ALLOWED_CASES - {row, mirror})
    assert any(not verify(d).success for d in corpus(3, 3))


def test_verify_reports_a_missing_identity(monkeypatch):
    # the unused cube with both faces off is no longer tight, so the empty
    # dividing set has no identity structure
    real = contact.cube_tight
    monkeypatch.setattr(
        contact,
        "cube_tight",
        lambda c: real(c) and not (c.used_count == 0 and not c.bottom_on and not c.top_on),
    )
    report = verify(TORUS)
    assert not report.success
    assert not report.unit_ok
    assert "missing identity structure for []" in report.mismatches


@pytest.fixture
def identities_kill(monkeypatch):
    """Stacking an identity under a structure with used arcs gives zero."""
    real = contact.stack

    def stack(surface, x0, x1):
        if x0.bottom == x0.top and not x0.used_arcs and x1.used_arcs:
            return None
        return real(surface, x0, x1)

    monkeypatch.setattr(contact, "stack", stack)


def test_verify_catches_an_identity_that_kills(identities_kill):
    report = verify(TORUS)
    assert not report.success
    assert not report.unit_ok
    assert any(
        m.startswith("identity structures do not act as a unit") for m in report.mismatches
    )


def test_unit_mismatches_name_identity_side_and_triple(identities_kill):
    unit = [
        m
        for m in verify(TORUS).mismatches
        if m.startswith("identity structures do not act as a unit")
    ]
    assert unit
    assert len(set(unit)) == len(unit)
    assert all("'h': [" in m and " on the left of " in m for m in unit)


@pytest.fixture
def identities_kill_on_the_right(monkeypatch):
    """Stacking a structure with used arcs under an identity gives zero."""
    real = contact.stack

    def stack(surface, x0, x1):
        if x1.bottom == x1.top and not x1.used_arcs and x0.used_arcs:
            return None
        return real(surface, x0, x1)

    monkeypatch.setattr(contact, "stack", stack)


def test_unit_mismatches_on_the_right(identities_kill_on_the_right):
    report = verify(TORUS)
    assert not report.unit_ok
    unit = [
        m
        for m in report.mismatches
        if m.startswith("identity structures do not act as a unit")
    ]
    assert unit
    assert len(set(unit)) == len(unit)
    assert all("'h': [" in m and " on the right of " in m for m in unit)


def test_verify_reports_a_raising_chain_product(monkeypatch):
    # a product spanning two triples cannot be placed in one summand, so
    # is_boundary raises inside the ring check
    basis = ca_table(TORUS).basis
    first, last = (phi(TORUS, xi) for xi in (basis[0], basis[-1]))
    spread = representative(build_summand(TORUS, *first)) | representative(
        build_summand(TORUS, *last)
    )
    monkeypatch.setattr(isoverify, "mul_sums", lambda d, x, y: spread)
    report = verify(TORUS)
    assert not report.success
    raised = [m for m in report.mismatches if m.startswith("chain product ")]
    assert raised
    assert all("raised ValueError: " in m for m in raised)


def test_verify_reports_a_product_outside_the_symmetrised_span(monkeypatch):
    def mul_sums(d, x, y):
        raise NotInSymmetrisedSpan("partial twin-swap orbit")

    monkeypatch.setattr(isoverify, "mul_sums", mul_sums)
    report = verify(TORUS)
    assert not report.success
    assert (
        "chain product {'s': [], 't': [], 'h': [0, 0, 0]} * {'s': [], 't': [], 'h': [0, 0, 0]} "
        "raised NotInSymmetrisedSpan: partial twin-swap orbit"
    ) in report.mismatches


def test_verify_k5_diagram():
    # beyond the k <= 3 corpus: a genus-2 surface with 334 tight structures
    report = verify(ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4)))
    assert report.success, report.mismatches
    assert report.ca_dim == report.homology_dim == 334


def test_verify_grades_each_generator_once(monkeypatch):
    """verify checks each moving part once, 741 records for 1,606
    generators, and grades each generator once: the ring check takes a
    chain product's triple from its factors instead of grading a term of
    it.  Every reader of a generator looks its record up, so the lookups
    count the reads: one each by triple, generator_maslov2 and expand per
    generator, and none by a product of generators, which reads only the
    cached expansions."""
    d = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc
    products = 0
    real = algebra.mul_generators

    def counting(diagram, g1, g2):
        nonlocal products
        products += 1
        return real(diagram, g1, g2)

    release_caches()
    monkeypatch.setattr(algebra, "mul_generators", counting)
    assert verify(d).success
    generators = sum(len(enumerate_basis(d, i)) for i in range(d.k + 1))
    info = algebra._moving_part.cache_info()
    assert (info.misses, generators, products) == (741, 1606, 3186)
    assert info.hits + info.misses == 3 * generators


K4_SLOWEST = ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2))  # perfbench/inputs/verify-k4-slowest.arc


def _drop_a_resolution(monkeypatch):
    # without horizontal strands every orbit is a single diagram, so the
    # sum still regroups, only one term short
    real = strands.differential

    def differential(m):
        out = real(m)
        if out and all(p != q for p, q in m):
            return out - {min(out)}
        return out

    monkeypatch.setattr(algebra, "differential", differential)


def _maslov_off_on_dotted(monkeypatch):
    real = algebra.generator_maslov2
    monkeypatch.setattr(
        homology,
        "generator_maslov2",
        lambda d, g: real(d, g) + (2 if g.dotted else 0),
    )


def _reduce_ignoring_a_pivot(monkeypatch):
    def _reduce(columns):
        pivots, kernel, ignored = {}, [], False
        for c, col in enumerate(columns):
            combo = 1 << c
            while col and (col & -col) in pivots:
                pivot_col, pivot_combo = pivots[col & -col]
                col ^= pivot_col
                combo ^= pivot_combo
            if col and not ignored:
                ignored = True
            elif col:
                pivots[col & -col] = (col, combo)
            else:
                kernel.append(combo)
        return pivots, kernel

    monkeypatch.setattr(homology, "_reduce", _reduce)


@pytest.mark.parametrize(
    "inject",
    [_drop_a_resolution, _maslov_off_on_dotted, _reduce_ignoring_a_pivot],
    ids=["differential-drops-a-resolution", "maslov2-off-by-2-when-dotted", "reduce-ignores-a-pivot"],
)
def test_verify_catches_a_chain_side_fault(monkeypatch, fresh_caches, inject):
    inject(monkeypatch)
    assert any(not verify(d).success for d in corpus(3, 3) + [K4_SLOWEST])


def _accept_double_crossings(m, n):
    image = dict(n)
    if sorted(q for _, q in m) != sorted(image):
        return None
    return tuple((p, image[q]) for p, q in m)


def test_double_crossing_products_are_outside_verify(monkeypatch, fresh_caches):
    """A product that keeps a pair of strands crossing twice changes nothing
    verify computes.  Such a pair crosses in both factors, so each factor
    has a step of multiplicity 2; verify multiplies only representatives of
    tight structures' triples, whose h is 0/1.  The Leibniz rule on
    generators shows the fault instead."""
    monkeypatch.setattr(algebra, "multiply", _accept_double_crossings)
    report = verify(K4_SLOWEST)
    assert report.success, report.mismatches

    d = ArcDiagram((1, 5), (1, 2, 3, 1, 2, 3))
    gens = [g for i in range(d.k + 1) for g in enumerate_basis(d, i)]
    broken = 0
    for g1, g2 in itertools.product(gens, gens):
        if algebra.end(d, g1) != algebra.start(d, g2):
            continue
        lhs = diff_sum(d, algebra.mul_generators(d, g1, g2))
        rhs = algebra.mul_sums(d, algebra.diff_generator(d, g1), frozenset({g2}))
        rhs ^= algebra.mul_sums(d, frozenset({g1}), algebra.diff_generator(d, g2))
        broken += lhs != rhs
    assert broken


def test_corpus_matches_validate_first_oracle():
    assert corpus(4, 4) == corpus_validate_first(4, 4)


def test_corpus_k5_l4_is_pinned():
    """corpus(5, 4), listed as [sizes, matching] pairs in JSON, hashes to the
    digest recorded when corpus still went through every composition and
    every segment order."""
    diagrams = corpus(5, 4)
    text = json.dumps([[list(d.segment_sizes), list(d.matching)] for d in diagrams])
    assert len(diagrams) == 3820
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "92ffe90e9de771cb924e0e094f91af6ff4702cc9e2e59641486d2d00cfa90d74"
    )


def test_canonical_key_tries_only_ascending_orders():
    for d in corpus_validate_first(3, 4):
        for perm in itertools.permutations(range(d.l)):
            sizes = tuple(d.segment_sizes[j] for j in perm)
            order = [p for j in perm for p in d.segment_places(j)]
            shuffled = ArcDiagram(sizes, tuple(d.label(p) for p in order))
            assert _canonical_key(shuffled) == canonical_key_all_orders(shuffled)


K5 = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc


@pytest.mark.parametrize(
    "d",
    [*corpus(3, 3), K5, K4_SLOWEST],
    ids=lambda d: "-".join(map(str, d.segment_sizes)) + "_" + "".join(map(str, d.matching)),
)
def test_reversal_transposes_the_sfh_table(d):
    """Read backwards, Z gives the diagram of -Z, and A(-Z) is A(Z)^op
    (Lipshitz-Ozsvath-Thurston): the reversed diagram is valid, has the
    same dividing sets, and its sfh table is the transpose of Z's."""
    reversed_d = ArcDiagram(tuple(reversed(d.segment_sizes)), tuple(reversed(d.matching)))
    assert surgery_circle(reversed_d) is None
    table, reversed_table = sfh_table(d), sfh_table(reversed_d)
    assert reversed_table.dividing_sets == table.dividing_sets
    assert reversed_table.matrix == tuple(zip(*table.matrix))
