import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, seed, settings

from faults import (
    add_a_horizontal_term,
    drop_a_resolution,
    maslov_off_on_dotted,
    reduce_ignoring_a_pivot,
)
from oracles import (
    algebra_triples,
    all_arc_diagrams,
    canonical_key_all_orders,
    corpus_validate_first,
    diff_sum,
    end,
    start,
    valid_arc_diagrams,
)
from strandcontact import algebra, arcdiag, contact, homology, isoverify
from strandcontact.algebra import NotInSymmetrisedSpan, enumerate_basis
from strandcontact.arcdiag import (
    ArcDiagram,
    InvalidDiagramError,
    is_valid,
    label_subsets,
    parse_arc_diagram,
    release_caches,
    surgery_circle,
    to_quad_surface,
)
from strandcontact.contact import ca_table
from strandcontact.homology import (
    DegreeError,
    build_summand,
    representative,
    summand_nonzero,
    total_dim,
)
from strandcontact.isoverify import (
    NotRealizable,
    _canonical_key,
    corpus,
    phi,
    phi_inv,
    sfh_table,
    triple_json,
    verify,
)

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))


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


def test_verify_and_sfh_table_refuse_every_small_invalid_diagram():
    """Both refuse through the diagram's surface, with the very circle
    that surgery_circle reports, on every invalid diagram with k <= 3 and
    l <= 2."""
    invalid = [
        d for k in (1, 2, 3) for l in (1, 2) for d in all_arc_diagrams(k, l) if not is_valid(d)
    ]
    assert len(invalid) == 78
    for d in invalid:
        for check in (verify, sfh_table):
            with pytest.raises(InvalidDiagramError) as exc:
                check(d)
            assert exc.value.circle == surgery_circle(d), (check.__name__, d)


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


def first_catch(diagrams):
    """The first diagram on which verify reports a mismatch, or None."""
    return next((d for d in diagrams if not verify(d).success), None)


def test_verify_catches_every_cube_verdict_flip(monkeypatch, fresh_caches):
    """Each of the 64 _cube_table verdicts, flipped alone, makes verify
    fail on some diagram of corpus(3, 3)."""
    real = contact.cube_tight
    diagrams = corpus(3, 3)
    missed = []
    for i in range(64):

        def flipped(c, i=i):
            index = sum(bit << (5 - b) for b, bit in enumerate(c))
            return real(c) != (index == i)

        monkeypatch.setattr(contact, "cube_tight", flipped)
        if first_catch(diagrams) is None:
            missed.append(i)
        release_caches()
    assert not missed


def test_verify_catches_every_local_case_toggle(monkeypatch, fresh_caches):
    """Each of the 64 (v class, w class, membership) cases of the local
    table, added or removed alone, makes verify fail on some diagram of
    corpus(3, 3): an added case puts a triple in the closed form that
    neither other side realises."""
    real = homology.ALLOWED_CASES
    diagrams = corpus(3, 3)
    missed = []
    for case in itertools.product(
        homology._PLACE_CLASSES, homology._PLACE_CLASSES, homology._MEMBERSHIPS
    ):
        monkeypatch.setattr(homology, "ALLOWED_CASES", real ^ {case})
        if first_catch(diagrams) is None:
            missed.append(case)
        release_caches()
    assert not missed


def cube_case(i):
    """The local case that entry i of _cube_table reads as: the cube's
    (used before v, used after v) and (used before w, used after w) give
    the place classes of v and w, and its (bottom on, top on) gives the
    membership, as (label in s, label in t)."""
    return (
        homology._PLACE_CLASSES[i >> 2 & 3],
        homology._PLACE_CLASSES[i & 3],
        homology._MEMBERSHIPS[i >> 4],
    )


def test_cube_table_is_the_local_table():
    """The local lemma: the cubes behave as local fragments of strand
    diagrams.  Each of the 64 cube verdicts, transcribed from the contact
    side, equals membership of its case in the local table, transcribed
    from the strand side; 16 cases are tight on each side."""
    table = contact._cube_table(contact.cube_tight)
    local = [cube_case(i) in homology.ALLOWED_CASES for i in range(64)]
    assert list(table) == local
    assert sum(table) == len(homology.ALLOWED_CASES) == 16


def test_which_summands_decide_the_local_table(fresh_caches):
    """The witness table of the local lemma, over every diagram of
    corpus(3, 3), every (s, t) and every 0/1 h.  A label's case is the
    classes of its two places and its membership in (s, t).  Each of the
    16 allowed cases occurs in a summand whose cases are all allowed, and
    each of the 48 excluded cases is the only excluded case of some
    summand.  44 of those are witnessed only with |s| != |t|, where the
    chain side has no generators; 4 have a witness with |s| = |t|, and
    just (interior, out, both) and its mirror have a witness with
    generators, whose homology is zero.  (neg_bdy, pos_bdy, neither) and
    its mirror are witnessed with |s| = |t| only by empty complexes.  So
    a GF(2) rank decides only 2 of the 48 exclusions."""
    allowed_seen = set()
    balanced = set()  # excluded cases with a witness where |s| = |t|
    with_generators = set()
    witnessed = set()
    for d in corpus(3, 3):
        pairs = [d.pair(lab) for lab in range(1, d.k + 1)]
        subsets = label_subsets(d)
        for h in itertools.product((0, 1), repeat=len(d.interior_steps)):
            classes = [None, *(homology._place_class(d, h, p) for p in range(1, 2 * d.k + 1))]
            for s, t in itertools.product(subsets, repeat=2):
                cases = [
                    (classes[v], classes[w], homology._MEMBERSHIPS[(lab in s) << 1 | (lab in t)])
                    for lab, (v, w) in enumerate(pairs, 1)
                ]
                excluded = [case for case in cases if case not in homology.ALLOWED_CASES]
                assert summand_nonzero(d, s, t, h) == (not excluded)
                if not excluded:
                    allowed_seen.update(cases)
                elif len(excluded) == 1:
                    witnessed.add(excluded[0])
                    if len(s) == len(t):
                        balanced.add(excluded[0])
                        summand = build_summand(d, s, t, h)
                        if summand.graded_basis:
                            assert total_dim(summand) == 0
                            with_generators.add(excluded[0])
    place_classes = homology._PLACE_CLASSES
    cases = set(itertools.product(place_classes, place_classes, homology._MEMBERSHIPS))
    assert allowed_seen == homology.ALLOWED_CASES and len(allowed_seen) == 16
    assert witnessed == cases - homology.ALLOWED_CASES and len(witnessed) == 48
    assert (len(witnessed - balanced), len(balanced)) == (44, 4)
    assert with_generators == {
        (homology.INTERIOR, homology.OUT, homology.BOTH),
        (homology.OUT, homology.INTERIOR, homology.BOTH),
    }
    assert balanced - with_generators == {
        (homology.NEG_BDY, homology.POS_BDY, homology.NEITHER),
        (homology.POS_BDY, homology.NEG_BDY, homology.NEITHER),
    }


def test_verify_catches_every_joint_flip(monkeypatch, fresh_caches):
    """Each of the 64 cases flipped in both tables at once, as a
    mis-transcribed paper table would be, makes verify fail on some
    diagram of corpus(3, 3).  The contact and local columns still agree
    on every triple, so the flip is caught by the chain side and by the
    checks on the structures, not by comparing the two tables."""
    real_tight, real_cases = contact.cube_tight, homology.ALLOWED_CASES
    diagrams = corpus(3, 3)
    missed = []
    for i in range(64):

        def flipped(c, i=i):
            index = sum(bit << (5 - b) for b, bit in enumerate(c))
            return real_tight(c) != (index == i)

        monkeypatch.setattr(contact, "cube_tight", flipped)
        monkeypatch.setattr(homology, "ALLOWED_CASES", real_cases ^ {cube_case(i)})
        report = next((r for r in map(verify, diagrams) if not r.success), None)
        if report is None:
            missed.append(i)
        else:
            assert all(row["contact"] == row["local"] for row in report.summands), i
        release_caches()
    assert not missed


def test_verify_reports_under_faults_are_pinned(monkeypatch, fresh_caches):
    """verify's report on each diagram of corpus(2, 2), under each of the
    64 cube-verdict flips and then each of the 64 local-case toggles, as
    one JSON line without elapsed_s, hashes to tests/verify_faults.sha256,
    recorded while verify still checked the triples with |s| != |t| in a
    step of their own after the strand-count blocks.  Of the 512 reports,
    176 have mismatches: 57 name a tight structure with |s| != |t|, 31 an
    Euler-class block and 88 the total dimensions."""
    real_tight, real_cases = contact.cube_tight, homology.ALLOWED_CASES
    diagrams = corpus(2, 2)
    faults = []
    for i in range(64):

        def flipped(c, i=i):
            index = sum(bit << (5 - b) for b, bit in enumerate(c))
            return real_tight(c) != (index == i)

        faults.append((contact, "cube_tight", flipped))
    for case in itertools.product(
        homology._PLACE_CLASSES, homology._PLACE_CLASSES, homology._MEMBERSHIPS
    ):
        faults.append((homology, "ALLOWED_CASES", real_cases ^ {case}))
    digest = hashlib.sha256()
    reports = []
    for module, name, value in faults:
        monkeypatch.setattr(module, name, value)
        for d in diagrams:
            report = verify(d).to_json()
            del report["elapsed_s"]
            digest.update((json.dumps(report) + "\n").encode())
            reports.append(report["mismatches"])
        monkeypatch.undo()
        release_caches()
    recorded = (Path(__file__).parent / "verify_faults.sha256").read_text().split()[0]
    assert len(reports) == 512
    assert digest.hexdigest() == recorded

    def naming(prefix):
        return sum(any(m.startswith(prefix) for m in ms) for ms in reports)

    assert (
        sum(map(bool, reports)),
        naming("tight structure with |s| != |t|"),
        naming("euler-class block"),
        naming("total dimensions disagree"),
    ) == (176, 57, 31, 88)


@pytest.mark.parametrize("d", corpus(3, 3), ids=lambda d: f"{d.segment_sizes}-{d.matching}")
def test_verify_catches_a_shifted_closed_form_degree(monkeypatch, fresh_caches, d):
    """The closed form's degree of one triple, shifted by 2, is a mismatch
    naming that triple and both degrees."""
    real = homology.closed_form(d)
    trip = max(real, key=isoverify.triple_key)
    shifted = {**real, trip: real[trip] + 2}
    monkeypatch.setattr(isoverify, "closed_form", lambda _: shifted)
    report = verify(d)
    assert report.mismatches == [
        f"degrees disagree at {triple_json(trip)}: "
        f"local maslov2={real[trip] + 2} chain maslov2={real[trip]}"
    ]


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


@pytest.mark.parametrize(
    "fixture, side",
    [("identities_kill", "left"), ("identities_kill_on_the_right", "right")],
)
def test_unit_mismatches_are_one_per_killed_structure(request, fixture, side):
    """Each structure with used arcs, fixed by no identity on the killed
    side, has exactly one unit message, and no other structure has one."""
    request.getfixturevalue(fixture)
    expected = {
        "identity structures do not act as a unit: the identity of "
        f"{sorted(x.bottom if side == 'left' else x.top)} on the {side} of "
        f"{triple_json(phi(TORUS, x))} gives None"
        for x in ca_table(TORUS).basis
        if x.used_arcs
    }
    unit = {
        m
        for m in verify(TORUS).mismatches
        if m.startswith("identity structures do not act as a unit")
    }
    assert expected and unit == expected


def test_an_unrealizable_triple_is_reported_once(monkeypatch):
    """A triple that is nonzero on the contact and the chain side but zero
    in the local table fails phi_inv once, not once per round trip."""
    dropped = phi(TORUS, ca_table(TORUS).basis[5])
    assert dropped == (frozenset({1}), frozenset({2}), (1, 1, 1))
    monkeypatch.setattr(
        isoverify,
        "summand_nonzero",
        lambda d, s, t, h: (s, t, h) != dropped and summand_nonzero(d, s, t, h),
    )
    report = verify(TORUS)
    assert report.mismatches.count("summand ([1], [2], (1, 1, 1)) is zero") == 1


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


ANNULUS_2_2 = ArcDiagram((2, 2), (1, 2, 1, 2))  # an annulus on two segments of 2


def patch_phi(monkeypatch, change_h):
    """Make verify's phi send a structure to its triple with h changed."""
    real = isoverify.phi

    def phi(d, x):
        s, t, h = real(d, x)
        return (s, t, change_h(h))

    monkeypatch.setattr(isoverify, "phi", phi)


def test_only_the_round_trip_catches_a_phi_that_reverses_h(monkeypatch):
    """Reversing h maps the triples of 2 2 | 1 2 1 2 onto themselves, so
    dimensions and products still agree: the round trip through phi_inv is
    the one check that ties phi to the structures it encodes."""
    patch_phi(monkeypatch, lambda h: h[::-1])
    report = verify(ANNULUS_2_2)
    assert report.mismatches == [
        f"{way} is not the identity at {{'s': [1], 't': [2], 'h': {h}}}"
        for h in ([0, 1], [1, 0])
        for way in ("phi_inv . phi", "phi . phi_inv")
    ]


def test_verify_reports_a_phi_that_is_not_injective(monkeypatch):
    patch_phi(monkeypatch, lambda h: tuple(0 for _ in h))
    report = verify(ANNULUS_2_2)
    assert [m for m in report.mismatches if m.startswith("phi not injective")] == [
        "phi not injective at {'s': [1], 't': [2], 'h': [0, 0]}"
    ]


def test_verify_reports_raising_idempotent_summands(monkeypatch):
    """A summand build that raises on the (s, s, 0) triples is reported at
    the triple and again at the idempotent; verify still returns."""
    real = isoverify.build_summand

    def build_summand(d, s, t, h):
        if s == t and not any(h):
            raise ValueError(f"no summand at {sorted(s)}")
        return real(d, s, t, h)

    monkeypatch.setattr(isoverify, "build_summand", build_summand)
    report = verify(TORUS)
    assert not report.success
    assert not report.unit_ok
    subsets = [[], [1], [1, 2], [2]]  # in triple_key order
    raised = [m for m in report.mismatches if " raised ValueError: " in m]
    assert raised == [
        f"summand {{'s': {s}, 't': {s}, 'h': [0, 0, 0]}} raised ValueError: no summand at {s}"
        for s in subsets
    ] + [
        f"idempotent of {s} raised ValueError: no summand at {s}"
        for s in sorted(subsets, key=len)
    ]


def test_verify_reports_each_idempotent_that_is_a_boundary(monkeypatch):
    real = isoverify.is_boundary

    def is_boundary(summand, cycle):
        if len(cycle) == 1 and not next(iter(cycle)).moving:
            return True
        return real(summand, cycle)

    monkeypatch.setattr(isoverify, "is_boundary", is_boundary)
    report = verify(TORUS)
    assert not report.unit_ok
    assert [m for m in report.mismatches if m.startswith("idempotent of ")] == [
        f"idempotent of {s} is a boundary" for s in ([], [1], [2], [1, 2])
    ]


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
    count the reads: one each by triple, generator_maslov2 and the
    differential's expansions per generator, and one more per generator
    whose expansions products read, the 334 representatives of the ring
    check.  Only those expansions are cached, each product of generators
    reads them from the cache, and verify releases them with each strand
    count's block."""
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
    expansions = algebra.expand.cache_info()
    assert (expansions.misses, expansions.currsize) == (334, 0)
    assert info.hits + info.misses == 3 * generators + 334


def test_verify_releases_each_block_and_keeps_the_counts():
    """verify walks the strand counts one block at a time and leaves every
    cache of the block scope empty.  Their counts run on across the
    releases: they equal what the caches counted when verify kept every
    block to its end, and release_caches zeroes them.  Products read a
    factor's masks from its product index, which misses where expand
    does, once per generator multiplied, and is the only reader of
    expand."""
    d = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc
    release_caches()
    assert verify(d).success
    assert all(cache.cache_info().currsize == 0 for cache in arcdiag._block_caches)
    assert {
        cache.__wrapped__.__name__: tuple(cache.cache_info())[:2]
        for cache in arcdiag._block_caches
    } == {
        "enumerate_basis": (0, 6),
        "_basis_by_triple": (692, 6),
        "build_summand": (1792, 692),
        "_expansions": (0, 334),
        "_product_index": (6038, 334),
        "_resolving_pairs": (2718, 607),
    }
    release_caches()
    assert all(tuple(cache.cache_info())[:2] == (0, 0) for cache in arcdiag._caches)


def test_verify_does_not_read_the_order_of_the_contact_basis(monkeypatch, fresh_caches):
    """verify finds a strand-count block's products through the bottoms
    of their left factors, not through where the structures sit in the
    basis: with enumerate_tight's structures shuffled, its report on
    perfbench/inputs/verify-k5-a.arc is the one on the sorted basis, rows,
    counts and mismatches alike."""
    path = Path(__file__).resolve().parent.parent / "perfbench/inputs/verify-k5-a.arc"
    d = parse_arc_diagram(path.read_text())
    expected = verify(d).to_json()
    sorted_basis = ca_table(d).basis
    real = contact.enumerate_tight

    def shuffled(surface):
        basis = list(real(surface))
        random.Random(1).shuffle(basis)
        return tuple(basis)

    monkeypatch.setattr(contact, "enumerate_tight", shuffled)
    shuffled_basis = ca_table(d).basis
    assert shuffled_basis != sorted_basis
    assert len(shuffled_basis) == len(sorted_basis) and set(shuffled_basis) == set(sorted_basis)
    got = verify(d).to_json()
    del expected["elapsed_s"], got["elapsed_s"]
    assert got == expected
    assert expected["success"] and expected["ca_dim"] == 334


K4_SLOWEST = ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2))  # perfbench/inputs/verify-k4-slowest.arc


@pytest.mark.parametrize(
    "inject",
    [drop_a_resolution, maslov_off_on_dotted, reduce_ignoring_a_pivot],
    ids=["differential-drops-a-resolution", "maslov2-off-by-2-when-dotted", "reduce-ignores-a-pivot"],
)
def test_verify_catches_a_chain_side_fault(monkeypatch, fresh_caches, inject):
    inject(monkeypatch)
    assert any(not verify(d).success for d in corpus(3, 3) + [K4_SLOWEST])


@pytest.mark.parametrize(
    "dotted, error",
    [(False, DegreeError), (True, NotInSymmetrisedSpan)],
    ids=["undotted", "dotted"],
)
def test_a_stray_differential_term_is_refused(monkeypatch, fresh_caches, dotted, error):
    """An undotted generator's differential skips regroup, so a horizontal
    or unconstrained term in it is refused by the summand build, as one
    outside the summand's basis; in a dotted generator's, regroup still
    refuses it.  verify reports either as a mismatch of the summand."""
    add_a_horizontal_term(monkeypatch, dotted=dotted)
    refused = set()
    for trip in algebra_triples(K4_SLOWEST):
        try:
            build_summand(K4_SLOWEST, *trip)
        except (ValueError, NotInSymmetrisedSpan) as exc:
            refused.add(type(exc))
    assert refused == {error}
    release_caches()
    report = verify(K4_SLOWEST)
    assert not report.success
    assert any(f"raised {error.__name__}: " in m for m in report.mismatches)


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
        if end(d, g1) != start(d, g2):
            continue
        lhs = diff_sum(d, algebra.mul_generators(d, g1, g2))
        rhs = algebra.mul_sums(d, algebra.diff_generator(d, g1), frozenset({g2}))
        rhs ^= algebra.mul_sums(d, frozenset({g1}), algebra.diff_generator(d, g2))
        broken += lhs != rhs
    assert broken


def test_corpus_matches_validate_first_oracle():
    assert corpus(4, 4) == corpus_validate_first(4, 4)


@pytest.mark.parametrize("max_k, max_l", [(4, 4), (5, 2)])
def test_corpus_diagrams_pass_the_checked_constructor(max_k, max_l):
    """corpus builds its diagrams with _make, skipping the constructor's
    checks; each one passes them and equals the diagram they build."""
    for d in corpus(max_k, max_l):
        assert d == ArcDiagram(d.segment_sizes, d.matching) and type(d) is ArcDiagram
        assert type(d.segment_sizes) is tuple and type(d.matching) is tuple


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


def test_corpus_k6_l2_is_pinned():
    """corpus(6, 2), listed as for corpus(5, 4), hashes to the digest recorded
    when corpus still built a diagram and a segment-order key for every
    composition and pairing."""
    diagrams = corpus(6, 2)
    text = json.dumps([[list(d.segment_sizes), list(d.matching)] for d in diagrams])
    assert len(diagrams) == 10548
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "52c0a33ab2a1e50a59b0faa18928c304d5d899514ab3ee6d2f7118a2c3c27e8a"
    )


def test_canonical_key_tries_only_ascending_orders():
    for d in corpus_validate_first(3, 4):
        for perm in itertools.permutations(range(d.l)):
            sizes = tuple(d.segment_sizes[j] for j in perm)
            order = [p for j in perm for p in d.segment_places(j)]
            shuffled = ArcDiagram(sizes, tuple(d.label(p) for p in order))
            assert _canonical_key(shuffled) == canonical_key_all_orders(shuffled)


K5 = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc


def diagram_id(d):
    return "-".join(map(str, d.segment_sizes)) + "_" + "".join(map(str, d.matching))


def reversed_diagram(d):
    """-Z: Z read backwards.  Place p becomes 2k + 1 - p, labels stay, and
    interior step i becomes step n - 1 - i of the n interior steps."""
    return ArcDiagram(tuple(reversed(d.segment_sizes)), tuple(reversed(d.matching)))


@pytest.mark.parametrize(
    "d",
    [*corpus(3, 3), K5, K4_SLOWEST],
    ids=diagram_id,
)
def test_reversal_transposes_the_sfh_table(d):
    """Read backwards, Z gives the diagram of -Z, and A(-Z) is A(Z)^op
    (Lipshitz-Ozsvath-Thurston): the reversed diagram is valid, has the
    same dividing sets, and its sfh table is the transpose of Z's."""
    reversed_d = reversed_diagram(d)
    assert surgery_circle(reversed_d) is None
    table, reversed_table = sfh_table(d), sfh_table(reversed_d)
    assert reversed_table.dividing_sets == table.dividing_sets
    assert reversed_table.matrix == tuple(zip(*table.matrix))


def reversal_failure(d):
    """Which part of the contact-side anti-isomorphism CA(Z) -> CA(-Z),
    (B, T, U) -> (T, B, {n - 1 - i : i in U}), fails on d; None if none."""
    n = len(d.interior_steps)
    table, reversed_table = ca_table(d), ca_table(reversed_diagram(d))
    position = {
        (xi.bottom, xi.top, xi.used_arcs): i for i, xi in enumerate(reversed_table.basis)
    }
    image = [
        position.get((xi.top, xi.bottom, frozenset(n - 1 - i for i in xi.used_arcs)))
        for xi in table.basis
    ]
    if None in image or sorted(image) != list(range(len(reversed_table.basis))):
        return "not a bijection of the bases"
    if sum(map(len, table.products)) != sum(map(len, reversed_table.products)):
        return "the numbers of composable pairs differ"
    for i, row in enumerate(table.products):
        for j, stacked in row.items():
            reversed_product = reversed_table.products[image[j]].get(image[i], "not composable")
            if reversed_product != (None if stacked is None else image[stacked]):
                return f"x{i} * x{j} is not sent to x{j}' * x{i}'"
    if sorted(image[e] for e in table.identities) != sorted(reversed_table.identities):
        return "identities are not sent to identities"
    return None


REVERSAL_DIAGRAMS = [*corpus(3, 3), K4_SLOWEST]


@pytest.mark.parametrize("d", REVERSAL_DIAGRAMS, ids=diagram_id)
def test_reversal_is_an_anti_isomorphism_of_the_contact_algebra(d):
    """A(-Z) is A(Z)^op on the contact side: swapping bottom and top and
    reversing the used arcs maps the basis of CA(Z) onto that of CA(-Z),
    sends each product x * y to y' * x' (zero to zero) and identities to
    identities.  None of the three paths of verify uses this symmetry."""
    assert reversal_failure(d) is None


def test_random_valid_diagrams_verify():
    """Beyond the corpus: verify succeeds on random valid diagrams at k = 4
    and 5, and reversal is an anti-isomorphism of their contact algebras.
    At most four segments, so that the few-segment, high-genus diagrams,
    where verify does most of its work, are drawn often; every draw is
    valid, so none is filtered out.  The seed pins
    the draws: without it they would follow a hash of this test's source.
    At least 6 of the 20 have at most three segments, so a change to the
    strategy or to hypothesis cannot thin them out unnoticed."""
    segments = []

    @seed(32)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(valid_arc_diagrams(min_k=4, max_k=5, max_l=4))
    def check(d):
        segments.append(d.l)
        report = verify(d)
        assert report.success, report.mismatches
        assert reversal_failure(d) is None

    check()
    assert len(segments) == 20
    assert sum(1 for l in segments if l <= 3) >= 6, segments


def test_reversal_catches_every_cube_flip_it_can_see(monkeypatch, fresh_caches):
    """Each of the 64 _cube_table verdicts, flipped alone, breaks the
    reversal property on some diagram, except at the 8 cubes that reversal
    maps to themselves (verify catches those); no flip raises."""
    real = contact.cube_tight
    missed = []
    for i in range(64):

        def flipped(c, i=i):
            index = sum(bit << (5 - b) for b, bit in enumerate(c))
            return real(c) != (index == i)

        monkeypatch.setattr(contact, "cube_tight", flipped)
        if all(reversal_failure(d) is None for d in REVERSAL_DIAGRAMS):
            missed.append(i)
        release_caches()
    assert missed == [0, 6, 9, 15, 48, 54, 57, 63]
