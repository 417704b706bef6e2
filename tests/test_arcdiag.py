import importlib
import itertools
import pkgutil

import pytest

import strandcontact
from strandcontact import arcdiag, contact
from strandcontact.arcdiag import (
    ArcDiagram,
    ArcDiagramError,
    ParseError,
    InvalidDiagramError,
    interior_steps,
    is_valid,
    parse_arc_diagram,
    require_valid,
    step_after,
    step_before,
    surgery_circle,
    to_quad_surface,
)
from strandcontact.isoverify import corpus

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))
ANNULUS = ArcDiagram((3, 1), (1, 2, 1, 2))
LOOP = ArcDiagram((2,), (1, 1))


def test_parse_smallest():
    d = parse_arc_diagram("segments: 1 1\nmatching: 1 1\n")
    assert d == SQUARE


def test_parse_torus_with_comments():
    text = "# a punctured torus\nsegments: 4  # one segment\n\nmatching: 1 2 1 2\n"
    assert parse_arc_diagram(text) == TORUS


def test_parse_label_count_error():
    with pytest.raises(ParseError):
        parse_arc_diagram("segments: 2\nmatching: 1 1 1")


@pytest.mark.parametrize(
    "token",
    ["x", "2_2", "\u0664", "+4"],
    ids=["letter", "underscore", "arabic-indic-digit", "plus-sign"],
)
def test_parse_bad_token_position(token):
    # numbers are ASCII decimal, not Python's integer syntax
    with pytest.raises(ParseError, match="not a number") as exc:
        parse_arc_diagram(f"segments: 1 {token}\nmatching: 1 1")
    assert exc.value.line == 1
    assert exc.value.col == 13


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("segments: 4\nmatching: 1\u00a02 1 2\n", 2, 12),
        ("segments: 4\nmatching: 1 2\u20031 2\n", 2, 14),
        ("\u3000segments: 4\nmatching: 1 2 1 2\n", 1, 1),
        ("segments: 4\u2028matching: 1 2 1 2\n", 1, 12),
        ("segments: 4\x0cmatching: 1 2 1 2\n", 1, 12),
    ],
    ids=["no-break-space", "em-space", "ideographic-indent", "line-separator", "form-feed"],
)
def test_parse_only_ascii_separators(text, line, col):
    # lines end only at \n, \r\n or \r, and only spaces and tabs separate
    with pytest.raises(ParseError, match="neither a space nor a tab") as exc:
        parse_arc_diagram(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "text",
    [
        "segments:\t4\nmatching:\t1\t2 1\t2\n",
        "segments: 4\r\nmatching: 1 2 1 2\r\n",
        "segments: 4\rmatching: 1 2 1 2\r",
        "# caf\u00e9\u00a0notes\nsegments: 4\nmatching: 1 2 1 2\n",
    ],
    ids=["tabs", "crlf", "cr", "comment"],
)
def test_parse_tabs_line_ends_and_comments(text):
    assert parse_arc_diagram(text) == TORUS


def test_parse_empty_segment():
    with pytest.raises(ParseError):
        parse_arc_diagram("segments: 0 2\nmatching: 1 1")


def test_parse_missing_line():
    with pytest.raises(ParseError):
        parse_arc_diagram("segments: 1 1\n")


def test_constructor_rejects_bad_labels():
    with pytest.raises(ArcDiagramError):
        ArcDiagram((2,), (1, 2))
    with pytest.raises(ArcDiagramError):
        ArcDiagram((1,), (1,))
    with pytest.raises(ArcDiagramError):
        ArcDiagram((0, 2), (1, 1))


def test_diagram_is_an_immutable_tuple_of_its_fields():
    d = ArcDiagram([4], [1, 2, 1, 2])
    assert d == TORUS == ((4,), (1, 2, 1, 2))
    assert hash(d) == hash((d.segment_sizes, d.matching))
    with pytest.raises(AttributeError):
        d.matching = (1, 1, 2, 2)
    assert d.matching == (1, 2, 1, 2)


def test_validate_loop_is_invalid():
    circle = surgery_circle(LOOP)
    assert set(circle) == {1, 2}
    assert not is_valid(LOOP)
    with pytest.raises(InvalidDiagramError):
        require_valid(LOOP)


def test_validate_valid_examples():
    assert surgery_circle(TORUS) is None
    assert surgery_circle(ANNULUS) is None
    assert surgery_circle(SQUARE) is None


def replay_circle(d, circle):
    """Check a witness really is a surgery cycle: twin jumps alternate with
    steps to the next place along a segment."""
    assert len(circle) % 2 == 0
    for i in range(0, len(circle), 2):
        p, q = circle[i], circle[i + 1]
        assert d.twin(p) == q
        nxt = circle[(i + 2) % len(circle)]
        assert nxt == q + 1
        assert d.segment_of(nxt) == d.segment_of(q)


def test_witness_replays_as_cycle():
    replay_circle(LOOP, surgery_circle(LOOP))
    bad = ArcDiagram((4,), (1, 1, 2, 2))
    circle = bad.matching and surgery_circle(bad)
    assert circle is not None
    replay_circle(bad, circle)


def test_step_counts():
    assert interior_steps(SQUARE) == ()
    assert interior_steps(TORUS) == (1, 2, 3)
    assert interior_steps(ANNULUS) == (1, 2)


def test_step_neighbors():
    assert interior_steps(TORUS)[step_before(TORUS, 3)] == 2
    assert interior_steps(TORUS)[step_after(TORUS, 3)] == 3
    assert step_before(ANNULUS, 4) is None
    assert step_after(ANNULUS, 4) is None
    assert step_after(ANNULUS, 3) is None


def test_step_lookup_matches_definition():
    # the lookup that the contact, local and chain sides all read, on the
    # k <= 3 corpus and the k=4 and k=5 perfbench verify inputs
    diagrams = corpus(3, 3) + [
        ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2)),
        ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4)),
    ]
    for d in diagrams:
        steps = interior_steps(d)
        assert len(steps) == 2 * d.k - d.l
        for j in range(d.l):
            places = d.segment_places(j)
            for p in places:
                after, before = step_after(d, p), step_before(d, p)
                assert (after is None) == (p == places[-1])
                assert after is None or steps[after] == p
                assert (before is None) == (p == places[0])
                assert before is None or steps[before] == p - 1


def test_quad_surface_square():
    surf = to_quad_surface(SQUARE)
    assert len(surf.squares) == 1
    assert surf.gluings == ()
    assert surf.euler_char == 1
    assert surf.boundary_components == 1
    assert surf.genus == 0
    assert surf.marked_point_count == 4
    assert surf.index == 1


def test_quad_surface_torus():
    surf = to_quad_surface(TORUS)
    assert len(surf.squares) == 2
    assert len(surf.gluings) == 3
    assert surf.euler_char == -1
    assert surf.boundary_components == 1
    assert surf.genus == 1


def test_quad_surface_annulus():
    surf = to_quad_surface(ANNULUS)
    assert len(surf.squares) == 2
    assert len(surf.gluings) == 2
    assert surf.euler_char == 0
    # frozen from the hand boundary walk on the two-square complex
    assert surf.boundary_components == 2
    assert surf.genus == 0


def test_quad_surface_disconnected():
    # a square beside a punctured torus: genus and invariants add up
    surf = to_quad_surface(ArcDiagram((1, 1, 4), (1, 1, 2, 3, 2, 3)))
    assert surf.euler_char == 1 + -1
    assert surf.boundary_components == 1 + 1
    assert surf.genus == 0 + 1
    # two squares side by side used to fail the one-component genus check
    assert to_quad_surface(ArcDiagram((1, 1, 1, 1), (1, 1, 2, 2))).genus == 0


def test_quad_surface_rejects_invalid():
    with pytest.raises(InvalidDiagramError):
        to_quad_surface(LOOP)


def all_diagrams(k, l):
    """Brute-force enumeration of structurally well-formed diagrams."""
    places = list(range(1, 2 * k + 1))
    for comp in compositions(2 * k, l):
        for pairing in pairings(places):
            matching = [0] * (2 * k)
            next_label = 1
            for v, w in pairing:
                matching[v - 1] = matching[w - 1] = next_label
                next_label += 1
            yield ArcDiagram(tuple(comp), tuple(matching))


def compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def pairings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        partner = items[i]
        rest = items[1:i] + items[i + 1:]
        for sub in pairings(rest):
            yield ((first, partner),) + sub


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_counting_identities(k, l):
    for d in all_diagrams(k, l):
        n_interior = len(interior_steps(d))
        assert n_interior == 2 * k - l
        if not is_valid(d):
            circle = surgery_circle(d)
            replay_circle(d, circle)
            continue
        surf = to_quad_surface(d)
        assert surf.euler_char == l - k
        assert surf.index == k
        assert surf.marked_point_count == 2 * l
        # glued-pair count equals half the marked points minus twice chi
        assert len(surf.gluings) == surf.marked_point_count // 2 - 2 * surf.euler_char
        assert len(surf.gluings) == n_interior
        assert surf.boundary_components >= 1
        assert (2 - surf.euler_char - surf.boundary_components) % 2 == 0
        assert surf.genus >= 0


@pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
def test_slot_binding(k, l):
    for d in all_diagrams(k, l):
        if not is_valid(d):
            continue
        surf = to_quad_surface(d)
        bound: dict = {}
        for sq in surf.squares:
            for i, st in enumerate(sq.sides):
                bound.setdefault(st, []).append((sq.label, i))
        assert len(bound.pop(None)) == 2 * d.l  # one slot per exterior step
        assert sorted(bound) == list(range(len(interior_steps(d))))
        for slots in bound.values():
            kinds = sorted(i % 2 for _, i in slots)
            assert kinds == [0, 1]  # one after-slot, one before-slot
        glued = {ref for pair in surf.gluings for ref in pair}
        assert len(glued) == 2 * len(surf.gluings)


def test_every_cache_is_registered():
    """Every memoized function of the package, found by its cache_clear, is
    in the registry that release_caches empties; ca_table is not memoized."""
    found = set()
    for info in pkgutil.iter_modules(strandcontact.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"strandcontact.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            found |= {v for v in (value, *members) if hasattr(v, "cache_clear")}
    assert found == set(arcdiag._caches)
    assert len(arcdiag._caches) == 14
    assert not hasattr(contact.ca_table, "cache_clear")
