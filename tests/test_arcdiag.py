import ast
import importlib
import itertools
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings

import strandcontact
from strandcontact import algebra, arcdiag, contact, homology, strands
from strandcontact.arcdiag import (
    ArcDiagram,
    ArcDiagramError,
    ParseError,
    InvalidDiagramError,
    is_valid,
    parse_arc_diagram,
    require_valid,
    surgery_circle,
    to_quad_surface,
)
from strandcontact.isoverify import corpus

from oracles import (
    all_arc_diagrams,
    arc_diagrams,
    boundary_components_by_pivot,
    segment_places,
    surgery_circle_by_sub_arcs,
    twin,
)

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("segments: 2\nmatching: 1 1\n3 4\n", "3:1: unexpected extra line"),
        ("segments: 2\nmatching: 1 1\n# note\n   3 4\n", "4:4: unexpected extra line"),
        ("segment: 2\nmatching: 1 1\n", "1:1: expected `segments:`"),
        ("segments: 2\nmatchings: 1 1\n", "2:1: expected `matching:`"),
        ("segments:\nmatching: 1 1\n", "1:10: `segments:` lists no numbers"),
        ("segments: 2\nmatching:   # none\n", "2:10: `matching:` lists no numbers"),
        ("segments: 4\nmatching: 1 1 1 2\n", "2:1: label 1 occurs 3 times, expected 2"),
    ],
)
def test_parse_errors_name_their_line_and_column(text, message):
    with pytest.raises(ParseError) as exc:
        parse_arc_diagram(text)
    assert str(exc.value) == message
    assert message.startswith(f"{exc.value.line}:{exc.value.col}: ")


def test_constructor_rejects_bad_labels():
    with pytest.raises(ArcDiagramError):
        ArcDiagram((2,), (1, 2))
    with pytest.raises(ArcDiagramError):
        ArcDiagram((1,), (1,))
    with pytest.raises(ArcDiagramError):
        ArcDiagram((0, 2), (1, 1))
    with pytest.raises(ArcDiagramError, match="^diagram needs at least one segment$"):
        ArcDiagram((), ())


def test_diagram_is_an_immutable_tuple_of_its_fields():
    d = ArcDiagram([4], [1, 2, 1, 2])
    assert d == TORUS == ((4,), (1, 2, 1, 2))
    assert hash(d) == hash((d.segment_sizes, d.matching))
    with pytest.raises(AttributeError):
        d.matching = (1, 1, 2, 2)
    assert d.matching == (1, 2, 1, 2)


@pytest.mark.parametrize("place", [0, -1, 5])
def test_places_off_the_diagram_are_refused(place):
    # an unchecked index would wrap place 0 and -1 round to other places
    for lookup in (TORUS.label, TORUS.segment_of):
        with pytest.raises(ArcDiagramError, match=f"place {place} out of range"):
            lookup(place)


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
        assert twin(d, p) == q
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
    assert SQUARE.interior_steps == ()
    assert TORUS.interior_steps == (1, 2, 3)
    assert ANNULUS.interior_steps == (1, 2)


def test_step_neighbors():
    assert TORUS.interior_steps[TORUS.step_before(3)] == 2
    assert TORUS.interior_steps[TORUS.step_after(3)] == 3
    assert ANNULUS.step_before(4) is None
    assert ANNULUS.step_after(4) is None
    assert ANNULUS.step_after(3) is None


def test_step_lookup_matches_definition():
    # the lookup that the contact, local and chain sides all read, on the
    # k <= 3 corpus and the k=4 and k=5 perfbench verify inputs
    diagrams = corpus(3, 3) + [
        ArcDiagram((8,), (1, 2, 1, 3, 4, 3, 4, 2)),
        ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4)),
    ]
    for d in diagrams:
        steps = d.interior_steps
        assert len(steps) == 2 * d.k - d.l
        for j in range(d.l):
            places = segment_places(d, j)
            for p in places:
                after, before = d.step_after(p), d.step_before(p)
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
    # the error carries the very circle that surgery_circle reports
    invalid = [LOOP] + [
        d for k, l in [(2, 1), (2, 2), (3, 1), (3, 2)] for d in all_arc_diagrams(k, l)
        if not is_valid(d)
    ]
    for d in invalid:
        with pytest.raises(InvalidDiagramError) as exc:
            to_quad_surface(d)
        assert exc.value.circle == surgery_circle(d), d


def surface_components(surf):
    """The connected components of a surface: its squares, joined by a
    search over the gluings."""
    neighbours = {sq.label: set() for sq in surf.squares}
    for (a, _), (b, _) in surf.gluings:
        neighbours[a].add(b)
        neighbours[b].add(a)
    left, components = set(neighbours), 0
    while left:
        components += 1
        stack = [left.pop()]
        while stack:
            for b in neighbours[stack.pop()] & left:
                left.discard(b)
                stack.append(b)
    return components


def test_boundary_components_match_the_pivot_walk():
    """On corpus(4, 4) and corpus(5, 2), the surgery walk's boundary count
    is the one that the walk around the squares' side slots gives, and the
    genus follows from it on each surface component."""
    disconnected_k4l4 = []
    for d in corpus(4, 4) + corpus(5, 2):
        surf = to_quad_surface(d)
        b = boundary_components_by_pivot(surf)
        c = surface_components(surf)
        assert surf.boundary_components == b, d
        assert 2 * surf.genus == 2 * c - surf.euler_char - b, d
        if c > 1 and (d.k, d.l) == (4, 4):
            disconnected_k4l4.append(2 - surf.euler_char - b)
    # 15 disconnected surfaces at k=4, l=4, of which 3 would get a negative
    # genus from the one-component formula
    assert len(disconnected_k4l4) == 15
    assert sum(slack < 0 for slack in disconnected_k4l4) == 3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_surgery_circle_matches_the_sub_arc_walk(k):
    """On every composition and pairing with l <= 4, surgery_circle gives
    the circle, or None, that the (segment, local index) walk gives."""
    outcomes = set()
    for l in range(1, min(4, 2 * k) + 1):
        for d in all_arc_diagrams(k, l):
            circle = surgery_circle(d)
            assert circle == surgery_circle_by_sub_arcs(d), d
            outcomes.add(circle is None)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arc_diagrams())
def test_surgery_walk_on_random_diagrams(d):
    """On any diagram at k = 4..8, the surgery walk finds the circle of the
    (segment, local index) walk; on a valid one, the pivot walk's number
    of boundary components."""
    circle = surgery_circle(d)
    assert circle == surgery_circle_by_sub_arcs(d)
    if circle is None:
        surf = to_quad_surface(d)
        assert surf.boundary_components == boundary_components_by_pivot(surf)
    else:
        with pytest.raises(InvalidDiagramError) as exc:
            to_quad_surface(d)
        assert exc.value.circle == circle


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_counting_identities(k, l):
    for d in all_arc_diagrams(k, l):
        n_interior = len(d.interior_steps)
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
    for d in all_arc_diagrams(k, l):
        if not is_valid(d):
            continue
        surf = to_quad_surface(d)
        bound: dict = {}
        for sq in surf.squares:
            for i, st in enumerate(sq.sides):
                bound.setdefault(st, []).append((sq.label, i))
        assert len(bound.pop(None)) == 2 * d.l  # one slot per exterior step
        assert sorted(bound) == list(range(len(d.interior_steps)))
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
    assert len(arcdiag._caches) == 12
    assert not hasattr(contact.ca_table, "cache_clear")


def test_the_block_scope_holds_the_caches_keyed_by_strand_count():
    """Each cache of the block scope is in the registry too, and each key
    of each belongs to one strand count: a strand count, a triple, a
    generator, or the end places of a strand tuple."""
    assert set(arcdiag._block_caches) == {
        algebra.enumerate_basis,
        homology._basis_by_triple,
        homology.build_summand,
        algebra.expand,
        strands._resolving_pairs,
    }
    assert set(arcdiag._block_caches) <= set(arcdiag._caches)


def test_release_block_keeps_the_counts_and_release_caches_resets_them():
    arcdiag.release_caches()
    trip = next(iter(homology._basis_by_triple(TORUS, 1)))
    homology.build_summand(TORUS, *trip)
    homology.build_summand(TORUS, *trip)
    arcdiag.release_block()
    info = homology.build_summand.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 0)
    homology.build_summand(TORUS, *trip)
    info = homology.build_summand.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)
    arcdiag.release_caches()
    for cache in arcdiag._caches:
        assert tuple(cache.cache_info())[:2] == (0, 0) and cache.cache_info().currsize == 0


def private_reads(sources: dict[str, str]) -> list[str]:
    """Each place where a module of the package imports another module's
    `_`-name, or reads one as an attribute (`d._table`), as `module:line
    name`.  A module's `_`-names are those it binds: defs, classes and
    assignment targets, at any depth.  Names that no module binds, such as
    NamedTuple's `_make`, are the API of some other library."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def binds(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                yield node.id

    trees = {module: ast.parse(text) for module, text in sources.items()}
    bound = {
        module: {name for name in binds(tree) if private(name)}
        for module, tree in trees.items()
    }
    found = []
    for module, tree in trees.items():
        others = set().union(*(names for m, names in bound.items() if m != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names if private(alias.name)]
            elif isinstance(node, ast.Attribute) and node.attr in others:
                names = [node.attr] if node.attr not in bound[module] else []
            else:
                names = []
            found += [f"{module}:{node.lineno} {name}" for name in names]
    return found


def test_no_module_reads_another_modules_private_names():
    """The diagram's tables are its public members, and every module reads
    the others through public names only."""
    package = Path(strandcontact.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert private_reads(sources) == []
    probe = "from .algebra import _moving_part\ndef f(d):\n    return d._twins\n"
    assert private_reads({**sources, "probe": probe}) == [
        "probe:1 _moving_part",
        "probe:3 _twins",
    ]
