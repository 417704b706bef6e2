"""Arc diagrams and their quadrangulated surfaces.

An arc diagram is a sequence of oriented segments carrying 2k marked
places, matched in pairs by labels 1..k.  A diagram is valid when oriented
surgery at every matched pair turns the segments into a disjoint union of
arcs, with no circle components.  Every valid diagram determines a surface
cut into one square per matched pair; the counting invariants of that
surface (Euler characteristic, genus, boundary components) are computed
here by a purely combinatorial boundary walk; the surface may be
disconnected, so its genus is summed over its components.

Every memoized function of the package is declared with `cached`, and
release_caches empties all their caches.

Places are numbered 1..2k, segment-major.  Segments and interior steps are
0-based.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import NamedTuple, Optional

_caches: list = []


def cached(fn):
    """Memoize fn without bound, in a cache that release_caches empties."""
    wrapper = functools.lru_cache(maxsize=None)(fn)
    _caches.append(wrapper)
    return wrapper


def release_caches() -> None:
    """Empty every cache made by `cached`: a loop over many diagrams calls
    this after each one, so its memory stays that of one diagram."""
    for cache in _caches:
        cache.cache_clear()


class ArcDiagramError(ValueError):
    """A structurally malformed arc diagram."""


class ParseError(ArcDiagramError):
    """Bad arc-diagram text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class InvalidDiagramError(ArcDiagramError):
    """Surgery on the diagram produced a circle component."""

    def __init__(self, circle: tuple[int, ...]):
        super().__init__(f"surgery yields a circle through places {list(circle)}")
        self.circle = circle


class _ArcDiagramFields(NamedTuple):
    segment_sizes: tuple[int, ...]
    matching: tuple[int, ...]


class ArcDiagram(_ArcDiagramFields):
    """Oriented segments with places matched 2-to-1 by labels.

    segment_sizes lists the number of places on each segment, in order;
    matching assigns a label in 1..k to each of the 2k global places.
    Construction checks structural well-formedness only; circle-freeness
    under surgery is checked separately by surgery_circle/require_valid.
    An immutable tuple of its two fields, with a __dict__ for the
    cached tables below.  Build one with the constructor: _make and
    _replace skip its checks.
    """

    def __new__(cls, segment_sizes, matching):
        self = super().__new__(cls, tuple(segment_sizes), tuple(matching))
        if not self.segment_sizes:
            raise ArcDiagramError("diagram needs at least one segment")
        for j, n in enumerate(self.segment_sizes):
            if n < 1:
                raise ArcDiagramError(f"segment {j + 1} has no places")
        total = sum(self.segment_sizes)
        if total != len(self.matching):
            raise ArcDiagramError(
                f"{total} places declared but matching lists {len(self.matching)}"
            )
        if total % 2 != 0:
            raise ArcDiagramError("total number of places must be even")
        k = total // 2
        counts: dict[int, int] = {}
        for m in self.matching:
            if not 1 <= m <= k:
                raise ArcDiagramError(f"label {m} out of range 1..{k}")
            counts[m] = counts.get(m, 0) + 1
        for lab in range(1, k + 1):
            if counts.get(lab, 0) != 2:
                raise ArcDiagramError(
                    f"label {lab} occurs {counts.get(lab, 0)} times, expected 2"
                )
        return self

    @property
    def k(self) -> int:
        """Number of matched pairs (and of squares)."""
        return len(self.matching) // 2

    @property
    def l(self) -> int:
        """Number of segments."""
        return len(self.segment_sizes)

    @functools.cached_property
    def _seg_starts(self) -> tuple[int, ...]:
        starts = []
        acc = 1
        for n in self.segment_sizes:
            starts.append(acc)
            acc += n
        return tuple(starts)

    @functools.cached_property
    def _segment_table(self) -> tuple[int, ...]:
        """Entry p: 0-based segment index of place p (entry 0 unused)."""
        return (0,) + tuple(j for j, n in enumerate(self.segment_sizes) for _ in range(n))

    def segment_of(self, place: int) -> int:
        """0-based segment index containing a global place."""
        table = self._segment_table
        if not 0 < place < len(table):
            raise ArcDiagramError(f"place {place} out of range")
        return table[place]

    def local_index(self, place: int) -> int:
        """0-based position of a place within its segment."""
        return place - self._seg_starts[self.segment_of(place)]

    def segment_places(self, segment: int) -> range:
        start = self._seg_starts[segment]
        return range(start, start + self.segment_sizes[segment])

    @functools.cached_property
    def _twins(self) -> tuple[int, ...]:
        by_label: dict[int, list[int]] = {}
        for p, m in enumerate(self.matching, start=1):
            by_label.setdefault(m, []).append(p)
        twin = [0] * (2 * self.k + 1)
        for v, w in by_label.values():
            twin[v] = w
            twin[w] = v
        return tuple(twin)

    def twin(self, place: int) -> int:
        """The other place carrying the same label."""
        return self._twins[place]

    def label(self, place: int) -> int:
        return self.matching[place - 1]

    def pair(self, lab: int) -> tuple[int, int]:
        """The two places of a label, in increasing order."""
        if not 1 <= lab <= self.k:
            raise ArcDiagramError(f"label {lab} out of range 1..{self.k}")
        v = self.matching.index(lab) + 1
        return v, self.twin(v)


def label_subsets(d: ArcDiagram) -> tuple[frozenset[int], ...]:
    """Every subset of the labels 1..k, by size, then lexicographically."""
    labels = range(1, d.k + 1)
    return tuple(
        frozenset(c) for r in range(d.k + 1) for c in itertools.combinations(labels, r)
    )


@cached
def interior_steps(d: ArcDiagram) -> tuple[int, ...]:
    """The interior steps, in ascending order, each named by its start place.

    Interior step i runs from place interior_steps(d)[i] to the next place
    on the same segment.  The index i is the step's coordinate in a
    homological grading and its number as a gluing arc of the surface.
    """
    return tuple(p for j in range(d.l) for p in d.segment_places(j)[:-1])


@cached
def _step_from(d: ArcDiagram) -> tuple[Optional[int], ...]:
    """Entry p: index of the interior step from p to p + 1, or None."""
    index = {p: i for i, p in enumerate(interior_steps(d))}
    return tuple(index.get(p) for p in range(2 * d.k + 1))


def step_before(d: ArcDiagram, place: int) -> Optional[int]:
    """Index of the interior step ending at a place; None at a segment start."""
    return _step_from(d)[place - 1]


def step_after(d: ArcDiagram, place: int) -> Optional[int]:
    """Index of the interior step starting at a place; None at a segment end."""
    return _step_from(d)[place]


def surgery_circle(d: ArcDiagram) -> Optional[tuple[int, ...]]:
    """Perform oriented surgery at every matched pair and look for circles.

    The segments, cut at all places, fall into directed sub-arcs.  Surgery
    at a pair {v, w} reconnects the sub-arc coming into v with the sub-arc
    leaving w, and vice versa.  Returns None when every component is an
    arc; otherwise one circle as a cyclic sequence of places, normalised to
    start at its smallest place.
    """
    # Sub-arc (j, i) is the piece of segment j ending at local place i
    # (for i < n) and starting at local place i - 1 (for i > 0).
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for p in range(1, 2 * d.k + 1):
        q = d.twin(p)
        succ[(d.segment_of(p), d.local_index(p))] = (
            d.segment_of(q),
            d.local_index(q) + 1,
        )
    visited: set[tuple[int, int]] = set()
    for j, n in enumerate(d.segment_sizes):
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
        in_place = d._seg_starts[arc[0]] + arc[1]
        circle.append(in_place)
        circle.append(d.twin(in_place))
        arc = succ[arc]
        if arc == start:
            break
    # Rotate by whole (in, out) pairs so the alternation survives.
    pivot = min(range(0, len(circle), 2), key=lambda i: circle[i])
    return tuple(circle[pivot:] + circle[:pivot])


def is_valid(d: ArcDiagram) -> bool:
    return surgery_circle(d) is None


def require_valid(d: ArcDiagram) -> None:
    circle = surgery_circle(d)
    if circle is not None:
        raise InvalidDiagramError(circle)


# Cyclic order of the four side slots around a square.  Walking the square
# boundary in the orientation direction passes after-v, before-w, after-w,
# before-v, with corners v, (negative), w, (negative) in between.
SIDE_NAMES = ("after_v", "before_w", "after_w", "before_v")


class Square(NamedTuple):
    """One square of the quadrangulation, for the matched pair of a label.

    sides holds the interior-step index bound to each slot, in the cyclic
    order SIDE_NAMES; None marks a slot on an exterior step.
    """

    label: int
    v: int
    w: int
    sides: tuple[Optional[int], Optional[int], Optional[int], Optional[int]]


SideRef = tuple[int, int]  # (square label, side index in SIDE_NAMES order)


class QuadSurface(NamedTuple):
    """The square complex of a valid arc diagram, with derived invariants."""

    diagram: ArcDiagram
    squares: tuple[Square, ...]
    gluings: tuple[tuple[SideRef, SideRef], ...]
    euler_char: int
    boundary_components: int
    genus: int
    marked_point_count: int
    index: int


@cached
def to_quad_surface(d: ArcDiagram) -> QuadSurface:
    """Build the quadrangulated surface of a valid diagram.

    One square per label, its four side slots bound to the steps before
    and after its two places.  Side slots sharing an interior step are
    glued; the gluing reverses induced boundary orientations, so boundary
    components can be counted by a walk that pivots across glued sides.
    """
    require_valid(d)
    squares = []
    for lab in range(1, d.k + 1):
        v, w = d.pair(lab)
        sides = (step_after(d, v), step_before(d, w), step_after(d, w), step_before(d, v))
        squares.append(Square(lab, v, w, sides))

    # Each interior step binds the after-slot at its earlier place and the
    # before-slot at its later place; exterior steps bind one slot only.
    gluings = []
    for p in interior_steps(d):
        q = p + 1
        sq_p = d.label(p)
        slot_p = 0 if squares[sq_p - 1].v == p else 2
        sq_q = d.label(q)
        slot_q = 1 if squares[sq_q - 1].w == q else 3
        gluings.append(((sq_p, slot_p), (sq_q, slot_q)))

    partner: dict[SideRef, SideRef] = {}
    for a, b in gluings:
        partner[a] = b
        partner[b] = a

    free = [
        (sq.label, i)
        for sq in squares
        for i in range(4)
        if (sq.label, i) not in partner
    ]

    def next_boundary(ref: SideRef) -> SideRef:
        cur = (ref[0], (ref[1] + 1) % 4)
        while cur in partner:
            cur = partner[cur]
            cur = (cur[0], (cur[1] + 1) % 4)
        return cur

    seen: set[SideRef] = set()
    components = 0
    for ref in free:
        if ref in seen:
            continue
        components += 1
        cur = ref
        while cur not in seen:
            seen.add(cur)
            cur = next_boundary(cur)

    # Surface components, by union-find of squares over the gluings; the
    # genus is summed over them: sum of (2 - chi_i - b_i) / 2.
    root = list(range(d.k + 1))

    def find(lab: int) -> int:
        while root[lab] != lab:
            lab = root[lab]
        return lab

    for (a, _), (b, _) in gluings:
        root[find(a)] = find(b)
    surface_components = len({find(lab) for lab in range(1, d.k + 1)})

    euler = d.l - d.k
    slack = 2 * surface_components - euler - components
    if slack < 0 or slack % 2 != 0:
        raise AssertionError(
            f"boundary walk inconsistent: chi={euler}, boundary components={components}, "
            f"surface components={surface_components}"
        )
    return QuadSurface(
        diagram=d,
        squares=tuple(squares),
        gluings=tuple(gluings),
        euler_char=euler,
        boundary_components=components,
        genus=slack // 2,
        marked_point_count=2 * d.l,
        index=d.k,
    )


def parse_arc_diagram(text: str) -> ArcDiagram:
    """Parse the two-line arc-diagram format.

    '#' starts a comment; blank lines are skipped.  The first content line
    must read `segments: n1 n2 ...` and the second `matching: m1 m2 ...`.
    Lines end only at \n, \r\n or \r, and only spaces and tabs separate
    tokens; any other whitespace outside a comment is an error.  Raises
    ParseError with 1-based line/column on bad input.
    """
    lines = _LINE_END.split(text)
    if not lines[-1]:
        lines.pop()  # a final line end starts no line
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        other = _OTHER_SPACE.search(line)
        if other:
            raise ParseError(
                f"whitespace U+{ord(other[0]):04X} is neither a space nor a tab",
                lineno,
                other.start() + 1,
            )
        if line.strip(" \t"):
            content.append((lineno, line))
    if len(content) < 2:
        raise ParseError("expected `segments:` and `matching:` lines", len(lines) + 1, 1)
    if len(content) > 2:
        lineno, line = content[2]
        raise ParseError("unexpected extra line", lineno, len(line) - len(line.lstrip(" \t")) + 1)

    sizes = _parse_numbers(content[0], "segments")
    matching = _parse_numbers(content[1], "matching")

    lineno, line = content[0]
    for value, col in sizes:
        if value < 1:
            raise ParseError("segment must have at least one place", lineno, col)
    try:
        return ArcDiagram(
            tuple(v for v, _ in sizes), tuple(v for v, _ in matching)
        )
    except ParseError:
        raise
    except ArcDiagramError as exc:
        lineno, line = content[1]
        raise ParseError(str(exc), lineno, 1) from exc


_LINE_END = re.compile(r"\r\n|\r|\n")
_OTHER_SPACE = re.compile(r"[^\S \t]")  # whitespace other than a space or a tab
_TOKEN = re.compile(r"[^ \t]+")
_NUMBER = re.compile(r"-?[0-9]+")


def read_int(token: str) -> int:
    """The integer a token spells as an optional `-` and ASCII digits;
    ValueError otherwise.  int() alone also reads 2_2, +4, ` 4` and
    non-ASCII digits, and it refuses more digits than its limit."""
    if not _NUMBER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _parse_numbers(entry: tuple[int, str], header: str) -> list[tuple[int, int]]:
    lineno, line = entry
    stripped = line.lstrip(" \t")
    indent = len(line) - len(stripped)
    prefix = header + ":"
    if not stripped.startswith(prefix):
        raise ParseError(f"expected `{prefix}`", lineno, indent + 1)
    rest = stripped[len(prefix):]
    base = indent + len(prefix)
    out = []
    for match in _TOKEN.finditer(rest):
        token, col = match[0], base + match.start() + 1
        try:
            out.append((read_int(token), col))
        except ValueError:
            raise ParseError(f"not a number: {token!r}", lineno, col) from None
    if not out:
        raise ParseError(f"`{prefix}` lists no numbers", lineno, base + 1)
    return out
