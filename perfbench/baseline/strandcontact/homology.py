"""Homology of the constrained strand algebra, one summand at a time.

The algebra splits over (start set, end set, homological grading); each
summand is a finite GF(2) chain complex graded by the doubled Maslov
degree, with the differential dropping that degree by 2.  Dimensions are
computed by rank counts over GF(2), and independently by the closed-form
local classification of the data of (h, s, t) near each matched pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .arcdiag import ArcDiagram, interior_index, interior_steps, step_after, step_before
from .algebra import (
    SymGenerator,
    diff_generator,
    end,
    enumerate_basis,
    generator_maslov2,
    hom_grading,
    start,
)


class NotACycle(ValueError):
    """is_boundary was handed an element with nonzero differential."""


Triple = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int bitsets


@dataclass(frozen=True)
class GF2Matrix:
    """Bit-packed GF(2) matrix; data[r] holds row r with bit c = entry (r, c)."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def column(self, c: int) -> int:
        """Column c as a bitmask over row indices."""
        out = 0
        for r, row in enumerate(self.data):
            if (row >> c) & 1:
                out |= 1 << r
        return out

    def columns(self) -> list[int]:
        return [self.column(c) for c in range(self.cols)]


def gf2_rank(matrix: GF2Matrix) -> int:
    """Rank over GF(2) via Gaussian elimination on row bitsets."""
    return _rank_of_rows(list(matrix.data))


def _rank_of_rows(rows: list[int]) -> int:
    rank = 0
    for col_row in rows:
        cur = col_row
        # reduce against the pivots found so far
        for pivot in rows[:rank]:
            low = pivot & -pivot
            if cur & low:
                cur ^= pivot
        if cur:
            rows[rank] = cur
            rank += 1
    del rows[rank:]
    return rank


def gf2_in_span(vec: int, rows: list[int]) -> bool:
    """Whether vec lies in the GF(2) span of the given bit-vectors."""
    work = list(rows)
    base = _rank_of_rows(work)
    return _rank_of_rows(work + [vec]) == base


def gf2_kernel_basis(matrix: GF2Matrix) -> list[int]:
    """Basis of the right kernel, as bitmasks over column indices."""
    reduced: list[int] = []
    pivots: list[int] = []
    work = list(matrix.data)
    for col in range(matrix.cols):
        pick = None
        for i, row in enumerate(work):
            if (row >> col) & 1:
                pick = i
                break
        if pick is None:
            continue
        row = work.pop(pick)
        work = [r ^ row if (r >> col) & 1 else r for r in work]
        reduced = [r ^ row if (r >> col) & 1 else r for r in reduced]
        reduced.append(row)
        pivots.append(col)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pc in zip(reduced, pivots):
            if (row >> free) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Summands


@dataclass(frozen=True)
class HomSummand:
    """One (s, t, h) summand: graded basis plus boundary matrices.

    boundary[m] maps degree m to degree m - 2; rows index the target basis,
    columns the source basis.
    """

    diagram: ArcDiagram
    s: frozenset[int]
    t: frozenset[int]
    h: tuple[int, ...]
    graded_basis: tuple[tuple[int, tuple[SymGenerator, ...]], ...]
    boundary: tuple[tuple[int, GF2Matrix], ...]

    def basis_at(self, maslov2: int) -> tuple[SymGenerator, ...]:
        for m, basis in self.graded_basis:
            if m == maslov2:
                return basis
        return ()

    def boundary_at(self, maslov2: int) -> Optional[GF2Matrix]:
        for m, mat in self.boundary:
            if m == maslov2:
                return mat
        return None

    def degrees(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.graded_basis)


@functools.lru_cache(maxsize=None)
def _basis_by_triple(
    d: ArcDiagram, i: int
) -> dict[Triple, tuple[SymGenerator, ...]]:
    buckets: dict[Triple, list[SymGenerator]] = {}
    for g in enumerate_basis(d, i):
        key = (start(d, g), end(d, g), hom_grading(d, g))
        buckets.setdefault(key, []).append(g)
    return {key: tuple(gens) for key, gens in buckets.items()}


@functools.lru_cache(maxsize=None)
def build_summand(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> HomSummand:
    """Assemble the chain complex of one (s, t, h) summand."""
    gens: tuple[SymGenerator, ...] = ()
    if len(s) == len(t):
        gens = _basis_by_triple(d, len(s)).get((s, t, h), ())
    by_degree: dict[int, list[SymGenerator]] = {}
    for g in gens:
        by_degree.setdefault(generator_maslov2(d, g), []).append(g)
    graded = tuple(sorted((m, tuple(b)) for m, b in by_degree.items()))

    index_at = {
        m: {g: i for i, g in enumerate(basis)} for m, basis in graded
    }
    boundaries = []
    for m, basis in graded:
        target = index_at.get(m - 2, {})
        rows = [0] * len(target)
        for col, g in enumerate(basis):
            for term in diff_generator(d, g):
                rows[target[term]] |= 1 << col
        boundaries.append((m, GF2Matrix(len(target), len(basis), tuple(rows))))
    return HomSummand(d, s, t, h, graded, tuple(boundaries))


def homology_dims(summand: HomSummand) -> dict[int, int]:
    """Homology dimension per doubled Maslov degree: ker minus image rank."""
    dims = {}
    for m, basis in summand.graded_basis:
        outgoing = summand.boundary_at(m)
        rank_out = gf2_rank(outgoing) if outgoing is not None else 0
        incoming = summand.boundary_at(m + 2)
        rank_in = gf2_rank(incoming) if incoming is not None else 0
        dim = len(basis) - rank_out - rank_in
        if dim:
            dims[m] = dim
    return dims


def total_dim(summand: HomSummand) -> int:
    return sum(homology_dims(summand).values())


def _element_degree(
    summand: HomSummand, cycle: frozenset[SymGenerator]
) -> Optional[int]:
    d = summand.diagram
    degrees = {generator_maslov2(d, g) for g in cycle}
    triples = {(start(d, g), end(d, g), hom_grading(d, g)) for g in cycle}
    if len(degrees) != 1 or triples != {(summand.s, summand.t, summand.h)}:
        raise ValueError("element does not live in one degree of this summand")
    return next(iter(degrees))


def is_boundary(summand: HomSummand, cycle: frozenset[SymGenerator]) -> bool:
    """GF(2) solve: does the cycle lie in the image of the boundary map?

    The element must be homogeneous (single summand, single degree) and
    closed; NotACycle is raised otherwise.
    """
    if not cycle:
        return True
    d = summand.diagram
    m = _element_degree(summand, cycle)
    acc: frozenset[SymGenerator] = frozenset()
    for g in cycle:
        acc ^= diff_generator(d, g)
    if acc:
        raise NotACycle("element has nonzero differential")
    basis = summand.basis_at(m)
    index = {g: i for i, g in enumerate(basis)}
    vec = 0
    for g in cycle:
        vec |= 1 << index[g]
    incoming = summand.boundary_at(m + 2)
    if incoming is None or incoming.cols == 0:
        return False
    return gf2_in_span(vec, incoming.columns())


def representative(summand: HomSummand) -> Optional[frozenset[SymGenerator]]:
    """A cycle generating the homology, or None when homology vanishes."""
    for m, basis in summand.graded_basis:
        outgoing = summand.boundary_at(m)
        kernel = (
            gf2_kernel_basis(outgoing)
            if outgoing is not None
            else [1 << i for i in range(len(basis))]
        )
        incoming = summand.boundary_at(m + 2)
        image = incoming.columns() if incoming is not None else []
        for vec in kernel:
            if not gf2_in_span(vec, image):
                return frozenset(
                    basis[i] for i in range(len(basis)) if (vec >> i) & 1
                )
    return None


# ---------------------------------------------------------------------------
# Closed-form description via the local case table

OUT = "out"
NEG_BDY = "neg_bdy"
POS_BDY = "pos_bdy"
INTERIOR = "interior"

BOTH = "both"
START_ONLY = "start_only"
END_ONLY = "end_only"
NEITHER = "neither"


@dataclass(frozen=True)
class LocalCase:
    """Data of (h, s, t) near a matched pair: twin positions and membership."""

    v_class: str
    w_class: str
    membership: str


_ALLOWED_HALF = {
    (OUT, OUT, BOTH),
    (OUT, OUT, NEITHER),
    (NEG_BDY, OUT, START_ONLY),
    (POS_BDY, OUT, END_ONLY),
    (NEG_BDY, POS_BDY, BOTH),
    (INTERIOR, OUT, NEITHER),
    (POS_BDY, INTERIOR, END_ONLY),
    (NEG_BDY, INTERIOR, START_ONLY),
    (INTERIOR, INTERIOR, NEITHER),
    (INTERIOR, INTERIOR, BOTH),
}
ALLOWED_CASES = _ALLOWED_HALF | {(w, v, m) for v, w, m in _ALLOWED_HALF}


def _place_class(d: ArcDiagram, h: tuple[int, ...], place: int) -> str:
    idx = interior_index(d)
    before = step_before(d, place)
    after = step_after(d, place)
    used_before = before.is_interior and h[idx[before]] > 0
    used_after = after.is_interior and h[idx[after]] > 0
    if used_before and used_after:
        return INTERIOR
    if used_before:
        return POS_BDY
    if used_after:
        return NEG_BDY
    return OUT


def _membership(s: frozenset[int], t: frozenset[int], lab: int) -> str:
    if lab in s and lab in t:
        return BOTH
    if lab in s:
        return START_ONLY
    if lab in t:
        return END_ONLY
    return NEITHER


def local_case(
    d: ArcDiagram,
    h: tuple[int, ...],
    s: frozenset[int],
    t: frozenset[int],
    lab: int,
) -> Optional[LocalCase]:
    """Classify one matched pair against supp h and the idempotents.

    h must be 0/1-valued.  Returns None when the data falls outside the
    allowed table.
    """
    v, w = d.pair(lab)
    case = LocalCase(
        _place_class(d, h, v), _place_class(d, h, w), _membership(s, t, lab)
    )
    if (case.v_class, case.w_class, case.membership) in ALLOWED_CASES:
        return case
    return None


@functools.lru_cache(maxsize=None)
def summand_nonzero(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> bool:
    """Closed form: the summand survives iff h is 0/1 and all pairs allowed."""
    if any(mult not in (0, 1) for mult in h):
        return False
    return all(local_case(d, h, s, t, lab) is not None for lab in range(1, d.k + 1))


def ring_product(
    d: ArcDiagram, gen1: Triple, gen2: Triple
) -> Optional[Triple]:
    """Product of homology generators in closed form: None means zero.

    Zero when the idempotents mismatch, the supports overlap (the combined
    grading then has a step of multiplicity 2), or the combined triple is
    not realised.
    """
    s0, t0, h0 = gen1
    s1, t1, h1 = gen2
    if t0 != s1:
        return None
    h = tuple(a + b for a, b in zip(h0, h1))
    if not summand_nonzero(d, s0, t1, h):
        return None
    return (s0, t1, h)


def crossingless_generators(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> tuple[SymGenerator, ...]:
    """All generators of a nonzero summand with no crossings in any expansion.

    Built directly from the local data: each maximal run of supp h is
    covered by a chain of strands broken exactly at the interior twins
    whose label lies in both s and t (one twin choice per such label);
    dotted labels are those in s and t away from the support.
    """
    if not summand_nonzero(d, s, t, h):
        return ()
    idx = interior_index(d)
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
        places = list(d.segment_places(j))
        run_start = None
        for a, b in zip(places, places[1:]):
            used = h[idx[step_after(d, a)]] > 0
            if used and run_start is None:
                run_start = a
            if not used and run_start is not None:
                runs.append((run_start, a))
                run_start = None
        if run_start is not None:
            runs.append((run_start, places[-1]))

    import itertools as _it

    out = []
    for choice in _it.product((0, 1), repeat=len(choice_labels)):
        breakpoints = {
            d.pair(lab)[c] for lab, c in zip(choice_labels, choice)
        }
        moving = []
        for lo, hi in runs:
            stops = [lo] + sorted(
                p for p in breakpoints if lo < p < hi and d.segment_of(p) == d.segment_of(lo)
            ) + [hi]
            moving.extend(zip(stops, stops[1:]))
        out.append(SymGenerator(tuple(moving), tuple(dotted)))
    return tuple(out)
