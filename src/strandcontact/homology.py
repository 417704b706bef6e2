"""Homology of the constrained strand algebra, one summand at a time.

The algebra splits over triples (start set, end set, homological
grading), and each triple lies in one strand count.  Once per strand
count, the basis is grouped by triple and then by doubled Maslov degree;
that grouping is cached, and each summand holds its own group as its
graded basis.  Both caches are in the block scope, and blocks() is the
one walk over the strand counts: every verb on the chain side takes its
triples from it, and it frees each block's grouping and summands before
the next.  Each summand is a finite GF(2) chain complex, with the
differential dropping the degree by 2 and each boundary map stored as a
tuple of column bitmasks.  One column reduction gives ranks, kernels and
span tests, hence dimensions, boundary tests and representatives.  Independently of all that, one table, built from the
closed-form local classification of the data of (h, s, t) near each
matched pair, says which summands survive and in which degree.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .arcdiag import ArcDiagram, block_cached, cached, release_block
from .algebra import (
    SymGenerator,
    Triple,
    diff_generator,
    enumerate_basis,
    generator_maslov2,
    label_set,
    triple,
)


class NotACycle(ValueError):
    """is_boundary was handed an element with nonzero differential."""


class DegreeError(ValueError):
    """build_summand met a differential that leaves its degree m - 2."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra on column bitmasks


def _reduce(columns: Sequence[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Column reduction over GF(2); column c is a bitmask over row indices.

    Each column is reduced against the earlier pivots, keyed by lowest set
    bit, while a bitmask over column indices records which original
    columns it sums.  Returns the pivots, as lowest bit -> (reduced column,
    combination), and the combinations of the columns that reduced to
    zero, which form a basis of the kernel.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for c, col in enumerate(columns):
        combo = 1 << c
        while col and (col & -col) in pivots:
            pivot_col, pivot_combo = pivots[col & -col]
            col ^= pivot_col
            combo ^= pivot_combo
        if col:
            pivots[col & -col] = (col, combo)
        else:
            kernel.append(combo)
    return pivots, kernel


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank over GF(2) of the matrix with the given columns."""
    return len(_reduce(columns)[0])


def gf2_kernel_basis(columns: Sequence[int]) -> list[int]:
    """Basis of the kernel, as bitmasks over column indices."""
    return _reduce(columns)[1]


def gf2_in_span(vec: int, columns: Sequence[int]) -> bool:
    """Whether vec lies in the GF(2) span of the given columns.

    vec goes last, so it is in the span iff it reduces to zero, i.e. iff
    the last kernel combination uses it.
    """
    kernel = _reduce([*columns, vec])[1]
    return bool(kernel) and kernel[-1] >> len(columns) == 1


# ---------------------------------------------------------------------------
# Summands


class HomSummand(NamedTuple):
    """One (s, t, h) summand: graded basis plus boundary maps.

    Both dicts are keyed by doubled Maslov degree, in ascending order.
    boundary[m] maps degree m to degree m - 2: one column per basis
    element of degree m, a bitmask over the basis of degree m - 2.
    """

    graded_basis: dict[int, tuple[SymGenerator, ...]]
    boundary: dict[int, tuple[int, ...]]


@block_cached
def _basis_by_triple(
    d: ArcDiagram, i: int
) -> dict[Triple, dict[int, tuple[SymGenerator, ...]]]:
    """The generators with i strands, by triple and then by doubled Maslov
    degree: degrees ascending, each tuple in basis order."""
    buckets: dict[Triple, dict[int, list[SymGenerator]]] = {}
    for g in enumerate_basis(d, i):
        by_degree = buckets.setdefault(triple(d, g), {})
        by_degree.setdefault(generator_maslov2(d, g), []).append(g)
    return {
        key: {m: tuple(by_degree[m]) for m in sorted(by_degree)}
        for key, by_degree in buckets.items()
    }


def blocks(
    d: ArcDiagram, counts: Optional[Iterable[int]] = None
) -> Iterator[tuple[int, list[Triple]]]:
    """(i, every triple realised by a generator with i strands, in basis
    order) for each strand count i in counts, 0..k by default.  The block
    scope is released after each block, also when the walk ends early or
    the block raises, so the memory of a walk stays that of one block."""
    for i in range(d.k + 1) if counts is None else counts:
        try:
            yield i, list(_basis_by_triple(d, i))
        finally:
            release_block()


@block_cached
def build_summand(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> HomSummand:
    """Assemble the chain complex of one (s, t, h) summand.

    DegreeError, a ValueError, when the differential of a generator leaves
    the summand or does not lower the doubled Maslov degree by exactly 2.
    A triple with |s| != |t| has no generators: its build groups block |s|,
    which has no entry for it.
    """
    graded = _basis_by_triple(d, len(s)).get((s, t, h), {})
    boundary = {}
    for m, basis in graded.items():
        target = {g: i for i, g in enumerate(graded.get(m - 2, ()))}
        columns = []
        for g in basis:
            column = 0
            for term in diff_generator(d, g):
                i = target.get(term)
                if i is None:
                    raise DegreeError(
                        f"differential of {g} leaves degree {m - 2} of its summand"
                    )
                column |= 1 << i
            columns.append(column)
        boundary[m] = tuple(columns)
    return HomSummand(graded, boundary)


def homology_dims(summand: HomSummand) -> dict[int, int]:
    """Homology dimension per doubled Maslov degree: ker minus image rank.

    Each boundary map is reduced once: its rank is the rank out of its
    own degree m and the rank into degree m - 2.
    """
    rank = {m: gf2_rank(columns) for m, columns in summand.boundary.items()}
    dims = {}
    for m, basis in summand.graded_basis.items():
        dim = len(basis) - rank[m] - rank.get(m + 2, 0)
        if dim:
            dims[m] = dim
    return dims


def total_dim(summand: HomSummand) -> int:
    return sum(homology_dims(summand).values())


def is_boundary(summand: HomSummand, cycle: frozenset[SymGenerator]) -> bool:
    """GF(2) solve: does the cycle lie in the image of the boundary map?

    The element must lie in one degree m of the summand (ValueError
    otherwise) and be closed: the XOR of its boundary[m] columns, which
    build_summand read off diff_generator, must vanish, or NotACycle is
    raised.
    """
    if not cycle:
        return True
    first = next(iter(cycle))
    m = next((m for m, basis in summand.graded_basis.items() if first in basis), None)
    index = {g: i for i, g in enumerate(summand.graded_basis.get(m, ()))}
    if not cycle <= index.keys():
        raise ValueError("element does not live in one degree of this summand")
    columns = summand.boundary[m]
    vec = 0
    closed = 0
    for g in cycle:
        i = index[g]
        vec |= 1 << i
        closed ^= columns[i]
    if closed:
        raise NotACycle("element has nonzero differential")
    return gf2_in_span(vec, summand.boundary.get(m + 2, ()))


def representative(summand: HomSummand) -> Optional[frozenset[SymGenerator]]:
    """A cycle generating the homology, or None when homology vanishes."""
    for m, basis in summand.graded_basis.items():
        image = summand.boundary.get(m + 2, ())
        for vec in gf2_kernel_basis(summand.boundary[m]):
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

# Indexed by (step before used) << 1 | (step after used).
_PLACE_CLASSES = (OUT, NEG_BDY, POS_BDY, INTERIOR)
# Indexed by (label in s) << 1 | (label in t).
_MEMBERSHIPS = (NEITHER, END_ONLY, START_ONLY, BOTH)

# (v_class, w_class, membership) of the data of (h, s, t) near one
# matched pair (v, w).
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
ALLOWED_CASES = frozenset(_ALLOWED_HALF | {(w, v, m) for v, w, m in _ALLOWED_HALF})


def _place_class(d: ArcDiagram, h: tuple[int, ...], place: int) -> str:
    before = d.step_before(place)
    after = d.step_after(place)
    used_before = before is not None and h[before] > 0
    used_after = after is not None and h[after] > 0
    return _PLACE_CLASSES[used_before << 1 | used_after]


@cached
def closed_form(d: ArcDiagram) -> dict[Triple, int]:
    """Closed form: every nonzero summand (s, t, h), mapped to the doubled
    Maslov degree of its homology.

    For each 0/1 vector h over the interior steps, each label admits the
    memberships that ALLOWED_CASES lists for the classes of its two
    places; the nonzero triples are the products of those choices.  A
    crossingless generator has no crossings, so its degree is minus the
    multiplicity of h around its starts: one strand starts at each run
    start of supp h (a neg_bdy place, h = 1 on one side), and one at an
    interior twin of each (interior, interior, both) label (h = 1 on both
    sides).  Its dotted labels lie away from supp h.
    """
    # (v class, w class) -> the admitted (in s, in t, degree drop) of a
    # label; entry i of _MEMBERSHIPS is (label in s) << 1 | (label in t)
    admitted = {
        (a, b): [
            (i >> 1, i & 1, 2 if a == b == INTERIOR and member == BOTH else 0)
            for i, member in enumerate(_MEMBERSHIPS)
            if (a, b, member) in ALLOWED_CASES
        ]
        for a in _PLACE_CLASSES
        for b in _PLACE_CLASSES
    }
    pairs = [d.pair(lab) for lab in range(1, d.k + 1)]
    places = range(1, 2 * d.k + 1)
    table = {}
    for h in itertools.product((0, 1), repeat=len(d.interior_steps)):
        classes = [None, *[_place_class(d, h, p) for p in places]]  # places from 1
        # partial choices over the labels so far: (s mask, t mask, degree)
        choices = [(0, 0, -classes.count(NEG_BDY))]
        for lab, (v, w) in enumerate(pairs, 1):
            bit = 1 << lab
            choices = [
                (s | bit * in_s, t | bit * in_t, m - drop)
                for s, t, m in choices
                for in_s, in_t, drop in admitted[classes[v], classes[w]]
            ]
        for s, t, m in choices:
            table[(label_set(s), label_set(t), h)] = m
    return table


def summand_nonzero(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> bool:
    """Closed form: whether the (s, t, h) summand survives."""
    return (s, t, h) in closed_form(d)


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
    h = tuple(map(add, h0, h1))
    if not summand_nonzero(d, s0, t1, h):
        return None
    return (s0, t1, h)
