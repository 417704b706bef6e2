"""Cubulated contact structures on a thickened quadrangulated surface.

A basic dividing set turns each square on ("negative") or off; a contact
structure between two basic sets is determined by which decomposing arcs
(interior steps) are used.  The structure is tight exactly when each
cube's data appears in the ten-case table, so the tight structures are
enumerated cube by cube, one used-arc set at a time.  Stacking composes
structures and collapses overtwisted results to zero.

A cube's data is six flags, so every verdict is read from a 64-entry
table that _cube_table builds by asking cube_tight about each cube.  The
table is looked up for the module's cube_tight at each call, so a
replaced cube_tight reaches every verdict.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .arcdiag import (
    ArcDiagram,
    QuadSurface,
    Square,
    cached,
    label_subsets,
    to_quad_surface,
)


class CubeData(NamedTuple):
    """On/off state of a cube's top and bottom plus used flags of its sides.

    The cyclic side order around the cube is (after_v, before_w, after_w,
    before_v); side slots bound to exterior steps are forcibly unused.
    """

    bottom_on: bool
    top_on: bool
    used_before_v: bool
    used_after_v: bool
    used_before_w: bool
    used_after_w: bool

    @property
    def used_count(self) -> int:
        return sum(
            (self.used_before_v, self.used_after_v, self.used_before_w, self.used_after_w)
        )


class ContactStructure(NamedTuple):
    """(bottom, top, used arcs) with the tightness verdict of its cubes.

    bottom and top are basic dividing sets, given by the labels of the
    squares carrying the negative ("on") standard dividing set.
    """

    bottom: frozenset[int]
    top: frozenset[int]
    used_arcs: frozenset[int]  # indices into d.interior_steps
    tight: bool


def _side_index(sq: Square, used_arcs: frozenset[int]) -> int:
    """Used flags of a square's (before_v, after_v, before_w, after_w) sides,
    as the bits 3..0 of an int: the low four bits of a _cube_table index.

    An exterior slot holds None, which is never a used arc.
    """
    after_v, before_w, after_w, before_v = sq.sides
    return (
        (before_v in used_arcs) << 3
        | (after_v in used_arcs) << 2
        | (before_w in used_arcs) << 1
        | (after_w in used_arcs)
    )


def cube_tight(c: CubeData) -> bool:
    """The ten-case table of standard cubes with connected dividing set."""
    n = c.used_count
    bottom, top = c.bottom_on, c.top_on
    after = (c.used_after_v, c.used_after_w)
    before = (c.used_before_v, c.used_before_w)
    if n == 0 or n == 4:
        return bottom == top
    if n == 1:
        if any(after):
            return bottom and not top
        return top and not bottom
    if n == 3:
        if not all(after):  # the single unused side is an after-side
            return top and not bottom
        return bottom and not top
    # n == 2
    if after == (True, True) or before == (True, True):
        return False  # opposite sides
    if (c.used_before_v and c.used_after_v) or (c.used_before_w and c.used_after_w):
        return not bottom and not top  # before and after one vertex
    return bottom and top  # before and after distinct vertices


@cached
def _cube_table(tight) -> tuple[bool, ...]:
    """tight on all 64 cubes; entry i is the cube whose CubeData fields,
    in order, are the bits 5..0 of i.

    Keyed on the predicate, so a replaced cube_tight gets its own table.
    """
    cubes = (CubeData(*(bool(i >> b & 1) for b in range(5, -1, -1))) for i in range(64))
    return tuple(tight(c) for c in cubes)


def make_structure(
    surface: QuadSurface,
    bottom: frozenset[int],
    top: frozenset[int],
    used_arcs: frozenset[int],
) -> ContactStructure:
    table = _cube_table(cube_tight)
    for sq in surface.squares:
        lab = sq.label
        if not table[(lab in bottom) << 5 | (lab in top) << 4 | _side_index(sq, used_arcs)]:
            return ContactStructure(bottom, top, used_arcs, False)
    return ContactStructure(bottom, top, used_arcs, True)


def enumerate_tight(surface: QuadSurface) -> tuple[ContactStructure, ...]:
    """Every tight structure on the surface, cube by cube.

    Tightness is a property of each cube on its own.  Once the used arcs
    are fixed, each square's side flags are fixed, and the square admits
    the (bottom on, top on) pairs that its cube passes; the tight
    structures with those used arcs are the product of these choices.
    The output is ordered by bottom, then top (both as in label_subsets),
    then by the bitmask of the used arcs.
    """
    d = surface.diagram
    n = len(d.interior_steps)
    rank = {s: i for i, s in enumerate(label_subsets(d))}
    table = _cube_table(cube_tight)
    found = []
    for bits in range(1 << n):
        used = frozenset(i for i in range(n) if (bits >> i) & 1)
        choices = []
        for sq in surface.squares:
            sides = _side_index(sq, used)
            choices.append(
                [
                    (sq.label, b, t)
                    for b in (False, True)
                    for t in (False, True)
                    if table[b << 5 | t << 4 | sides]
                ]
            )
        for picks in itertools.product(*choices):
            bottom = frozenset(lab for lab, b, _ in picks if b)
            top = frozenset(lab for lab, _, t in picks if t)
            found.append(((rank[bottom], rank[top], bits), bottom, top, used))
    found.sort(key=lambda f: f[0])
    return tuple(make_structure(surface, b, t, u) for _, b, t, u in found)


def stack(
    surface: QuadSurface, x0: ContactStructure, x1: ContactStructure
) -> Optional[ContactStructure]:
    """Stack x1 on top of x0; None is the zero (overtwisted) result.

    Zero when the structures do not compose, when they share a used arc,
    or when the union of used arcs fails the cube table.
    """
    if x0.top != x1.bottom:
        return None
    if x0.used_arcs & x1.used_arcs:
        return None
    xi = make_structure(surface, x0.bottom, x1.top, x0.used_arcs | x1.used_arcs)
    return xi if xi.tight else None


class CATable(NamedTuple):
    """The contact category algebra on its basis of tight structures.

    products has one row per basis structure.  Row i maps each j with
    x_i.top == x_j.bottom to the stacked structure's basis index, or to
    None when it is overtwisted.  A j missing from row i is a zero
    product; read it with products[i].get(j).
    """

    basis: tuple[ContactStructure, ...]
    products: tuple[dict[int, Optional[int]], ...]  # row i: composable j -> index or None
    identities: tuple[int, ...]  # indices of the identity structures


class StackNotInBasis(RuntimeError):
    """Stacking gave a tight structure that enumerate_tight did not list."""


def ca_table(d: ArcDiagram) -> CATable:
    """Basis and multiplication table of the contact category algebra."""
    surface = to_quad_surface(d)
    basis = enumerate_tight(surface)
    position = {xi: i for i, xi in enumerate(basis)}
    by_bottom: dict[frozenset[int], list[int]] = {}
    for j, x1 in enumerate(basis):
        by_bottom.setdefault(x1.bottom, []).append(j)
    products = tuple({} for _ in basis)
    for i, x0 in enumerate(basis):
        for j in by_bottom.get(x0.top, ()):
            prod = stack(surface, x0, basis[j])
            if prod is not None and prod not in position:
                raise StackNotInBasis(f"stacked {structure_json(prod)} is not in the basis")
            products[i][j] = position.get(prod)
    identities = tuple(
        i for i, xi in enumerate(basis) if xi.bottom == xi.top and not xi.used_arcs
    )
    return CATable(basis, products, identities)


def structure_json(xi: ContactStructure) -> dict:
    return {
        "bottom": sorted(xi.bottom),
        "top": sorted(xi.top),
        "used": sorted(xi.used_arcs),
        "tight": xi.tight,
    }
