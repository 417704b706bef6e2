"""Mechanical verification that the contact and strand sides agree.

The bijection sends a tight structure from one basic dividing set to
another to the triple (bottom on-set, top on-set, used-arc indicator);
verify() checks, for one arc diagram, that this is an isomorphism of
unital GF(2) algebras three ways: tight-structure counts, the closed-form
local description, and GF(2) chain homology, including the full
multiplication table with its zero pattern.
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple, Optional

from .arcdiag import (
    ArcDiagram,
    InvalidDiagramError,
    interior_steps,
    label_subsets,
    require_valid,
    to_quad_surface,
)
from .algebra import (
    NotInSymmetrisedSpan,
    SymGenerator,
    Triple,
    idempotent,
    mul_sums,
)
from .algebra import enumerate_basis  # unused here; perfbench/tracing.py wraps this binding
from .contact import ContactStructure, ca_table, make_structure, structure_json
from .homology import (
    algebra_triples,
    build_summand,
    homology_dims,
    is_boundary,
    representative,
    ring_product,
    summand_nonzero,
    total_dim,
)


class NotRealizable(RuntimeError):
    """A nonzero summand triple failed to produce a tight structure."""


class SfhMismatch(RuntimeError):
    """Tight-structure counts and homology dimensions differ at some pair."""


def phi(d: ArcDiagram, x: ContactStructure) -> Triple:
    """Contact structure -> (s, t, h): on-sets and the used-arc indicator."""
    n = len(interior_steps(d))
    h = tuple(1 if i in x.used_arcs else 0 for i in range(n))
    return (x.bottom, x.top, h)


def phi_inv(
    d: ArcDiagram, s: frozenset[int], t: frozenset[int], h: tuple[int, ...]
) -> ContactStructure:
    """Nonzero summand triple -> the tight structure with those used arcs."""
    if not summand_nonzero(d, s, t, h):
        raise NotRealizable(f"summand ({sorted(s)}, {sorted(t)}, {h}) is zero")
    surface = to_quad_surface(d)
    used = frozenset(i for i, mult in enumerate(h) if mult)
    xi = make_structure(surface, s, t, used)
    if not xi.tight:
        raise NotRealizable(
            f"structure for ({sorted(s)}, {sorted(t)}, {h}) has a non-tight cube"
        )
    return xi


class IsoReport(NamedTuple):
    """Outcome of the three-way check on one diagram."""

    segment_sizes: tuple[int, ...]
    matching: tuple[int, ...]
    k: int
    l: int
    summands: list[dict]
    bijection: list[dict]
    by_euler: list[dict]
    ca_dim: int
    homology_dim: int
    products_checked: int
    unit_ok: bool
    mismatches: list[str]
    elapsed_s: float

    @property
    def success(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "segments": list(self.segment_sizes),
            "matching": list(self.matching),
            "k": self.k,
            "l": self.l,
            "ca_dim": self.ca_dim,
            "homology_dim": self.homology_dim,
            "summands": self.summands,
            "bijection": self.bijection,
            "by_euler": self.by_euler,
            "products_checked": self.products_checked,
            "unit_ok": self.unit_ok,
            "mismatches": self.mismatches,
            "success": self.success,
            "elapsed_s": round(self.elapsed_s, 6),
        }


def triple_key(trip: Triple):
    """Sort key of triples: start labels, end labels, then grading."""
    s, t, h = trip
    return (tuple(sorted(s)), tuple(sorted(t)), h)


def triple_json(trip: Triple) -> dict:
    s, t, h = trip
    return {"s": sorted(s), "t": sorted(t), "h": list(h)}


def _chain_class(
    d: ArcDiagram, product: frozenset[SymGenerator], left: Triple, right: Triple
) -> Optional[Triple]:
    """Homology class of a product of representatives of the triples left =
    (s0, t0, h0) and right = (t0, t1, h1): None when it dies.  The product
    lies in (s0, t1, h0 + h1); is_boundary raises ValueError on a term
    outside it."""
    if not product:
        return None
    trip = (left[0], right[1], tuple([a + b for a, b in zip(left[2], right[2])]))
    return None if is_boundary(build_summand(d, *trip), product) else trip


def verify(d: ArcDiagram) -> IsoReport:
    """Run the full three-way check on one valid arc diagram."""
    t0 = time.perf_counter()
    require_valid(d)
    table = ca_table(d)
    mismatches: list[str] = []

    # -- basis check: contact count vs local table vs chain dimension
    basis_triples = [phi(d, xi) for xi in table.basis]
    contact_triples: dict[Triple, ContactStructure] = {}
    for xi, trip in zip(table.basis, basis_triples):
        if trip in contact_triples:
            mismatches.append(f"phi not injective at {triple_json(trip)}")
        contact_triples[trip] = xi

    every_triple = sorted(
        set(contact_triples) | set(algebra_triples(d)), key=triple_key
    )

    summand_rows = []
    row_of: dict[Triple, dict] = {}
    reps: dict[Triple, frozenset[SymGenerator]] = {}
    for trip in every_triple:
        s, t, h = trip
        try:
            summand = build_summand(d, s, t, h)
        except (ValueError, NotInSymmetrisedSpan) as exc:
            mismatches.append(
                f"summand {triple_json(trip)} raised {type(exc).__name__}: {exc}"
            )
            summand = None
        dims = homology_dims(summand) if summand is not None else {}
        chain = sum(dims.values())
        local = int(summand_nonzero(d, s, t, h))
        contact = int(trip in contact_triples)
        row = triple_json(trip)
        row["contact"] = contact
        row["local"] = local
        row["chain"] = chain
        row["maslov2"] = next(iter(dims)) if dims else None
        summand_rows.append(row)
        row_of[trip] = row
        if not (contact == local == chain):
            mismatches.append(
                f"dimension columns disagree at {triple_json(trip)}: "
                f"contact={contact} local={local} chain={chain}"
            )
        if len(dims) > 1:
            mismatches.append(
                f"homology of {triple_json(trip)} spread over degrees {sorted(dims)}"
            )
        if chain:
            reps[trip] = representative(summand)

    # -- round trips of the bijection
    bijection = []
    for trip, xi in sorted(contact_triples.items(), key=lambda kv: triple_key(kv[0])):
        try:
            back = phi_inv(d, *trip)
        except NotRealizable as exc:
            mismatches.append(str(exc))
            continue
        if back != xi:
            mismatches.append(f"phi_inv . phi is not the identity at {triple_json(trip)}")
        bijection.append(
            {"structure": structure_json(d, xi), "generator": triple_json(trip)}
        )
    for trip in reps:
        try:
            back = phi(d, phi_inv(d, *trip))
        except NotRealizable as exc:
            mismatches.append(str(exc))
            continue
        if back != trip:
            mismatches.append(f"phi . phi_inv is not the identity at {triple_json(trip)}")

    # -- ring check: stacking vs closed form vs chain-level classes.  Only
    # composable pairs (x0.top == x1.bottom) are visited: on any other pair
    # each side is zero (stack and ring_product compare the idempotents
    # first, and mul_generators finds no expansions whose places match),
    # which tests/oracles.dense_products pins.
    products_checked = len(table.basis) ** 2
    for (i, j), stacked in table.products.items():
        t0j, t1j = basis_triples[i], basis_triples[j]
        contact_side = basis_triples[stacked] if stacked is not None else None
        closed_side = ring_product(d, t0j, t1j)
        # a triple zero on the chain side has no representative: zero class
        try:
            product = mul_sums(d, reps.get(t0j, frozenset()), reps.get(t1j, frozenset()))
            chain_side = _chain_class(d, product, t0j, t1j)
        except (ValueError, NotInSymmetrisedSpan) as exc:
            mismatches.append(
                f"chain product {triple_json(t0j)} * {triple_json(t1j)} "
                f"raised {type(exc).__name__}: {exc}"
            )
            continue
        if not (contact_side == closed_side == chain_side):
            mismatches.append(
                "product mismatch at "
                f"{triple_json(t0j)} * {triple_json(t1j)}: "
                f"contact={contact_side and triple_json(contact_side)} "
                f"closed={closed_side and triple_json(closed_side)} "
                f"chain={chain_side and triple_json(chain_side)}"
            )

    # -- unit check: identity structures against symmetrised idempotents
    unit_ok = True
    identity_at = {table.basis[e].bottom: e for e in table.identities}
    zero_h = tuple(0 for _ in interior_steps(d))
    for s in label_subsets(d):
        if s not in identity_at:
            unit_ok = False
            mismatches.append(f"missing identity structure for {sorted(s)}")
            continue
        trip = (s, s, zero_h)
        gen = idempotent(d, s)
        try:
            killed = is_boundary(build_summand(d, *trip), frozenset({gen}))
        except (ValueError, NotInSymmetrisedSpan) as exc:
            unit_ok = False
            mismatches.append(
                f"idempotent of {sorted(s)} raised {type(exc).__name__}: {exc}"
            )
            continue
        if killed:
            unit_ok = False
            mismatches.append(f"idempotent of {sorted(s)} is a boundary")
    # the identity at x.bottom fixes x from the left, the one at x.top from
    # the right; no other identity composes with x, so table.products has
    # no such pair and the product is zero
    for i, xi in enumerate(table.basis):
        for side, s in (("left", xi.bottom), ("right", xi.top)):
            e = identity_at.get(s)
            if e is None:
                continue  # reported above as a missing identity structure
            got = table.products.get((e, i) if side == "left" else (i, e))
            if got != i:
                unit_ok = False
                mismatches.append(
                    "identity structures do not act as a unit: the identity "
                    f"of {sorted(s)} on the {side} of "
                    f"{triple_json(basis_triples[i])} gives "
                    f"{triple_json(basis_triples[got]) if got is not None else None}"
                )

    # -- grading check: Euler class against strand count, per summand block
    by_i: dict[int, dict[str, int]] = {}
    for trip in every_triple:
        s, t, h = trip
        row = row_of[trip]
        if row["contact"] and len(s) != len(t):
            mismatches.append(f"tight structure with |s| != |t| at {triple_json(trip)}")
        if len(s) == len(t):
            block = by_i.setdefault(len(s), {"ca_dim": 0, "h_dim": 0})
            block["ca_dim"] += row["contact"]
            block["h_dim"] += row["chain"]
    by_euler = []
    for i in sorted(by_i):
        block = by_i[i]
        e = d.k - 2 * i
        if block["ca_dim"] != block["h_dim"]:
            mismatches.append(
                f"euler-class block e={e} disagrees: CA {block['ca_dim']} vs H {block['h_dim']}"
            )
        by_euler.append(
            {"i": i, "e": e, "ca_dim": block["ca_dim"], "h_dim": block["h_dim"]}
        )

    ca_dim = len(table.basis)
    homology_dim = sum(row["chain"] for row in summand_rows)
    if ca_dim != homology_dim:
        mismatches.append(f"total dimensions disagree: CA {ca_dim} vs H {homology_dim}")

    return IsoReport(
        segment_sizes=d.segment_sizes,
        matching=d.matching,
        k=d.k,
        l=d.l,
        summands=summand_rows,
        bijection=bijection,
        by_euler=by_euler,
        ca_dim=ca_dim,
        homology_dim=homology_dim,
        products_checked=products_checked,
        unit_ok=unit_ok,
        mismatches=mismatches,
        elapsed_s=time.perf_counter() - t0,
    )


class SfhTable(NamedTuple):
    """Tight-structure counts over pairs of basic dividing sets.

    Entry (i, j) reports the dimension attributed to the thickened surface
    with dividing sets (row i, column j); equal, by the isomorphism, to
    the matching homology summand dimension.
    """

    dividing_sets: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "dividing_sets": [list(s) for s in self.dividing_sets],
            "matrix": [list(row) for row in self.matrix],
        }


def sfh_table(d: ArcDiagram) -> SfhTable:
    """Dimension matrix over (bottom, top) pairs, cross-checked both ways."""
    require_valid(d)
    table = ca_table(d)
    subsets = label_subsets(d)
    counts: dict[tuple[frozenset, frozenset], int] = {
        (a, b): 0 for a in subsets for b in subsets
    }
    for xi in table.basis:
        counts[(xi.bottom, xi.top)] += 1

    homology_counts = {key: 0 for key in counts}
    for trip in algebra_triples(d):
        s, t, h = trip
        homology_counts[(s, t)] += total_dim(build_summand(d, s, t, h))
    for (a, b), count in counts.items():
        if count != homology_counts[(a, b)]:
            raise SfhMismatch(
                f"sfh table disagrees with homology at s={sorted(a)} t={sorted(b)}: "
                f"contact {count} vs homology {homology_counts[(a, b)]}"
            )
    matrix = tuple(
        tuple(counts[(a, b)] for b in subsets) for a in subsets
    )
    return SfhTable(
        dividing_sets=tuple(tuple(sorted(s)) for s in subsets),
        matrix=matrix,
    )


def corpus(max_k: int, max_l: int) -> list[ArcDiagram]:
    """All valid diagrams with k <= max_k, l <= max_l, one per segment-
    permutation class, deterministically ordered.

    In the lexicographic order of compositions, a class is first met at its
    non-decreasing composition, so only those compositions are visited.
    """
    out: list[ArcDiagram] = []
    seen: set = set()
    for k in range(1, max_k + 1):
        places = list(range(1, 2 * k + 1))
        for l in range(1, min(max_l, 2 * k) + 1):
            for comp in _partitions(2 * k, l):
                for pairing in _pairings(places):
                    matching = [0] * (2 * k)
                    for lab, (v, w) in enumerate(pairing, start=1):
                        matching[v - 1] = matching[w - 1] = lab
                    d = ArcDiagram(tuple(comp), tuple(matching))
                    key = _canonical_key(d)
                    if key in seen:
                        continue
                    seen.add(key)
                    # validity is shared by the whole class of the key
                    if _diagram_ok(d):
                        out.append(d)
    return out


def _diagram_ok(d: ArcDiagram) -> bool:
    try:
        require_valid(d)
    except InvalidDiagramError:
        return False
    return True


def _partitions(total: int, parts: int, smallest: int = 1):
    """Non-decreasing compositions of total into parts of at least
    smallest, in lexicographic order."""
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for first in range(smallest, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _pairings(items: list[int]):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for sub in _pairings(rest):
            yield ((first, items[i]),) + sub


def _canonical_key(d: ArcDiagram):
    """Minimal (sizes, matching) encoding over segment permutations.

    Sizes compare first, so the minimum puts them in ascending order; only
    the orders that do so, permuting segments of equal size, are tried.
    """
    segments = [[d.label(p) for p in d.segment_places(j)] for j in range(d.l)]
    sizes = tuple(sorted(d.segment_sizes))
    groups = [
        [j for j in range(d.l) if d.segment_sizes[j] == n] for n in sorted(set(sizes))
    ]

    def matching(orders) -> tuple[int, ...]:
        relabel: dict[int, int] = {}
        return tuple(
            relabel.setdefault(lab, len(relabel) + 1)
            for order in orders
            for j in order
            for lab in segments[j]
        )

    return (sizes, min(map(matching, itertools.product(*map(itertools.permutations, groups)))))
