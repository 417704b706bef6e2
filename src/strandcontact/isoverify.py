"""Mechanical verification that the contact and strand sides agree.

The bijection sends a tight structure from one basic dividing set to
another to the triple (bottom on-set, top on-set, used-arc indicator).
verify() checks, for one arc diagram, that this is an isomorphism of
unital GF(2) algebras three ways: tight-structure counts, the closed-form
local description, and GF(2) chain homology.  It makes four passes, each
over the objects its checks are about: the basis structures, the triples
(dimensions, round trips, Euler-class blocks), the composable pairs (the
full multiplication table with its zero pattern, and the unit's action)
and the label subsets (identities and idempotents).  A product keeps the
strand count, so the last three passes run in each block of the walk
homology.blocks, which frees a block before the next.  Each picks its
triples and left factors' product rows by the size of s, and its subsets
by size: a triple with |s| != |t|, which only a faulty table realises, is
checked in block |s|.  Rows and the triple pass's mismatches are sorted
by triple_key at the end, and each pass's mismatches follow the pass
before it, so each mismatch is reported once, in pass order, and in the
order of the triples within the triple pass.
"""

from __future__ import annotations

import itertools
import time
from operator import add
from typing import NamedTuple, Optional

from .arcdiag import (
    ArcDiagram,
    label_subsets,
    surgery_walk,
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
from .contact import (
    ContactStructure,
    ca_table,
    enumerate_tight,
    make_structure,
    structure_json,
)
from .homology import (
    blocks,
    build_summand,
    closed_form,
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
    n = len(d.interior_steps)
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

    diagram: ArcDiagram
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
        d = self.diagram
        return {
            "schema": 1,
            "segments": list(d.segment_sizes),
            "matching": list(d.matching),
            "k": d.k,
            "l": d.l,
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
    trip = (left[0], right[1], tuple(map(add, left[2], right[2])))
    return None if is_boundary(build_summand(d, *trip), product) else trip


def _row_key(row: dict):
    """triple_key of the triple a row was written from."""
    return (row["s"], row["t"], row["h"])


def verify(d: ArcDiagram) -> IsoReport:
    """Run the full three-way check on one valid arc diagram."""
    t0 = time.perf_counter()
    table = ca_table(d)  # its surface refuses an invalid diagram
    structure_mismatches: list[str] = []

    # -- structures: phi is injective on the basis
    basis_triples = [phi(d, xi) for xi in table.basis]
    contact_triples: dict[Triple, ContactStructure] = {}
    for xi, trip in zip(table.basis, basis_triples):
        if trip in contact_triples:
            structure_mismatches.append(f"phi not injective at {triple_json(trip)}")
        contact_triples[trip] = xi

    # The other passes run one block at a time: strand count i holds the
    # triples with |s| = i, the composable pairs whose left factor has i
    # labels on at its bottom, and the label subsets of size i.
    form = closed_form(d)
    known: dict[int, set[Triple]] = {}
    for trip in itertools.chain(contact_triples, form):
        known.setdefault(len(trip[0]), set()).add(trip)
    subsets = label_subsets(d)

    summand_rows = []
    bijection = []
    homology_dim = 0
    by_euler = []  # the Euler-class blocks, by strand count
    triple_mismatches: list[tuple[Triple, str]] = []
    ring_mismatches: list[str] = []
    subset_mismatches: list[str] = []
    units = set(table.identities)
    unit_ok = True
    identity_at = {table.basis[e].bottom for e in table.identities}
    zero_h = tuple(0 for _ in d.interior_steps)
    for block, block_trips in blocks(d):
        # -- triples realised on any side: contact count vs local table vs
        # chain dimension, the local degree vs the chain's, the
        # bijection's round trips, the Euler-class blocks
        entry = {"i": block, "e": d.k - 2 * block, "ca_dim": 0, "h_dim": 0}
        by_euler.append(entry)
        trips = known.pop(block, set()).union(block_trips)
        reps: dict[Triple, frozenset[SymGenerator]] = {}
        for trip in trips:
            s, t, h = trip
            try:
                summand = build_summand(d, s, t, h)
            except (ValueError, NotInSymmetrisedSpan) as exc:
                triple_mismatches.append((
                    trip,
                    f"summand {triple_json(trip)} raised {type(exc).__name__}: {exc}"
                ))
                summand = None
            dims = homology_dims(summand) if summand is not None else {}
            chain = sum(dims.values())
            homology_dim += chain
            maslov2 = next(iter(dims)) if dims else None
            local = int(summand_nonzero(d, s, t, h))
            xi = contact_triples.get(trip)
            contact = int(xi is not None)
            row = triple_json(trip)
            row.update(contact=contact, local=local, chain=chain, maslov2=maslov2)
            summand_rows.append(row)
            if not (contact == local == chain):
                triple_mismatches.append((
                    trip,
                    f"dimension columns disagree at {triple_json(trip)}: "
                    f"contact={contact} local={local} chain={chain}"
                ))
            if local and chain and maslov2 != form[trip]:
                triple_mismatches.append((
                    trip,
                    f"degrees disagree at {triple_json(trip)}: "
                    f"local maslov2={form[trip]} chain maslov2={maslov2}"
                ))
            if len(dims) > 1:
                triple_mismatches.append((
                    trip,
                    f"homology of {triple_json(trip)} spread over degrees {sorted(dims)}"
                ))
            if chain:
                reps[trip] = representative(summand)
            if contact or chain:
                try:
                    back = phi_inv(d, s, t, h)
                except NotRealizable as exc:
                    triple_mismatches.append((trip, str(exc)))
                else:
                    if contact:
                        if back != xi:
                            triple_mismatches.append((
                                trip,
                                f"phi_inv . phi is not the identity at {triple_json(trip)}"
                            ))
                        bijection.append(
                            {"structure": structure_json(xi), "generator": triple_json(trip)}
                        )
                    if chain and phi(d, back) != trip:
                        triple_mismatches.append((
                            trip,
                            f"phi . phi_inv is not the identity at {triple_json(trip)}"
                        ))
            if len(s) == len(t):
                entry["ca_dim"] += contact
                entry["h_dim"] += chain
            elif contact:
                triple_mismatches.append((
                    trip, f"tight structure with |s| != |t| at {triple_json(trip)}"
                ))

        # -- composable pairs: stacking vs closed form vs chain-level
        # classes, and the unit's action.  On a pair that does not compose
        # (x0.top != x1.bottom) each side is zero: stack and ring_product
        # compare the idempotents first, and mul_generators finds no
        # expansions whose places match (tests/oracles.dense_products pins
        # this).  An identity composes with each structure it acts on, so
        # those pairs are all here.
        for i, x0 in enumerate(table.basis):
            if len(x0.bottom) != block:
                continue
            t0j = basis_triples[i]
            # a triple zero on the chain side has no representative: zero class
            left_rep = reps.get(t0j, frozenset())
            for j, stacked in table.products[i].items():
                t1j = basis_triples[j]
                contact_side = basis_triples[stacked] if stacked is not None else None
                for e, x, side in ((i, j, "left"), (j, i, "right")):
                    if e in units and stacked != x:
                        unit_ok = False
                        ring_mismatches.append(
                            "identity structures do not act as a unit: the identity "
                            f"of {sorted(basis_triples[e][0])} on the {side} of "
                            f"{triple_json(basis_triples[x])} gives "
                            f"{contact_side and triple_json(contact_side)}"
                        )
                closed_side = ring_product(d, t0j, t1j)
                try:
                    product = mul_sums(d, left_rep, reps.get(t1j, frozenset()))
                    chain_side = _chain_class(d, product, t0j, t1j)
                except (ValueError, NotInSymmetrisedSpan) as exc:
                    ring_mismatches.append(
                        f"chain product {triple_json(t0j)} * {triple_json(t1j)} "
                        f"raised {type(exc).__name__}: {exc}"
                    )
                    continue
                if not (contact_side == closed_side == chain_side):
                    ring_mismatches.append(
                        "product mismatch at "
                        f"{triple_json(t0j)} * {triple_json(t1j)}: "
                        f"contact={contact_side and triple_json(contact_side)} "
                        f"closed={closed_side and triple_json(closed_side)} "
                        f"chain={chain_side and triple_json(chain_side)}"
                    )

        # -- label subsets: an identity structure and a surviving idempotent
        for s in subsets:
            if len(s) != block:
                continue
            if s not in identity_at:
                unit_ok = False
                subset_mismatches.append(f"missing identity structure for {sorted(s)}")
                continue
            trip = (s, s, zero_h)
            gen = idempotent(d, s)
            try:
                killed = is_boundary(build_summand(d, *trip), frozenset({gen}))
            except (ValueError, NotInSymmetrisedSpan) as exc:
                unit_ok = False
                subset_mismatches.append(
                    f"idempotent of {sorted(s)} raised {type(exc).__name__}: {exc}"
                )
                continue
            if killed:
                unit_ok = False
                subset_mismatches.append(f"idempotent of {sorted(s)} is a boundary")

    # Rows and mismatches in triple_key order, the mismatches of each
    # pass after those of the one before it
    summand_rows.sort(key=_row_key)
    bijection.sort(key=lambda row: _row_key(row["generator"]))
    triple_mismatches.sort(key=lambda m: triple_key(m[0]))
    mismatches = [
        *structure_mismatches,
        *(message for _, message in triple_mismatches),
        *ring_mismatches,
        *subset_mismatches,
    ]

    # -- grading: Euler class against strand count, per summand block
    for entry in by_euler:
        if entry["ca_dim"] != entry["h_dim"]:
            mismatches.append(
                f"euler-class block e={entry['e']} disagrees: "
                f"CA {entry['ca_dim']} vs H {entry['h_dim']}"
            )

    ca_dim = len(table.basis)
    if ca_dim != homology_dim:
        mismatches.append(f"total dimensions disagree: CA {ca_dim} vs H {homology_dim}")

    return IsoReport(
        diagram=d,
        summands=summand_rows,
        bijection=bijection,
        by_euler=by_euler,
        ca_dim=ca_dim,
        homology_dim=homology_dim,
        products_checked=len(table.basis) ** 2,
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
    surface = to_quad_surface(d)  # refuses an invalid diagram
    subsets = label_subsets(d)
    counts: dict[tuple[frozenset, frozenset], int] = {
        (a, b): 0 for a in subsets for b in subsets
    }
    for xi in enumerate_tight(surface):
        counts[(xi.bottom, xi.top)] += 1

    homology_counts = {key: 0 for key in counts}
    for _, trips in blocks(d):
        for s, t, h in trips:
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
    non-decreasing composition, so only those compositions are visited, and
    a class is listed by its first valid pairing there.  Validity does not
    depend on the segment order, so it is tested first, on the raw tables.
    A composition whose parts all differ has one ascending segment order,
    and pairings are labelled in first-occurrence order, so each of its
    pairings is a class of its own and needs no key.  The tables are
    well formed by construction, so each diagram is built with _make,
    without the constructor's checks.
    """
    out: list[ArcDiagram] = []
    for k in range(1, max_k + 1):
        candidates = _matchings(k)
        for l in range(1, min(max_l, 2 * k) + 1):
            for comp in _partitions(2 * k, l):
                # keys of different compositions differ in their sizes
                seen = set() if len(set(comp)) < l else None
                for matching, twin in candidates:
                    if surgery_walk(comp, twin)[1] is not None:
                        continue
                    if seen is not None:
                        key = _canonical_key((comp, matching))
                        if key in seen:
                            continue
                        seen.add(key)
                    out.append(ArcDiagram._make((comp, matching)))
    return out


def _matchings(k: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each pairing of the places 1..2k as its matching, labelled in
    pairing order, and its twin table (entry 0 unused)."""
    out = []
    for pairing in _pairings(list(range(1, 2 * k + 1))):
        matching = [0] * (2 * k)
        twin = [0] * (2 * k + 1)
        for lab, (v, w) in enumerate(pairing, start=1):
            matching[v - 1] = matching[w - 1] = lab
            twin[v], twin[w] = w, v
        out.append((tuple(matching), twin))
    return out


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


def _canonical_key(d):
    """Minimal (sizes, matching) encoding over segment permutations, of a
    (segment sizes, matching) pair such as an ArcDiagram.

    Sizes compare first, so the minimum puts them in ascending order; only
    the orders that do so, permuting segments of equal size, are tried.
    """
    segment_sizes, labels = d
    ends = itertools.accumulate(segment_sizes)
    segments = [labels[end - n:end] for n, end in zip(segment_sizes, ends)]
    sizes = tuple(sorted(segment_sizes))
    groups = [
        [j for j, m in enumerate(segment_sizes) if m == n] for n in sorted(set(sizes))
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
