"""Brute-force reference implementations that only the tests use.

Each one is the exhaustive way of doing a job that the package does more
cleverly, so a test can compare the two on small inputs.
"""

import itertools

from strandcontact.arcdiag import ArcDiagram, QuadSurface, interior_steps, to_quad_surface
from strandcontact.contact import ContactStructure, ca_table, make_structure, stack
from strandcontact.strands import StrandDiagram


def enumerate_tight_pair(
    surface: QuadSurface, bottom: frozenset[int], top: frozenset[int]
) -> tuple[ContactStructure, ...]:
    """All tight structures between two basic dividing sets.

    Candidates are the subsets of interior steps, in ascending bitmask
    order, so the output order is deterministic.
    """
    n = len(interior_steps(surface.diagram))
    out = []
    for bits in range(1 << n):
        used = frozenset(i for i in range(n) if (bits >> i) & 1)
        xi = make_structure(surface, bottom, top, used)
        if xi.tight:
            out.append(xi)
    return tuple(out)


def dense_products(d: ArcDiagram) -> dict[tuple[int, int], int | None]:
    """Stack every ordered pair of basis structures, composable or not.

    (i, j) -> basis index of the stacked structure, or None when it is
    zero, over all dim^2 pairs of ca_table(d).basis.
    """
    surface = to_quad_surface(d)
    basis = ca_table(d).basis
    position = {xi: i for i, xi in enumerate(basis)}
    products = {}
    for i, x0 in enumerate(basis):
        for j, x1 in enumerate(basis):
            prod = stack(surface, x0, x1)
            products[(i, j)] = position[prod] if prod is not None else None
    return products


def used_steps(m: StrandDiagram) -> frozenset[tuple[int, int]]:
    """Interior steps (p, p + 1) swept by some strand's vertical extent."""
    ends = set(itertools.accumulate(m.sizes))  # last place of each segment
    return frozenset(
        (s, s + 1)
        for s in range(1, sum(m.sizes))
        if s not in ends and any(p <= s < q for p, q in m.strands)
    )


def all_diagrams(sizes: tuple[int, ...], count: int) -> tuple[StrandDiagram, ...]:
    """Every strand diagram with the given strand count, lexicographically."""
    total = sum(sizes)
    bounds = tuple(j for j, n in enumerate(sizes) for _ in range(n))  # segment of each place
    results: list[StrandDiagram] = []

    def extend(start: int, chosen: list[tuple[int, int]], used_ends: set[int]):
        if len(chosen) == count:
            results.append(StrandDiagram(sizes, tuple(chosen)))
            return
        if total - start + 1 < count - len(chosen):
            return
        for p in range(start, total + 1):
            seg = bounds[p - 1]
            for q in range(p, total + 1):
                if bounds[q - 1] != seg:
                    break
                if q in used_ends:
                    continue
                chosen.append((p, q))
                used_ends.add(q)
                extend(p + 1, chosen, used_ends)
                chosen.pop()
                used_ends.discard(q)

    extend(1, [], set())
    return tuple(results)


def sections(d: ArcDiagram, s: frozenset[int]) -> list[frozenset[int]]:
    """All twin-choice place sets mapping bijectively onto the labels s."""
    labels = sorted(s)
    out = []
    for choice in itertools.product((0, 1), repeat=len(labels)):
        out.append(
            frozenset(d.pair(lab)[c] for lab, c in zip(labels, choice))
        )
    return out
