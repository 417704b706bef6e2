"""Check generator-level facts of every nonzero summand of arc diagrams.

Usage, from the repository root:

    PYTHONPATH=src python tests/generator_facts.py FILE.arc ...

For each nonzero summand (s, t, h) of a diagram's chain-method homology,
let j be the number of labels of s & t whose two places are both
interior under h (homology._place_class).  The summand must have:

- homology of dimension 1, in one degree;
- a representative of exactly one generator;
- exactly 3^j crossingless generators (no crossing among the moving
  strands; a dotted label is no crossing);
- exactly 2^j of those with an empty differential that are not
  boundaries.

Prints one line per file: its name and the number of nonzero summands
with j = 0, 1, 2, ..., separated by "/".  Prints each failed fact, with
its summand, on stderr and exits 1; exits 0 when every fact holds.
"""

import sys
from pathlib import Path

from strandcontact.algebra import diff_generator
from strandcontact.arcdiag import ArcDiagram, parse_arc_diagram, release_caches
from strandcontact.homology import (
    INTERIOR,
    HomSummand,
    _place_class,
    blocks,
    build_summand,
    homology_dims,
    is_boundary,
    representative,
)
from strandcontact.strands import crossing_count


def failed_facts(d: ArcDiagram, summand: HomSummand, j: int) -> list[str]:
    """The facts that a nonzero summand with j interior labels of s & t fails."""
    failed = []
    if list(homology_dims(summand).values()) != [1]:
        failed.append(f"homology {homology_dims(summand)} is not 1 in one degree")
    if len(representative(summand)) != 1:
        failed.append(f"representative {sorted(representative(summand))} is not one generator")
    crossingless = [
        g
        for basis in summand.graded_basis.values()
        for g in basis
        if crossing_count(g.moving) == 0
    ]
    if len(crossingless) != 3**j:
        failed.append(f"{len(crossingless)} crossingless generators, not 3^{j}")
    cycles = [
        g for g in crossingless
        if not diff_generator(d, g) and not is_boundary(summand, frozenset([g]))
    ]
    if len(cycles) != 2**j:
        failed.append(f"{len(cycles)} crossingless non-boundary cycles, not 2^{j}")
    return failed


def generator_facts(d: ArcDiagram) -> tuple[list[int], list[str]]:
    """(the number of nonzero summands for each j from 0, each failed fact
    with its summand), from empty caches."""
    release_caches()
    counts: list[int] = []
    failures = []
    for _, triples in blocks(d):
        for s, t, h in triples:
            summand = build_summand(d, s, t, h)
            if not homology_dims(summand):
                continue
            j = sum(
                all(_place_class(d, h, p) == INTERIOR for p in d.pair(lab)) for lab in s & t
            )
            counts += [0] * (j + 1 - len(counts))
            counts[j] += 1
            name = (sorted(s), sorted(t), h)
            failures += [f"{name}: {fact}" for fact in failed_facts(d, summand, j)]
    release_caches()
    return counts, failures


def main(paths: list[str]) -> int:
    ok = True
    for path in paths:
        counts, failures = generator_facts(parse_arc_diagram(Path(path).read_text()))
        print(path, "/".join(map(str, counts)))
        for failure in failures:
            print(f"{path}: {failure}", file=sys.stderr)
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
