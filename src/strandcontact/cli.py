"""Command-line front end: JSON reports over arc-diagram files."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .arcdiag import (
    ArcDiagramError,
    InvalidDiagramError,
    ParseError,
    parse_arc_diagram,
    read_int,
    release_caches,
    surgery_circle,
    to_quad_surface,
)
from .algebra import NotInSymmetrisedSpan, enumerate_basis, generator_maslov2, triple
from .contact import StackNotInBasis, enumerate_tight, structure_json
from .homology import DegreeError, blocks, build_summand, closed_form, homology_dims
from .isoverify import SfhMismatch, corpus, sfh_table, triple_json, triple_key, verify

OK, FAILURE, USAGE = 0, 1, 2


_parser = None  # built by the first call of main, kept for the process


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()  # it holds reference cycles of its own
        # argparse also drops a formatter and its section, which refer to
        # each other, per argument it adds: free them while they are young
        gc.collect(0)
    args = _parser.parse_args(argv)
    # The package leaves no reference cycles (tests/test_gc.py pins this),
    # so the cyclic collector would only rescan the large acyclic heap that
    # the caches hold and free nothing.  It is paused while the verb runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout raises here
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so that
        # the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAILURE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except InvalidDiagramError as exc:
        print(f"invalid diagram: {exc}", file=sys.stderr)
        return FAILURE
    except (SfhMismatch, StackNotInBasis, NotInSymmetrisedSpan, DegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except ArcDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    finally:
        if collecting:
            if not gc.get_freeze_count():
                # what the verb left moves to the oldest generation, so the
                # next young collection does not scan all of it
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandcontact",
        description="strand algebra homology and contact category algebra of arc diagrams",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file")
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate)
    add("info", cmd_info)

    p = add("basis", cmd_basis)
    p.add_argument("--strands", default=None)

    p = add("homology", cmd_homology)
    p.add_argument("--method", choices=["chain", "local"], default="chain")
    p.add_argument("--summand", default=None, metavar="S;T")

    p = add("contact", cmd_contact)
    p.add_argument("--from", dest="from_", default=None, metavar="S")
    p.add_argument("--to", dest="to", default=None, metavar="T")

    add("verify", cmd_verify)
    add("sfh-table", cmd_sfh)

    p = add("corpus", cmd_corpus, needs_file=False)
    p.add_argument("--max-k", default="3")
    p.add_argument("--max-l", default="3")
    return parser


def parse_file(args):
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArcDiagramError(f"cannot read {args.file}: {reason}") from None
    return parse_arc_diagram(text)


def load(args):
    """The input diagram; its surface, cached for the verb, refuses a circle."""
    d = parse_file(args)
    to_quad_surface(d)
    return d


def emit(args, payload: dict, pretty_lines=None) -> None:
    """Print payload as JSON, or under --pretty the lines that
    pretty_lines, a function of no arguments, returns: the lines are
    built only when they are printed."""
    if args.pretty and pretty_lines is not None:
        for line in pretty_lines():
            print(line)
    else:
        # One dumps per top-level value and per slice of 64 elements of a
        # list value, joined as json.dumps(payload) joins them: the encoder
        # never holds the fragments of the whole report at once, and the
        # slices keep the number of dumps calls small.
        write = sys.stdout.write
        sep = "{"
        for key, value in payload.items():
            write(f"{sep}{json.dumps(key)}: ")
            if isinstance(value, list):
                write("[")
                for i in range(0, len(value), 64):
                    write((", " if i else "") + json.dumps(value[i:i + 64])[1:-1])
                write("]")
            else:
                write(json.dumps(value))
            sep = ", "
        write("}\n" if payload else "{}\n")


def read_option(flag: str, token: str) -> int:
    """An integer option's value, read as the arc parser reads numbers."""
    try:
        return read_int(token)
    except ValueError:
        raise ArcDiagramError(f"{flag} wants an integer, not {token!r}") from None


def parse_subset(token: str, k: int) -> frozenset[int]:
    """Comma-separated labels in 1..k; `-` is the empty set."""
    if token == "-":
        return frozenset()
    try:
        labels = frozenset(read_int(x) for x in token.split(","))
    except ValueError:
        raise ArcDiagramError(f"bad subset syntax: {token!r}") from None
    for lab in sorted(labels):
        if not 1 <= lab <= k:
            raise ArcDiagramError(f"label {lab} in {token!r} is out of range 1..{k}")
    return labels


def cmd_validate(args) -> int:
    d = parse_file(args)
    circle = surgery_circle(d)
    if circle is None:
        emit(args, {"schema": 1, "valid": True}, lambda: ["valid"])
        return OK
    emit(
        args,
        {"schema": 1, "valid": False, "circle": list(circle)},
        lambda: [f"invalid: circle through places {list(circle)}"],
    )
    return FAILURE


def cmd_info(args) -> int:
    d = load(args)
    surf = to_quad_surface(d)
    payload = {
        "schema": 1,
        "segments": list(d.segment_sizes),
        "matching": list(d.matching),
        "k": d.k,
        "l": d.l,
        "interior_steps": len(d.interior_steps),
        "exterior_steps": 2 * d.l,
        "squares": surf.index,
        "gluings": len(surf.gluings),
        "euler_char": surf.euler_char,
        "boundary_components": surf.boundary_components,
        "genus": surf.genus,
        "marked_points": surf.marked_point_count,
    }
    emit(args, payload, lambda: [
        f"{key}: {value}" for key, value in payload.items() if key != "schema"
    ])
    return OK


def cmd_basis(args) -> int:
    d = load(args)
    counts = range(d.k + 1)
    if args.strands is not None:
        strands = read_option("--strands", args.strands)
        if not 0 <= strands <= d.k:
            raise ArcDiagramError(f"--strands {strands} is out of range 0..{d.k}")
        counts = [strands]
    # The rows hold the generators' own tuples and one sorted tuple per
    # label set; JSON writes a tuple as the list it would write for it.
    gens = []
    sorted_labels = {}
    for i in counts:
        for g in enumerate_basis(d, i):
            s, t, h = triple(d, g)
            for labels in (s, t):
                if labels not in sorted_labels:
                    sorted_labels[labels] = tuple(sorted(labels))
            gens.append(
                {
                    "s": sorted_labels[s],
                    "t": sorted_labels[t],
                    "moving": g.moving,
                    "dotted": g.dotted,
                    "strands": g.strand_count,
                    "maslov2": generator_maslov2(d, g),
                    "hom": h,
                }
            )
    payload = {"schema": 1, "count": len(gens), "generators": gens}
    emit(args, payload, lambda: [f"{len(gens)} generators"] + [
        f"  s={list(g['s'])} t={list(g['t'])} moving={[list(x) for x in g['moving']]} "
        f"dotted={list(g['dotted'])} maslov2={g['maslov2']} h={list(g['hom'])}"
        for g in gens
    ])
    return OK


def _summand_dims(d, selector, method) -> dict:
    """Each triple a homology report visits, mapped to its homology
    dimensions by degree: every triple of the basis for the chain method,
    one strand count at a time, and only the closed form's nonzero ones
    for the local.  A selector S;T keeps the triples with that s and t,
    so the chain method groups block |S| alone, and none when |S| != |T|."""
    counts = want = None
    if selector is not None:
        s_token, _, t_token = selector.partition(";")
        if not t_token:
            raise ArcDiagramError("--summand wants S;T with `-` for the empty set")
        want = (parse_subset(s_token, d.k), parse_subset(t_token, d.k))
        counts = [len(want[0])] if len(want[0]) == len(want[1]) else []
    if method == "local":
        return {
            trip: {m: 1}
            for trip, m in closed_form(d).items()
            if want is None or trip[:2] == want
        }
    found = {}
    for _, trips in blocks(d, counts):
        for trip in trips:
            if want is None or trip[:2] == want:
                found[trip] = homology_dims(build_summand(d, *trip))
    return found


def cmd_homology(args) -> int:
    d = load(args)
    found = _summand_dims(d, args.summand, args.method)
    rows = []
    for trip in sorted(found, key=triple_key):
        dims = found[trip]
        if dims:
            row = triple_json(trip)
            row["dims"] = {str(m): dim for m, dim in sorted(dims.items())}
            rows.append(row)
    payload = {"schema": 1, "method": args.method, "summands": rows}
    emit(args, payload, lambda: [f"{len(rows)} nonzero summands ({args.method})"] + [
        f"  s={r['s']} t={r['t']} h={r['h']} dims={r['dims']}" for r in rows
    ])
    return OK


def cmd_contact(args) -> int:
    d = load(args)
    want_from = parse_subset(args.from_, d.k) if args.from_ is not None else None
    want_to = parse_subset(args.to, d.k) if args.to is not None else None
    rows = []
    for xi in enumerate_tight(to_quad_surface(d)):
        if want_from is not None and xi.bottom != want_from:
            continue
        if want_to is not None and xi.top != want_to:
            continue
        rows.append(structure_json(xi))
    payload = {"schema": 1, "count": len(rows), "structures": rows}
    emit(args, payload, lambda: [f"{len(rows)} tight structures"] + [
        f"  bottom={r['bottom']} top={r['top']} used={r['used']}" for r in rows
    ])
    return OK


def cmd_verify(args) -> int:
    d = load(args)
    report = verify(d)
    emit(args, report.to_json(), lambda: [
        f"dim CA = {report.ca_dim}, dim H = {report.homology_dim}",
        f"summands checked: {len(report.summands)}",
        f"products checked: {report.products_checked}",
        "verified: " + ("yes" if report.success else "NO"),
    ] + [f"  mismatch: {m}" for m in report.mismatches])
    return OK if report.success else FAILURE


def cmd_sfh(args) -> int:
    d = load(args)
    table = sfh_table(d)
    emit(args, table.to_json(), lambda: [
        "rows/cols over dividing sets " + str([list(s) for s in table.dividing_sets])
    ] + ["  " + " ".join(str(x) for x in row) for row in table.matrix])
    return OK


def cmd_corpus(args) -> int:
    max_k = read_option("--max-k", args.max_k)
    max_l = read_option("--max-l", args.max_l)
    for flag, value in (("--max-k", max_k), ("--max-l", max_l)):
        if value < 1:
            raise ArcDiagramError(f"{flag} {value} is below 1")
    diagrams = corpus(max_k, max_l)
    results = []
    all_ok = True
    for d in diagrams:
        try:
            report = verify(d)
            ok, dim, mismatches = report.success, report.ca_dim, report.mismatches
        except Exception as exc:  # one failing diagram must not end the run
            ok, dim, mismatches = False, None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            release_caches()  # no diagram reuses another's cached work
        all_ok = all_ok and ok
        results.append(
            {
                "segments": list(d.segment_sizes),
                "matching": list(d.matching),
                "ok": ok,
                "dim": dim,
                "mismatches": mismatches,
            }
        )
    payload = {
        "schema": 1,
        "max_k": max_k,
        "max_l": max_l,
        "diagrams": len(diagrams),
        "all_ok": all_ok,
        "results": results,
    }
    emit(args, payload, lambda: [f"{len(diagrams)} diagrams, all_ok={all_ok}"] + [
        f"  {r['segments']} {r['matching']}: dim={r['dim']} ok={r['ok']}"
        for r in results
    ])
    return OK if all_ok else FAILURE


if __name__ == "__main__":
    sys.exit(main())
