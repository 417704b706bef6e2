"""Command-line front end: JSON reports over arc-diagram files."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arcdiag import (
    ArcDiagramError,
    InvalidDiagramError,
    ParseError,
    interior_steps,
    parse_arc_diagram,
    read_int,
    release_caches,
    require_valid,
    surgery_circle,
    to_quad_surface,
)
from .algebra import enumerate_basis, generator_json, generator_maslov2, hom_grading
from .contact import StackNotInBasis, ca_table, structure_json
from .homology import algebra_triples, build_summand, closed_form, homology_dims
from .isoverify import SfhMismatch, corpus, sfh_table, triple_json, triple_key, verify

OK, FAILURE, USAGE = 0, 1, 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (SfhMismatch, StackNotInBasis) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except ArcDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


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
    """The input diagram; one with a circle under surgery is refused."""
    d = parse_file(args)
    require_valid(d)
    return d


def emit(args, payload: dict, pretty_lines=None) -> None:
    if args.pretty and pretty_lines is not None:
        for line in pretty_lines:
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
        emit(args, {"schema": 1, "valid": True}, ["valid"])
        return OK
    emit(
        args,
        {"schema": 1, "valid": False, "circle": list(circle)},
        [f"invalid: circle through places {list(circle)}"],
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
        "interior_steps": len(interior_steps(d)),
        "exterior_steps": 2 * d.l,
        "squares": surf.index,
        "gluings": len(surf.gluings),
        "euler_char": surf.euler_char,
        "boundary_components": surf.boundary_components,
        "genus": surf.genus,
        "marked_points": surf.marked_point_count,
    }
    pretty = [f"{key}: {value}" for key, value in payload.items() if key != "schema"]
    emit(args, payload, pretty)
    return OK


def cmd_basis(args) -> int:
    d = load(args)
    counts = range(d.k + 1)
    if args.strands is not None:
        strands = read_option("--strands", args.strands)
        if not 0 <= strands <= d.k:
            raise ArcDiagramError(f"--strands {strands} is out of range 0..{d.k}")
        counts = [strands]
    gens = []
    for i in counts:
        for g in enumerate_basis(d, i):
            entry = generator_json(d, g)
            entry["strands"] = g.strand_count
            entry["maslov2"] = generator_maslov2(d, g)
            entry["hom"] = list(hom_grading(d, g))
            gens.append(entry)
    payload = {"schema": 1, "count": len(gens), "generators": gens}
    pretty = [f"{len(gens)} generators"] + [
        f"  s={g['s']} t={g['t']} moving={g['moving']} dotted={g['dotted']} "
        f"maslov2={g['maslov2']} h={g['hom']}"
        for g in gens
    ]
    emit(args, payload, pretty)
    return OK


def _summand_triples(d, selector, method):
    """The triples a homology report visits: every triple of the basis for
    the chain method, only the closed form's nonzero ones for the local."""
    found = algebra_triples(d) if method == "chain" else closed_form(d)
    triples = sorted(found, key=triple_key)
    if selector is None:
        return triples
    s_token, _, t_token = selector.partition(";")
    if not t_token:
        raise ArcDiagramError("--summand wants S;T with `-` for the empty set")
    s, t = parse_subset(s_token, d.k), parse_subset(t_token, d.k)
    return [trip for trip in triples if trip[0] == s and trip[1] == t]


def cmd_homology(args) -> int:
    d = load(args)
    rows = []
    for trip in _summand_triples(d, args.summand, args.method):
        if args.method == "chain":
            dims = homology_dims(build_summand(d, *trip))
        else:
            dims = {closed_form(d)[trip]: 1}
        if dims:
            row = triple_json(trip)
            row["dims"] = {str(m): dim for m, dim in sorted(dims.items())}
            rows.append(row)
    payload = {"schema": 1, "method": args.method, "summands": rows}
    pretty = [f"{len(rows)} nonzero summands ({args.method})"] + [
        f"  s={r['s']} t={r['t']} h={r['h']} dims={r['dims']}" for r in rows
    ]
    emit(args, payload, pretty)
    return OK


def cmd_contact(args) -> int:
    d = load(args)
    table = ca_table(d)
    want_from = parse_subset(args.from_, d.k) if args.from_ is not None else None
    want_to = parse_subset(args.to, d.k) if args.to is not None else None
    rows = []
    for xi in table.basis:
        if want_from is not None and xi.bottom != want_from:
            continue
        if want_to is not None and xi.top != want_to:
            continue
        rows.append(structure_json(d, xi))
    payload = {"schema": 1, "count": len(rows), "structures": rows}
    pretty = [f"{len(rows)} tight structures"] + [
        f"  bottom={r['bottom']} top={r['top']} used={r['used']}" for r in rows
    ]
    emit(args, payload, pretty)
    return OK


def cmd_verify(args) -> int:
    d = load(args)
    report = verify(d)
    payload = report.to_json()
    pretty = [
        f"dim CA = {report.ca_dim}, dim H = {report.homology_dim}",
        f"summands checked: {len(report.summands)}",
        f"products checked: {report.products_checked}",
        "verified: " + ("yes" if report.success else "NO"),
    ] + [f"  mismatch: {m}" for m in report.mismatches]
    emit(args, payload, pretty)
    return OK if report.success else FAILURE


def cmd_sfh(args) -> int:
    d = load(args)
    table = sfh_table(d)
    payload = table.to_json()
    pretty = ["rows/cols over dividing sets " + str([list(s) for s in table.dividing_sets])]
    pretty += ["  " + " ".join(str(x) for x in row) for row in table.matrix]
    emit(args, payload, pretty)
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
    pretty = [f"{len(diagrams)} diagrams, all_ok={all_ok}"] + [
        f"  {r['segments']} {r['matching']}: dim={r['dim']} ok={r['ok']}"
        for r in results
    ]
    emit(args, payload, pretty)
    return OK if all_ok else FAILURE


if __name__ == "__main__":
    sys.exit(main())
