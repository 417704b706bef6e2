import argparse
import gc
import glob
import hashlib
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from faults import drop_a_resolution, maslov_off_on_dotted
from strandcontact import algebra, arcdiag, cli, contact, homology, isoverify

SQUARE = "segments: 1 1\nmatching: 1 1\n"
TORUS = "segments: 4\nmatching: 1 2 1 2\n"
LOOP = "segments: 2\nmatching: 1 1\n"
K4_SLOWEST = "segments: 8\nmatching: 1 2 1 3 4 3 4 2\n"  # perfbench/inputs/verify-k4-slowest.arc
K5 = "segments: 3 7\nmatching: 1 2 3 1 4 5 3 5 2 4\n"  # perfbench/inputs/verify-k5-a.arc


@pytest.fixture
def write(tmp_path):
    def _write(text, name="input.arc"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "strandcontact", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_json(*argv, expect=0):
    proc = run(*argv)
    assert proc.returncode == expect, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1
    return payload


def test_validate_ok(write):
    payload = run_json("validate", write(SQUARE))
    assert payload["valid"] is True


def test_validate_invalid_exit_1(write):
    payload = run_json("validate", write(LOOP), expect=1)
    assert payload["valid"] is False
    assert set(payload["circle"]) == {1, 2}


def test_validate_on_every_diagram_file_is_pinned(monkeypatch, capsys):
    """validate on each diagrams/*.arc and perfbench/inputs/*.arc, its report
    followed by `<file>: exit <code>`, is the stream that CI hashes against
    tests/validate.sha256 (recorded before surgery became one place walk)."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    stream = []
    for pattern in ("diagrams/*.arc", "perfbench/inputs/*.arc"):
        for f in sorted(glob.glob(pattern)):
            code = cli.main(["validate", f])
            stream.append(f"{capsys.readouterr().out}{f}: exit {code}\n")
    assert "diagrams/loop.arc: exit 1\n" in stream[1]
    digest = (root / "tests" / "validate.sha256").read_text().split()[0]
    assert hashlib.sha256("".join(stream).encode()).hexdigest() == digest


def test_verify_on_the_verify_k5_inputs_is_pinned(capsys):
    """verify on the two inputs of the verify-k5 workload, with elapsed_s
    removed as CI's sed removes it, is the stream that CI hashes against
    tests/verify_k5.sha256 (recorded before verify became one pass per
    kind of object).  It covers mismatches, unit_ok and products_checked,
    which the benchmark's references do not."""
    root = Path(__file__).resolve().parent.parent
    for name in ("verify-k5-a.arc", "verify-k4-slowest.arc"):
        assert cli.main(["verify", str(root / "perfbench" / "inputs" / name)]) == 0
    stream = re.sub(r', "elapsed_s": [^,}\n]+', "", capsys.readouterr().out)
    digest = (root / "tests" / "verify_k5.sha256").read_text().split()[0]
    assert hashlib.sha256(stream.encode()).hexdigest() == digest


def test_parse_error_exit_2(write):
    proc = run("validate", write("segments: 2\nmatching: 1 1 1\n"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "parse error: 2:1: 2 places declared but matching lists 3\n"


def test_usage_error_exit_2():
    proc = run("frobnicate")
    assert proc.returncode == 2


def test_info_torus(write):
    payload = run_json("info", write(TORUS))
    assert payload["euler_char"] == -1
    assert payload["genus"] == 1
    assert payload["boundary_components"] == 1
    assert payload["squares"] == 2


def test_basis_strand_filter(write):
    path = write(TORUS)
    for strands, count in ((0, 1), (1, 8), (2, 7)):  # 0 and k are in range
        payload = run_json("basis", path, "--strands", str(strands))
        assert payload["count"] == count


def test_basis_row_of_a_dotted_generator(write, capsys):
    """The basis row of the torus generator 1 -> 3 with label 2 dotted:
    the dotted label counts among both its start and end labels, and the
    keys come in the report's order."""
    assert cli.main(["basis", write(TORUS), "--strands", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)["generators"]
    row = next(r for r in rows if r["moving"] == [[1, 3]])
    assert list(row) == ["s", "t", "moving", "dotted", "strands", "maslov2", "hom"]
    assert row == {
        "s": [1, 2],
        "t": [1, 2],
        "moving": [[1, 3]],
        "dotted": [2],
        "strands": 2,
        "maslov2": -1,
        "hom": [1, 1, 0],
    }


@pytest.mark.parametrize(
    "verb, flags",
    [
        ("basis", ["--strands", "-1"]),
        ("basis", ["--strands", "3"]),
        ("basis", ["--strands", "99"]),
        ("corpus", ["--max-k", "-1"]),
        ("corpus", ["--max-k", "0"]),
        ("corpus", ["--max-l", "0"]),
    ],
)
def test_integer_arguments_out_of_range_exit_2(write, capsys, verb, flags):
    # an empty count here would be a vacuous success, not an answer
    argv = [verb, write(TORUS), *flags] if verb == "basis" else [verb, *flags]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "token", ["\u0662", "+1", "1_0", " 1"], ids=["arabic-2", "plus", "underscore", "space"]
)
@pytest.mark.parametrize(
    "verb, flag", [("basis", "--strands"), ("corpus", "--max-k"), ("corpus", "--max-l")]
)
def test_integer_argument_syntax_exit_2(write, capsys, verb, flag, token):
    """Integer options are read by the arc parser's number rule: argparse's
    int would take each of these tokens."""
    argv = [verb, write(TORUS), flag, token] if verb == "basis" else [verb, flag, token]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} wants an integer, not {token!r}\n"


def diagram_text(d):
    return (
        f"segments: {' '.join(map(str, d.segment_sizes))}\n"
        f"matching: {' '.join(map(str, d.matching))}\n"
    )


def diagram_id(d):
    return "-".join(map(str, d.segment_sizes)) + "_" + "".join(map(str, d.matching))


def homology_summands(path, method, capsys):
    assert cli.main(["homology", path, "--method", method]) == 0
    return json.loads(capsys.readouterr().out)["summands"]


# corpus(3, 3) includes the torus, as 4_1212
@pytest.mark.parametrize("d", isoverify.corpus(3, 3), ids=diagram_id)
def test_homology_methods_agree(write, capsys, d):
    path = write(diagram_text(d))
    chain = homology_summands(path, "chain", capsys)
    assert chain == homology_summands(path, "local", capsys)


def test_local_degree_is_not_read_from_the_chain_grading(
    write, capsys, monkeypatch, fresh_caches
):
    # a grading shifted on every generator moves the chain method's degrees;
    # the local method reads its degree off the local table, so it must not move
    real = homology.generator_maslov2
    shifted = lambda d, g: real(d, g) + 2
    monkeypatch.setattr(homology, "generator_maslov2", shifted)
    monkeypatch.setattr(cli, "generator_maslov2", shifted)
    path = write(TORUS)
    chain = homology_summands(path, "chain", capsys)
    assert chain != homology_summands(path, "local", capsys)


def test_local_triples_are_not_read_from_the_basis(
    write, capsys, monkeypatch, fresh_caches
):
    # an enumerate_basis that drops every generator of one nonzero triple
    # removes that row from the chain method; the local method lists the
    # closed form's triples, so it keeps the row
    path = write(TORUS)
    rows = homology_summands(path, "chain", capsys)
    row = rows[-1]
    dropped = (frozenset(row["s"]), frozenset(row["t"]), tuple(row["h"]))
    real = homology.enumerate_basis
    monkeypatch.setattr(
        homology,
        "enumerate_basis",
        lambda d, i: tuple(g for g in real(d, i) if algebra.triple(d, g) != dropped),
    )
    arcdiag.release_caches()
    assert homology_summands(path, "chain", capsys) == rows[:-1]
    assert homology_summands(path, "local", capsys) == rows


def test_homology_summand_filter(write):
    payload = run_json("homology", write(TORUS), "--summand", "1;2")
    assert len(payload["summands"]) == 3
    # a leading `-` needs the `=` form so argparse keeps it as a value
    empty = run_json("homology", write(TORUS), "--summand=-;-")
    assert len(empty["summands"]) == 1


def test_homology_summand_selects_the_full_reports_rows(capsys, fresh_caches):
    """On perfbench/inputs/verify-k4-slowest.arc, homology --summand S;T
    gives exactly the rows of the full chain report with that s and t: for
    each of the 70 pairs with |S| = |T|, and none for a few pairs with
    |S| != |T|.  The caches are emptied before each run, so a selective
    run grades its strand-count block from scratch."""
    path = str(Path(__file__).resolve().parent.parent / "perfbench/inputs/verify-k4-slowest.arc")

    def rows(*flags):
        arcdiag.release_caches()
        assert cli.main(["homology", path, "--method", "chain", *flags]) == 0
        return json.loads(capsys.readouterr().out)["summands"]

    full = rows()
    subsets = [list(c) for i in range(5) for c in itertools.combinations(range(1, 5), i)]
    pairs = [(s, t) for s in subsets for t in subsets if len(s) == len(t)]
    assert len(pairs) == 70
    pairs += [([], [1]), ([1, 2], [3]), ([1, 2, 3, 4], [])]
    seen = 0
    for s, t in pairs:
        token = ";".join(",".join(map(str, x)) or "-" for x in (s, t))
        expected = [row for row in full if row["s"] == s and row["t"] == t]
        assert rows(f"--summand={token}") == expected, token
        seen += len(expected)
    assert seen == len(full)


@pytest.mark.parametrize(
    "token, grouped",
    [("1,2;3,4", [2]), ("-;-", [0]), ("1;2,3", [])],
    ids=["block-2", "block-0", "sizes-differ"],
)
def test_homology_summand_groups_only_its_block(
    monkeypatch, capsys, fresh_caches, token, grouped
):
    """homology --summand S;T groups the generators of block |S| alone, and
    of no block when |S| != |T|."""
    path = str(Path(__file__).resolve().parent.parent / "perfbench/inputs/verify-k4-slowest.arc")
    real = homology.enumerate_basis
    seen = []

    def recording(d, i):
        seen.append(i)
        return real(d, i)

    monkeypatch.setattr(homology, "enumerate_basis", recording)
    assert cli.main(["homology", path, f"--summand={token}"]) == 0
    capsys.readouterr()
    assert seen == grouped


@pytest.mark.parametrize("verb", ["homology", "sfh-table"])
def test_chain_verbs_release_each_block_and_keep_the_counts(write, capsys, verb):
    """homology and sfh-table walk the strand counts one block at a time
    and leave every cache of the block scope empty.  Their counts run on
    across the releases: they equal what the caches counted when the verb
    kept every block to its end, and release_caches zeroes them."""
    arcdiag.release_caches()
    assert cli.main([verb, write(K5)]) == 0
    capsys.readouterr()
    assert all(cache.cache_info().currsize == 0 for cache in arcdiag._block_caches)
    assert {
        cache.__wrapped__.__name__: tuple(cache.cache_info())[:2]
        for cache in arcdiag._block_caches
    } == {
        "enumerate_basis": (0, 6),
        "_basis_by_triple": (692, 6),
        "build_summand": (0, 692),
        "expand": (0, 0),
        "_resolving_pairs": (2718, 607),
    }
    arcdiag.release_caches()
    assert all(tuple(cache.cache_info())[:2] == (0, 0) for cache in arcdiag._caches)


@pytest.mark.parametrize("verb", ["homology", "sfh-table"])
def test_chain_verbs_release_the_block_they_fail_in(
    monkeypatch, write, capsys, fresh_caches, verb
):
    """A chain-side error in the middle of a block ends the verb with exit
    1 and still leaves every cache of the block scope empty."""
    maslov_off_on_dotted(monkeypatch)
    assert cli.main([verb, write(K4_SLOWEST)]) == 1
    assert "leaves degree" in capsys.readouterr().err
    assert all(cache.cache_info().currsize == 0 for cache in arcdiag._block_caches)


@pytest.mark.parametrize(
    "verb, flags",
    [("contact", ["--from", "9"]), ("homology", ["--summand", "9;9"])],
    ids=["contact", "homology"],
)
def test_labels_out_of_range_exit_2(write, verb, flags):
    proc = run(verb, write(TORUS), *flags)
    assert proc.returncode == 2
    assert "out of range" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "verb, flag, value, token",
    [
        ("homology", "--summand", "1,1;1", "1,1"),
        ("homology", "--summand", "1;2,1,2", "2,1,2"),
        ("contact", "--from", "2,1,2", "2,1,2"),
        ("contact", "--to", "1,1", "1,1"),
    ],
    ids=["summand-s", "summand-t", "from", "to"],
)
def test_a_repeated_label_exits_2(write, capsys, verb, flag, value, token):
    """A label set names each label once: a repeat is refused, not merged."""
    assert cli.main([verb, write(TORUS), flag, value]) == 2
    out, err = capsys.readouterr()
    lab = token.split(",")[-1]
    assert (out, err) == ("", f"error: label {lab} repeats in {token!r}\n")


@pytest.mark.parametrize(
    "token", ["\u0662", "+1", "1_0", " 1"], ids=["arabic-2", "plus", "underscore", "space"]
)
@pytest.mark.parametrize(
    "verb, flags",
    [("contact", ["--from", "{}"]), ("homology", ["--summand", "{};-"])],
    ids=["contact", "homology"],
)
def test_label_syntax_exit_2(write, capsys, verb, flags, token):
    """Labels are read by the arc parser's number rule: int() alone would
    take each of these tokens."""
    code = cli.main([verb, write(TORUS), *(f.format(token) for f in flags)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: bad subset syntax: ")
    assert out == ""


FILE_VERBS = ["validate", "info", "basis", "homology", "contact", "verify", "sfh-table"]


@pytest.mark.parametrize("verb", FILE_VERBS)
@pytest.mark.parametrize("unreadable", ["missing", "not-utf8"])
def test_unreadable_file_exit_2(tmp_path, capsys, verb, unreadable):
    path = tmp_path / "input.arc"
    if unreadable == "not-utf8":
        path.write_bytes(b"\xff\xfe" + SQUARE.encode())
    code = cli.main([verb, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_unreadable_file_without_traceback(tmp_path):
    path = tmp_path / "missing.arc"
    proc = run("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read {path}: No such file or directory\n"


def test_contact_filter(write):
    payload = run_json("contact", write(TORUS), "--from", "1", "--to", "2")
    assert payload["count"] == 3
    total = run_json("contact", write(TORUS))
    assert total["count"] == 10


def test_verify_square(write):
    payload = run_json("verify", write(SQUARE))
    assert payload["success"] is True
    assert payload["ca_dim"] == 2
    assert payload["homology_dim"] == 2


@pytest.mark.parametrize("verb", ["info", "basis", "homology", "contact", "verify", "sfh-table"])
def test_invalid_diagram_refused_exit_1(write, verb):
    """Every file verb but validate refuses the diagram through its surface,
    with the one message."""
    proc = run(verb, write(LOOP))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "invalid diagram: surgery yields a circle through places [2, 1]\n"


def test_sfh_table(write):
    payload = run_json("sfh-table", write(SQUARE))
    assert payload["matrix"] == [[1, 0], [0, 1]]


def test_sfh_table_disagreement_exits_1(write, monkeypatch, capsys):
    # every cube with no used side becomes tight, so the contact side
    # counts structures that homology does not have
    real = contact.cube_tight
    monkeypatch.setattr(contact, "cube_tight", lambda c: c.used_count == 0 or real(c))
    code = cli.main(["sfh-table", write(TORUS)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "sfh table disagrees with homology" in err
    assert "Traceback" not in err


def test_corpus_small():
    payload = run_json("corpus", "--max-k", "2", "--max-l", "2")
    assert payload["all_ok"] is True
    assert payload["diagrams"] == 4


def test_corpus_reports_a_raising_diagram(monkeypatch, capsys):
    bad = isoverify.corpus(2, 2)[1]
    real = cli.verify

    def verify(d):
        if d == bad:
            raise ValueError("boom")
        return real(d)

    monkeypatch.setattr(cli, "verify", verify)
    code = cli.main(["corpus", "--max-k", "2", "--max-l", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["all_ok"] is False
    assert payload["diagrams"] == 4
    failed = [r for r in payload["results"] if not r["ok"]]
    assert failed == [
        {
            "segments": list(bad.segment_sizes),
            "matching": list(bad.matching),
            "ok": False,
            "dim": None,
            "mismatches": ["raised ValueError: boom"],
        }
    ]


def test_corpus_releases_the_caches_after_each_diagram(monkeypatch, capsys):
    """Each diagram starts on empty caches, also after one that raised, and
    the run leaves every registered cache empty."""
    arcdiag.release_caches()
    bad = isoverify.corpus(3, 3)[1]
    real = cli.verify
    held = []

    def verify(d):
        held.append(sum(cache.cache_info().currsize for cache in arcdiag._caches))
        report = real(d)
        if d == bad:
            raise ValueError("boom")
        return report

    monkeypatch.setattr(cli, "verify", verify)
    assert cli.main(["corpus", "--max-k", "3", "--max-l", "3"]) == 1
    capsys.readouterr()
    assert len(held) == len(isoverify.corpus(3, 3)) and not any(held)
    assert all(cache.cache_info().currsize == 0 for cache in arcdiag._caches)


def test_stack_outside_the_basis_exits_1(write, monkeypatch, capsys):
    # the enumeration loses the structures with two used arcs, and stacking
    # two structures with one used arc each reaches one of them
    real = contact.enumerate_tight
    monkeypatch.setattr(
        contact,
        "enumerate_tight",
        lambda surface: tuple(xi for xi in real(surface) if len(xi.used_arcs) != 2),
    )
    code = cli.main(["verify", write(TORUS)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: stacked {'bottom': ")
    assert err.endswith("is not in the basis\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["contact", "sfh-table"])
def test_contact_and_sfh_table_stack_nothing(write, monkeypatch, capsys, verb):
    """Both verbs read only the tight structures, so they neither stack
    nor raise StackNotInBasis: a stack that raises leaves their output as
    it was."""
    path = write(K4_SLOWEST)
    assert cli.main([verb, path]) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("stack called")

    monkeypatch.setattr(contact, "stack", refuse)
    assert cli.main([verb, path]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("verb", ["homology", "sfh-table"])
@pytest.mark.parametrize(
    "inject, message",
    [
        (
            lambda monkeypatch: drop_a_resolution(monkeypatch, everywhere=True),
            "partial twin-swap orbit for generator ",
        ),
        (maslov_off_on_dotted, "leaves degree -1 of its summand"),
    ],
    ids=["differential-drops-a-resolution", "maslov2-off-by-2-when-dotted"],
)
def test_chain_side_fault_exits_1_without_traceback(
    write, monkeypatch, capsys, fresh_caches, verb, inject, message
):
    """A summand build that leaves the symmetrised span or its degree ends
    the verb with exit 1 and one stderr line, and leaves no cyclic garbage
    behind."""
    inject(monkeypatch)
    path = write(K4_SLOWEST)
    assert cli.main(["validate", path]) == 0  # builds the parser that main keeps
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        code = cli.main([verb, path])
        garbage = gc.collect()
    finally:
        gc.enable()
    out, err = capsys.readouterr()
    assert (code, out, garbage) == (1, "", 0)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_corpus_with_disconnected_surfaces():
    payload = run_json("corpus", "--max-k", "2", "--max-l", "4")
    assert payload["all_ok"] is True


def test_output_deterministic(write):
    path = write(TORUS)
    first = run("verify", path).stdout
    second = run("verify", path).stdout
    first_json = json.loads(first)
    second_json = json.loads(second)
    first_json.pop("elapsed_s")
    second_json.pop("elapsed_s")
    assert first_json == second_json
    # byte-determinism for everything except the timing field
    basis_a = run("basis", path).stdout
    basis_b = run("basis", path).stdout
    assert basis_a == basis_b


def test_pretty_mode(write):
    proc = run("info", write(TORUS), "--pretty")
    assert proc.returncode == 0
    assert "euler_char: -1" in proc.stdout


def test_pretty_output_of_every_verb_is_pinned(monkeypatch, capsys):
    """Each verb under --pretty, its lines followed by `<argv>: exit <code>`,
    hashes to tests/pretty.sha256, recorded before the lines were built
    only when printed.  The k=4 input reaches every verb's line builder,
    loop.arc the circle line of validate, and corpus its own."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    k4 = "perfbench/inputs/verify-k4-slowest.arc"
    runs = [
        ["validate", "--pretty", k4],
        ["info", "--pretty", k4],
        ["basis", "--pretty", k4],
        ["homology", "--pretty", "--method", "chain", k4],
        ["homology", "--pretty", "--method", "local", k4],
        ["contact", "--pretty", k4],
        ["verify", "--pretty", k4],
        ["sfh-table", "--pretty", k4],
        ["validate", "--pretty", "diagrams/loop.arc"],
        ["corpus", "--max-k", "2", "--max-l", "2", "--pretty"],
    ]
    stream = []
    for argv in runs:
        code = cli.main(argv)
        stream.append(f"{capsys.readouterr().out}{' '.join(argv)}: exit {code}\n")
    assert stream[-2].endswith("diagrams/loop.arc: exit 1\n")
    digest = (root / "tests" / "pretty.sha256").read_text().split()[0]
    assert hashlib.sha256("".join(stream).encode()).hexdigest() == digest


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost: compared with a bare interpreter, so that modules a
    site hook loads do not count."""

    def loaded(code):
        argv = [sys.executable, "-c", code + "; import sys; print(*sys.modules)"]
        return set(subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split())

    added = loaded("import strandcontact.cli") - loaded("pass")
    assert "strandcontact.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_emit_writes_what_one_dumps_writes(capsys):
    payload = {
        "schema": 1,
        "none": [],
        "rows": [{"s": [1, 2], "dims": {"-2": 1}}, {}, [], "\u00e9"],
        "long": [{"i": i, "h": [i % 2]} for i in range(129)],  # more than two slices
        "one": [None] * 64,
        "nested": {"a": {"b": [1, 2.5, None, True]}},
        "ok": False,
    }
    for value in (payload, {}):
        cli.emit(argparse.Namespace(pretty=False), value)
        assert capsys.readouterr().out == json.dumps(value) + "\n"


@pytest.mark.parametrize(
    "entry",
    [
        ["-m", "strandcontact"],
        ["-c", "import sys; from strandcontact.cli import main; sys.exit(main())"],
    ],
    ids=["module", "script"],
)
def test_closed_stdout_exits_1_quietly(write, entry):
    """A reader that leaves after one byte of a 232 KB report: exit 1, with
    nothing on stderr (no traceback, no `Exception ignored`)."""
    proc = subprocess.Popen(
        [sys.executable, *entry, "basis", write(K5)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
