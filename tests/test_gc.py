"""The package leaves no reference cycles, and the CLI pauses the cyclic
collector while a verb runs.

With no cycles the collector has nothing to free: it would only rescan
the generators, summands and tables that the caches hold.  So `cli.main`
disables it around the verb's handler.  These tests keep that safe: each
piece of work below, run on empty caches with the collector paused, must
leave no unreachable object for `gc.collect()` to find.  A new cycle in
the package fails here instead of growing a paused process.
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import algebra_triples
from strandcontact import cli
from strandcontact.algebra import enumerate_basis
from strandcontact.arcdiag import ArcDiagram, ArcDiagramError, release_caches
from strandcontact.contact import ca_table
from strandcontact.homology import build_summand, homology_dims
from strandcontact.isoverify import SfhMismatch, corpus, sfh_table, verify

K5 = ArcDiagram((3, 7), (1, 2, 3, 1, 4, 5, 3, 5, 2, 4))  # perfbench/inputs/verify-k5-a.arc
K5_TEXT = "segments: 3 7\nmatching: 1 2 3 1 4 5 3 5 2 4\n"
DIAGRAMS = corpus(3, 3) + [K5]
PEAK_RSS = Path(__file__).with_name("peak_rss.py")


def cyclic_garbage(work) -> int:
    """What gc.collect() finds after work() runs on empty caches, with the
    collector paused from one warm-up collection on."""
    release_caches()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()
        release_caches()


def every_basis(d):
    for i in range(d.k + 1):
        enumerate_basis(d, i)


def chain_homology(d):
    for trip in algebra_triples(d):
        homology_dims(build_summand(d, *trip))


@pytest.mark.parametrize(
    "job",
    [verify, sfh_table, ca_table, every_basis, chain_homology],
    ids=["verify", "sfh_table", "ca_table", "enumerate_basis", "chain_homology"],
)
def test_no_reference_cycles(job):
    assert cyclic_garbage(lambda: [job(d) for d in DIAGRAMS]) == 0


def test_corpus_loop_makes_no_reference_cycles():
    def loop():
        for d in corpus(3, 3):
            verify(d)
            release_caches()

    assert cyclic_garbage(loop) == 0


def test_verify_verb_makes_no_reference_cycles(tmp_path, capsys):
    """The first call of main builds the parser and keeps it; the parser
    holds cycles of its own, which stay reachable.  A later call leaves
    nothing for the collector."""
    path = tmp_path / "k5.arc"
    path.write_text(K5_TEXT)
    cli.main(["verify", str(path)])
    assert cyclic_garbage(lambda: cli.main(["verify", str(path)])) == 0
    assert capsys.readouterr().out.count('"success": true') == 2


def test_first_main_frees_what_building_the_parser_left(tmp_path):
    """argparse leaves 100 objects in cycles while main builds its parser
    once per process; main frees them, so even the first call leaves
    nothing for the collector.  Only a fresh interpreter makes a first
    call, so the check runs in one, with the collector off from its
    start."""
    path = tmp_path / "k5.arc"
    path.write_text(K5_TEXT)
    code = (
        "import gc; gc.disable()\n"
        "from strandcontact import cli\n"
        f"cli.main(['validate', {str(path)!r}])\n"
        "print(gc.collect())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"


def test_main_hands_back_an_empty_young_generation(tmp_path, capsys):
    """What the verb left is moved to the oldest generation before main
    re-enables the collector, so the next young collection is cheap."""
    path = tmp_path / "k5.arc"
    path.write_text(K5_TEXT)
    gc.collect()
    assert gc.isenabled() and gc.get_freeze_count() == 0
    try:
        assert cli.main(["verify", str(path)]) == 0
        young = len(gc.get_objects(0))
    finally:
        release_caches()
    assert young < 100


def test_main_leaves_a_frozen_set_alone(tmp_path, capsys):
    path = tmp_path / "k5.arc"
    path.write_text(K5_TEXT)
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main(["verify", str(path)]) == 0
        assert gc.get_freeze_count() == frozen
        assert len(gc.get_objects(0)) > 1000
    finally:
        gc.unfreeze()
        release_caches()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "outcome, code",
    [(None, 0), (SfhMismatch("x"), 1), (ArcDiagramError("x"), 2), (KeyError("x"), None)],
    ids=["returns", "maps-to-1", "maps-to-2", "raises"],
)
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys, enabled, outcome, code):
    """The handler runs with the collector off, and main hands it back as it
    found it, whether the handler returns, raises an error that main maps
    to an exit code, or raises one that main lets through."""
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        if outcome is not None:
            raise outcome
        return cli.OK

    monkeypatch.setattr(cli, "cmd_corpus", handler)
    monkeypatch.setattr(cli, "_parser", None)  # so main builds one around the handler
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(KeyError):
                cli.main(["corpus"])
        else:
            assert cli.main(["corpus"]) == code
        after = gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]
    assert after is enabled


@pytest.mark.parametrize(
    "ceiling, code, status",
    [
        ("100000", "print('out')", 0),
        ("1", "print('out')", 1),
        ("100000", "import sys; print('out'); sys.exit(3)", 3),
    ],
    ids=["within", "above", "child-fails"],
)
def test_peak_rss_wrapper(ceiling, code, status):
    """CI caps the memory of its long runs with tests/peak_rss.py, since a
    cycle under the paused collector would show only as growth."""
    proc = subprocess.run(
        [sys.executable, str(PEAK_RSS), ceiling, sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (status, "out\n")
    assert proc.stderr.startswith("peak RSS ") and proc.stderr.endswith(f"ceiling {ceiling} MB\n")
