"""Golden output of the CLI verbs on every corpus(3, 3) diagram.

Each entry holds a verb's exit code and the sha256 of its stdout, with the
`elapsed_s` timing field cut out, so any change to the printed JSON shows
here.  After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_corpus33.json
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from strandcontact import cli
from strandcontact.isoverify import corpus

GOLDEN = Path(__file__).with_name("golden_corpus33.json")

VERBS = {
    "verify": ["verify"],
    "sfh-table": ["sfh-table"],
    "homology-chain": ["homology", "--method", "chain"],
    "homology-local": ["homology", "--method", "local"],
    "basis": ["basis"],
    "contact": ["contact"],
    "info": ["info"],
}

ELAPSED = re.compile(r', "elapsed_s": [^,}]+')


def diagram_id(d) -> str:
    return " ".join(map(str, d.segment_sizes)) + " | " + " ".join(map(str, d.matching))


def digests(workdir: Path) -> dict:
    """verb -> diagram id -> [exit code, sha256 of stdout without elapsed_s]."""
    path = workdir / "input.arc"
    out: dict = {name: {} for name in VERBS}
    for d in corpus(3, 3):
        path.write_text(
            "segments: " + " ".join(map(str, d.segment_sizes)) + "\n"
            "matching: " + " ".join(map(str, d.matching)) + "\n"
        )
        for name, (verb, *flags) in VERBS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([verb, str(path), *flags])
            text = ELAPSED.sub("", buf.getvalue())
            out[name][diagram_id(d)] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert set(got) == set(golden)
    for name in VERBS:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        print()
