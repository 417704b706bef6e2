"""One benchmark process: set up, run one workload's inputs, report JSON.

Usage: python3 perfbench/worker.py '<spec json>'

Every pass of the benchmark starts this script afresh, because every
lru_cache in strandcontact is keyed on ArcDiagram by value: a second pass
in one process would time cache hits instead of work.  The spec names

* ``kind``: ``"cli"`` runs ``cli.main([verb, file])`` once per file, with
  stdout captured; ``"corpus"`` enumerates ``corpus(max_k, max_l)`` during
  set-up, keeps the diagrams with the requested k and l, checks them
  against the stored ``listing``, and does what ``cmd_corpus`` does for
  each (``verify`` plus ``to_json``);
* ``spawned``: ``time.monotonic()`` in the parent just before the launch,
  so set-up time counts from interpreter start;
* ``order_seed``: the order of the inputs is a shuffle seeded by it;
* ``trace``: whether to install the per-layer tracer;
* ``tree``: ``"src"`` for the sources under test, ``"baseline"`` for the
  frozen copy in perfbench/baseline.

The last line of stdout is one JSON object with the set-up time, peak RSS,
and per input its wall time, outcome and mathematical content.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Where strandcontact is imported from: the sources under test, or the
# frozen copy that run.py times as its speed reference.
TREES = {"src": HERE.parent / "src", "baseline": HERE / "baseline"}


# Decimal fractions in a report are timings (elapsed_s); each is counted as
# one byte of output so that the byte count repeats from run to run.
FRACTION = re.compile(r"\d+\.\d+(?:[eE][-+]?\d+)?")


def diagram_id(sizes, matching) -> str:
    return " ".join(map(str, sizes)) + " | " + " ".join(map(str, matching))


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_content(payload: dict) -> dict:
    """What a verify report says mathematically; no timing, no schema."""
    return {
        "success": payload["success"],
        "ca_dim": payload["ca_dim"],
        "homology_dim": payload["homology_dim"],
        "by_euler": payload["by_euler"],
        "summands_sha256": digest(payload["summands"]),
        "bijection_sha256": digest(payload["bijection"]),
    }


def homology_content(payload: dict) -> dict:
    return {"summands_sha256": digest(payload["summands"])}


CONTENT = {"verify": verify_content, "homology": homology_content}


def run_cli(spec: dict) -> tuple[float, list[dict]]:
    from strandcontact import cli
    from strandcontact.arcdiag import parse_arc_diagram

    files = [HERE / name for name in spec["files"]]
    diagrams = [parse_arc_diagram(path.read_text(encoding="utf-8")) for path in files]
    setup_s = time.monotonic() - spec["spawned"]
    order = list(range(len(files)))
    random.Random(spec["order_seed"]).shuffle(order)

    results = []
    for i in order:
        d, out = diagrams[i], io.StringIO()
        entry = {"id": diagram_id(d.segment_sizes, d.matching), "content": None}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([spec["verb"], str(files[i])])
        except Exception as exc:  # the program raised: a failed input
            entry["outcome"] = f"raised {type(exc).__name__}: {exc}"
        else:
            entry["outcome"] = "ok" if code == 0 else f"exit {code}"
        entry["seconds"] = time.perf_counter() - start
        text = out.getvalue()
        entry["output_bytes"] = len(FRACTION.sub("0", text).encode())
        if text.strip():
            payload = json.loads(text)
            entry["content"] = CONTENT[spec["verb"]](payload)
            entry["products_checked"] = payload.get("products_checked", 0)
        results.append(entry)
    return setup_s, results


def run_corpus(spec: dict) -> tuple[float, list[dict]]:
    from strandcontact import isoverify
    from strandcontact.arcdiag import parse_arc_diagram

    diagrams = [
        d
        for d in isoverify.corpus(spec["max_k"], spec["max_l"])
        if d.k == spec["max_k"] and d.l == spec["max_l"]
    ]
    listed = (HERE / spec["listing"]).read_text(encoding="utf-8").split("\n\n")
    expected = [parse_arc_diagram(block) for block in listed if block.strip()]
    if diagrams != expected:
        raise SystemExit(f"corpus({spec['max_k']}, {spec['max_l']}) differs from {spec['listing']}")
    setup_s = time.monotonic() - spec["spawned"]
    random.Random(spec["order_seed"]).shuffle(diagrams)

    results = []
    for d in diagrams:
        entry = {"id": diagram_id(d.segment_sizes, d.matching), "content": None}
        start = time.perf_counter()
        try:
            report = isoverify.verify(d)
            payload = report.to_json()
        except Exception as exc:  # the program raised: a failed input
            entry["outcome"] = f"raised {type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - start
        else:
            entry["seconds"] = time.perf_counter() - start
            entry["outcome"] = "ok" if report.success else "unsuccessful"
            entry["content"] = verify_content(payload)
            entry["products_checked"] = report.products_checked
        entry["output_bytes"] = 0
        results.append(entry)
    return setup_s, results


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path[:0] = [str(TREES[spec["tree"]]), str(HERE)]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = run_cli if spec["kind"] == "cli" else run_corpus
    setup_s, results = run(spec)
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        report["self_s"] = dict(tracer.self_s)
        report["counts"] = tracer.counters(
            products_checked=sum(r.get("products_checked", 0) for r in results),
            output_bytes=sum(r["output_bytes"] for r in results),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
