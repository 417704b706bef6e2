"""Benchmark of strandcontact: end-to-end metrics, or per-layer with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-k5 --seed 1 --seconds 40 --trace 0

A pass runs every input of the workload once, each process a fresh
interpreter (see worker.py for why).  Passes run one after another, one
process at a time; a new pass starts while it would end within --seconds
plus half a pass (there is always at least one).  The seed shuffles the
order of the inputs within each pass; the inputs themselves are fixed
diagrams stored under perfbench/inputs.

Every output is compared with perfbench/references.json, recorded from a
trusted commit by record.py.  An input fails when the program raises,
exits non-zero, reports success=False, or differs from its reference.
The three corpus diagrams with disconnected surfaces have no reference:
they fail while they raise, and pass once they return success=True with
ca_dim == homology_dim.  ``correct`` is false when any input that has a
reference fails, or when an input without one returns a wrong answer.

--trace 0 prints the end-to-end metrics, in reference seconds.  On a
shared 2-vCPU VM the speed of this program was seen to shift by 30-50%
for minutes at a time, while a small pure-Python loop did not notice, so
neither raw seconds nor a synthetic probe gave steady figures.  The
reference is therefore the program itself, frozen: perfbench/baseline
holds a verbatim copy of strandcontact as it was when this benchmark was
defined.  Before every process of a pass (and after it, when the pass
has only one), and once at the end of the run, that copy verifies
PROBE_INPUT in a fresh process; every time below is multiplied
by PROBE_REFERENCE_S / (median probe time of the run).  A reference
second is thus the time in which the frozen copy verifies PROBE_INPUT in
PROBE_REFERENCE_S; changes to src/ move the metrics, machine speed does
not.  Raw seconds are printed in the summary lines above the JSON.

Each diagram's time is reduced to its median over the run's passes,
which damps second-scale noise better than medians of whole passes:

    wall_s         program work in one pass (set-up excluded): the sum of
                   the per-diagram median times
    diagram_s_p50  median of the per-diagram median times
    diagram_s_max  largest per-diagram median time
    setup_s        interpreter start until the inputs are ready, summed
                   over a pass's processes; median over passes
    peak_rss_mb    highest ru_maxrss among a pass's processes; median over
                   passes (not scaled)

--trace 1 alternates untraced and traced passes (at least two of each)
and prints the per-layer metrics of tracing.py in raw seconds and
counts, without probes: self times are medians
over the traced passes, counts are per pass and must repeat exactly
across traced passes, and traced outputs must equal untraced ones.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170  # a run must end within 180 s
# The speed reference (see above): metrics read as seconds on a machine on
# which the frozen copy verifies PROBE_INPUT in PROBE_REFERENCE_S.
PROBE_INPUT = "inputs/verify-k4-slowest.arc"
PROBE_REFERENCE_S = 1.0

WORKLOADS = {
    "verify-k5": {
        "kind": "cli",
        "verb": "verify",
        "files": ["inputs/verify-k5-a.arc", "inputs/verify-k4-slowest.arc"],
    },
    "corpus-k4l4": {
        "kind": "corpus",
        "max_k": 4,
        "max_l": 4,
        "listing": "inputs/corpus-k4l4.txt",
    },
    "homology-k6": {
        "kind": "cli",
        "verb": "homology",
        "files": ["inputs/homology-k6-a.arc", "inputs/homology-k6-b.arc"],
    },
}

# Span names of tracing.py -> per-layer self-time metrics.
SELF_TIMES = {
    "arcdiag.surface_s": "arcdiag.surface",
    "contact.ca_table_s": "contact.ca_table",
    "algebra.enumerate_basis_s": "algebra.enumerate_basis",
    "algebra.diff_generator_s": "algebra.diff_generator",
    "algebra.maslov2_s": "algebra.maslov2",
    "algebra.mul_sums_s": "algebra.mul_sums",
    "strands.multiply_s": "strands.multiply",
    "strands.differential_s": "strands.differential",
    "strands.inversions_s": "strands.inversions",
    "homology.build_summand_s": "homology.build_summand",
    "homology.gf2_s": "homology.gf2",
    "homology.is_boundary_s": "homology.is_boundary",
    "homology.representative_s": "homology.representative",
    "homology.local_s": "homology.local",
    "isoverify.verify_self_s": "isoverify.verify",
    "isoverify.corpus_s": "isoverify.corpus",
    "cli.emit_s": "cli.emit",
}

# Ratio metrics: (numerator count, denominator counts summed).
RATIOS = {
    "contact.tight_ratio": ("contact.tight", ("contact.candidates",)),
    "contact.stack_nonzero_ratio": ("contact.stack_nonzero", ("contact.stack_calls",)),
    "algebra.mul_nonzero_ratio": ("algebra.mul_nonzero", ("algebra.mul_sums_calls",)),
    "homology.summand_hit_ratio": (
        "homology.summand_hits",
        ("homology.summand_hits", "homology.summands_built"),
    ),
    "isoverify.ring_composable_ratio": ("isoverify.ring_composable", ("isoverify.ring_pairs",)),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run or failed a self-check."""


class Pass:
    """One pass over a workload's inputs, possibly traced.

    With `probes` given, the frozen baseline is timed before each process,
    and after it too when the pass has only one, and its times are
    appended there: every pass contributes at least two probes.
    """

    def __init__(self, workload: str, rng: random.Random, traced: bool, deadline: float,
                 probes: list[float] | None = None):
        self.traced = traced
        self.results: list[dict] = []
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        specs = _process_specs(WORKLOADS[workload], rng)
        for spec in specs:
            spec["trace"] = traced
            if probes is not None:
                probes.append(probe(deadline))
            self._absorb(_launch(spec, deadline))
        if probes is not None and len(specs) == 1:
            probes.append(probe(deadline))

    def _absorb(self, report: dict) -> None:
        self.results.extend(report["results"])
        self.setup_s += report["setup_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        for key, value in report.get("self_s", {}).items():
            self.self_s[key] = self.self_s.get(key, 0.0) + value
        for key, value in report.get("counts", {}).items():
            self.counts[key] = self.counts.get(key, 0) + value

    @property
    def wall_s(self) -> float:
        return sum(r["seconds"] for r in self.results)

    def outputs(self) -> dict:
        return {r["id"]: (r["outcome"], r["content"]) for r in self.results}


def probe(deadline: float) -> float:
    """Seconds the frozen baseline takes to verify PROBE_INPUT."""
    spec = {"kind": "cli", "verb": "verify", "files": [PROBE_INPUT], "order_seed": 0,
            "trace": False, "tree": "baseline"}
    (result,) = _launch(spec, deadline)["results"]
    if result["outcome"] != "ok":
        raise BenchError(f"the baseline copy failed on {PROBE_INPUT}: {result['outcome']}")
    return result["seconds"]


def _process_specs(workload: dict, rng: random.Random) -> list[dict]:
    if workload["kind"] == "corpus":
        return [dict(workload, order_seed=rng.getrandbits(32), tree="src")]
    files = rng.sample(workload["files"], len(workload["files"]))
    return [
        {"kind": "cli", "verb": workload["verb"], "files": [name], "order_seed": 0, "tree": "src"}
        for name in files
    ]


def _launch(spec: dict, deadline: float) -> dict:
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - spec["spawned"]),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish before the run's time limit: {spec}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(verb: str, result: dict, references: dict) -> tuple[bool, bool]:
    """(failed, wrong) for one input against its reference."""
    reference = references[verb].get(result["id"])
    content = result["content"]
    if reference is None:
        if content is None:  # still raises: the known defect, not a wrong answer
            return True, False
        good = content["success"] and content["ca_dim"] == content["homology_dim"]
        return not good, not good
    failed = result["outcome"] != "ok" or content != reference
    return failed, failed


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes for `seconds`; return the result object, passes and probe times."""
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    verb = WORKLOADS[workload].get("verb", "verify")
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[Pass] = []
    probes: list[float] | None = None if trace else []
    while True:
        began = time.monotonic()
        passes.append(Pass(workload, rng, trace and len(passes) % 2 == 1, deadline, probes))
        if trace and len(passes) < 4:
            continue
        # Start another pass only if one as long as the last would end by
        # `seconds` plus half a pass: runs stay close to their length on
        # average, and long passes are not left out for a small overshoot.
        now = time.monotonic()
        if now - start + (now - began) / 2 > seconds:
            break
    if probes is not None:
        probes.append(probe(deadline))

    attempted = failed = 0
    correct = True
    for p in passes:
        for result in p.results:
            bad, wrong = judge(verb, result, references)
            attempted += 1
            failed += bad
            correct = correct and not wrong
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    if trace:
        summary["metrics"] = per_layer(passes, failed / attempted)
    else:
        summary["metrics"] = end_to_end(passes, PROBE_REFERENCE_S / statistics.median(probes))
    return summary, passes, probes


def end_to_end(passes: list[Pass], scale: float) -> dict:
    """Metrics over passes; times are multiplied by `scale`."""
    def median(values) -> float:
        return statistics.median(list(values))

    by_diagram: dict[str, list[float]] = {}
    for p in passes:
        for r in p.results:
            by_diagram.setdefault(r["id"], []).append(r["seconds"] * scale)
    diagram_s = [median(times) for times in by_diagram.values()]
    return {
        "wall_s": sum(diagram_s),
        "diagram_s_p50": median(diagram_s),
        "diagram_s_max": max(diagram_s),
        "setup_s": median(p.setup_s * scale for p in passes),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
    }


def per_layer(passes: list[Pass], failed_frac: float) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    reference = untraced[0].outputs()
    for p in passes[1:]:
        if p.outputs() != reference:
            raise BenchError("outputs differ between passes (traced vs untraced or by order)")
    counts = traced[0].counts
    for p in traced[1:]:
        if p.counts != counts:
            raise BenchError(f"per-layer counts differ between traced passes: {counts} vs {p.counts}")

    metrics: dict[str, float] = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = statistics.median(p.self_s.get(span, 0.0) for p in traced)
    metrics.update(counts)
    for metric, (numerator, denominators) in RATIOS.items():
        base = sum(counts[key] for key in denominators)
        metrics[metric] = counts[numerator] / base if base else 0.0
    for key in ("contact.stack_nonzero", "algebra.mul_nonzero", "homology.summand_hits"):
        del metrics[key]  # only their ratios are reported
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / untraced_wall - 1
    )
    metrics["failed_frac"] = failed_frac
    return metrics


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach the units BENCHMARK.json declares; names must match exactly."""
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(metrics))}, "
            f"extra {sorted(set(metrics) - names)}"
        )
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def print_summary(workload: str, seed: int, passes: list[Pass], probes) -> None:
    per_pass = len(passes[0].results)
    print(
        f"{workload} seed {seed}: {len(passes)} passes x {per_pass} diagrams "
        f"({len(passes) * per_pass} diagram samples), raw seconds"
    )
    if probes:
        print(f"  baseline probe: median {statistics.median(probes):.4f} s of {len(probes)}: "
              + " ".join(f"{t:.3f}" for t in probes))
    for p in passes:
        kind = "traced  " if p.traced else "untraced"
        times = sorted(r["seconds"] for r in p.results)
        print(
            f"  {kind} wall {p.wall_s:.3f} s, setup {p.setup_s:.3f} s, "
            f"diagram p50 {statistics.median(times):.4f} s max {times[-1]:.4f} s, "
            f"rss {p.peak_rss_mb:.1f} MB"
        )
        for r in p.results:
            if r["outcome"] != "ok":
                print(f"    {r['id']}: {r['outcome'][:120]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "strandcontact" / "__init__.py").is_file():
        print(f"no strandcontact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        summary, passes, probes = run(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = with_units(
            summary["metrics"], declared["per_layer" if args.trace else "end_to_end"]
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, args.seed, passes, probes)
    summary["metrics"] = metrics
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
