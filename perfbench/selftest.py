"""Self-test of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py [workload ...]

Checks that predictions.json names only metrics and workloads that
BENCHMARK.json declares and covers every per-layer metric, then runs each
workload traced under two seeds and asserts that the seeds changed only
the order of the inputs: the outputs and every per-layer count must be
identical.  Takes about two minutes per workload.
"""

from __future__ import annotations

import json
import sys

import run


def check_predictions() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    predictions = json.loads((run.HERE / "predictions.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in declared["per_layer"]}
    metrics = per_layer | {m["name"] for m in declared["end_to_end"]}
    workloads = {w["name"] for w in declared["workloads"]}
    assert workloads == set(run.WORKLOADS), (workloads, set(run.WORKLOADS))
    covered = set()
    for entry in predictions["predictions"]:
        assert set(entry["per_layer"]) <= per_layer, entry["per_layer"]
        assert set(entry["moves"]) <= metrics, entry["moves"]
        assert set(entry["on"]) | set(entry["no_change_on"]) <= workloads, entry
        covered |= set(entry["per_layer"]) | set(entry["moves"])
    assert per_layer <= covered, f"no prediction for {sorted(per_layer - covered)}"


def check_seeds(workload: str) -> None:
    runs = [run.run(workload, seed, seconds=0, trace=True) for seed in (1, 2)]
    (first, passes_1, _), (second, passes_2, _) = runs
    assert passes_1[0].outputs() == passes_2[0].outputs(), "outputs depend on the seed"
    counts = [{k: v for k, v in s["metrics"].items() if not k.endswith(("_s", "_frac"))} for s in (first, second)]
    assert counts[0] == counts[1], f"per-layer counts depend on the seed: {counts}"
    orders = [[r["id"] for r in passes[0].results] for passes in (passes_1, passes_2)]
    if len(orders[0]) > 2:
        assert orders[0] != orders[1], "the seed did not change the order of the inputs"
    print(f"{workload}: outputs and {len(counts[0])} counts identical under seeds 1 and 2")


def main(argv: list[str]) -> int:
    check_predictions()
    print("predictions.json: names match BENCHMARK.json")
    for workload in argv or sorted(run.WORKLOADS):
        check_seeds(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
