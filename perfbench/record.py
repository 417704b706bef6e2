"""Record perfbench/references.json from the current sources.

Usage (from the repository root): python3 perfbench/record.py

Run this only at a commit whose outputs are trusted: the benchmark counts
every later difference from these references as a failure.  Inputs that
fail here (the program raises or reports success=False) get no reference.
"""

from __future__ import annotations

import json
import random
import time

from run import HERE, RUN_LIMIT_S, WORKLOADS, Pass


def main() -> None:
    references: dict[str, dict] = {"verify": {}, "homology": {}}
    for name, workload in WORKLOADS.items():
        verb = workload.get("verb", "verify")
        deadline = time.monotonic() + RUN_LIMIT_S
        for result in Pass(name, random.Random(0), False, deadline).results:
            if result["outcome"] == "ok":
                references[verb][result["id"]] = result["content"]
            else:
                print(f"{name}: no reference for {result['id']}: {result['outcome'][:80]}")
    # One reference per line, sorted, so that a re-recording diffs cleanly.
    sections = []
    for verb, table in references.items():
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
            for key in sorted(table)
        )
        sections.append(f" {json.dumps(verb)}: {{\n{rows}\n }}")
    path = HERE / "references.json"
    path.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(map(len, references.values()))} references to {path.name}")


if __name__ == "__main__":
    main()
