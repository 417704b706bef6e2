"""Compare the counts of a traced benchmark pass with tests/traced_counts.json.

Usage, from the repository root:

    python perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1 > out
    python tests/traced_counts.py W < out

The last line of the run's output is its JSON summary.  Every metric in it
whose unit is count or bytes must equal the value recorded for workload W:
these repeat exactly across seeds and passes, so a difference is a change
in the work the program does.  Prints each metric that differs or is
missing on stderr and exits 1; exits 0 when all match.  A change that
means to move a count records the new values in traced_counts.json.
"""

import json
import sys
from pathlib import Path

RECORDED = Path(__file__).with_name("traced_counts.json")


def counts(summary: dict) -> dict:
    """The count and bytes metrics of a run's summary, by name."""
    return {
        name: metric["value"]
        for name, metric in summary["metrics"].items()
        if metric["unit"] in ("count", "bytes")
    }


def main(argv: list[str]) -> int:
    workload = argv[1]
    got = counts(json.loads(sys.stdin.read().splitlines()[-1]))
    want = json.loads(RECORDED.read_text(encoding="utf-8"))[workload]
    names = want.keys() | got.keys()
    differ = sorted(name for name in names if want.get(name) != got.get(name))
    for name in differ:
        print(
            f"{workload} {name}: recorded {want.get(name)}, traced {got.get(name)}",
            file=sys.stderr,
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
