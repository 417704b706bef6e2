"""Run a command and fail when its peak resident set exceeds a ceiling.

Usage: python tests/peak_rss.py CEILING_MB COMMAND [ARG ...]

The command's stdout and stderr pass through, so it can feed a pipe.  Its
peak RSS is the ru_maxrss of this script's waited-for children (KiB on
Linux), printed to stderr in MB of 1024 KiB, as perfbench reports it.
The exit status is the command's when that is nonzero, else 1 when the
peak exceeds CEILING_MB, else 0.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ceiling = float(argv[0])
    code = subprocess.call(argv[1:])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB, ceiling {ceiling:g} MB", file=sys.stderr)
    if code:
        return code if code > 0 else 128 - code
    return 1 if peak > ceiling else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
