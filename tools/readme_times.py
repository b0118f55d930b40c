"""Best in-process time of each README command, as one JSON line.

Usage: PYTHONPATH=src python tools/readme_times.py [--passes N]

The commands are read from ``tests/readme_commands.json`` (the README's
eight, in order).  Each pass runs all eight through ``feedbackq.cli.main``
with output captured; a command's figure is its fastest pass, in ms.  The
first pass, which may build the CLI parser, is timed like the rest.  Run it
against two source trees alternately to compare them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time
from pathlib import Path

from feedbackq import cli

COMMANDS = Path(__file__).resolve().parents[1] / "tests" / "readme_commands.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=12)
    args = parser.parse_args()
    argvs = [rec["command"].split()[1:] for rec in json.loads(COMMANDS.read_text())]
    best = [float("inf")] * len(argvs)
    for _ in range(args.passes):
        for index, argv in enumerate(argvs):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                cli.main(list(argv))
                elapsed = time.perf_counter() - start
            best[index] = min(best[index], elapsed)
    ms = [b * 1e3 for b in best]
    print(json.dumps({"best_ms": ms, "gmean_ms": statistics.geometric_mean(ms)}))


if __name__ == "__main__":
    main()
