"""Best in-process time of each README command, over fresh processes per
source tree, and a digest of each command's stdout, as one JSON line.

Usage: python tools/readme_times.py [--processes P] [--passes N] [TREE ...]

Each TREE is a source checkout (default: the one this script sits in); its
``src/`` is imported by ``P`` fresh processes, the trees taking turns and
swapping their order from round to round.  The commands are read from this
script's ``tests/readme_commands.json`` (the README's eight, in order), so
every tree runs the same ones.  A process runs all eight through
``feedbackq.cli.main`` ``N`` times with output captured; a command's figure
in a process is its fastest pass, in ms (the first pass, which may build
the CLI parser, is timed like the rest).  The line reports, per tree and
command, the best figure over the processes (``best_ms``), their range
(``spread_ms``) and the sha256 of the command's stdout (``stdout_sha256``),
which every pass of every process of a tree must agree on, and the
geometric mean of the best figures (``gmean_ms``).  Two trees that print
alike show the same digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ROOT / "tests" / "readme_commands.json"


def readme_times(passes: int) -> dict:
    """Each command's fastest pass in ms and the sha256 of its stdout."""
    from feedbackq import cli

    commands = [rec["command"] for rec in json.loads(COMMANDS.read_text())]
    best = dict.fromkeys(commands, float("inf"))
    digests: dict = {command: set() for command in commands}
    for _ in range(passes):
        for command in commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                cli.main(command.split()[1:])
                elapsed = time.perf_counter() - start
            best[command] = min(best[command], elapsed * 1e3)
            digests[command].add(hashlib.sha256(sink.getvalue().encode()).hexdigest())
    for command, seen in digests.items():
        if len(seen) != 1:
            raise SystemExit(f"passes disagree on the stdout of {command!r}")
    return {command: {"ms": best[command], "sha256": digests[command].pop()} for command in commands}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(readme_times(args.passes)))
        return
    trees = [str(tree.resolve()) for tree in args.trees]
    runs: dict = {tree: [] for tree in trees}
    for turn in range(args.processes):
        for tree in trees if turn % 2 == 0 else trees[::-1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            command = [sys.executable, __file__, "--child", "--passes", str(args.passes)]
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
            runs[tree].append(json.loads(done.stdout))
    out = {}
    for tree, results in runs.items():
        commands = {}
        for command in results[0]:
            ms = [r[command]["ms"] for r in results]
            digests = {r[command]["sha256"] for r in results}
            if len(digests) != 1:
                raise SystemExit(f"{tree}: processes disagree on the stdout of {command!r}")
            commands[command] = {"best_ms": min(ms), "spread_ms": max(ms) - min(ms),
                                 "stdout_sha256": digests.pop()}
        gmean = statistics.geometric_mean([c["best_ms"] for c in commands.values()])
        out[tree] = {"gmean_ms": gmean, "commands": commands}
    print(json.dumps({"processes": args.processes, "passes": args.passes, "trees": out}))


if __name__ == "__main__":
    main()
