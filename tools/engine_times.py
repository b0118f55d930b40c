"""Best time of ergodic-simulator runs, over fresh processes per source
tree, and a digest of each run's estimates, as one JSON line.

Usage: python tools/engine_times.py [--processes P] [--repeats N] [--events E] [TREE ...]

Each TREE is a source checkout (default: the one this script sits in); its
``src/`` is imported by ``P`` fresh processes, the trees taking turns and
swapping their order from round to round.  A process makes each run ``N``
times at seed 1 and keeps its fastest, in ms.  The runs are the README's
renege fraction (1, 0.8, 0.8) at x = 2.5, the per-arrival payoff of
``simulate_stationary`` at the README's simulate point (1, 0.8, 0.4, 7.8)
and x = 2.073, and the renege fraction at x = 10.5, 20.5, 50.5, 100.5 and
300.5, whose queue-length tables have 13 to 303 levels.  The line reports,
per tree and run, the best figure over the processes (``best_ms``), their
range (``spread_ms``) and the sha256 of the repr of its estimates
(``sha256``), which every process of a tree must agree on.  Two trees that
simulate alike show the same digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RENEGE = (1.0, 0.8, 0.8, 18.0)
RUNS = {
    "renege_x2.5": ("renege", RENEGE, 2.5),
    "stationary_payoffs_x2.073": ("stationary", (1.0, 0.8, 0.4, 7.8), 2.073),
    **{f"renege_x{x}": ("renege", RENEGE, x) for x in (10.5, 20.5, 50.5, 100.5, 300.5)},
}


def engine_times(repeats: int, events: int) -> dict:
    """Each run's fastest time in ms and the sha256 of its estimates."""
    from feedbackq import ModelParams, SimConfig, simulate_renege_fraction, simulate_stationary

    out = {}
    for name, (what, rates, x) in RUNS.items():
        mode = "r" if what == "renege" else "n"
        config = SimConfig(ModelParams(*rates), x, mode=mode, events=events, seed=1)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if what == "renege":
                result = simulate_renege_fraction(config)
            else:
                result = simulate_stationary(config, track_payoffs=True)
            best = min(best, time.perf_counter() - start)
        estimates = repr(sorted((k, e.mean, e.se, e.count) for k, e in result.estimates.items()))
        out[name] = {"ms": best * 1e3, "sha256": hashlib.sha256(estimates.encode()).hexdigest()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--events", type=int, default=1_000_000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(engine_times(args.repeats, args.events)))
        return
    trees = [str(tree.resolve()) for tree in args.trees]
    runs: dict = {tree: [] for tree in trees}
    for turn in range(args.processes):
        for tree in trees if turn % 2 == 0 else trees[::-1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            command = [sys.executable, __file__, "--child", "--repeats", str(args.repeats),
                       "--events", str(args.events)]
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
            runs[tree].append(json.loads(done.stdout))
    out = {}
    for tree, results in runs.items():
        out[tree] = {}
        for name in RUNS:
            ms = [r[name]["ms"] for r in results]
            digests = {r[name]["sha256"] for r in results}
            if len(digests) != 1:
                raise SystemExit(f"{tree}: processes disagree on the estimates of {name}")
            out[tree][name] = {"best_ms": min(ms), "spread_ms": max(ms) - min(ms), "sha256": digests.pop()}
    print(json.dumps({"processes": args.processes, "repeats": args.repeats, "events": args.events,
                      "trees": out}))


if __name__ == "__main__":
    main()
