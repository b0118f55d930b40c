"""Paired runs of the benchmark on two source checkouts, written as one
BENCH JSON file.

Usage, from anywhere:

    python tools/bench_pairs.py --parent PARENT --change CHANGE --out BENCH_<pr>.json \\
        [--workload sweep_shallow cli_readme] [--pairs 10] [--seconds 50] [--seed 1]

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, for every workload in turn, from that
checkout's root.  The side that runs first alternates from pair to pair
(pair 1 parent first).  Pairs 1 .. N-1 run at ``--seed``; the last pair runs
at a held-out seed drawn from the OS before the first run and passed to both
sides.  The file records the machine, each checkout's git HEAD, whether its
tree differs from HEAD and the sha256 of its ``src/feedbackq/*.py``, the
run order, every result line with the failing inputs of its run, and per
workload and end-to-end metric the medians, the quartiles
(``statistics.quantiles``, inclusive) and the pairs the change won, in the
direction ``BENCHMARK.json`` gives.  The file is rewritten after every run,
so an interrupted session keeps the runs made so far.  Nothing under
``bench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import secrets
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload W --seed S --seconds T --trace 0"
SIDES = ("parent", "change")


def checkout(path: Path) -> dict:
    """Git HEAD, whether the tree differs from it, and the sha256 over the
    library's sources, in name order."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    src = hashlib.sha256()
    for f in sorted((path / "src" / "feedbackq").glob("*.py")):
        src.update(f.read_bytes())
    return {"head": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
            "src_sha256": src.hexdigest()}


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run: its result line and the failed ops of each failing input."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=path, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    out = {"returncode": done.returncode, "finished_at_utc": time.strftime("%H:%M:%S", time.gmtime())}
    if done.returncode != 0 or len(lines) < 2:
        out["stderr_tail"] = done.stderr[-2000:]
        return out
    out["result_line"] = json.loads(lines[-1])
    failed: dict[str, int] = {}
    for failure in json.loads(lines[-2]).get("failures", []):
        failed[failure["input"]] = failed.get(failure["input"], 0) + 1
    out["failed_inputs"] = failed
    return out


def summarize(runs: list[dict], workloads: list[str], better: dict[str, str]) -> dict:
    """Per workload and metric: medians, quartiles and pairs won by the change."""
    out = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and "result_line" in r]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r["result_line"] for r in mine}
        full = [p for p in pairs if all((p, s) in side for s in SIDES)]
        summary: dict = {}
        for name, direction in better.items() if full else ():
            values = {s: [side[p, s]["metrics"][name]["value"] for p in full] for s in SIDES}
            entry = {}
            for s in SIDES:
                entry[f"{s}_median"] = statistics.median(values[s])
                if len(full) > 1:
                    q = statistics.quantiles(values[s], n=4, method="inclusive")
                    entry[f"{s}_quartiles"] = [q[0], q[2]]
            sign = -1.0 if direction == "lower" else 1.0
            entry["change_better_pairs"] = sum(
                sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
            entry["pairs"] = len(full)
            entry["change_vs_parent_median"] = entry["change_median"] / entry["parent_median"] - 1.0
            summary[name] = entry
        summary["failed_of_attempted"] = {
            s: [[side[p, s]["failed"], side[p, s]["attempted"]] for p in pairs if (p, s) in side]
            for s in SIDES}
        out[workload] = summary
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", default=["sweep_shallow", "cli_readme"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the last pair runs on a held-out seed")
    paths = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    held_out = secrets.randbits(32)
    import numpy

    doc = {
        "description": (
            f"Paired runs of `{COMMAND}` with T = {args.seconds:g} on the parent and on the change, each "
            f"from its own checkout, alternating which side runs first (pair 1 parent first). Pairs 1-"
            f"{args.pairs - 1} ran at seed {args.seed}; pair {args.pairs} ran on held_out_seed, drawn "
            "from the OS before the first run. Quartiles are statistics.quantiles(method='inclusive'); "
            "failed_inputs counts each failing input's failed ops in that run. Written by "
            "tools/bench_pairs.py."
        ),
        "checkouts": {s: checkout(p) for s, p in paths.items()},
        "machine": {"machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "command": COMMAND,
        "seconds": args.seconds,
        "held_out_seed": held_out,
        "summary": {},
        "runs": [],
    }
    for pair in range(1, args.pairs + 1):
        seed = held_out if pair == args.pairs else args.seed
        for workload in args.workload:
            for s in SIDES if pair % 2 else SIDES[::-1]:
                run = {"workload": workload, "side": s, "pair": pair, "seed": seed,
                       "held_out": pair == args.pairs}
                run.update(run_once(paths[s], workload, seed, args.seconds))
                doc["runs"].append(run)
                doc["summary"] = summarize(doc["runs"], args.workload, better)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"pair {pair} {workload} {s}: {run.get('result_line', run.get('stderr_tail'))}",
                      flush=True)


if __name__ == "__main__":
    main()
