"""One line per input of a bench workload and seed: the seed, the input's
label, the sha256 of its record, and its failure text, if any.

Usage, from the root of a source checkout:

    python tools/records.py --workload sweep_shallow --seed 1 2 3

The library comes from ``src/`` and the workloads from ``bench/`` of the
checkout the script sits in; ``bench/`` is only imported.  Each input runs
once through its op and is checked as ``bench/run.py`` checks it, and the
digest is the one ``bench/run.py`` compares between runs (sha256 of the
record's repr).  Run it in two checkouts with the same seed and diff the
outputs: each input whose record or failure moved is a changed line.
Nothing is timed and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    for seed in args.seed:
        for inp in workload.inputs(seed):
            try:
                rec = workload.record(inp, workload.run(inp))
            except Exception as exc:  # listed as the bench lists a failing op
                print(f"{seed}\t{inp.describe()}\t-\t{type(exc).__name__}: {exc}")
                continue
            problem = workload.check(inp, rec)
            failure = "" if problem is None else f"CheckFailed: {problem}"
            digest = hashlib.sha256(repr(rec).encode()).hexdigest()
            print(f"{seed}\t{inp.describe()}\t{digest}\t{failure}")


if __name__ == "__main__":
    main()
