"""Best time of each phase of one ladder close, over fresh processes per
source tree, and a digest of the bytes of a seeded set of closes, as one
JSON line.

Usage: python tools/close_times.py [--processes P] [--passes N] [--number K] [TREE ...]

Each TREE is a source checkout (default: the one this script sits in); its
``src/`` is imported by ``P`` fresh processes, the trees taking turns and
swapping their order from round to round.  A process times the phases and
computes the digest; the line reports, per tree, each phase's best over the
processes (``best_us``) with its spread over them (``spread_us``), and the
digest, which every process of a tree must agree on.

The timed close is the no-reneging sojourn chain at the integer threshold
depth - 1, on a ladder whose rungs (levels 1 .. depth - 2) are already
eliminated, so the close eliminates two levels of its own: the alpha/beta
close of an equilibrium ascent.  Each timed call gets its own copy of that
ladder.  For each depth the phases are the chain build (``build_chain``),
the elimination (``solver._eliminate``), the residual check
(``residual_norm``) and the whole close (build and ``solve_structured``);
back-substitution is the solve with its residual check switched off, less
the elimination.  Each timed call's figure is its fastest pass over all
the tree's processes, a pass being the mean of ``--number`` calls (fewer at
depth 62), in µs; the phases are taken from those figures, and a phase's
spread is its range over the phases each process gives alone.

The digest is the sha256 over the solution and the residual of every close
in a seeded set: all three variants, single chains, stacks and stacks of
one, one to three right-hand-side columns, with and without a ladder.  Two
trees that solve alike print the same digest.
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
DEPTHS = (2, 4, 7, 12, 62)
VARIANTS = ("nonreneging", "reneging_tagged", "reneging_all")
DIGEST_SEED = 22


def _phases(depth: int):
    """The timed calls at one depth: phase name -> zero-argument callable."""
    from feedbackq import Ladder, ModelParams, build_chain, build_rhs_sojourn, residual_norm, solve_structured
    from feedbackq import solver

    params = ModelParams(1.0, 0.8, 0.4, 7.8)
    x = float(depth - 1)
    rhs = build_rhs_sojourn(params, depth)
    cols = rhs[:, None]
    base = Ladder(params)
    solve_structured(build_chain(params, x, "nonreneging", base), rhs)

    def ladder() -> Ladder:
        return Ladder(params, list(base.joining), base.cols)

    blocks = build_chain(params, x, "nonreneging", ladder())
    v = solve_structured(blocks, rhs)

    def unchecked() -> None:
        check, solver._check_residual = solver._check_residual, lambda *args: None
        try:
            solve_structured(build_chain(params, x, "nonreneging", ladder()), rhs)
        finally:
            solver._check_residual = check

    return {
        "build": lambda: build_chain(params, x, "nonreneging", ladder()),
        "elimination": lambda: solver._eliminate(build_chain(params, x, "nonreneging", ladder()), cols),
        "unchecked": unchecked,
        "residual": lambda: residual_norm(blocks, v, rhs),
        "close": lambda: solve_structured(build_chain(params, x, "nonreneging", ladder()), rhs),
        "setup": lambda: ladder(),
    }


def close_times(passes: int, number: int) -> dict:
    """Each timed call's best time at each depth, in µs."""
    out = {}
    for depth in DEPTHS:
        phases = _phases(depth)
        count = max(number * 12 // max(depth, 12), 1)
        best = dict.fromkeys(phases, float("inf"))
        for _ in range(passes):
            for name, call in phases.items():
                start = time.perf_counter()
                for _ in range(count):
                    call()
                best[name] = min(best[name], (time.perf_counter() - start) / count * 1e6)
        out[str(depth)] = best
    return out


def phases(best: dict) -> dict:
    """The phases at one depth from its timed calls' best times: every timed
    call but the residual's copies a ladder and builds the chain."""
    return {
        "build": best["build"] - best["setup"],
        "elimination": best["elimination"] - best["build"],
        "back_substitution": best["unchecked"] - best["elimination"],
        "residual": best["residual"],
        "close": best["close"] - best["setup"],
    }


def close_digest() -> str:
    """sha256 over the solutions and residuals of the seeded set of closes."""
    import numpy as np

    from feedbackq import Ladder, ModelParams, build_chain, residual_norm, solve_structured
    from feedbackq.model import num_states

    rng = np.random.default_rng(DIGEST_SEED)
    digest = hashlib.sha256()
    for _ in range(6):
        params = ModelParams(*rng.uniform((0.1, 0.1, 0.05), (2.0, 2.0, 1.0)))
        n = int(rng.integers(0, 8))
        for variant in VARIANTS:
            for width in (1, 2, 3):
                base = rng.uniform(-1.0, 1.0, (num_states(n + 2), width))
                for ladder in (None, Ladder(params)):
                    for th in (float(n), n + 0.5, [n + 0.25, n + 0.75], [n + 0.5]):
                        blocks = build_chain(params, th, variant, ladder)
                        rhs = base[: blocks.num_states]
                        rhs = rhs[:, 0] if width == 1 else rhs
                        v = solve_structured(blocks, rhs)
                        digest.update(v.tobytes())
                        digest.update(np.asarray(residual_norm(blocks, v, rhs)).tobytes())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--number", type=int, default=200)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps({"best_us": close_times(args.passes, args.number), "digest": close_digest()}))
        return
    trees = [str(tree.resolve()) for tree in args.trees]
    runs: dict = {tree: [] for tree in trees}
    for turn in range(args.processes):
        for tree in trees if turn % 2 == 0 else trees[::-1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            command = [sys.executable, __file__, "--child", "--passes", str(args.passes),
                       "--number", str(args.number)]
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
            runs[tree].append(json.loads(done.stdout))
    out = {}
    for tree, results in runs.items():
        digests = {r["digest"] for r in results}
        if len(digests) != 1:
            raise SystemExit(f"{tree}: processes disagree on the close digest: {sorted(digests)}")
        best, spread = {}, {}
        for depth, calls in results[0]["best_us"].items():
            best[depth] = phases({name: min(r["best_us"][depth][name] for r in results) for name in calls})
            each = [phases(r["best_us"][depth]) for r in results]
            spread[depth] = {name: max(p[name] for p in each) - min(p[name] for p in each)
                             for name in each[0]}
        out[tree] = {"digest": digests.pop(), "best_us": best, "spread_us": spread}
    print(json.dumps({"processes": args.processes, "trees": out}))


if __name__ == "__main__":
    main()
