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
ladder.  Every phase is timed on its own, over inputs made before the timer
starts: the chain build (``build_chain`` on a ladder copy), the elimination
(``solver._eliminate`` on a built chain), the back-substitution
(``solve_structured`` on a built chain, with the elimination handing back
the k and h it stored and the residual check off), the residual check
(``residual_norm``) and the whole close (build and ``solve_structured`` on
a ladder copy).  No phase is a difference of two timed calls.  A phase's
figure is its fastest pass over all the tree's processes, a pass being the
mean of ``--number`` calls (fewer at depth 62), in µs; its spread is its
range over the processes' own fastest passes.

The digest is the sha256 over the solution and the residual of every close
in a seeded set: all three variants, single chains, stacks and stacks of
one, one to three right-hand-side columns, with and without a ladder.  Two
trees that solve alike print the same digest.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _phases(depth: int) -> dict:
    """The phases at one depth: name -> (make, call, stored), where ``make()``
    gives one call's input and ``stored`` is the k and h that the elimination
    hands back while the phase runs (None: it eliminates)."""
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

    def chain() -> object:
        return build_chain(params, x, "nonreneging", ladder())

    blocks = chain()
    v = solve_structured(blocks, rhs)
    return {
        "build": (ladder, lambda lad: build_chain(params, x, "nonreneging", lad), None),
        "elimination": (chain, lambda blk: solver._eliminate(blk, cols), None),
        "back_substitution": (lambda: blocks, lambda blk: solve_structured(blk, rhs),
                              solver._eliminate(chain(), cols)),
        "residual": (lambda: blocks, lambda blk: residual_norm(blk, v, rhs), None),
        "close": (ladder, lambda lad: solve_structured(build_chain(params, x, "nonreneging", lad), rhs),
                  None),
    }


@contextlib.contextmanager
def _stored(stored):
    """Within the block, the elimination hands back ``stored`` and the
    residual check passes; nothing changes if ``stored`` is None."""
    from feedbackq import solver

    if stored is None:
        yield
        return
    eliminate, check = solver._eliminate, solver._check_residual
    solver._eliminate, solver._check_residual = (lambda *args: stored), (lambda *args: None)
    try:
        yield
    finally:
        solver._eliminate, solver._check_residual = eliminate, check


def close_times(passes: int, number: int) -> dict:
    """Each phase's fastest pass at each depth, in µs."""
    out = {}
    for depth in DEPTHS:
        phases = _phases(depth)
        count = max(number * 12 // max(depth, 12), 1)
        best = dict.fromkeys(phases, float("inf"))
        for _ in range(passes):
            for name, (make, call, stored) in phases.items():
                inputs = [make() for _ in range(count)]
                with _stored(stored):
                    start = time.perf_counter()
                    for item in inputs:
                        call(item)
                    best[name] = min(best[name], (time.perf_counter() - start) / count * 1e6)
        out[str(depth)] = best
    return out


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
        for depth, phases in results[0]["best_us"].items():
            each = {name: [r["best_us"][depth][name] for r in results] for name in phases}
            best[depth] = {name: min(us) for name, us in each.items()}
            spread[depth] = {name: max(us) - min(us) for name, us in each.items()}
        out[tree] = {"digest": digests.pop(), "best_us": best, "spread_us": spread}
    print(json.dumps({"processes": args.processes, "trees": out}))


if __name__ == "__main__":
    main()
