"""Best in-process time of each phase of one ladder close, as one JSON line.

Usage: PYTHONPATH=src python tools/close_times.py [--passes N] [--number K]

The close is the no-reneging sojourn chain at the integer threshold
depth - 1, on a ladder whose rungs (levels 1 .. depth - 2) are already
eliminated, so the close eliminates two levels of its own: the alpha/beta
close of an equilibrium ascent.  Each timed call gets its own copy of that
ladder.  For each depth the phases are the chain build (``build_chain``),
the elimination (``solver._eliminate``), the residual check
(``residual_norm``) and the whole close (build and ``solve_structured``);
back-substitution is the solve with its residual check switched off, less
the elimination.  A phase's figure is the fastest of ``--passes`` passes,
each the mean of ``--number`` calls (fewer at depth 62), in µs.  Run it
against two source trees alternately to compare them.
"""

from __future__ import annotations

import argparse
import json
import time

from feedbackq import Ladder, ModelParams, build_chain, build_rhs_sojourn, residual_norm, solve_structured
from feedbackq import solver

DEPTHS = (2, 4, 7, 12, 62)
PARAMS = ModelParams(1.0, 0.8, 0.4, 7.8)


def _phases(depth: int):
    """The timed calls at one depth: phase name -> zero-argument callable."""
    x = float(depth - 1)
    rhs = build_rhs_sojourn(PARAMS, depth)
    cols = rhs[:, None]
    base = Ladder(PARAMS)
    solve_structured(build_chain(PARAMS, x, "nonreneging", base), rhs)

    def ladder() -> Ladder:
        return Ladder(PARAMS, list(base.joining), base.cols)

    blocks = build_chain(PARAMS, x, "nonreneging", ladder())
    v = solve_structured(blocks, rhs)

    def unchecked() -> None:
        check, solver._check_residual = solver._check_residual, lambda *args: None
        try:
            solve_structured(build_chain(PARAMS, x, "nonreneging", ladder()), rhs)
        finally:
            solver._check_residual = check

    return {
        "build": lambda: build_chain(PARAMS, x, "nonreneging", ladder()),
        "elimination": lambda: solver._eliminate(build_chain(PARAMS, x, "nonreneging", ladder()), cols),
        "unchecked": unchecked,
        "residual": lambda: residual_norm(blocks, v, rhs),
        "close": lambda: solve_structured(build_chain(PARAMS, x, "nonreneging", ladder()), rhs),
        "setup": lambda: ladder(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args()
    out = {}
    for depth in DEPTHS:
        phases = _phases(depth)
        number = max(args.number * 12 // max(depth, 12), 1)
        best = dict.fromkeys(phases, float("inf"))
        for _ in range(args.passes):
            for name, call in phases.items():
                start = time.perf_counter()
                for _ in range(number):
                    call()
                best[name] = min(best[name], (time.perf_counter() - start) / number * 1e6)
        # every timed call but the residual's copies a ladder and builds the chain
        setup, build = best.pop("setup"), best["build"]
        out[depth] = {
            "build": build - setup,
            "elimination": best["elimination"] - build,
            "back_substitution": best.pop("unchecked") - best["elimination"],
            "residual": best["residual"],
            "close": best["close"] - setup,
        }
    print(json.dumps({"best_us": out}))


if __name__ == "__main__":
    main()
