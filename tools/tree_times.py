"""Best time of each item of one suite, over fresh processes per source
tree, and a digest of each item's output, as one JSON line.

Usage: python tools/tree_times.py SUITE [TREE ...] [--processes P] [--passes N]

SUITE is ``readme``, ``engine`` or ``close``; each suite's function below
says what its items are, how they are timed, in which unit and with how many
passes by default.

Each TREE is a source checkout (default: the one this script sits in); its
``src/`` is imported by ``P`` fresh processes, the trees taking turns and
swapping their order from round to round.  A process makes every item once
per pass and keeps each item's fastest pass; every pass must agree on an
item's digest.  The line reports each tree by its git HEAD, whether its
tree differs from HEAD and the sha256 of its sources (``checkout`` of
``tools/bench_pairs.py``), and per item the best figure over the processes
(``best``), their range (``spread``) and the digest (``sha256``), which
every process of a tree must agree on, and the geometric mean of the best
figures (``gmean``).  Two trees that compute alike show the same digests.
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
from unittest import mock

from bench_pairs import checkout

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ROOT / "tests" / "readme_commands.json"
EVENTS = 1_000_000
RENEGE = (1.0, 0.8, 0.8, 18.0)
RUNS = {
    "renege_x2.5": ("renege", RENEGE, 2.5),
    "stationary_payoffs_x2.073": ("stationary", (1.0, 0.8, 0.4, 7.8), 2.073),
    **{f"renege_x{x}": ("renege", RENEGE, x) for x in (10.5, 20.5, 50.5, 100.5, 300.5)},
}
DEPTHS = (2, 4, 7, 12, 62)
NUMBER = 200
VARIANTS = ("nonreneging", "reneging_tagged", "reneging_all")
DIGEST_SEED = 22


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def readme() -> dict:
    """The README's eight commands, read from this script's
    ``tests/readme_commands.json`` so that every tree runs the same ones, each
    through ``cli.main`` with output captured (the first pass, which may build
    the CLI parser, is timed like the rest); the digest is the sha256 of the
    command's stdout.  Times in ms; 12 passes by default."""
    from feedbackq import cli

    def item(argv: list[str]):
        def run() -> tuple[float, str]:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                cli.main(argv)
                elapsed = time.perf_counter() - start
            return elapsed, _sha256(sink.getvalue())
        return run

    return {rec["command"]: item(rec["command"].split()[1:]) for rec in json.loads(COMMANDS.read_text())}


def engine() -> dict:
    """1M-event ergodic runs at seed 1: the README's renege fraction
    (1, 0.8, 0.8) at x = 2.5, the per-arrival payoff of ``simulate_stationary``
    at the README's simulate point (1, 0.8, 0.4, 7.8) and x = 2.073, and the
    renege fraction at x = 10.5, 20.5, 50.5, 100.5 and 300.5, whose
    queue-length tables have 13 to 303 levels; the digest is the sha256 of the
    repr of the estimates.  Times in ms; 5 passes by default."""
    from feedbackq import ModelParams, SimConfig, simulate_renege_fraction, simulate_stationary

    def item(what: str, rates: tuple, x: float):
        config = SimConfig(ModelParams(*rates), x, mode="r" if what == "renege" else "n", events=EVENTS, seed=1)

        def run() -> tuple[float, str]:
            start = time.perf_counter()
            if what == "renege":
                result = simulate_renege_fraction(config)
            else:
                result = simulate_stationary(config, track_payoffs=True)
            elapsed = time.perf_counter() - start
            return elapsed, _sha256(repr(sorted((k, e.mean, e.se, e.count) for k, e in result.estimates.items())))
        return run

    return {name: item(*spec) for name, spec in RUNS.items()}


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


def _stored(stored):
    """A patch under which the elimination hands back ``stored`` and the
    residual check passes; no patch if ``stored`` is None."""
    from feedbackq import solver

    if stored is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(solver, _eliminate=lambda *args: stored, _check_residual=lambda *args: None)


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


def close() -> dict:
    """The phases of one ladder close at depths 2, 4, 7, 12 and 62.

    The timed close is the no-reneging sojourn chain at the integer threshold
    depth - 1, on a ladder whose rungs (levels 1 .. depth - 2) are already
    eliminated, so the close eliminates two levels of its own: the alpha/beta
    close of an equilibrium ascent.  Each phase is timed on its own, over
    inputs made before the timer starts: the chain build (``build_chain`` on
    a ladder copy), the elimination (``solver._eliminate`` on a built chain),
    the back-substitution (``solve_structured`` on a built chain, under
    ``_stored``), the residual check (``residual_norm``) and the whole close
    (build and ``solve_structured`` on a ladder copy).  A pass is the mean of
    ``NUMBER`` calls (fewer at depth 62).  Every item carries the digest of
    ``close_digest``.  Times in µs; 20 passes by default.
    """
    digest = close_digest()

    def item(make, call, stored, count: int):  # count bound per item, not read late from a loop
        def run() -> tuple[float, str]:
            inputs = [make() for _ in range(count)]
            with _stored(stored):
                start = time.perf_counter()
                for arg in inputs:
                    call(arg)
                elapsed = time.perf_counter() - start
            return elapsed / count, digest
        return run

    return {f"d{depth}.{name}": item(*phase, max(NUMBER * 12 // max(depth, 12), 1))
            for depth in DEPTHS for name, phase in _phases(depth).items()}


SUITES = {"readme": (readme, 12, "ms"), "engine": (engine, 5, "ms"), "close": (close, 20, "us")}
SCALE = {"ms": 1e3, "us": 1e6}


def child(suite: str, passes: int) -> dict:
    """Each item's fastest pass in seconds and the digest every pass agreed on."""
    items = SUITES[suite][0]()
    best = dict.fromkeys(items, float("inf"))
    digests: dict = {name: set() for name in items}
    for _ in range(passes):
        for name, run in items.items():
            elapsed, digest = run()
            best[name] = min(best[name], elapsed)
            digests[name].add(digest)
    for name, seen in digests.items():
        if len(seen) != 1:
            raise SystemExit(f"passes disagree on the digest of {name!r}")
    return {name: {"s": best[name], "sha256": digests[name].pop()} for name in items}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--passes", type=int, help="default: 12 readme, 5 engine, 20 close")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _, default_passes, unit = SUITES[args.suite]
    passes = default_passes if args.passes is None else args.passes
    if passes < 1 or args.processes < 1:
        parser.error("--passes and --processes must be at least 1")
    if args.child:
        print(json.dumps(child(args.suite, passes)))
        return
    trees = [tree.resolve() for tree in args.trees]
    runs: list[list[dict]] = [[] for _ in trees]
    for turn in range(args.processes):
        order = range(len(trees)) if turn % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            env = dict(os.environ, PYTHONPATH=str(trees[i] / "src"))
            command = [sys.executable, __file__, args.suite, "--child", "--passes", str(passes)]
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True)
            runs[i].append(json.loads(done.stdout))
    out = []
    for i, (tree, results) in enumerate(zip(trees, runs)):
        items = {}
        for name in results[0]:
            times = [r[name]["s"] * SCALE[unit] for r in results]
            digests = {r[name]["sha256"] for r in results}
            if len(digests) != 1:
                raise SystemExit(f"tree {i + 1}: processes disagree on the digest of {name!r}")
            items[name] = {"best": min(times), "spread": max(times) - min(times), "sha256": digests.pop()}
        out.append({"checkout": checkout(tree), "gmean": statistics.geometric_mean(
            [item["best"] for item in items.values()]), "items": items})
    print(json.dumps({"suite": args.suite, "unit": unit, "processes": args.processes, "passes": passes,
                      "trees": out}))


if __name__ == "__main__":
    main()
