"""One line per seeded draw of the ESS check: the seed, the draw, which
threshold was checked, rho, the threshold, the verdict, the counts of
deviations checked / strictly worse / tied, the number of failures and a
digest of them.

Usage, from the root of a source checkout:

    python tools/ess_sweep.py --seed 2021 --draws 300

Each draw takes mu in (0.2, 2), q in (0.1, 1), rho = lam / (mu q)
log-uniform in [0.05, 5] and r0 mu q in (1, 15), then a threshold x_any
uniform in (0, 4).  Two lines follow: ``eq`` checks the no-reneging Nash
threshold x_e, ``any`` checks x_any, each over the CLI's ``--ess`` grid (step
0.05 from 0 to x + 2).  The library comes from ``src/`` of the checkout the
script sits in.  Run it in two checkouts with the same seeds and diff the
outputs: each draw whose verdict moved is a changed line.

``--oracle-depth D`` adds a last column: whether the exact oracle of
``tests/ess_oracle.py`` gives the same verdict on every deviation (``agree``
or ``differ``), for thresholds whose chain depth is at most D (``-`` beyond).
Nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import ess_oracle  # noqa: E402
from feedbackq import ModelParams, ess_check, nash_n  # noqa: E402


def draw(rng: np.random.Generator) -> tuple[ModelParams, float]:
    """One draw's parameters and its arbitrary threshold x_any."""
    mu = rng.uniform(0.2, 2.0)
    q = rng.uniform(0.1, 1.0)
    rho = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    r0 = rng.uniform(1.0, 15.0) / (mu * q)
    return ModelParams(rho * mu * q, mu, q, r0), float(rng.uniform(0.0, 4.0))


def oracle_column(params: ModelParams, x: float, grid: np.ndarray, report, depth_limit: int) -> str:
    if ess_oracle.depth(x) > depth_limit:
        return "-"
    verdicts = ess_oracle.verdicts(params.lam, params.mu, params.q, params.r0, x, grid)
    same = (
        report.failures == tuple(dx for dx, v in verdicts if v == ess_oracle.FAIL)
        and report.strict_best == sum(v == ess_oracle.WORSE for _, v in verdicts)
        and report.tie_resolved == sum(v == ess_oracle.TIE for _, v in verdicts)
    )
    return "agree" if same else "differ"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[2021])
    parser.add_argument("--draws", type=int, default=300)
    parser.add_argument("--oracle-depth", type=int, default=0)
    args = parser.parse_args()
    for seed in args.seed:
        rng = np.random.default_rng(seed)
        for i in range(args.draws):
            params, x_any = draw(rng)
            for kind in ("eq", "any"):
                x = x_any
                try:
                    x = nash_n(params).x if kind == "eq" else x_any
                    grid = np.round(np.arange(0.0, x + 2.0 + 1e-9, 0.05), 12)
                    report = ess_check(params, x, grid)
                except Exception as exc:  # listed, as tools/records.py lists a failing op
                    print(f"{seed}\t{i}\t{kind}\t{params.rho:.6g}\t{x!r}\t-\t{type(exc).__name__}: {exc}")
                    continue
                digest = hashlib.sha256(repr(report.failures).encode()).hexdigest()[:16]
                line = (
                    f"{seed}\t{i}\t{kind}\t{params.rho:.6g}\t{x!r}\t"
                    f"{'ess' if report.is_ess else 'not-ess'}\t"
                    f"{report.checked}/{report.strict_best}/{report.tie_resolved}\t"
                    f"{len(report.failures)}\t{digest}"
                )
                if args.oracle_depth:
                    line += "\t" + oracle_column(params, x, grid, report, args.oracle_depth)
                print(line)


if __name__ == "__main__":
    main()
