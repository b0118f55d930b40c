"""Command-line surface with machine-readable output.

Every subcommand prints one JSON record (or plot-ready CSV where noted) of
the shape ``{command, params, result, diagnostics, version}``.  The exit
code is 0 only when every requested check passed its tolerance; parameter
errors exit 2 and failed internal checks exit 1.  All randomness flows from
``--seed`` (default 0) unless ``--seed-from-entropy`` is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .analytics import renege_probability, stationary_threshold
from .equilibrium import (
    CASE_MIXED,
    EquilibriumResult,
    ess_check,
    nash_n,
    nash_r,
)
from .model import ModelParams, as_threshold, inverse_index
from .paradox import paradox1_check, paradox2_check
from .simulate import SimConfig, simulate_renege_fraction, simulate_stationary, simulate_tagged
from .solver import (
    RESIDUAL_TOL,
    ConsistencyError,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    sojourn_vector,
)
from .equilibrium import ROOT_TOL
from .welfare import curve_to_csv, is_unimodal, welfare_curve

_TOLERANCES = {"residual": RESIDUAL_TOL, "root": ROOT_TOL}


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(args.lam, args.mu, args.q, getattr(args, "r0", 0.0) or 0.0)


def _record(command: str, params: ModelParams, result, diagnostics=None) -> dict:
    return {
        "command": command,
        "params": {"lambda": params.lam, "mu": params.mu, "q": params.q, "r0": params.r0},
        "result": result,
        "diagnostics": {"residuals": diagnostics or {}, "tolerances": _TOLERANCES},
        "version": __version__,
    }


def _emit(record: dict) -> None:
    print(json.dumps(_plain(record), sort_keys=True))


def _plain(obj):
    """Recursively convert dataclasses/arrays to JSON-serialisable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _equilibrium_payload(res: EquilibriumResult) -> dict:
    payload = {
        "mode": res.mode,
        "case": res.case,
        "x": res.x,
        "m": res.m,
        "interval": res.interval,
    }
    if res.critical is not None:
        payload["critical"] = {
            "m": res.critical.m,
            "alpha": res.critical.alpha,
            "beta": res.critical.beta,
            "gamma": res.critical.gamma,
        }
    if res.residual is not None:
        payload["residual"] = res.residual
    return payload


def cmd_sojourn(args: argparse.Namespace) -> int:
    params = _params_from(args)
    x = args.threshold
    if args.mode == "n":
        vec = sojourn_vector(params, x)
        payoffs = payoff_vector_n(params, x) if args.r0 else None
    else:
        if not args.r0:
            raise ValueError("the reneging table needs --r0 to value successful completions")
        tagged = args.tagged_threshold
        th = as_threshold(x)
        ceiling = th.n if th.is_integer else th.n + 1
        if tagged is not None and abs(tagged - th.x) <= 1e-12:
            vec = payoff_vector_r_all(params, x)
        elif tagged is None or tagged >= ceiling - 1e-12:
            vec = payoff_vector_r_tagged(params, x)
        else:
            raise ValueError(
                "--tagged-threshold must equal the population threshold or be at "
                "least its ceiling (a never-reneging tagged customer)"
            )
        payoffs = None

    states = range(1, vec.depth + 1) if not args.full else range(1, len(vec.values) + 1)
    rows = []
    for s in states:
        if args.full:
            i, j = inverse_index(s)
        else:
            i = j = s
        row = {"i": i, "j": j, "value": vec.at(i, j)}
        if payoffs is not None:
            row["payoff"] = payoffs.at(i, j)
        rows.append(row)

    if args.format == "csv":
        cols = ["i", "j", "value"] + (["payoff"] if payoffs is not None else [])
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) if c in ("i", "j") else repr(float(row[c])) for c in cols))
    else:
        _emit(_record("sojourn", params, {"kind": vec.kind, "threshold": x, "rows": rows}))
    return 0


def cmd_equilibrium(args: argparse.Namespace) -> int:
    params = _params_from(args)
    result: dict = {}
    diagnostics: dict = {}
    root_evals: dict = {}
    for mode, nash in (("n", nash_n), ("r", nash_r)):
        if args.mode not in (mode, "both"):
            continue
        res = nash(params)
        result[mode] = _equilibrium_payload(res)
        root_evals[f"nash_{mode}_root"] = res.root_evals
        if res.residual is not None:
            diagnostics[f"nash_{mode}_root"] = res.residual
    if args.ess:
        base = result.get("n") or result.get("r")
        grid = np.round(np.arange(0.0, base["x"] + 2.0 + 1e-9, args.ess_step), 12)
        report = ess_check(params, base["x"], grid)
        result["ess"] = {
            "is_ess": report.is_ess,
            "checked": report.checked,
            "strict_best": report.strict_best,
            "tie_resolved": report.tie_resolved,
            "failures": list(report.failures),
            "note": report.note,
        }
    record = _record("equilibrium", params, result, diagnostics)
    record["diagnostics"]["root_evals"] = root_evals
    _emit(record)
    if args.ess and not result["ess"]["is_ess"] and not result["ess"]["note"]:
        return 1
    return 0


def cmd_welfare(args: argparse.Namespace) -> int:
    params = _params_from(args)
    curve = welfare_curve(params, step=args.grid_step, x_max=args.x_max)
    if args.format == "csv":
        curve_to_csv(curve, sys.stdout)
        return 0
    unimodal_n = is_unimodal(curve.s_n)
    unimodal_r = is_unimodal(curve.s_r)
    result = {
        "n_star": curve.n_star,
        "s_star": curve.s_star,
        "unimodal_n": unimodal_n,
        "unimodal_r": unimodal_r,
        "curve": [
            {"x": float(x), "s_n": float(a), "s_r": float(b)}
            for x, a, b in zip(curve.x, curve.s_n, curve.s_r)
        ],
    }
    _emit(_record("welfare", params, result))
    return 0 if (unimodal_n and unimodal_r) else 1


def cmd_paradox(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.r0_2 is not None:
        base = nash_n(params)
        if base.case != CASE_MIXED:
            raise ValueError(
                "the reward comparison needs a mixed equilibrium at --r0; "
                f"got case {base.case!r}"
            )
        report = paradox1_check(params, base.m, params.r0, args.r0_2)
    else:
        report = paradox2_check(params)
    payload = _plain(report)
    payload["all_hold"] = report.all_hold
    _emit(_record("paradox", params, payload))
    return 0 if report.all_hold else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    seed = secrets.randbits(63) if args.seed_from_entropy else args.seed
    config = SimConfig(
        params=params,
        x=args.threshold,
        x_tag=args.tagged_threshold,
        mode=args.mode,
        reps=args.reps,
        events=args.events,
        seed=seed,
        warmup=args.warmup,
    )
    what = args.what
    if what == "auto":
        what = "tagged" if args.start else "stationary"
    if what == "tagged":
        if not args.start:
            raise ValueError("tagged runs need --start i,j")
        i, j = (int(v) for v in args.start.split(","))
        sim = simulate_tagged(config, (i, j))
    elif what == "renege":
        sim = simulate_renege_fraction(config)
    else:
        sim = simulate_stationary(config, track_payoffs=args.track_payoffs)
    result = {
        "what": what,
        "seed": seed,
        "estimates": {
            k: {"mean": e.mean, "se": e.se, "count": e.count} for k, e in sim.estimates.items()
        },
    }
    if sim.histogram is not None:
        result["histogram"] = sim.histogram.tolist()
        result["histogram_se"] = sim.histogram_se.tolist()
        analytic = stationary_threshold(params, args.threshold, config.mode).probs
        result["histogram_analytic"] = analytic.tolist()
    if what == "renege":
        result["renege_analytic"] = renege_probability(params, args.threshold)
    _emit(_record("simulate", params, result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedbackq",
        description="Strategic-customer analysis of an observable M/M/1 feedback queue",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rates(p: argparse.ArgumentParser, r0_required: bool = False) -> None:
        p.add_argument("--lambda", dest="lam", type=float, required=True, help="arrival rate")
        p.add_argument("--mu", type=float, required=True, help="service rate")
        p.add_argument("--q", type=float, required=True, help="per-service success probability")
        p.add_argument(
            "--r0", type=float, required=r0_required, default=0.0, help="reward on success"
        )

    p = sub.add_parser("sojourn", help="positional sojourn times / payoffs under a threshold")
    add_rates(p)
    p.add_argument("--threshold", type=float, required=True, help="population threshold")
    p.add_argument("--mode", choices=["n", "r"], default="n")
    p.add_argument("--tagged-threshold", type=float, default=None)
    p.add_argument("--full", action="store_true", help="emit every state, not just (j, j)")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_sojourn)

    p = sub.add_parser("equilibrium", help="Nash equilibrium thresholds")
    add_rates(p, r0_required=True)
    p.add_argument("--mode", choices=["n", "r", "both"], default="both")
    p.add_argument("--ess", action="store_true", help="grid-check evolutionary stability")
    p.add_argument("--ess-step", type=float, default=0.05)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("welfare", help="welfare curves and the socially optimal threshold")
    add_rates(p, r0_required=True)
    p.add_argument("--grid-step", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_welfare)

    p = sub.add_parser("paradox", help="worse-off comparisons across equilibria")
    add_rates(p, r0_required=True)
    p.add_argument("--r0-2", type=float, default=None, help="second reward for the reward comparison")
    p.set_defaults(func=cmd_paradox)

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    add_rates(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--tagged-threshold", type=float, default=None)
    p.add_argument("--mode", choices=["n", "r"], default="n")
    p.add_argument("--what", choices=["auto", "tagged", "stationary", "renege"], default="auto")
    p.add_argument("--start", type=str, default=None, help="tagged start state as i,j")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--events", type=int, default=1_000_000)
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-from-entropy", action="store_true")
    p.add_argument("--track-payoffs", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the interpreter's final flush stays silent, and exit 1 as Python
        # itself does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "version": __version__}), file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(json.dumps({"diagnostic": str(exc), "version": __version__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
