"""The benchmark's workloads: seeded inputs, one op per input, output checks.

Each workload turns a seed into a list of inputs before any timing starts.
An op runs one input through the public library (or the CLI, in process)
and returns its raw output; ``record`` reduces that output to plain values,
outside the timed region, and ``check`` returns a problem string or None.
The record is what the trace-neutrality and determinism checks compare.

sweep_shallow draws its rewards as the workload asks, r0 = D / (mu q) with
D ~ U(0.5, 10), but stratified: every pass holds a fixed number of ops per
(threshold, equilibrium band) cell, in proportion to that cell's measured
probability under this law, so every seed runs the same mix of cheap pure
and costly mixed queries.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import feedbackq as fq
from feedbackq import cli as fq_cli
from feedbackq import paradox as fq_paradox
from feedbackq import welfare as fq_welfare

#: Reference cases and their pinned equilibrium roots, as the test suite's
#: regression fixtures give them (nine decimals).
REFERENCE_CASES = (
    dict(r0=7.8, lam=1.0, mu=0.8, q=0.4, x_e=2.073038608, x_hat_e=2.326937720),
    dict(r0=4.4, lam=1.0, mu=0.8, q=0.8, x_e=2.345401882, x_hat_e=2.444384943),
    dict(r0=13.5, lam=0.8, mu=1.0, q=0.2, x_e=2.528649316, x_hat_e=2.872415200),
)

#: Admitted distance from a pinned root: its rounding plus the root tolerance.
PINNED_ROOT_TOL = 2e-9

#: Monte Carlo estimates must lie within this many standard errors.
MC_SE_BOUND = 4.0

#: The README's command lines, verbatim.
README_COMMANDS = (
    "sojourn --lambda 0.4 --mu 0.6 --q 0.7 --threshold 10",
    "sojourn --lambda 1 --mu 0.8 --q 0.4 --r0 7.5 --threshold 2.5 --mode r --tagged-threshold 3 --format json",
    "equilibrium --lambda 1 --mu 0.8 --q 0.4 --r0 7.8 --ess",
    "welfare --lambda 1 --mu 0.8 --q 0.8 --r0 18 --format csv",
    "paradox --lambda 1 --mu 0.8 --q 0.4 --r0 7.8",
    "paradox --lambda 1 --mu 0.8 --q 0.4 --r0 7.8 --r0-2 7.9",
    "simulate --lambda 1 --mu 0.8 --q 0.4 --threshold 2.073 --start 2,2 --reps 100000 --seed 42",
    "simulate --lambda 1 --mu 0.8 --q 0.8 --threshold 2.5 --mode r --what renege --events 1000000",
)


@dataclass(frozen=True)
class Input:
    """One op's input.  ``reps``/``events`` size its simulator work, if any."""

    label: str
    params: fq.ModelParams | None = None
    extra: dict = field(default_factory=dict)
    reps: int = 0
    events: int = 0

    def describe(self) -> str:
        parts = [self.label]
        if self.params is not None:
            p = self.params
            parts.append(f"lam={p.lam!r} mu={p.mu!r} q={p.q!r} r0={p.r0!r}")
        parts.extend(f"{k}={v!r}" for k, v in self.extra.items())
        return " ".join(parts)


#: Equilibrium bands of the reward for a threshold m, between the critical
#: values, with the cases (no reneging, reneging) each must produce: both
#: games balk below alpha_1; both are pure at m on [alpha_m, gamma_m]; the
#: no-reneging game is pure and the reneging game mixed on (gamma_m, beta_m];
#: both are mixed on (beta_m, alpha_{m+1}).
BAND_CASES = {
    "balk": ("balk", "balk"),
    "pure": ("pure", "pure"),
    "pure_mixed": ("pure", "mixed"),
    "mixed": ("mixed", "mixed"),
}

#: sweep_shallow's reward law: r0 = D / (mu q) with D ~ U(D_LOW, D_HIGH).
D_LOW, D_HIGH = 0.5, 10.0


def random_rates(rng: np.random.Generator, n: int) -> list[fq.ModelParams]:
    """n rate points: lam, mu in U(0.1, 2) and q in U(0.1, 1), reward 0."""
    return [fq.ModelParams(float(0.1 + 1.9 * a), float(0.1 + 1.9 * b), float(0.1 + 0.9 * c), 0.0)
            for a, b, c in rng.random((n, 3))]


def cells(rates: fq.ModelParams) -> dict:
    """The (m, band) cells of the reward axis at one rate point, as D intervals.

    D = r0 mu q.  Each cell maps to its interval of D clipped to
    [D_LOW, D_HIGH]; cells outside that range are left out.  The balking
    cell has m = 0.
    """
    scale = rates.mu * rates.q
    cv = fq.critical_values(rates, 1)
    edges = {(0, "balk"): (0.0, cv.alpha)}
    m = 1
    while cv.alpha * scale < D_HIGH:
        nxt = fq.critical_values(rates, m + 1)
        edges[(m, "pure")] = (cv.alpha, cv.gamma)
        edges[(m, "pure_mixed")] = (cv.gamma, cv.beta)
        edges[(m, "mixed")] = (cv.beta, nxt.alpha)
        m, cv = m + 1, nxt
    out = {}
    for cell, (lo, hi) in edges.items():
        lo, hi = max(lo * scale, D_LOW), min(hi * scale, D_HIGH)
        if hi > lo:
            out[cell] = (lo, hi)
    return out


def measure_shares(n: int, seed: int = 0) -> dict:
    """Each cell's probability under uniform rates and D ~ U(D_LOW, D_HIGH).

    The mean over n random rate points of the cell's share of the D range.
    ``SHALLOW_SHARES`` holds the result for n = 4000, seed 0.
    """
    total: dict = {}
    for rates in random_rates(np.random.default_rng(seed), n):
        for cell, (lo, hi) in cells(rates).items():
            total[cell] = total.get(cell, 0.0) + (hi - lo) / (D_HIGH - D_LOW)
    return {cell: v / n for cell, v in sorted(total.items())}


def warm_up() -> None:
    """One untimed equilibrium solve, which pulls in numpy.linalg's lazy loads."""
    case = REFERENCE_CASES[0]
    fq.nash_n(fq.ModelParams(case["lam"], case["mu"], case["q"], case["r0"]))


def _check_design(inp: Input, rec) -> str | None:
    """Equilibria must land in the designed band, with x_r >= x_n."""
    case_n, m_n, x_n, case_r, m_r, x_r = rec
    if not x_r >= x_n:
        return f"x_r {x_r!r} < x_n {x_n!r}"
    band = inp.extra.get("band")
    if band is None:
        return None
    m = inp.extra["m"] if band != "balk" else None
    if (case_n, case_r) != BAND_CASES[band] or m_n != m or m_r != m:
        return f"equilibria ({case_n}, m={m_n}), ({case_r}, m={m_r}) outside the designed band"
    return None


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a))


#: Probability of each (m, band) cell under sweep_shallow's law, from
#: ``measure_shares(4000, 0)``.  Cells below 1e-3 are left out.
SHALLOW_SHARES = {
    (0, "balk"): 0.05263,
    (1, "pure"): 0.05739, (1, "pure_mixed"): 0.01741, (1, "mixed"): 0.01857,
    (2, "pure"): 0.05739, (2, "pure_mixed"): 0.01208, (2, "mixed"): 0.02767,
    (3, "pure"): 0.05739, (3, "pure_mixed"): 0.00888, (3, "mixed"): 0.03259,
    (4, "pure"): 0.05739, (4, "pure_mixed"): 0.00686, (4, "mixed"): 0.03553,
    (5, "pure"): 0.05739, (5, "pure_mixed"): 0.00552, (5, "mixed"): 0.03744,
    (6, "pure"): 0.05739, (6, "pure_mixed"): 0.0046, (6, "mixed"): 0.03874,
    (7, "pure"): 0.05739, (7, "pure_mixed"): 0.00394, (7, "mixed"): 0.03967,
    (8, "pure"): 0.05739, (8, "pure_mixed"): 0.00345, (8, "mixed"): 0.04035,
    (9, "pure"): 0.05739, (9, "pure_mixed"): 0.00308, (9, "mixed"): 0.04088,
    (10, "pure"): 0.02987, (10, "pure_mixed"): 0.00227, (10, "mixed"): 0.00747,
    (11, "pure"): 0.0064, (11, "pure_mixed"): 0.0012, (11, "mixed"): 0.0018,
    (12, "pure"): 0.00222,
}

#: Designed ops per sweep_shallow pass, spread over the cells in proportion
#: to their shares.
SHALLOW_DESIGNED = 64

#: Uniform rate points drawn per seed.  A designed op takes its rates from
#: this pool, each point weighted by the width of the op's cell there.
RATE_POOL = 64


def allot(shares: dict, total: int) -> dict:
    """Whole op counts per cell in proportion to the shares (largest remainder)."""
    scale = total / sum(shares.values())
    exact = {cell: share * scale for cell, share in shares.items()}
    counts = {cell: int(v) for cell, v in exact.items()}
    for cell in sorted(exact, key=lambda c: counts[c] - exact[c])[: total - sum(counts.values())]:
        counts[cell] += 1
    return {cell: k for cell, k in counts.items() if k}


SHALLOW_COUNTS = allot(SHALLOW_SHARES, SHALLOW_DESIGNED)


def shallow_points(seed: int):
    """sweep_shallow's designed points: ``SHALLOW_COUNTS[cell]`` per cell.

    For each op a rate point is drawn from the seed's pool with probability
    proportional to the width of the op's cell at that point, and D is
    uniform on the cell.  That is the law of (rates, D) given the cell,
    up to the pool's finite size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    pool: list = []
    while len(pool) < RATE_POOL or not set(SHALLOW_COUNTS) <= {c for _, cs in pool for c in cs}:
        pool.extend((rates, cells(rates)) for rates in random_rates(rng, 8))
    for (m, band), k in SHALLOW_COUNTS.items():
        widths = np.array([cs[(m, band)][1] - cs[(m, band)][0] if (m, band) in cs else 0.0
                           for _, cs in pool])
        for i in rng.choice(len(pool), size=k, p=widths / widths.sum()):
            rates, cs = pool[i]
            lo, hi = cs[(m, band)]
            d = lo + rng.random() * (hi - lo)
            yield m, band, rates.with_r0(float(d / (rates.mu * rates.q)))


#: A point where position 1's two payoffs tie in double precision, inside
#: the band where their drop is proved (m = 10, reneging mixed).
NEAR_TIE = fq.ModelParams(0.10500952164003935, 1.7412934159399185, 0.9796219447677508,
                          6.337620739971237)

#: In the proved band a verdict may fail only on a tie: the two values it
#: compares lie within this many ulps of each other.
TIE_ULPS = 16

#: equilibrium_deep's reward law: r0 = D / (mu q) with D ~ U(16, 48).
DEEP_D = (16.0, 48.0)
DEEP_POINTS = 8


class SweepShallow:
    """Many cheap analysis queries: the parameter-sweep use."""

    name = "sweep_shallow"

    def inputs(self, seed: int) -> list[Input]:
        out = [
            Input(f"reference{i + 1}", fq.ModelParams(c["lam"], c["mu"], c["q"], c["r0"]),
                  {"x_e": c["x_e"], "x_hat_e": c["x_hat_e"]})
            for i, c in enumerate(REFERENCE_CASES)
        ]
        for k in range(2, 10):
            for sign in (1, -1):
                rho = 1.0 + sign * 10.0**-k
                lam, q = 1.0, 0.8
                mu = lam / (q * rho)
                out.append(Input(f"rho_ladder rho=1{'+' if sign > 0 else '-'}1e-{k}",
                                 fq.ModelParams(lam, mu, q, 6.0 / (mu * q))))
        out.append(Input("near_tie", NEAR_TIE, {"m": 10, "band": "pure_mixed"}))
        out.extend(Input("designed", p, {"m": m, "band": band})
                   for m, band, p in shallow_points(seed))
        return out

    def run(self, inp: Input):
        p = inp.params
        res_n = fq.nash_n(p)
        res_r = fq.nash_r(p)
        s_n = fq.welfare_n(p, res_n.x)
        s_r = fq.welfare_r(p, res_r.x)
        return res_n, res_r, s_n, s_r, fq.paradox2_check(p)

    def record(self, inp: Input, raw):
        res_n, res_r, s_n, s_r, rep = raw
        return (res_n.case, res_n.m, res_n.x, res_r.case, res_r.m, res_r.x, s_n, s_r,
                rep.thresholds, rep.payoffs, rep.masses, rep.totals,
                tuple(sorted(rep.verdicts.items())), rep.band)

    def check(self, inp: Input, rec) -> str | None:
        problem = _check_design(inp, rec[:6])
        if problem is not None:
            return problem
        _, _, x_n, _, _, x_r, s_n, s_r, thresholds, payoffs, masses, totals, verdicts, band = rec
        p = inp.params
        if "x_e" in inp.extra:
            if abs(x_n - inp.extra["x_e"]) > PINNED_ROOT_TOL:
                return f"x_n {x_n!r} is not the pinned root {inp.extra['x_e']!r}"
            if abs(x_r - inp.extra["x_hat_e"]) > PINNED_ROOT_TOL:
                return f"x_r {x_r!r} is not the pinned root {inp.extra['x_hat_e']!r}"
        tol = fq_welfare.FORM_AGREEMENT_TOL
        flow_n = fq.welfare_flow_form(p, x_n, "n")
        if not _close(s_n, flow_n, tol):
            return f"welfare_n {s_n!r} != flow form {flow_n!r}"
        flow_r = fq.welfare_flow_form(p, x_r, "r")
        if not _close(s_r, flow_r, tol):
            return f"welfare_r {s_r!r} != flow form {flow_r!r}"
        if thresholds != (x_n, x_r):
            return f"paradox thresholds {thresholds!r} != equilibria {(x_n, x_r)!r}"
        if band == fq_paradox.BAND_PROVED:
            return _proved_drops(payoffs, masses, totals, dict(verdicts))
        return None


def _proved_drops(payoffs, masses, totals, verdicts: dict) -> str | None:
    """In the proved band every verdict holds and its numbers drop, or they tie."""
    (pay_n, pay_r), (mass_n, mass_r) = payoffs, masses
    compared = {"total_drops": totals}
    for i in range(len(pay_n)):
        compared[f"payoff_{i + 1}_drops"] = (pay_n[i], pay_r[i])
        compared[f"mass_{i}_drops"] = (mass_n[i], mass_r[i])
    if set(verdicts) != set(compared):
        return f"verdicts {sorted(verdicts)} do not cover the {len(pay_n)} positions"
    for key, holds in sorted(verdicts.items()):
        without, with_ = compared[key]
        tie = abs(with_ - without) <= TIE_ULPS * math.ulp(max(abs(with_), abs(without)))
        if not (holds and with_ < without or tie):
            return f"{key} fails in the proved band: {with_!r} with reneging, {without!r} without"
    return None


class EquilibriumDeep:
    """Few expensive equilibrium queries at thresholds up to ~48."""

    name = "equilibrium_deep"

    def inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        return [Input("uniform", rates.with_r0(float(rng.uniform(*DEEP_D) / (rates.mu * rates.q))))
                for rates in random_rates(rng, DEEP_POINTS)]

    def run(self, inp: Input):
        p = inp.params
        res_n = fq.nash_n(p)
        res_r = fq.nash_r(p)
        return res_n, res_r, fq.sojourn_vector(p, 2.5 * max(res_n.x, 1.0))

    def record(self, inp: Input, raw):
        res_n, res_r, w = raw
        values = w.values
        return (res_n.case, res_n.m, res_n.x, res_r.case, res_r.m, res_r.x, w.depth,
                hashlib.sha256(values.tobytes()).hexdigest(),
                bool(np.all(np.isfinite(values))), float(values.min()),
                bool(np.all(np.diff(w.diagonal()) > 0.0)))

    def check(self, inp: Input, rec) -> str | None:
        problem = _check_design(inp, rec[:6])
        if problem is not None:
            return problem
        depth, _, finite, low, increasing = rec[6:]
        if not (finite and low > 0.0):
            return f"sojourn vector at depth {depth} not finite and positive (min {low!r})"
        if not increasing:
            return f"sojourn times at depth {depth} do not grow with the joining position"
        return None


class MonteCarlo:
    """The simulator alone: a fixed cycle of tagged and ergodic runs."""

    name = "montecarlo"

    def inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        case = REFERENCE_CASES[0]
        ref = fq.ModelParams(case["lam"], case["mu"], case["q"], case["r0"])
        x_e = case["x_e"]

        def sim_seed() -> int:
            return int(rng.integers(2**31))

        return [
            Input("tagged", ref, {"x": x_e, "start": (2, 2), "seed": sim_seed()}, reps=100_000),
            Input("tagged", fq.ModelParams(1.0, 1.0, 0.9, 0.0),
                  {"x": 20.5, "start": (20, 20), "seed": sim_seed()}, reps=100_000),
            Input("stationary", ref, {"x": x_e, "seed": sim_seed()}, events=1_000_000),
            Input("renege", fq.ModelParams(1.0, 0.8, 0.8, 0.0),
                  {"x": 2.5, "mode": "r", "seed": sim_seed()}, events=1_000_000),
        ]

    def run(self, inp: Input):
        e = inp.extra
        if inp.label == "tagged":
            cfg = fq.SimConfig(inp.params, e["x"], reps=inp.reps, seed=e["seed"])
            return fq.simulate_tagged(cfg, e["start"])
        if inp.label == "stationary":
            cfg = fq.SimConfig(inp.params, e["x"], events=inp.events, seed=e["seed"])
            return fq.simulate_stationary(cfg, track_payoffs=True)
        cfg = fq.SimConfig(inp.params, e["x"], mode=e["mode"], events=inp.events, seed=e["seed"])
        return fq.simulate_renege_fraction(cfg)

    def record(self, inp: Input, raw):
        est = tuple(
            (k, e.mean, float(e.se), e.count) for k, e in sorted(raw.estimates.items())
        )
        hist = None if raw.histogram is None else tuple(raw.histogram.tolist())
        return est, hist

    def check(self, inp: Input, rec) -> str | None:
        est = {k: (mean, se) for k, mean, se, _ in rec[0]}
        p, e = inp.params, inp.extra
        if inp.label == "tagged":
            targets = {"sojourn": fq.sojourn_vector(p, e["x"]).at(*e["start"])}
        elif inp.label == "stationary":
            dist = fq.stationary_threshold(p, e["x"], "n")
            targets = {
                "mean_queue": dist.mean(),
                "payoff_per_arrival": fq.total_payoff(p, e["x"], e["x"]),
            }
        else:
            targets = {"renege_fraction": fq.renege_probability(p, e["x"])}
        return _within_se(est, targets)


def _within_se(est: dict, targets: dict) -> str | None:
    for key, target in targets.items():
        mean, se = est[key]
        if not abs(mean - target) <= MC_SE_BOUND * se:
            return f"{key} {mean!r} is {abs(mean - target) / se:.2f} SE from {target!r}"
    return None


class CliReadme:
    """The README's eight commands, run in process through the CLI entry point."""

    name = "cli_readme"

    def inputs(self, seed: int) -> list[Input]:
        out = []
        for line in README_COMMANDS:
            argv = tuple(line.split())
            reps = int(argv[argv.index("--reps") + 1]) if "--reps" in argv else 0
            events = int(argv[argv.index("--events") + 1]) if "--events" in argv else 0
            out.append(Input(line, extra={"argv": argv}, reps=reps, events=events))
        return out

    def run(self, inp: Input):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fq_cli.main(list(inp.extra["argv"]))
        return code, out.getvalue(), err.getvalue()

    def record(self, inp: Input, raw):
        return raw

    def check(self, inp: Input, rec) -> str | None:
        code, out, err = rec
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if out.startswith("{"):
            try:
                doc = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"unparseable JSON: {exc}"
            return self._check_simulation(inp, doc)
        rows = list(csv.reader(io.StringIO(out)))
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            return "ragged or empty CSV"
        try:
            [float(v) for r in rows[1:] for v in r]
        except ValueError as exc:
            return f"non-numeric CSV cell: {exc}"
        return None

    def _check_simulation(self, inp: Input, doc: dict) -> str | None:
        if doc.get("command") != "simulate":
            return None
        res = doc["result"]
        est = {k: (v["mean"], v["se"]) for k, v in res["estimates"].items()}
        if res["what"] == "renege":
            return _within_se(est, {"renege_fraction": res["renege_analytic"]})
        pr = doc["params"]
        params = fq.ModelParams(pr["lambda"], pr["mu"], pr["q"], pr["r0"])
        argv = inp.extra["argv"]
        x = float(argv[argv.index("--threshold") + 1])
        i, j = (int(v) for v in argv[argv.index("--start") + 1].split(","))
        return _within_se(est, {"sojourn": fq.sojourn_vector(params, x).at(i, j)})


WORKLOADS = {w.name: w for w in (SweepShallow(), EquilibriumDeep(), MonteCarlo(), CliReadme())}
