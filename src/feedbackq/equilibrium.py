"""Best responses, critical sojourn values, and Nash equilibrium thresholds.

For each integer m, three sojourn values organise the equilibrium case
structure: ``alpha_m`` (joining the last sure position m when everyone
thresholds at m), ``beta_m`` (joining one past that, nobody reneging), and
``gamma_m`` (joining one past that when the others may renege).  Monotonicity
of sojourn times in both position and threshold makes each case band
``[alpha_m, beta_m]`` / ``(beta_m, alpha_{m+1})`` well ordered.  A mixed
equilibrium is the root on (m, m+1) of a monotone indifference condition
whose end values are critical values the ascent already holds.  A
safeguarded Brent search takes it from there to the float resolution of the
threshold, typically in under ten chain solves and never in more than
``ROOT_SLACK`` beyond bisection's count.  The no-reneging ascent skips gamma
and solves for it once, at the threshold it returns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analytics import stationary_threshold
from .model import ModelParams, Threshold, as_threshold, positive_int
from .solver import (
    ConsistencyError,
    ValueVector,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    sojourn_vector,
    sojourn_vector_r_tagged,
)

#: Reward ties with a critical value, and payoff ties in the ESS check,
#: below this relative size are treated as exact (indifference) ties.
TIE_TOL = 1e-9

#: Required accuracy of the indifference condition at a mixed root.
ROOT_TOL = 1e-9

#: Evaluations the mixed-root search may spend beyond bisection's count.
ROOT_SLACK = 4

#: Relative float spacing: the root search's shortest step and stopping width.
_EPS = sys.float_info.epsilon

#: Admitted gap between the two routes to the reneging equilibrium payoffs.
PAYOFF_AGREEMENT_TOL = 1e-8

CASE_BALK = "balk"
CASE_INDIFFERENCE = "indifference"
CASE_PURE = "pure"
CASE_MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class CriticalValues:
    """Critical sojourn values at integer threshold m.

    ``alpha``: expected sojourn joining position m when everyone uses m.
    ``beta``: expected sojourn joining position m+1 under threshold m, no
    reneging.  ``gamma``: the same one-past-the-threshold sojourn when the
    customers ahead may renege; gamma <= beta because reneging ahead can only
    shorten the wait.
    """

    m: int
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True, slots=True)
class EquilibriumResult:
    """Outcome of an equilibrium search.

    ``x`` is the canonical threshold value (0 for balking and for the
    indifference interval, whose span is in ``interval``).  ``residual`` is
    the absolute value of the indifference condition at a mixed root, and
    ``root_evals`` the chain solves its search spent (0 when there is none).
    """

    mode: str
    case: str
    x: float
    m: int | None = None
    interval: tuple[float, float] | None = None
    critical: CriticalValues | None = None
    residual: float | None = None
    root_evals: int = 0


@dataclass(frozen=True, slots=True)
class EssReport:
    """Grid verdict on evolutionary stability of an equilibrium threshold."""

    x: float
    is_ess: bool
    checked: int
    strict_best: int
    tie_resolved: int
    failures: tuple[float, ...]
    note: str = ""


def critical_values(params: ModelParams, m: int, *, with_gamma: bool = True) -> CriticalValues:
    """alpha_m, beta_m, gamma_m via the chain solvers at integer threshold m.

    ``with_gamma=False`` skips the reneging-tagged solve and leaves gamma nan;
    the no-reneging ascent never reads it.
    """
    m = positive_int(m, "m")
    w = sojourn_vector(params, float(m))
    gamma = _gamma(params, m) if with_gamma else math.nan
    return CriticalValues(m=m, alpha=w.at(m, m), beta=w.at(m + 1, m + 1), gamma=gamma)


def _gamma(params: ModelParams, m: int) -> float:
    return sojourn_vector_r_tagged(params, float(m)).at(m + 1, m + 1)


def _brent(objective, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float, int]:
    """Root of a continuous objective whose end values differ in sign on [lo, hi].

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    falling back to bisection whenever they stop shrinking.  Each step is
    then projected, as in ITP (Oliveira & Takahashi 2020), into the ball
    around the bracket's midpoint that keeps the bracket on bisection's
    schedule plus ``ROOT_SLACK`` evaluations, so a flat or kinked objective
    never costs more than that.  The end values come from the caller, so the
    ends cost nothing; every evaluated point lies strictly inside the
    bracket, and no step is shorter than one float spacing.  Stops once the
    bracket is narrower than two relative float spacings.  Returns the better end
    of the final bracket, the objective there and the number of evaluations.
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    # the schedule ends at width _EPS * lo, inside the stopping width below
    half_width = 0.5 * _EPS * lo
    budget = math.ceil(math.log2((hi - lo) / (2.0 * half_width))) + ROOT_SLACK
    evals = 0
    while True:
        if (f_pre < 0.0) != (f_cur < 0.0) and f_pre != 0.0 and f_cur != 0.0:
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = _EPS * abs(x_cur)
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < tol:
            return x_cur, f_cur, evals
        if abs(s_pre) > tol and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if (s_try > 0.0) == (s_bis > 0.0) and 2.0 * abs(s_try) < min(
                abs(s_pre), 3.0 * abs(s_bis) - tol
            ):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        step = s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        radius = half_width * 2.0 ** (budget - evals) - abs(s_bis)
        if abs(step - s_bis) > radius:
            step = s_bis + math.copysign(radius, step - s_bis)
            s_pre = s_cur = step
        x_pre, f_pre = x_cur, f_cur
        x_cur += step
        f_cur = objective(x_cur)
        evals += 1


def _mixed_root(
    params: ModelParams, m: int, lower: float, alpha_next: float, reneging: bool
) -> tuple[float, float, int]:
    """Mixed threshold in (m, m+1): root, residual and chain solves spent.

    Without reneging the sojourn one past the threshold meets the reward;
    with reneging the payoff there, others reneging, meets zero.  ``lower``
    is beta_m (gamma_m when reneging) and ``alpha_next`` is alpha_{m+1}: the
    objective's limits at the two ends of the band.
    """
    j = m + 1
    if reneging:

        def objective(x: float) -> float:
            return payoff_vector_r_tagged(params, x).at(j, j)

        f_lo, f_hi = params.r0 - lower, params.r0 - alpha_next
    else:

        def objective(x: float) -> float:
            return sojourn_vector(params, x).at(j, j) - params.r0

        f_lo, f_hi = lower - params.r0, alpha_next - params.r0
    root, value, evals = _brent(objective, float(m), float(j), f_lo, f_hi)
    residual = abs(value)
    if residual > ROOT_TOL:
        raise ConsistencyError(f"mixed-root residual {residual:.3e} exceeds {ROOT_TOL:.1e}")
    return root, residual, evals


def chi(params: ModelParams, m: int) -> float:
    """The unique threshold in (m, m+1) equating the marginal sojourn to the reward.

    Requires the reward to lie strictly between beta_m and alpha_{m+1} so the
    monotone objective brackets a root.
    """
    m = positive_int(m, "m")
    beta_m = sojourn_vector(params, float(m)).at(m + 1, m + 1)
    alpha_next = sojourn_vector(params, float(m + 1)).at(m + 1, m + 1)
    if not beta_m < params.r0 < alpha_next:
        raise ValueError(
            f"reward {params.r0} must lie strictly in ({beta_m}, {alpha_next}) for m={m}"
        )
    return _mixed_root(params, m, beta_m, alpha_next, reneging=False)[0]


def nash_n(params: ModelParams) -> EquilibriumResult:
    """Equilibrium threshold when reneging is forbidden.

    Ascends m until the reward falls below joining position m; termination is
    guaranteed because the sojourn at position m grows at least like m / mu.
    """
    return _nash(params, reneging=False)


def nash_r(params: ModelParams) -> EquilibriumResult:
    """Equilibrium threshold when reneging is allowed.

    Same case structure as the no-reneging game with gamma_m in place of
    beta_m; mixed roots solve the reneging-aware indifference condition, so
    the equilibrium threshold is never smaller than the no-reneging one.
    """
    return _nash(params, reneging=True)


def _nash(params: ModelParams, reneging: bool) -> EquilibriumResult:
    r0 = params.r0
    cv = critical_values(params, 1, with_gamma=reneging)
    case, x, m, interval, residual, evals = CASE_BALK, 0.0, None, None, None, 0
    if abs(r0 - cv.alpha) <= TIE_TOL * max(1.0, cv.alpha):
        case, interval = CASE_INDIFFERENCE, (0.0, 1.0)
    elif r0 >= cv.alpha:
        m = 1
        while True:
            lower = cv.gamma if reneging else cv.beta
            if r0 <= lower:
                case, x = CASE_PURE, float(m)
                break
            nxt = critical_values(params, m + 1, with_gamma=reneging)
            if r0 < nxt.alpha:
                case = CASE_MIXED
                x, residual, evals = _mixed_root(params, m, lower, nxt.alpha, reneging)
                break
            m += 1
            cv = nxt
            if m > 100_000:  # alpha_m >= m / mu, so this is unreachable
                raise ConsistencyError("equilibrium search failed to terminate")
    if not reneging:
        cv = replace(cv, gamma=_gamma(params, cv.m))
    return EquilibriumResult(
        "r" if reneging else "n", case, x, m=m, interval=interval, critical=cv,
        residual=residual, root_evals=evals,
    )


def best_response_n(params: ModelParams, x: float | Threshold) -> int:
    """Highest joining position with nonnegative payoff; 0 means balk everywhere."""
    diag = payoff_vector_n(params, x).diagonal()
    nonneg = np.nonzero(diag >= 0.0)[0]
    return int(nonneg[-1]) + 1 if nonneg.size else 0


def total_payoff(params: ModelParams, x_tag: float | Threshold, x_others: float | Threshold) -> float:
    """Stationary expected payoff of one customer thresholding at ``x_tag``
    against a population at ``x_others``.

    By PASTA an arrival sees the stationary law; she collects the positional
    payoff wherever her own threshold lets her join (surely up to its integer
    part, with the fractional probability one position higher).
    """
    values, dist = _population(params, x_others)
    return values.joining_mean(dist, x_tag)


def _population(params: ModelParams, x: float | Threshold) -> tuple[ValueVector, np.ndarray]:
    """Positional payoffs of, and the law an arrival sees in, a population
    thresholding at ``x``."""
    others = as_threshold(x)
    return payoff_vector_n(params, others), stationary_threshold(params, others, "n").probs


def ess_check(params: ModelParams, x_e: float, deviations) -> EssReport:
    """Check evolutionary stability of ``x_e`` over a grid of deviations.

    Each deviation must either do strictly worse against the equilibrium
    population, or tie and then do strictly worse against its own population.
    The reward tie with the lone-customer sojourn is the known degenerate
    case in which every threshold in [0, 1] ties forever; it is reported as
    not evolutionarily stable.
    """
    cv = critical_values(params, 1)
    if abs(params.r0 - cv.alpha) <= TIE_TOL * max(1.0, cv.alpha):
        grid = tuple(float(d) for d in deviations if abs(float(d) - x_e) > 1e-12)
        return EssReport(
            x=x_e,
            is_ess=False,
            checked=len(grid),
            strict_best=0,
            tie_resolved=0,
            failures=grid,
            note="reward equals the lone-customer sojourn: all thresholds in [0, 1] tie",
        )
    values_e, dist_e = _population(params, x_e)
    u_ee = values_e.joining_mean(dist_e, x_e)
    scale = max(1.0, abs(u_ee))
    strict = 0
    resolved = 0
    failures: list[float] = []
    checked = 0
    for dev in deviations:
        dx = float(dev)
        if abs(dx - x_e) <= 1e-12:
            continue
        checked += 1
        u_de = values_e.joining_mean(dist_e, dx)
        if u_ee > u_de + TIE_TOL * scale:
            strict += 1
        elif abs(u_ee - u_de) <= TIE_TOL * scale:
            values_d, dist_d = _population(params, dx)
            u_ed = values_d.joining_mean(dist_d, x_e)
            u_dd = values_d.joining_mean(dist_d, dx)
            if u_ed > u_dd + TIE_TOL * max(1.0, abs(u_ed)):
                resolved += 1
            else:
                failures.append(dx)
        else:
            failures.append(dx)
    return EssReport(
        x=x_e,
        is_ess=not failures,
        checked=checked,
        strict_best=strict,
        tie_resolved=resolved,
        failures=tuple(failures),
    )


def equilibrium_payoffs_r(params: ModelParams, result: EquilibriumResult) -> ValueVector:
    """Equilibrium payoffs when reneging is allowed.

    For mixed equilibria the all-reneging payoffs coincide with the
    never-renege-tagged payoffs, because the tagged customer's payoff at the
    boundary position is exactly zero there; both routes are computed and
    must agree.
    """
    if result.mode != "r":
        raise ValueError("expected a reneging-game equilibrium result")
    if result.case == CASE_MIXED:
        direct = payoff_vector_r_all(params, result.x)
        via_tagged = payoff_vector_r_tagged(params, result.x)
        gap = float(np.max(np.abs(direct.values - via_tagged.values)))
        if gap > PAYOFF_AGREEMENT_TOL * max(1.0, float(np.max(np.abs(direct.values)))):
            raise ConsistencyError(
                f"reneging equilibrium payoff routes disagree by {gap:.3e}"
            )
        return direct
    if result.case == CASE_PURE:
        return payoff_vector_r_all(params, float(result.m))
    return payoff_vector_r_all(params, 0.0)
