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
``ROOT_SLACK`` beyond bisection's count.  As gamma_m <= beta_m < alpha_{m+1},
both games share one ascent on alpha and beta and solve for gamma once, at
the m where it stops.  Every chain of a search closes on one
:class:`~feedbackq.qbd.Ladder` per right-hand side, which also holds the
critical values and the no-reneging mixed roots: a second search on the
same ladder, in either game and at any reward, closes only the chains of a
mixed root not yet held.  The ESS check decides every deviation from the
signs of the payoffs solved once at the equilibrium: a deviation's loss is
a sum of terms of one sign, and it ties only where a payoff is exactly
zero, which a mixed root certifies; on the search's ladder it reads that
root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytics import stationary_threshold
from .model import (
    INTEGER_EPS, ModelParams, Threshold, branch_parts, level_offset, make_threshold, positive_int,
)
from .qbd import Ladder
from .solver import (
    ConsistencyError,
    ValueVector,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    payoff_vectors,
    sojourn_vector,
    sojourn_vector_r_tagged,
)

#: Reward ties with the lone-customer sojourn alpha_1 below this relative
#: size are treated as exact: the indifference interval [0, 1].
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


def critical_values(params: ModelParams, m: int, *, ladder: Ladder | None = None) -> CriticalValues:
    """alpha_m, beta_m, gamma_m via the chain solvers at integer threshold m.

    On one sojourn ``ladder`` both chains reuse the all-joining levels below m,
    and the ladder holds the values closed on it: they do not depend on the
    reward, so any later call at the ladder's rate point reads them, and
    closes gamma_m only if no call has yet.
    """
    m = positive_int(m, "m")
    ladder = ladder or Ladder(params)
    cv = _alpha_beta(params, m, ladder)
    if math.isnan(cv.gamma):
        gamma = sojourn_vector_r_tagged(params, float(m), ladder=ladder).values.item(-1)
        cv = ladder.critical[m] = CriticalValues(m, cv.alpha, cv.beta, gamma)
    return cv


def _alpha_beta(params: ModelParams, m: int, ladder: Ladder) -> CriticalValues:
    """The critical values at m held on ``ladder``, closing alpha_m and beta_m
    if not yet; gamma_m stays nan until :func:`critical_values` closes it.
    The Nash ascent, :func:`chi` and :func:`ess_check` never read gamma."""
    ladder.admit(params)
    cv = ladder.critical.get(m)
    if cv is None:  # (m, m) and (m + 1, m + 1) end levels m and m + 1
        w = sojourn_vector(params, float(m), ladder=ladder).values
        cv = ladder.critical[m] = CriticalValues(m, w.item(level_offset(m + 1) - 1), w.item(-1), math.nan)
    return cv


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
    params: ModelParams, m: int, lower: float, alpha_next: float, reneging: bool, ladder: Ladder
) -> tuple[float, float, int]:
    """Mixed threshold in (m, m+1): root, residual and chain solves spent.

    Without reneging the sojourn one past the threshold meets the reward,
    and the ladder holds the root found on it.  With reneging the payoff
    there, others reneging, meets zero.  ``lower`` is beta_m (gamma_m when
    reneging) and ``alpha_next`` is alpha_{m+1}: the objective's limits at
    the two ends of the band.
    """
    held = None if reneging else ladder.roots.get((m, params.r0))
    if held is not None:
        return held
    j = m + 1
    joins = level_offset(j + 1) - 1  # the index of state (j, j)
    if reneging:
        pair = Ladder(params)

        def objective(x: float) -> float:
            return payoff_vector_r_tagged(params, x, ladder=pair).values.item(joins)

        f_lo, f_hi = params.r0 - lower, params.r0 - alpha_next
    else:

        def objective(x: float) -> float:
            return sojourn_vector(params, x, ladder=ladder).values.item(joins) - params.r0

        f_lo, f_hi = lower - params.r0, alpha_next - params.r0
    root, value, evals = _brent(objective, float(m), float(j), f_lo, f_hi)
    edge = m + max(2.0 * INTEGER_EPS, math.ulp(m))
    if abs(value) > ROOT_TOL and root <= edge:
        # Thresholds within INTEGER_EPS of m snap to m, so no search reaches a
        # root inside that band.  The chain is smooth in p: take the root of
        # the chord from (m, f_lo) to a point past the band, and its residual.
        f_edge, evals = objective(edge), evals + 1
        if (f_edge < 0.0) != (f_lo < 0.0):
            t = f_lo / (f_lo - f_edge)
            root, value = m + t * (edge - m), f_lo + t * (f_edge - f_lo)
    residual = abs(value)
    if not residual <= ROOT_TOL:
        raise ConsistencyError(f"mixed-root residual {residual:.3e} exceeds {ROOT_TOL:.1e}")
    if not reneging:
        ladder.roots[m, params.r0] = root, residual, evals
    return root, residual, evals


def chi(params: ModelParams, m: int) -> float:
    """The unique threshold in (m, m+1) equating the marginal sojourn to the reward.

    Requires the reward to lie strictly between beta_m and alpha_{m+1} so the
    monotone objective brackets a root.
    """
    m = positive_int(m, "m")
    ladder = Ladder(params)
    beta_m = _alpha_beta(params, m, ladder).beta
    alpha_next = _alpha_beta(params, m + 1, ladder).alpha
    if not beta_m < params.r0 < alpha_next:
        raise ValueError(f"reward {params.r0} must lie strictly in ({beta_m}, {alpha_next}) for m={m}")
    return _mixed_root(params, m, beta_m, alpha_next, False, ladder)[0]


def nash_n(params: ModelParams, *, ladder: Ladder | None = None) -> EquilibriumResult:
    """Equilibrium threshold when reneging is forbidden.

    Ascends m until the reward falls below joining position m; termination is
    guaranteed because the sojourn at position m grows at least like m / mu.
    """
    return _nash(params, False, ladder or Ladder(params))


def nash_r(params: ModelParams, *, ladder: Ladder | None = None) -> EquilibriumResult:
    """Equilibrium threshold when reneging is allowed.

    Same case structure and ascent as the no-reneging game, with gamma_m in
    place of beta_m; mixed roots solve the reneging-aware indifference
    condition, so the threshold is never smaller than the no-reneging one.
    """
    return _nash(params, True, ladder or Ladder(params))


def _nash(params: ModelParams, reneging: bool, ladder: Ladder) -> EquilibriumResult:
    r0 = params.r0
    cv = _alpha_beta(params, 1, ladder)
    case, x, m, interval, residual, evals = CASE_BALK, 0.0, None, None, None, 0
    if abs(r0 - cv.alpha) <= TIE_TOL * cv.alpha:
        case, interval = CASE_INDIFFERENCE, (0.0, 1.0)
    elif r0 >= cv.alpha:
        m = 1
        while r0 > cv.beta:
            nxt = _alpha_beta(params, m + 1, ladder)
            if r0 < nxt.alpha:
                break
            m, cv = m + 1, nxt
            if m > 100_000:  # alpha_m >= m / mu, so m <= mu r0: reached for r0 > 100,000 / mu
                raise ConsistencyError("equilibrium search failed to terminate")
    cv = critical_values(params, cv.m, ladder=ladder)
    if m is not None:
        lower = cv.gamma if reneging else cv.beta
        if r0 <= lower:
            case, x = CASE_PURE, float(m)
        else:
            case = CASE_MIXED
            alpha_next = _alpha_beta(params, m + 1, ladder).alpha
            x, residual, evals = _mixed_root(params, m, lower, alpha_next, reneging, ladder)
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
    dist = stationary_threshold(params, x_others, "n").probs
    return payoff_vector_n(params, x_others).joining_mean(dist, x_tag)


def ess_check(params: ModelParams, x_e: float, deviations, *, ladder: Ladder | None = None) -> EssReport:
    """Check evolutionary stability of ``x_e`` over a grid of deviations.

    Against a population at x_e, a deviation's loss u(x_e, x_e) - u(dx, x_e)
    is sum_k c_k pi_k z_k: the joining-state payoffs z_k, weighted by the
    arrival law pi_k and the joining shares c_k that the deviation gives up
    (all >= 0) or takes on (all <= 0).  At an equilibrium z_k >= 0 below x_e
    and z_k <= 0 above it, so the terms share one sign, and the deviation does
    strictly worse iff the sum is positive.  It ties iff every position it
    moves has z_k == 0: at a reward tie with a critical value, or on the band
    of a mixed root, where z_n is zero by construction once x_e is certified
    as the root ``_mixed_root`` returns.  A tie does strictly worse against
    its own population, as the sojourn time rises with the threshold.  The
    reward tie with the lone-customer sojourn, in which every threshold in
    [0, 1] ties forever, is reported as not evolutionarily stable.  On the
    sojourn ``ladder`` of the search that found x_e, the critical values and
    the root are read, not closed again.
    """
    devs = [dx for dx in (make_threshold(d).x for d in deviations) if abs(dx - x_e) > 1e-12]
    ladder = ladder or Ladder(params)
    cv = _alpha_beta(params, 1, ladder)
    if abs(params.r0 - cv.alpha) <= TIE_TOL * cv.alpha:
        note = "reward equals the lone-customer sojourn: all thresholds in [0, 1] tie"
        return EssReport(x_e, False, len(devs), 0, 0, tuple(devs), note)
    z = next(payoff_vectors(params, [x_e], False, ladder)).diagonal()
    n, p = branch_parts(make_threshold(x_e))
    if p and n >= 1:
        beta = _alpha_beta(params, n, ladder).beta
        alpha_next = _alpha_beta(params, n + 1, ladder).alpha
        in_band = beta < params.r0 < alpha_next
        if in_band and _mixed_root(params, n, beta, alpha_next, False, ladder)[0] == x_e:
            z[n] = 0.0  # the indifference that defines the root
    shares = np.zeros((len(devs) + 1, len(z)))  # by joining_mean's rule, x_e's first
    for row, x in zip(shares, [x_e, *devs]):
        k, frac = branch_parts(make_threshold(x))
        row[:k] = 1.0
        if k < len(z):
            row[k] = frac
    moved = shares[0] - shares[1:]
    worse = moved @ (stationary_threshold(params, x_e, "n").probs * z) > 0.0
    tie = ~((moved != 0.0) & (z != 0.0)).any(axis=1)
    failures = tuple(dx for dx, w, t in zip(devs, worse, tie) if not (w or t))
    return EssReport(x_e, not failures, len(devs), int(worse.sum()), int(tie.sum()), failures)


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
        if not gap <= PAYOFF_AGREEMENT_TOL * max(1.0, float(np.max(np.abs(direct.values)))):
            raise ConsistencyError(f"reneging equilibrium payoff routes disagree by {gap:.3e}")
        return direct
    return payoff_vector_r_all(params, float(result.m) if result.case == CASE_PURE else 0.0)
