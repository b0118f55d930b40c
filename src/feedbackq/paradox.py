"""Comparative statics that cut against intuition, with checkable reports.

Two effects are quantified.  Raising the reward inside a mixed-equilibrium
band raises the equilibrium threshold enough that everyone joining at the
old marginal position waits longer, ending up worse off.  Granting the
option to renege raises the equilibrium threshold as well, and the more
crowded system lowers every equilibrium payoff and every low-state
stationary mass, so the option makes everyone worse off too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .analytics import stationary_threshold
from .equilibrium import (
    CASE_MIXED,
    CASE_PURE,
    critical_values,
    nash_n,
    nash_r,
    equilibrium_payoffs_r,
)
from .model import ModelParams, as_threshold, branch_parts, positive_int
from .solver import ConsistencyError, payoff_vector_n, sojourn_vector

#: Agreement demanded between the closed-form sojourn gaps and the solver.
GAP_TOL = 1e-9

KIND_REWARD_INCREASE = "reward_increase"
KIND_RENEGING_OPTION = "reneging_option"
KIND_NO_DIFFERENCE = "no_difference"

BAND_PROVED = "gamma_beta"
BAND_OBSERVED = "beta_alpha"


@dataclass(frozen=True, slots=True)
class ParadoxReport:
    """Two comparable scenarios with per-inequality verdicts.

    Every verdict is recomputable from the stored numbers.  ``conjecture``
    flags comparisons outside the band where the effect is proved.
    """

    kind: str
    params: ModelParams
    labels: tuple[str, str]
    thresholds: tuple[float, float]
    payoffs: tuple[tuple[float, ...], tuple[float, ...]]
    masses: tuple[tuple[float, ...], tuple[float, ...]] | None
    totals: tuple[float, float] | None
    verdicts: dict[str, bool] = field(default_factory=dict)
    band: str | None = None
    conjecture: bool = False
    note: str = ""

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts.values())


def sojourn_gap_closed_form(params: ModelParams, x: float) -> float:
    """Closed-form gap between adjacent joining positions' sojourn times.

    Supported on the fractional bands (1, 2) and (2, 3), where the gap is
    w(2,2) - w(1,1) and w(3,3) - w(2,2) respectively.  The result is checked
    against the chain solver before being returned; both gaps shrink as the
    boundary joining probability grows.
    """
    th = as_threshold(x)
    n, p = branch_parts(th)
    if th.is_integer or n not in (1, 2):
        raise ValueError(f"closed-form gap supported on (1,2) and (2,3) only, got {x}")
    lam, mu, q = params.lam, params.mu, params.q
    if n == 1:
        gap = (mu + lam * p) / (mu * (-mu * q**2 + 2 * mu * q + lam * p))
    else:
        f_p = (lam + 2 * lam * p * q + mu * q**3 - 3 * mu * q**2 - lam * q + 3 * mu * q) / (
            (mu + lam * p)
            * (lam * mu + lam**2 * p + lam * mu * p * q + mu**2 * q**3 - 3 * mu**2 * q**2 + 3 * mu**2 * q)
        )
        gap = 1.0 / (mu * (1.0 - mu**2 * (1.0 - q) ** 2 * f_p))
    w = sojourn_vector(params, th)
    solver_gap = w.at(n + 1, n + 1) - w.at(n, n)
    if abs(gap - solver_gap) > GAP_TOL * max(1.0, abs(gap)):
        raise ConsistencyError(
            f"closed-form gap {gap!r} disagrees with the solver {solver_gap!r} at x={x}"
        )
    return gap


def paradox1_check(params_base: ModelParams, m: int, r1: float, r2: float) -> ParadoxReport:
    """Compare equilibrium payoffs at two rewards inside one mixed band.

    Requires beta_m < r1 <= r2 < alpha_{m+1}; with r1 < r2 the payoff at
    position m strictly drops when the reward rises.  Proved for m in {1, 2};
    larger m is flagged as extrapolation.
    """
    m = positive_int(m, "m")
    if not r1 <= r2:
        raise ValueError(f"rewards must satisfy r1 <= r2, got {r1} > {r2}")
    cv = critical_values(params_base, m)
    alpha_next = critical_values(params_base, m + 1).alpha
    if not (cv.beta < r1 and r2 < alpha_next):
        raise ValueError(
            f"rewards must lie strictly inside ({cv.beta}, {alpha_next}) for m={m}"
        )
    results = [nash_n(params_base.with_r0(r)) for r in (r1, r2)]
    for res, r in zip(results, (r1, r2)):
        if res.case != CASE_MIXED or res.m != m:
            raise ConsistencyError(f"reward {r} did not produce a mixed equilibrium at m={m}")
    payoffs = []
    for res, r in zip(results, (r1, r2)):
        z = payoff_vector_n(params_base.with_r0(r), res.x)
        payoffs.append(tuple(z.at(i, i) for i in range(1, m + 1)))
    degenerate = r1 == r2
    drop = payoffs[0][m - 1] > payoffs[1][m - 1]
    verdicts = {"payoff_at_m_decreases": drop or (degenerate and payoffs[0] == payoffs[1])}
    return ParadoxReport(
        kind=KIND_REWARD_INCREASE,
        params=params_base,
        labels=(f"r0={r1}", f"r0={r2}"),
        thresholds=(results[0].x, results[1].x),
        payoffs=(payoffs[0], payoffs[1]),
        masses=None,
        totals=None,
        verdicts=verdicts,
        conjecture=m >= 3,
        note="equal rewards: degenerate comparison" if degenerate else "",
    )


def paradox2_check(params: ModelParams) -> ParadoxReport:
    """Compare the two equilibria with and without the option to renege.

    When the reneging equilibrium is mixed, every per-position payoff, every
    stationary mass up to the old threshold, and the total equilibrium payoff
    are strictly smaller with reneging allowed.  When both equilibria are the
    same integer the report simply records that nothing changes.
    """
    res_n = nash_n(params)
    res_r = nash_r(params)
    if res_r.case != CASE_MIXED:
        x = res_r.x
        label = f"x={x:g}"
        return ParadoxReport(
            kind=KIND_NO_DIFFERENCE,
            params=params,
            labels=(label, label),
            thresholds=(res_n.x, res_r.x),
            payoffs=((), ()),
            masses=None,
            totals=None,
            note="reneging never triggers at this equilibrium; the games coincide",
        )
    m = res_r.m
    z = payoff_vector_n(params, res_n.x)
    z_hat = equilibrium_payoffs_r(params, res_r)
    dist_n = stationary_threshold(params, res_n.x, "n").probs
    dist_r = stationary_threshold(params, res_r.x, "r").probs

    pay_n = tuple(z.at(i, i) for i in range(1, m + 1))
    pay_r = tuple(z_hat.at(i, i) for i in range(1, m + 1))
    mass_n = tuple(float(v) for v in dist_n[:m])
    mass_r = tuple(float(v) for v in dist_r[:m])
    # The position one past the integer part contributes its indifference
    # payoff (zero at a mixed root) weighted by the joining probability.
    total_n = z.joining_mean(dist_n, res_n.x)
    total_r = z_hat.joining_mean(dist_r, res_r.x)

    # interned: every report shares one copy of each verdict name
    verdicts: dict[str, bool] = {}
    for i in range(m):
        verdicts[sys.intern(f"payoff_{i + 1}_drops")] = pay_r[i] < pay_n[i]
        verdicts[sys.intern(f"mass_{i}_drops")] = mass_r[i] < mass_n[i]
    verdicts["total_drops"] = total_r < total_n

    band = BAND_PROVED if params.r0 <= res_r.critical.beta else BAND_OBSERVED
    return ParadoxReport(
        kind=KIND_RENEGING_OPTION,
        params=params,
        labels=("no reneging", "reneging allowed"),
        thresholds=(res_n.x, res_r.x),
        payoffs=(pay_n, pay_r),
        masses=(mass_n, mass_r),
        totals=(total_n, total_r),
        verdicts=verdicts,
        band=band,
        conjecture=band == BAND_OBSERVED,
    )

