"""Social welfare under a population threshold, with and without reneging.

Welfare is the long-run rate of net customer benefit.  It is computed three
ways that must agree: a summation over joining positions weighted by the
stationary law and the positional payoffs, a flow form (reward throughput
minus mean queue length, by Little's law), and a closed form obtained by
collapsing the geometric sums.  The welfare slope and the optimal threshold
both read the slope's sign core written as a positive sum, which stays exact
at rho = 1: the optimum comes from one scan of it, and the marginal condition
cross-checks it at two integers.  A curve solves each chain depth's grid
points as one stack on one ladder per mode, bit for bit the pointwise values.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .analytics import renege_probability, stationary_threshold
from .model import ModelParams, Threshold, as_threshold, branch_parts
from .solver import ConsistencyError, payoff_vectors

#: Relative agreement demanded between the summation and closed forms.
FORM_AGREEMENT_TOL = 1e-9

#: Traffic intensities within this distance of one are handled by the
#: summation forms only; the closed forms degenerate there.
RHO_ONE_EPS = 1e-6

#: The optimal-threshold scan stops here; an optimum beyond it is out of domain.
SCAN_LIMIT = 10_000

#: Steps in a sampled grid; a finer grid is out of domain.
GRID_LIMIT = 100_000

#: Slack, relative to the curve's scale, in the runs of a unimodal curve.
UNIMODAL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class WelfareCurve:
    """Sampled welfare curves and the socially optimal integer threshold."""

    x: np.ndarray
    s_n: np.ndarray
    s_r: np.ndarray
    n_star: int
    s_star: float


def welfare_n(params: ModelParams, x: float | Threshold) -> float:
    """Welfare without reneging: joining rate times expected payoff per joiner.

    Returns the summation form; away from rho = 1 the closed form is also
    evaluated and must agree.
    """
    return _welfare(params, [as_threshold(x)], "n")[0]


def welfare_r(params: ModelParams, x: float | Threshold) -> float:
    """Welfare with reneging; reneging customers forfeit the reward."""
    return _welfare(params, [as_threshold(x)], "r")[0]


def _welfare(params: ModelParams, ths: list[Threshold], mode: str) -> list[float]:
    """Summation-form welfare at each threshold in turn, the payoffs of each
    run that shares a chain depth solved as one stack, all on one ladder;
    away from rho = 1 each value must agree with the closed form."""
    vectors = payoff_vectors(params, (th for th in ths if th.x != 0.0), reneging=mode == "r")
    closed_form = _welfare_n_closed if mode == "n" else _welfare_r_closed
    values = []
    for th in ths:
        value = 0.0
        if th.x != 0.0:
            dist = stationary_threshold(params, th, mode).probs
            value = params.lam * next(vectors).joining_mean(dist, th)
        if abs(params.rho - 1.0) > RHO_ONE_EPS:
            _check_forms(value, closed_form(params, th), mode)
        values.append(value)
    return values


def welfare_flow_form(params: ModelParams, x: float | Threshold, mode: str = "n") -> float:
    """Reward throughput minus mean queue length (Little's-law form).

    Independent of the payoff solvers: only the stationary law and, with
    reneging, the abandonment probability enter.
    """
    th = as_threshold(x)
    if th.x == 0.0:
        return 0.0
    n, p = branch_parts(th)
    dist = stationary_threshold(params, th, mode).probs
    joining = float(dist[:n].sum()) + (p * float(dist[n]) if p else 0.0)
    mean_len = float(np.arange(len(dist)) @ dist)
    kept = 1.0 - renege_probability(params, th) if mode == "r" else 1.0
    return params.lam * params.r0 * joining * kept - mean_len


def _welfare_n_closed(params: ModelParams, th: Threshold) -> float:
    n, p = branch_parts(th)
    rho = params.rho
    # Above rho = 1 numerator and denominator are divided by rho^n (as in
    # stationary_threshold), so neither overflows at large thresholds.
    shift = n if rho > 1.0 else 0
    one, rho_n = (rho ** (k - shift) for k in (0, n))
    num = params.lam * params.r0 * (rho - 1.0) * ((1.0 + p * (rho - 1.0)) * rho_n - one) + rho * (
        (1.0 - n * (1.0 + p * (rho - 1.0)) * (rho - 1.0) - p * (rho - 1.0) ** 2) * rho_n - one
    )
    den = one + rho * ((1.0 + p * (rho - 1.0)) * (rho - 1.0) * rho_n - one)
    return num / den


def _welfare_r_closed(params: ModelParams, th: Threshold) -> float:
    # Collapse of the flow form's geometric sums (reward throughput thinned
    # by the abandonment probability, minus the mean queue length), scaled
    # by rho^-n above rho = 1 as in _welfare_n_closed.
    n, p = branch_parts(th)
    rho, q = params.rho, params.q
    shift = n if rho > 1.0 else 0
    one, rho_n, rho_n1, rho_n2 = (rho ** (k - shift) for k in (0, n, n + 1, n + 2))
    num = (
        params.r0 * params.mu * q * (rho - 1.0) * (p * q * (one - rho_n1) + (1.0 - p) * (one - rho_n))
        + n * (rho - 1.0) * rho_n * (1.0 - p + p * q * rho)
        + p * q * (rho_n2 - 2.0 * rho_n1 + one)
        - (1.0 - p) * (rho_n - one)
    )
    den = (rho - 1.0) * (p * q * (one - rho_n2) + (1.0 - p) * (one - rho_n1))
    return rho * num / den


def _check_forms(summation: float, closed: float, mode: str) -> None:
    # Written so that a nan on either side fails the check.
    if not abs(summation - closed) <= FORM_AGREEMENT_TOL * max(1.0, abs(summation)):
        raise ConsistencyError(
            f"welfare forms disagree in mode {mode!r}: "
            f"summation {summation!r} vs closed {closed!r}"
        )


def welfare_derivative(params: ModelParams, x: float | Threshold, mode: str = "n") -> float:
    """Welfare slope at a non-integer threshold, exact at every rho.

    On (n, n+1) it is ``rho^(n+1) (r0 mu q - F_n) / G^2`` without reneging
    and ``q rho^(n+1) (r0 mu q - F_n) / H^2`` with it: F_n is the optimum's
    sign core, ``G = sum_{i<=n} rho^i + p rho^(n+1)`` and
    ``H = (1-p) sum_{i<=n} rho^i + p q sum_{i<=n+1} rho^i``, all positive
    sums.  Undefined at integers, where the curve has a kink.  Both modes
    share the sign core, so allowing reneging never moves the optimum.
    """
    th = as_threshold(x)
    if th.is_integer:
        raise ValueError("welfare derivative is undefined at integer thresholds")
    if mode not in ("n", "r"):
        raise ValueError(f"mode must be 'n' or 'r', got {mode!r}")
    n, p, rho = th.n, th.p, params.rho
    # Above rho = 1 every sum is divided by rho^n, as in stationary_threshold,
    # so none overflows at large thresholds.
    shift = n if rho > 1.0 else 0
    powers = rho ** np.arange(-shift, n + 2 - shift, dtype=float)
    sums = np.cumsum(powers)  # sums[k] = sum_{i<=k} rho^(i - shift)
    core = params.r0 * params.mu * params.q * powers[0] - float(sums[: n + 1].sum())
    if mode == "n":
        return float(powers[n + 1] * core / (sums[n] + p * powers[n + 1]) ** 2)
    den = (1.0 - p) * sums[n] + p * params.q * sums[n + 1]
    return float(params.q * powers[n + 1] * core / den**2)


def socially_optimal_threshold(params: ModelParams) -> int:
    """Smallest integer k at which the welfare slope turns nonpositive.

    The welfare slope on (k, k+1) has the sign of its core, r0 mu q minus
    F_k = sum_{i<=k} (k+1-i) rho^i, a rising sum of positive terms, exact at
    rho = 1: the first k with F_k >= r0 mu q is the welfare peak at every
    rho.  Away from rho = 1 the marginal condition (Naor's, with service rate
    mu q) ``r0 mu q - v = rho/(1-rho)^2 (v(1-rho) - 1 + rho^v)`` cross-checks
    it at two integers: its root must lie in (k, k+1].  An optimum at or
    beyond ``SCAN_LIMIT`` is outside the supported domain (``ValueError``).
    """
    cap = params.r0 * params.mu * params.q
    if cap < 1.0 - 1e-12:
        raise ValueError("requires a reward at least the bare expected service time 1/(mu q)")
    rho = params.rho
    g = total = 0.0
    for n_star in range(SCAN_LIMIT):
        g = g * rho + 1.0  # sum_{i<=k} rho^i
        total += g  # F_k
        if total >= cap - 1e-12 * cap:
            break
    else:
        raise ValueError(f"the welfare optimum lies beyond SCAN_LIMIT = {SCAN_LIMIT}")
    if abs(rho - 1.0) > RHO_ONE_EPS:
        lo, hi = (
            cap - v - rho / (1.0 - rho) ** 2 * (v * (1.0 - rho) - 1.0 + rho**v)
            for v in (n_star, n_star + 1)
        )
        # The secant root n_star + lo / (lo - hi) may miss by 1e-9; nan fails.
        slack = 1e-9 * (lo - hi)
        if not (lo > -slack and hi <= slack):
            raise ConsistencyError(
                f"threshold scan ({n_star}) disagrees with the marginal balance ({lo!r}, {hi!r})"
            )
    return n_star


def welfare_curve(
    params: ModelParams, step: float = 0.1, x_max: float | None = None
) -> WelfareCurve:
    """Sample both welfare curves on a grid that includes the integers; the
    points of each chain depth share one stacked solve, bit for bit."""
    if not 0.0 < step < float("inf"):
        raise ValueError(f"grid step must be a positive finite number, got {step}")
    if x_max is not None and not 0.0 <= x_max < float("inf"):
        raise ValueError(f"x_max must be a nonnegative finite number or None, got {x_max}")
    n_star = socially_optimal_threshold(params)
    upper = x_max if x_max is not None else n_star + 5.0
    if not upper / step < GRID_LIMIT:
        raise ValueError(
            f"the grid up to {upper} has more than GRID_LIMIT = {GRID_LIMIT} steps, got {step}"
        )
    count = int(round(upper / step))
    xs = np.round(np.arange(count + 1) * step, 12)
    ths = [as_threshold(float(v)) for v in xs]
    s_n, s_r = (np.array(_welfare(params, ths, mode)) for mode in ("n", "r"))
    s_star = float(s_n[xs == n_star][0]) if n_star in xs else welfare_n(params, float(n_star))
    return WelfareCurve(xs, s_n, s_r, n_star, s_star)


def is_unimodal(values: np.ndarray) -> bool:
    """True when the sequence rises to a single peak and then falls."""
    v = np.asarray(values, dtype=float)
    peak = int(np.argmax(v))
    scale = max(1.0, float(np.max(np.abs(v))))
    rising = np.all(np.diff(v[: peak + 1]) >= -UNIMODAL_TOL * scale)
    falling = np.all(np.diff(v[peak:]) <= UNIMODAL_TOL * scale)
    return bool(rising and falling)


def curve_to_csv(curve: WelfareCurve, fh: io.TextIOBase) -> None:
    """Plot-ready dump to a text stream, with header ``x,S_N,S_R``."""
    fh.write("x,S_N,S_R\n")
    for x, sn, sr in zip(curve.x, curve.s_n, curve.s_r):
        fh.write(f"{float(x)!r},{float(sn)!r},{float(sr)!r}\n")
