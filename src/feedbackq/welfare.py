"""Social welfare under a population threshold, with and without reneging.

Welfare is the long-run rate of net customer benefit.  It is computed three
ways that must agree: a summation over joining positions weighted by the
stationary law and the positional payoffs, a flow form (reward throughput
minus mean queue length, by Little's law), and a closed form obtained by
collapsing the geometric sums.  The closed forms power the derivative sign
analysis and the optimal-threshold criterion.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .analytics import renege_probability, stationary_threshold
from .model import ModelParams, Threshold, as_threshold, branch_parts
from .solver import ConsistencyError, payoff_vector_n, payoff_vector_r_all

#: Relative agreement demanded between the summation and closed forms.
FORM_AGREEMENT_TOL = 1e-9

#: Traffic intensities within this distance of one are handled by the
#: summation/grid paths only; the closed forms degenerate there.
RHO_ONE_EPS = 1e-6


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
    th = as_threshold(x)
    value = _welfare_sum(params, th, mode="n")
    if abs(params.rho - 1.0) > RHO_ONE_EPS:
        closed = _welfare_n_closed(params, th)
        _check_forms(value, closed, "n")
    return value


def welfare_r(params: ModelParams, x: float | Threshold) -> float:
    """Welfare with reneging; reneging customers forfeit the reward."""
    th = as_threshold(x)
    value = _welfare_sum(params, th, mode="r")
    if abs(params.rho - 1.0) > RHO_ONE_EPS:
        closed = _welfare_r_closed(params, th)
        _check_forms(value, closed, "r")
    return value


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


def _welfare_sum(params: ModelParams, th: Threshold, mode: str) -> float:
    if th.x == 0.0:
        return 0.0
    dist = stationary_threshold(params, th, mode).probs
    z = payoff_vector_n(params, th) if mode == "n" else payoff_vector_r_all(params, th)
    return params.lam * z.joining_mean(dist, th)


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


def derivative_sign_core(params: ModelParams, n: int) -> float:
    """The factor whose sign decides whether welfare rises on (n, n+1)."""
    rho = params.rho
    return params.r0 * params.lam * (rho - 1.0) ** 2 - rho * (
        1.0 - 2.0 * rho + n * (1.0 - rho) + rho ** (n + 2)
    )


def welfare_derivative(params: ModelParams, x: float | Threshold, mode: str = "n") -> float:
    """Closed-form welfare slope at a non-integer threshold.

    Undefined at integers, where the curve has a kink.  Both modes share the
    sign-deciding core, so allowing reneging never moves the optimum.
    """
    th = as_threshold(x)
    if th.is_integer:
        raise ValueError("welfare derivative is undefined at integer thresholds")
    if mode not in ("n", "r"):
        raise ValueError(f"mode must be 'n' or 'r', got {mode!r}")
    rho = params.rho
    if abs(rho - 1.0) <= RHO_ONE_EPS:
        raise ValueError("closed-form welfare derivative requires rho != 1")
    n, p = th.n, th.p
    core = derivative_sign_core(params, n)
    if mode == "n":
        den = (1.0 + rho ** (n + 1) * (p * (1.0 - rho) - 1.0)) ** 2
        return rho**n * core / den
    den = ((1.0 - p) * (rho ** (n + 1) - 1.0) + p * params.q * (rho ** (n + 2) - 1.0)) ** 2
    return params.q * rho**n * core / den


def socially_optimal_threshold(params: ModelParams, kmax: int = 10_000) -> int:
    """Smallest integer k at which the welfare slope turns nonpositive.

    The sign core is strictly increasing in k (away from rho = 1), so the
    first nonnegative crossing is the peak of the unimodal curve.  A
    root-based evaluation of the same marginal condition cross-checks the
    scan: the optimum is the integer part of that root.  At rho = 1 the
    criterion degenerates and an integer-grid argmax is used instead.
    """
    if params.r0 * params.mu * params.q < 1.0 - 1e-12:
        raise ValueError("requires a reward at least the bare expected service time 1/(mu q)")
    rho = params.rho
    if abs(rho - 1.0) <= RHO_ONE_EPS:
        return _grid_argmax(params, kmax)
    target = params.r0 * params.lam * (1.0 - rho) ** 2
    n_star: int | None = None
    for k in range(kmax):
        f_k = 1.0 - 2.0 * rho + k * (1.0 - rho) + rho ** (k + 2)
        if rho * f_k >= target - 1e-12 * max(1.0, abs(target)):
            n_star = k
            break
    if n_star is None:
        raise ConsistencyError(f"no welfare peak found below k = {kmax}")
    nu = _marginal_root(params)
    floor_nu = int(np.floor(nu + 1e-12))
    if n_star != floor_nu and abs(nu - round(nu)) > 1e-9:
        raise ConsistencyError(
            f"threshold scan ({n_star}) disagrees with the marginal root ({nu})"
        )
    return n_star


def _marginal_root(params: ModelParams) -> float:
    """Root of `r0 mu q - v = rho/(1-rho)^2 (v(1-rho) - 1 + rho^v)` in v."""
    rho = params.rho
    cap = params.r0 * params.mu * params.q

    def balance(v: float) -> float:
        return cap - v - rho / (1.0 - rho) ** 2 * (v * (1.0 - rho) - 1.0 + rho**v)

    lo, hi = 0.0, max(cap, 1.0)
    for _ in range(200):
        if balance(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConsistencyError("marginal-root bracket did not close")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grid_argmax(params: ModelParams, kmax: int) -> int:
    best_k, best_v = 0, 0.0
    stale = 0
    for k in range(kmax):
        v = welfare_n(params, float(k))
        if v > best_v + 1e-12:
            best_k, best_v = k, v
            stale = 0
        else:
            stale += 1
            if stale >= 10:
                break
    return best_k


def welfare_curve(
    params: ModelParams, step: float = 0.1, x_max: float | None = None
) -> WelfareCurve:
    """Sample both welfare curves on a grid that includes the integers."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    n_star = socially_optimal_threshold(params)
    s_star = welfare_n(params, float(n_star))
    upper = x_max if x_max is not None else n_star + 5.0
    count = int(round(upper / step))
    xs = np.round(np.arange(count + 1) * step, 12)
    s_n = np.array([welfare_n(params, float(v)) for v in xs])
    s_r = np.array([welfare_r(params, float(v)) for v in xs])
    return WelfareCurve(xs, s_n, s_r, n_star, s_star)


def is_unimodal(values: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the sequence rises to a single peak and then falls."""
    v = np.asarray(values, dtype=float)
    peak = int(np.argmax(v))
    scale = max(1.0, float(np.max(np.abs(v))))
    rising = np.all(np.diff(v[: peak + 1]) >= -tol * scale)
    falling = np.all(np.diff(v[peak:]) <= tol * scale)
    return bool(rising and falling)


def curve_to_csv(curve: WelfareCurve, fh: io.TextIOBase) -> None:
    """Plot-ready dump to a text stream, with header ``x,S_N,S_R``."""
    fh.write("x,S_N,S_R\n")
    for x, sn, sr in zip(curve.x, curve.s_n, curve.s_r):
        fh.write(f"{float(x)!r},{float(sn)!r},{float(sr)!r}\n")
