"""Test-side references for the socially optimal threshold and the welfare slope.

``socially_optimal_threshold`` scans a positive sum and checks the marginal
condition at two integers.  These are the routes it replaced, kept verbatim:
the marginal condition's root by a doubling bracket and 200 bisection steps,
and the argmax of welfare over the integers by chain solves.  The slope's
sign core in its closed form, which no library route reads, lives here too.
"""

from __future__ import annotations

from feedbackq import ConsistencyError, ModelParams, welfare_n


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


def derivative_sign_core(params: ModelParams, n: int) -> float:
    """The factor whose sign decides whether welfare rises on (n, n+1)."""
    rho = params.rho
    return params.r0 * params.lam * (rho - 1.0) ** 2 - rho * (
        1.0 - 2.0 * rho + n * (1.0 - rho) + rho ** (n + 2)
    )
