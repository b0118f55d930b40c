"""Test-side references for the socially optimal threshold and the welfare slope.

``socially_optimal_threshold`` scans a positive sum and checks the marginal
condition at two integers.  These are the routes it replaced, kept verbatim:
the marginal condition's root by a doubling bracket and 200 bisection steps,
and the argmax of welfare over the integers by chain solves.  The slope's
sign core in its closed form, which no library route reads, lives here too,
and so does the exact slope: the flow form differentiated in rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

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


class _Dual:
    """``v + d eps`` with ``eps^2 = 0`` over exact rationals: a value and its
    derivative, carried together through the flow form's arithmetic."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0):
        self.v, self.d = Fraction(v), Fraction(d)

    @staticmethod
    def of(x) -> "_Dual":
        return x if isinstance(x, _Dual) else _Dual(x)

    def __add__(self, other):
        other = _Dual.of(other)
        return _Dual(self.v + other.v, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __sub__(self, other):
        return self + -_Dual.of(other)

    def __rsub__(self, other):
        return _Dual.of(other) - self

    def __mul__(self, other):
        other = _Dual.of(other)
        return _Dual(self.v * other.v, self.d * other.v + self.v * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _Dual.of(other)
        return _Dual(self.v / other.v, (self.d * other.v - self.v * other.d) / other.v**2)

    def __rtruediv__(self, other):
        return _Dual.of(other) / self


def exact_slope(params: ModelParams, x: float, mode: str) -> tuple[Fraction, Fraction]:
    """The welfare slope at a non-integer ``x`` and its reward-free part (the
    slope at r0 = 0), exact: the flow form, reward throughput minus mean
    queue length, differentiated in the joining probability by dual numbers
    over rationals.  The stationary law and the abandonment probability are
    written out from their birth-death cuts; rho is the float ``params.rho``
    taken exactly, and lam = rho mu q."""
    n = int(x)
    p = _Dual(Fraction(x) - n, 1)
    rho, mu, q, r0 = (Fraction(v) for v in (params.rho, params.mu, params.q, params.r0))
    lam = rho * mu * q
    weights = [rho**k for k in range(n + 1)]
    if mode == "n":
        top = p * rho ** (n + 1)
    else:
        top = lam * p / (mu * q + mu * (1 - q) * (1 - p)) * rho**n
    total = sum(weights) + top
    joining = (sum(weights[:n]) + p * weights[n]) / total
    mean_len = (sum(k * w for k, w in enumerate(weights)) + (n + 1) * top) / total
    kept = 1
    if mode == "r":
        # the law a failing customer sees: the stationary law shifted down by one
        seen_full = top / (total - weights[0])
        once = (1 - q) * (1 - p) * seen_full
        kept = 1 - once / (1 - (1 - q) * (1 - (1 - p) * seen_full))
    welfare = lam * r0 * joining * kept - mean_len
    return welfare.d, -mean_len.d
