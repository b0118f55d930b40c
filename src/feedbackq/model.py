"""Core model types: rates, threshold strategies, and triangular state indexing.

Customers arrive at rate ``lam`` to a single exponential server of rate
``mu``.  Each completed service succeeds with probability ``q``; on failure
the customer instantly rejoins the tail of the queue.  A successful
completion pays ``r0``; waiting costs one unit per unit time.

All solvers live on the triangular state space ``{(i, j): 1 <= i <= j <= J}``
where ``j`` counts customers in the system and ``i`` is the position of a
tagged customer.  States are ordered level by level:
``(1,1), (1,2), (2,2), (1,3), (2,3), (3,3), ...``
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

#: Fractional parts below this are treated as exactly zero: the chain
#: construction branches on integer thresholds.
INTEGER_EPS = 1e-12


def _real(value, what: str) -> float:
    """``value`` as a finite Python float.  Python and numpy reals are
    accepted; bools are not, though Python counts them as integers (numpy's
    bool is no ``numbers.Real``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return out


def int_at_least(value, lowest: int, what: str) -> int:
    """``value`` as a Python int >= ``lowest``.  Any ``numbers.Integral`` is
    accepted, numpy's included; bools and integral floats are not."""
    # A plain int skips the ABC check, which would cost every state lookup.
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if not integral or value < lowest:
        raise ValueError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return int(value)


def positive_int(value, what: str) -> int:
    """``value`` as a Python int >= 1, by :func:`int_at_least`'s rule."""
    return int_at_least(value, 1, what)


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Arrival rate, service rate, success probability, and service reward.

    The waiting cost rate is normalised to one, so ``r0`` is measured in
    units of expected waiting time.
    """

    lam: float
    mu: float
    q: float
    r0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "q", "r0"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.lam <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {self.lam}")
        if self.mu <= 0.0:
            raise ValueError(f"service rate must be positive, got {self.mu}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"success probability must lie in (0, 1], got {self.q}")
        if self.r0 < 0.0:
            raise ValueError(f"reward must be nonnegative, got {self.r0}")

    @property
    def rho(self) -> float:
        """Traffic intensity of the effective service process, lam / (mu q)."""
        return self.lam / (self.mu * self.q)

    def with_r0(self, r0: float) -> ModelParams:
        """Copy with a different service reward."""
        return ModelParams(self.lam, self.mu, self.q, r0)


@dataclass(frozen=True, slots=True)
class Threshold:
    """Join surely at positions <= n, with probability p at n + 1, never beyond."""

    x: float
    n: int
    p: float

    @property
    def is_integer(self) -> bool:
        """True when the fractional part is (numerically) exactly zero."""
        return self.p < INTEGER_EPS


def make_threshold(x: float) -> Threshold:
    """Split a nonnegative real threshold into integer and fractional parts."""
    x = _real(x, "threshold")
    if x < 0.0:
        raise ValueError(f"threshold must be a finite nonnegative real, got {x!r}")
    n = int(math.floor(x))
    return Threshold(x=x, n=n, p=x - n)


def as_threshold(x: float | Threshold) -> Threshold:
    return x if isinstance(x, Threshold) else make_threshold(x)


def branch_parts(th: Threshold) -> tuple[int, float]:
    """Integer and fractional parts, with the fraction snapped to zero when
    the threshold is integer-valued (the chain shapes branch on that case)."""
    return th.n, 0.0 if th.is_integer else th.p


def chain_depth(th: Threshold, reneging: bool) -> int:
    """Levels of the tagged-customer chain under threshold ``th``:
    ``floor(x) + 1`` with reneging, ``ceil(x) + 1`` without."""
    return th.n + 1 if reneging or th.is_integer else th.n + 2


def state_index(i: int, j: int) -> int:
    """1-based linear position of state (i, j) in the level-major ordering."""
    i, j = positive_int(i, "state coordinate i"), positive_int(j, "state coordinate j")
    if i > j:
        raise ValueError(f"state ({i}, {j}) outside the triangular region 1 <= i <= j")
    return j * (j - 1) // 2 + i


def inverse_index(k: int) -> tuple[int, int]:
    """Invert :func:`state_index`; round-trips exactly."""
    k = positive_int(k, "linear index")
    j = (math.isqrt(8 * k - 7) + 1) // 2
    i = k - j * (j - 1) // 2
    return i, j


def num_states(depth: int) -> int:
    """Number of states in a chain with levels 1..depth."""
    return depth * (depth + 1) // 2


def level_offset(j: int) -> int:
    """0-based offset of state (1, j) in a value vector."""
    return j * (j - 1) // 2
