"""Level-dependent QBD transition blocks for the threshold queueing chains.

One builder, :func:`build_chain`, makes the three embedded-chain variants
on the triangular state space of :mod:`feedbackq.model`.  Levels up to
``floor(x)`` are the same in all three; they differ in who may renege after
a failed service at level ``floor(x) + 1``, and in depth
(:func:`feedbackq.model.chain_depth`):

``nonreneging``
    Nobody may leave before a successful completion.  Depth ``ceil(x) + 1``:
    the top level is reachable only as a starting state (a tagged customer
    contemplating the highest joining position), never by later arrivals.
``reneging_tagged``
    Customers ahead of the tagged one renege when a failed service would put
    them back at a position beyond the threshold; the tagged customer never
    reneges.  Depth ``floor(x) + 1``.
``reneging_all``
    As above, but the tagged customer also reneges at the threshold, walking
    away without the reward.  Depth ``floor(x) + 1``.

Entries are jump probabilities of the chain embedded at the transition
epochs of the exponential race between arrivals (rate ``lam``) and services
(rate ``mu``), so every nonzero entry is a ratio with denominator
``lam + mu``.  Rows in which the tagged customer is in service (phase 1) are
deficient: the success mass ``mu q / (lam + mu)`` leaves the chain, and in
the ``reneging_all`` variant the top-level phase-1 row additionally loses
the renege mass ``mu (1-q)(1-p) / (lam + mu)``.

The blocks are all the structured solver
(:func:`feedbackq.solver.solve_structured`) reads: it eliminates them level
by level, from level 1 up, and never assembles the full matrix.  The dense
assembly used as its oracle lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
    chain_depth,
    level_offset,
    num_states,
)

VARIANT_NONRENEGING = "nonreneging"
VARIANT_RENEGING_TAGGED = "reneging_tagged"
VARIANT_RENEGING_ALL = "reneging_all"


@dataclass(frozen=True, slots=True)
class _JumpProbs:
    arr: float  # an arrival wins the race
    dn: float   # a service completes and the customer departs
    fb: float   # a service completes but fails; the customer may rejoin

    @classmethod
    def from_params(cls, params: ModelParams) -> _JumpProbs:
        denom = params.lam + params.mu
        return cls(
            arr=params.lam / denom,
            dn=params.mu * params.q / denom,
            fb=params.mu * (1.0 - params.q) / denom,
        )


@dataclass(frozen=True, slots=True)
class QbdBlocks:
    """Per-level transition blocks of one chain variant.

    ``local[j-1]`` is the j x j within-level block of level j, ``up[j-1]``
    the j x (j+1) block to level j+1 (absent for the top level), and
    ``down[j-2]`` the j x (j-1) block to level j-1 (absent for level 1).
    """

    variant: str
    depth: int
    threshold: Threshold
    local: tuple[np.ndarray, ...]
    up: tuple[np.ndarray, ...]
    down: tuple[np.ndarray, ...]

    @property
    def num_states(self) -> int:
        return num_states(self.depth)


def _local_block(
    j: int, n: int, p: float, c: _JumpProbs, stay: float = 1.0, tagged_stay: float = 1.0
) -> np.ndarray:
    """Within-level block of level j.

    Phase 1 holds the tagged customer in service: a failed service sends her
    to the tail, phase j of the same level, if she stays (``tagged_stay``).
    In other phases a failed service of the customer ahead moves the tagged
    customer up one position if that customer stays (``stay``).  An arrival
    keeps the level only if the newcomer balks (always above level n, with
    probability 1 - p at level n).
    """
    m = np.zeros((j, j))
    m[0, j - 1] += c.fb * tagged_stay
    if j > 1:
        rows = np.arange(1, j)
        m[rows, rows - 1] += c.fb * stay
    if j == n:
        m[np.diag_indices(j)] += c.arr * (1.0 - p)
    elif j > n:
        m[np.diag_indices(j)] += c.arr
    return m


def _up_block(j: int, n: int, p: float, c: _JumpProbs) -> np.ndarray:
    """Arrival-joins block: positions are unchanged, the level grows by one."""
    m = np.zeros((j, j + 1))
    if j < n:
        rate = c.arr
    elif j == n:
        rate = c.arr * p
    else:
        rate = 0.0
    if rate:
        idx = np.arange(j)
        m[idx, idx] = rate
    return m


def _down_block(j: int, rate: float) -> np.ndarray:
    """Departure block: someone ahead leaves, so position and level drop by one.

    The first row is zero because a phase-1 departure is the tagged customer
    herself leaving the chain.
    """
    m = np.zeros((j, j - 1))
    rows = np.arange(1, j)
    m[rows, rows - 1] = rate
    return m


def build_chain(params: ModelParams, threshold: float | Threshold, variant: str) -> QbdBlocks:
    """Blocks of one chain variant at threshold x.

    At the top level of a reneging chain a failed customer ahead of the
    tagged one rejoins only with probability p, the fractional part of x
    (zero for an integer x), and otherwise departs; the tagged customer does
    so too in ``reneging_all`` and always rejoins in ``reneging_tagged``.
    """
    if variant not in (VARIANT_NONRENEGING, VARIANT_RENEGING_TAGGED, VARIANT_RENEGING_ALL):
        raise ValueError(f"unknown chain variant {variant!r}")
    th = as_threshold(threshold)
    n, p = branch_parts(th)
    reneging = variant != VARIANT_NONRENEGING
    depth = chain_depth(th, reneging)
    top = depth if reneging else 0
    tagged_stay = p if variant == VARIANT_RENEGING_ALL else 1.0
    c = _JumpProbs.from_params(params)
    local = tuple(
        _local_block(j, n, p, c, p, tagged_stay) if j == top else _local_block(j, n, p, c)
        for j in range(1, depth + 1)
    )
    up = tuple(_up_block(j, n, p, c) for j in range(1, depth))
    down = tuple(
        _down_block(j, c.dn + c.fb * (1.0 - p) if j == top else c.dn)
        for j in range(2, depth + 1)
    )
    return QbdBlocks(variant, depth, th, local, up, down)


def build_rhs_payoff(params: ModelParams, depth: int) -> np.ndarray:
    """Right-hand side of the payoff form of Poisson's equation.

    Every state pays the expected inter-transition time 1/(lam + mu); states
    with the tagged customer in service additionally collect the reward with
    the success mass of the next transition.
    """
    g = np.full(num_states(depth), -1.0 / (params.lam + params.mu))
    starts = [level_offset(j) for j in range(1, depth + 1)]
    g[starts] += params.mu * params.q * params.r0 / (params.lam + params.mu)
    return g


def build_rhs_sojourn(params: ModelParams, depth: int) -> np.ndarray:
    """Constant right-hand side for expected-sojourn solves."""
    return np.full(num_states(depth), 1.0 / (params.lam + params.mu))

