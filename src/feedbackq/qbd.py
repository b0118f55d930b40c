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
assembly used as its oracle lives with the tests.  Chains built on one
:class:`Ladder` share the blocks and eliminations of their all-joining levels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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
    For a stack of k thresholds (``threshold`` a tuple) the blocks of the
    levels where they differ carry a leading axis of length k.  On a ladder
    the all-joining levels below floor(x) are its shared ``rungs``.
    """

    variant: str
    depth: int
    threshold: Threshold | tuple[Threshold, ...]
    local: tuple[np.ndarray, ...]
    up: tuple[np.ndarray, ...]
    down: tuple[np.ndarray, ...]
    stack: tuple[int, ...] = ()  # leading shape of a solution: (k,) for k thresholds
    ladder: Ladder | None = None
    rungs: tuple[list, ...] = ()  # the ladder's rungs of levels 1, 2, ...

    @property
    def num_states(self) -> int:
        return num_states(self.depth)


@dataclass(eq=False, slots=True)
class Ladder:
    """The lower levels that the chains at one rate point share, for one
    right-hand-side layout (``cols``) and the length of one library call.
    One rate point means equal (lam, mu, q); the reward may differ.

    Below n = floor(x) every variant at every threshold has the same
    all-joining levels, hence the same k_j and h_j: one rung each in
    ``joining``, extended on demand.  A rung is ``[(local, up, down), k, h]``;
    the first solve through it fills k and h.  ``critical`` holds the
    critical values closed on the ladder, keyed by m
    (:func:`feedbackq.equilibrium.critical_values`).
    """

    params: ModelParams
    joining: list[list] = field(default_factory=list)
    cols: np.ndarray | None = None
    critical: dict = field(default_factory=dict)

    def admit(self, params: ModelParams) -> None:
        """Admit only parameters at the ladder's rate point."""
        if (params.lam, params.mu, params.q) != (self.params.lam, self.params.mu, self.params.q):
            raise ValueError("the ladder belongs to another rate point")

    def hold(self, cols: np.ndarray) -> None:
        """Admit only a right-hand side whose rows match, bit for bit, the ones held."""
        held = cols if self.cols is None else self.cols
        if held[: len(cols)].tobytes() != cols[: len(held)].tobytes():
            raise ValueError("a ladder serves one right-hand-side layout")
        if self.cols is None or len(cols) > len(held):
            self.cols = cols.copy()


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
    flat = m.reshape(-1)  # a view: strided slices pick the diagonals
    flat[j - 1] += c.fb * tagged_stay
    flat[j :: j + 1] += c.fb * stay  # entries (i, i - 1)
    if j >= n:
        flat[:: j + 1] += c.arr * (1.0 - p) if j == n else c.arr
    return m


def _up_block(j: int, n: int, p: float, c: _JumpProbs) -> np.ndarray:
    """Arrival-joins block: positions are unchanged, the level grows by one."""
    m = np.zeros((j, j + 1))
    rate = c.arr if j < n else c.arr * p if j == n else 0.0
    if rate:
        m.reshape(-1)[:: j + 2] = rate  # entries (i, i)
    return m


def _down_block(j: int, rate: float) -> np.ndarray:
    """Departure block: someone ahead leaves, so position and level drop by one.

    The first row is zero because a phase-1 departure is the tagged customer
    herself leaving the chain.
    """
    m = np.zeros((j, j - 1))
    m.reshape(-1)[j - 1 :: j] = rate  # entries (i, i - 1)
    return m


def build_chain(
    params: ModelParams,
    threshold: float | Threshold | Sequence[float | Threshold],
    variant: str,
    ladder: Ladder | None = None,
) -> QbdBlocks:
    """Blocks of one chain variant at threshold x, or at a stack of thresholds
    that share one chain depth.

    At the top level of a reneging chain a failed customer ahead of the
    tagged one rejoins only with probability p, the fractional part of x
    (zero for an integer x), and otherwise departs; the tagged customer does
    so too in ``reneging_all`` and always rejoins in ``reneging_tagged``.

    Chains of one depth differ only at the levels p touches: level
    ``depth - 2`` without reneging (an integer x = k reads as n = k - 1,
    p = 1 there, which gives the same blocks), the top two levels with it.
    For a sequence of thresholds those levels' blocks carry a leading stack
    axis, one entry per threshold; every other level keeps one 2-D block.
    On a ``ladder`` the all-joining levels below n and below the stack axis
    are its rungs.
    """
    if variant not in (VARIANT_NONRENEGING, VARIANT_RENEGING_TAGGED, VARIANT_RENEGING_ALL):
        raise ValueError(f"unknown chain variant {variant!r}")
    stacked = not isinstance(threshold, (float, int, Threshold)) and np.ndim(threshold) > 0
    ths = tuple(as_threshold(t) for t in threshold) if stacked else (as_threshold(threshold),)
    reneging = variant != VARIANT_NONRENEGING
    depth = chain_depth(ths[0], reneging) if ths else 0
    if not ths or stacked and any(chain_depth(th, reneging) != depth for th in ths):
        raise ValueError(f"a threshold stack needs thresholds of one chain depth, got {threshold!r}")
    top = depth if reneging else 0
    varying = ({depth - 1, depth} if reneging else {depth - 2}) if stacked else ()
    c = _JumpProbs.from_params(params)
    if ladder is not None:
        ladder.admit(params)

    def level(j: int, n: int, p: float) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        stays = (p, p if variant == VARIANT_RENEGING_ALL else 1.0) if j == top else (1.0, 1.0)
        local = _local_block(j, n, p, c, *stays)
        up = _up_block(j, n, p, c) if j < depth else None
        down = _down_block(j, c.dn + c.fb * (1.0 - p) if j == top else c.dn) if j > 1 else None
        return local, up, down

    def stacked_level(j: int) -> list[np.ndarray | None]:
        each = zip(*(level(j, *branch_parts(th)) for th in ths))
        return [None if blocks[0] is None else np.stack(blocks) for blocks in each]

    n, p = branch_parts(ths[0])
    shared = []  # the ladder's rungs of levels 1, 2, ...
    for j in range(1, n if ladder is not None else 1):
        if j in varying:
            break
        if j > len(ladder.joining):
            ladder.joining.append([level(j, n, p), None, None])
        shared.append(ladder.joining[j - 1])
    local, up, down = zip(*[r[0] for r in shared], *(
        stacked_level(j) if j in varying else level(j, n, p)
        for j in range(len(shared) + 1, depth + 1)
    ))
    th, stack = (ths, (len(ths),)) if stacked else (ths[0], ())
    return QbdBlocks(variant, depth, th, local, up[:-1], down[1:], stack, ladder, tuple(shared))


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

