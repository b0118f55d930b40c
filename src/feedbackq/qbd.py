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

Each level follows one rule (:func:`_level_rates`): five jump rates, from
which its blocks are expanded.  The structured solver
(:func:`feedbackq.solver.solve_structured`) eliminates the blocks level by
level, from level 1 up, and never assembles the full matrix; its residual
check reads the rates instead, so a fault in expanding them into blocks
fails the check.  The dense assembly used as the solver's oracle lives with
the tests.  Chains built on one :class:`Ladder` share the blocks and
eliminations of their all-joining levels.
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
    ``rates[j-1]`` holds level j's five jump rates: the balk self-loop, the
    feedback shift (i, j) -> (i - 1, j), phase 1's feedback to the tail
    (1, j) -> (j, j), the join (i, j) -> (i, j + 1) and the departure
    (i, j) -> (i - 1, j - 1); the blocks hold them and nothing else.
    For a stack of k thresholds (``threshold`` a tuple) the blocks of the
    levels where they differ carry a leading axis of length k, and ``rates``
    has shape (k, depth, 5).  On a ladder the all-joining levels below
    floor(x) are its shared ``rungs``, and share one row of rates.
    """

    variant: str
    depth: int
    threshold: Threshold | tuple[Threshold, ...]
    local: tuple[np.ndarray, ...]
    up: tuple[np.ndarray, ...]
    down: tuple[np.ndarray, ...]
    rates: np.ndarray
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


def _level_rates(
    j: int, n: int, p: float, c: _JumpProbs, top: int, tagged_reneges: bool
) -> tuple[float, float, float, float, float]:
    """The five jump rates of level j, in the order of ``QbdBlocks.rates``.

    An arrival keeps the level only if the newcomer balks (always above
    level n, with probability 1 - p at level n), and otherwise joins.  In
    phases other than 1 a failed service of the customer ahead moves the
    tagged customer up one position; in phase 1 the tagged customer is in
    service, and a failed service sends her to the tail, phase j of the same
    level.  At the ``top`` level of a reneging chain the customer ahead stays
    only with probability p, and so does the tagged one if she
    ``tagged_reneges``; a leaver departs like a completed service.
    """
    stay = p if j == top else 1.0
    balk = c.arr * (1.0 - p) if j == n else c.arr if j > n else 0.0
    join = c.arr if j < n else c.arr * p if j == n else 0.0
    tail = c.fb * (stay if tagged_reneges else 1.0)
    return balk, c.fb * stay, tail, join, c.dn + c.fb * (1.0 - stay)


def _local_block(j: int, rates: tuple[float, ...]) -> np.ndarray:
    """Within-level block of level j: the balk self-loops on the diagonal,
    the feedback shifts (i, i - 1) below it, and phase 1's feedback to the
    tail in the top-right corner."""
    balk, shift, tail = rates[:3]
    m = np.zeros((j, j))
    flat = m.reshape(-1)  # a view: strided slices pick the diagonals
    flat[j - 1] = tail
    flat[j :: j + 1] = shift  # entries (i, i - 1)
    if balk:
        flat[:: j + 1] += balk
    return m


def _up_block(j: int, rates: tuple[float, ...]) -> np.ndarray:
    """Arrival-joins block: positions are unchanged, the level grows by one."""
    m = np.zeros((j, j + 1))
    if rates[3]:
        m.reshape(-1)[:: j + 2] = rates[3]  # entries (i, i)
    return m


def _down_block(j: int, rates: tuple[float, ...]) -> np.ndarray:
    """Departure block: someone ahead leaves, so position and level drop by one.

    The first row is zero because a phase-1 departure is the tagged customer
    herself leaving the chain.
    """
    m = np.zeros((j, j - 1))
    m.reshape(-1)[j - 1 :: j] = rates[4]  # entries (i, i - 1)
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
    tagged_reneges = variant == VARIANT_RENEGING_ALL
    if ladder is not None:
        ladder.admit(params)

    def level(j: int, row: tuple[float, ...]) -> tuple[np.ndarray, ...]:
        up = _up_block(j, row) if j < depth else None
        return _local_block(j, row), up, _down_block(j, row) if j > 1 else None

    def stacked_level(j: int) -> list[np.ndarray | None]:
        blocks = zip(*(level(j, own[j]) for own in each))
        return [None if b[0] is None else np.stack(b) for b in blocks]

    n, p = branch_parts(ths[0])
    shared = []  # the ladder's rungs of levels 1, 2, ...
    for j in range(1, n if ladder is not None else 1):
        if j in varying:
            break
        if j > len(ladder.joining):
            row = _level_rates(j, n, p, c, top, tagged_reneges)
            ladder.joining.append([level(j, row), None, None])
        shared.append(ladder.joining[j - 1])
    above = range(len(shared) + 1, depth + 1)
    rows = [_level_rates(j, n, p, c, top, tagged_reneges) for j in above]
    if stacked:
        each = [
            {j: _level_rates(j, *branch_parts(th), c, top, tagged_reneges) for j in varying}
            for th in ths
        ]
    blocks = [r[0] for r in shared] + [
        stacked_level(j) if j in varying else level(j, row) for j, row in zip(above, rows)
    ]
    if shared:  # every level below n joins alike
        rows = [_level_rates(1, n, p, c, top, tagged_reneges)] * len(shared) + rows
    if stacked:
        rows = [[own.get(j, row) for j, row in enumerate(rows, 1)] for own in each]
    local, up, down = zip(*blocks)
    th, stack = (ths, (len(ths),)) if stacked else (ths[0], ())
    rates = np.array(rows)
    return QbdBlocks(variant, depth, th, local, up[:-1], down[1:], rates, stack, ladder, tuple(shared))


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

