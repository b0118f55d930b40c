"""Level-dependent QBD chains of the threshold queue, stored as per-level jump rates.

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

Each level follows one rule (:func:`_level_rates`): five jump rates, and
``QbdBlocks.rates`` holds them, the chain's only stored form.  The structured
solver (:func:`feedbackq.solver.solve_structured`) eliminates the levels one
by one, from level 1 up, expanding each level's blocks from its rates only
when it reaches it, and never assembles the full matrix; it solves each block
by LAPACK's gesv without ``np.linalg.solve``'s wrapper (``solver._solve``),
whose checks cost more than so small a solve, under one floating-point hook
per elimination that reports a singular block.  Its residual check reads the
rates directly, so a fault in that expansion fails the check.  The dense
assembly used as the solver's oracle lives with the tests.  Every chain at
one rate point joins alike below floor(x) (``QbdBlocks.shared``); the solver
eliminates those levels once per stack and once per :class:`Ladder`.
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
class QbdBlocks:
    """One chain variant, stored as its levels' jump rates.

    ``rates[j-1]`` holds level j's five jump rates: the balk self-loop, the
    feedback shift (i, j) -> (i - 1, j), phase 1's feedback to the tail
    (1, j) -> (j, j), the join (i, j) -> (i, j + 1) and the departure
    (i, j) -> (i - 1, j - 1).  They fill the within-level block L_j (the
    first three), the block U_j to level j + 1 (the joins on its diagonal)
    and the block D_j to level j - 1 (the departures on its sub-diagonal),
    and nothing else; the solver expands them level by level.  For a stack
    of k thresholds (``threshold`` a tuple) ``rates`` has shape
    (k, depth, 5).  Levels 1 .. ``shared``, the all-joining levels below the
    smallest floor(x) of the stack, have one row of rates in every chain at
    the rate point; on a ``ladder`` they are its rungs.
    """

    variant: str
    depth: int
    threshold: Threshold | tuple[Threshold, ...]
    rates: np.ndarray
    stack: tuple[int, ...] = ()  # leading shape of a solution: (k,) for k thresholds
    ladder: Ladder | None = None
    shared: int = 0

    @property
    def num_states(self) -> int:
        return num_states(self.depth)


@dataclass(eq=False, slots=True)
class Ladder:
    """The lower levels that the chains at one rate point share, for one
    right-hand-side layout (``cols``) and the length of one library call.
    One rate point means equal (lam, mu, q); the reward may differ.

    Below n = floor(x) every variant at every threshold has the same
    all-joining levels, hence the same k_j and h_j: one rung ``(k, h)`` each
    in ``joining``, levels 1, 2, ... in order, appended by the first solve
    that eliminates the level (``QbdBlocks.shared``).  ``critical`` holds
    the critical values closed on the ladder, keyed by m
    (:func:`feedbackq.equilibrium.critical_values`), and ``roots`` the
    no-reneging mixed roots, keyed by m and the reward.
    """

    params: ModelParams
    joining: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cols: np.ndarray | None = None
    critical: dict = field(default_factory=dict)
    roots: dict = field(default_factory=dict)

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
    j: int, n: int, p: float, jumps: tuple[float, float, float], top: int, tagged_reneges: bool
) -> tuple[float, float, float, float, float]:
    """The five jump rates of level j, in the order of ``QbdBlocks.rates``.

    ``jumps`` are the chances that an arrival wins the race, that a service
    completes and the customer departs, and that it fails and she may
    rejoin.  An arrival keeps the level only if the newcomer balks (always
    above level n, with probability 1 - p at level n), and otherwise joins.
    In phases other than 1 a failed service of the customer ahead moves the
    tagged customer up one position; in phase 1 the tagged customer is in
    service, and a failed service sends her to the tail, phase j of the same
    level.  At the ``top`` level of a reneging chain the customer ahead stays
    only with probability p, and so does the tagged one if she
    ``tagged_reneges``; a leaver departs like a completed service.
    """
    arr, dn, fb = jumps
    stay = p if j == top else 1.0
    balk = arr * (1.0 - p) if j == n else arr if j > n else 0.0
    join = arr if j < n else arr * p if j == n else 0.0
    tail = fb * (stay if tagged_reneges else 1.0)
    return balk, fb * stay, tail, join, dn + fb * (1.0 - stay)


def build_chain(
    params: ModelParams,
    threshold: float | Threshold | Sequence[float | Threshold],
    variant: str,
    ladder: Ladder | None = None,
) -> QbdBlocks:
    """Jump rates of one chain variant at threshold x, or at a stack of
    thresholds that share one chain depth.

    At the top level of a reneging chain a failed customer ahead of the
    tagged one rejoins only with probability p, the fractional part of x
    (zero for an integer x), and otherwise departs; the tagged customer does
    so too in ``reneging_all`` and always rejoins in ``reneging_tagged``.

    The all-joining levels below the smallest n = floor(x) are the chain's
    ``shared`` levels; on a ``ladder`` they are its rungs.
    """
    if variant not in (VARIANT_NONRENEGING, VARIANT_RENEGING_TAGGED, VARIANT_RENEGING_ALL):
        raise ValueError(f"unknown chain variant {variant!r}")
    stacked = not isinstance(threshold, (float, int, Threshold)) and np.ndim(threshold) > 0
    ths = tuple(as_threshold(t) for t in threshold) if stacked else (as_threshold(threshold),)
    reneging = variant != VARIANT_NONRENEGING
    depth = chain_depth(ths[0], reneging) if ths else 0
    if not ths or stacked and any(chain_depth(th, reneging) != depth for th in ths):
        raise ValueError(f"a threshold stack needs thresholds of one chain depth, got {threshold!r}")
    denom = params.lam + params.mu
    jumps = params.lam / denom, params.mu * params.q / denom, params.mu * (1.0 - params.q) / denom
    top = depth if reneging else 0
    tagged_reneges = variant == VARIANT_RENEGING_ALL

    def rows(th: Threshold) -> list[float]:  # flat, which np.array reads fastest
        n, p = branch_parts(th)
        levels = range(max(n - 1, 1), depth + 1)
        own = [r for j in levels for r in _level_rates(j, n, p, jumps, top, tagged_reneges)]
        return own[:5] * (n - 2) + own  # every level below n joins alike

    if ladder is not None:
        ladder.admit(params)
    shared = max(min(th.n for th in ths), 1) - 1
    th, stack = (ths, (len(ths),)) if stacked else (ths[0], ())
    rates = np.array([r for t in ths for r in rows(t)], dtype=float).reshape(stack + (depth, 5))
    return QbdBlocks(variant, depth, th, rates, stack, ladder, shared)


def build_rhs_payoff(params: ModelParams, depth: int) -> np.ndarray:
    """Right-hand side of the payoff form of Poisson's equation.

    Every state pays the expected inter-transition time 1/(lam + mu); states
    with the tagged customer in service additionally collect the reward with
    the success mass of the next transition.
    """
    g = np.empty(num_states(depth))
    g.fill(-1.0 / (params.lam + params.mu))
    starts = [level_offset(j) for j in range(1, depth + 1)]
    g[starts] += params.mu * params.q * params.r0 / (params.lam + params.mu)
    return g


def build_rhs_sojourn(params: ModelParams, depth: int) -> np.ndarray:
    """Constant right-hand side for expected-sojourn solves."""
    g = np.empty(num_states(depth))  # np.full's wrapper costs more than the fill
    g.fill(1.0 / (params.lam + params.mu))
    return g

