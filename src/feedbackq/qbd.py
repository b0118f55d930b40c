"""Level-dependent QBD transition blocks for the threshold queueing chains.

Three embedded-chain variants share the triangular state space of
:mod:`feedbackq.model`:

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
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
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
    params: ModelParams
    threshold: Threshold
    local: tuple[np.ndarray, ...]
    up: tuple[np.ndarray, ...]
    down: tuple[np.ndarray, ...]

    @property
    def num_states(self) -> int:
        return num_states(self.depth)


@dataclass(frozen=True, slots=True)
class FullMatrix:
    """Dense assembly of a block chain, with per-row probability deficiency."""

    variant: str
    depth: int
    params: ModelParams
    threshold: Threshold
    matrix: np.ndarray
    deficiency: np.ndarray


def _local_block(j: int, n: int, p: float, c: _JumpProbs) -> np.ndarray:
    """Within-level block for a level below the reneging top.

    Phase 1 holds the tagged customer in service: a failed service sends her
    to the tail, phase j of the same level.  In other phases a failed service
    of the customer ahead moves the tagged customer up one position.  An
    arrival keeps the level only if the newcomer balks (always above level n,
    with probability 1 - p at level n).
    """
    m = np.zeros((j, j))
    m[0, j - 1] += c.fb
    if j > 1:
        rows = np.arange(1, j)
        m[rows, rows - 1] += c.fb
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
    if j > 1:
        rows = np.arange(1, j)
        m[rows, rows - 1] = rate
    return m


def build_nonreneging(params: ModelParams, threshold: float | Threshold) -> QbdBlocks:
    """Blocks of the chain in which nobody may renege.

    Depth is ``ceil(x) + 1``.  For integer thresholds the top level exists
    structurally (the tagged customer may start there) but its feeding
    up-block is zero, so it is unreachable by later arrivals.
    """
    th = as_threshold(threshold)
    n, p = branch_parts(th)
    depth = n + 1 if th.is_integer else n + 2
    c = _JumpProbs.from_params(params)
    local = tuple(_local_block(j, n, p, c) for j in range(1, depth + 1))
    up = tuple(_up_block(j, n, p, c) for j in range(1, depth))
    down = tuple(_down_block(j, c.dn) for j in range(2, depth + 1))
    return QbdBlocks(VARIANT_NONRENEGING, depth, params, th, local, up, down)


def _build_reneging(
    params: ModelParams, threshold: float | Threshold, tagged_reneges: bool
) -> tuple[QbdBlocks, np.ndarray]:
    th = as_threshold(threshold)
    n, p = branch_parts(th)
    depth = n + 1
    c = _JumpProbs.from_params(params)

    local = [_local_block(j, n, p, c) for j in range(1, depth)]
    # Top level: arrivals balk; a failed service at the head sends that
    # customer back to the tail only with probability p, otherwise she
    # reneges.  The tagged customer at the head rejoins surely in the
    # tagged-never-reneges variant.
    top = np.zeros((depth, depth))
    top[np.diag_indices(depth)] += c.arr
    top[0, depth - 1] += c.fb * (p if tagged_reneges else 1.0)
    if depth > 1:
        rows = np.arange(1, depth)
        top[rows, rows - 1] += c.fb * p
    local.append(top)

    up = tuple(_up_block(j, n, p, c) for j in range(1, depth))
    down = [_down_block(j, c.dn) for j in range(2, depth)]
    if depth >= 2:
        # A non-tagged departure from the top level happens on success or on
        # a failed service followed by reneging.
        down.append(_down_block(depth, c.dn + c.fb * (1.0 - p)))

    variant = VARIANT_RENEGING_ALL if tagged_reneges else VARIANT_RENEGING_TAGGED
    blocks = QbdBlocks(variant, depth, params, th, tuple(local), up, tuple(down))
    return blocks, build_rhs_payoff(params, depth)


def build_reneging_tagged(
    params: ModelParams, threshold: float | Threshold
) -> tuple[QbdBlocks, np.ndarray]:
    """Blocks and payoff right-hand side when only the others renege."""
    return _build_reneging(params, threshold, tagged_reneges=False)


def build_reneging_all(
    params: ModelParams, threshold: float | Threshold
) -> tuple[QbdBlocks, np.ndarray]:
    """Blocks and payoff right-hand side when the tagged customer reneges too."""
    return _build_reneging(params, threshold, tagged_reneges=True)


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


def assemble_full(blocks: QbdBlocks) -> FullMatrix:
    """Dense block-tridiagonal matrix in state-index order, plus row deficiencies."""
    size = blocks.num_states
    mat = np.zeros((size, size))
    for j in range(1, blocks.depth + 1):
        r = level_offset(j)
        rows = slice(r, r + j)
        mat[rows, r : r + j] = blocks.local[j - 1]
        if j < blocks.depth:
            cu = level_offset(j + 1)
            mat[rows, cu : cu + j + 1] = blocks.up[j - 1]
        if j > 1:
            cd = level_offset(j - 1)
            mat[rows, cd : cd + j - 1] = blocks.down[j - 2]
    deficiency = 1.0 - mat.sum(axis=1)
    return FullMatrix(
        blocks.variant, blocks.depth, blocks.params, blocks.threshold, mat, deficiency
    )


def matrix_to_csv(full: FullMatrix, path_or_buffer) -> None:
    """Debug dump: a `# variant,J,lambda,mu,q,x` header line, then dense rows."""
    p = full.params
    header = (
        f"# {full.variant},{full.depth},{p.lam!r},{p.mu!r},{p.q!r},"
        f"{full.threshold.x!r}\n"
    )
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        with open(path_or_buffer, "w", newline="\n") as fh:
            _write_matrix(fh, header, full.matrix)
    else:
        _write_matrix(path_or_buffer, header, full.matrix)


def _write_matrix(fh: io.TextIOBase, header: str, matrix: np.ndarray) -> None:
    fh.write(header)
    for row in matrix:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")
