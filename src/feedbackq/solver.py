"""Two independent solvers for (I - P) v = b on the threshold QBD chains.

The structured path eliminates level by level through taboo-return blocks
``U``, expected-visit blocks ``Gamma``, and first-passage-down blocks ``G``;
the dense path assembles the full matrix and uses direct elimination.  The
two must agree to ``RESIDUAL_TOL`` relative accuracy; the dense route is the
correctness oracle for the structured one, and the tests cross-check it in
turn against a truncated series evaluation of ``sum_d P^d b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
    level_offset,
    num_states,
    state_index,
)
from .qbd import (
    VARIANT_NONRENEGING,
    VARIANT_RENEGING_ALL,
    VARIANT_RENEGING_TAGGED,
    FullMatrix,
    QbdBlocks,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
)

#: Relative infinity-norm residual admitted for any linear solve.
RESIDUAL_TOL = 1e-10

#: Admitted disagreement between a payoff solve and its reward-minus-sojourn twin.
AFFINE_CHECK_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """An internal cross-check (residual, oracle agreement) failed."""


@dataclass(frozen=True, slots=True)
class UgFactors:
    """Level factors of the block elimination.

    ``u[j-1]`` collects the probabilities of returning to level j without
    having visited level j-1, ``g[j-1]`` the first-passage probabilities from
    level j to level j-1, and ``gamma[j-1]`` the expected visits to level j
    states, before returning below, per entry into level j-1.
    """

    depth: int
    u: tuple[np.ndarray, ...]
    gamma: tuple[np.ndarray | None, ...]
    g: tuple[np.ndarray | None, ...]


@dataclass(frozen=True, slots=True)
class ValueVector:
    """A solved value function on the triangular state space.

    ``kind`` is one of ``sojourn_n``, ``sojourn_r``, ``payoff_n``,
    ``payoff_r_tagged``, ``payoff_r_all``.
    """

    kind: str
    values: np.ndarray
    depth: int
    params: ModelParams
    threshold: Threshold

    def at(self, i: int, j: int) -> float:
        """Value of state (i, j)."""
        if not 1 <= i <= j <= self.depth:
            raise ValueError(f"state ({i}, {j}) outside depth {self.depth}")
        return float(self.values[state_index(i, j) - 1])

    def diagonal(self) -> np.ndarray:
        """Values at the joining states (j, j), j = 1..depth."""
        return np.array([self.values[state_index(j, j) - 1] for j in range(1, self.depth + 1)])

    def joining_mean(self, probs: np.ndarray, x: float | Threshold) -> float:
        """Joining-state values averaged over the law ``probs`` of the queue
        length an arrival sees, for an arrival who thresholds at ``x``.

        Seeing k - 1 customers she joins at state (k, k): surely up to the
        integer part of x, with the fractional probability one position
        higher, never beyond the chain.  Balking contributes zero.
        """
        n, p = branch_parts(as_threshold(x))
        total = sum(probs[i - 1] * self.at(i, i) for i in range(1, min(n, self.depth) + 1))
        if p and n < self.depth:
            total += p * probs[n] * self.at(n + 1, n + 1)
        return float(total)


def factorize(blocks: QbdBlocks) -> UgFactors:
    """Backward elimination of the level-dependent blocks, top level first."""
    depth = blocks.depth
    u: list[np.ndarray | None] = [None] * depth
    gamma: list[np.ndarray | None] = [None] * depth
    g: list[np.ndarray | None] = [None] * depth
    u[depth - 1] = np.array(blocks.local[depth - 1])
    for j in range(depth, 1, -1):
        iu = np.eye(j) - u[j - 1]
        try:
            g[j - 1] = np.linalg.solve(iu, blocks.down[j - 2])
            gamma[j - 1] = np.linalg.solve(iu.T, blocks.up[j - 2].T).T
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError(f"singular elimination block at level {j}") from exc
        u[j - 2] = blocks.local[j - 2] + blocks.up[j - 2] @ g[j - 1]
    return UgFactors(depth, tuple(u), tuple(gamma), tuple(g))


def solve_structured(
    blocks: QbdBlocks, rhs: np.ndarray, factors: UgFactors | None = None
) -> np.ndarray:
    """Solve (I - P) v = rhs through the level factors.

    The right-hand side is folded downward through the expected-visit blocks
    (each Gamma product term of the level recursion is accumulated in Horner
    form), the one-phase level 1 closes the recursion with a scalar division,
    and the solution is completed by forward substitution through the
    first-passage blocks.
    """
    depth = blocks.depth
    b = np.asarray(rhs, dtype=float)
    if b.shape != (blocks.num_states,):
        raise ValueError(f"rhs must have {blocks.num_states} entries, got {b.shape}")
    f = factors if factors is not None else factorize(blocks)
    segments = [b[level_offset(j) : level_offset(j) + j] for j in range(1, depth + 1)]

    if depth == 1:
        v = segments[0] / (1.0 - f.u[0][0, 0])
        _check_residual(blocks, v, b)
        return v

    folded: list[np.ndarray | None] = [None] * depth
    folded[depth - 1] = segments[depth - 1]
    for j in range(depth - 1, 0, -1):
        folded[j - 1] = segments[j - 1] + f.gamma[j] @ folded[j]

    y: list[np.ndarray | None] = [None] * depth
    prev = np.zeros(1)
    for j in range(2, depth + 1):
        y[j - 1] = np.linalg.solve(np.eye(j) - f.u[j - 1], folded[j - 1]) + f.g[j - 1] @ prev
        prev = y[j - 1]

    y1 = segments[0] + blocks.up[0] @ y[1]
    head = y1 / (1.0 - f.u[0][0, 0])

    v = np.empty_like(b)
    v[0] = head[0]
    chain = head
    for j in range(2, depth + 1):
        chain = f.g[j - 1] @ chain
        v[level_offset(j) : level_offset(j) + j] = y[j - 1] + chain
    _check_residual(blocks, v, b)
    return v


def solve_dense(full: FullMatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct elimination oracle on the assembled matrix."""
    b = np.asarray(rhs, dtype=float)
    size = full.matrix.shape[0]
    if b.shape != (size,):
        raise ValueError(f"rhs must have {size} entries, got {b.shape}")
    try:
        return np.linalg.solve(np.eye(size) - full.matrix, b)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("dense elimination broke down on a substochastic chain") from exc


def residual_norm(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float:
    """Relative infinity norm of (I - P) v - rhs, evaluated blockwise."""
    depth = blocks.depth
    r = np.empty_like(v)
    for j in range(1, depth + 1):
        o = level_offset(j)
        seg = v[o : o + j]
        acc = seg - blocks.local[j - 1] @ seg - rhs[o : o + j]
        if j < depth:
            on = level_offset(j + 1)
            acc -= blocks.up[j - 1] @ v[on : on + j + 1]
        if j > 1:
            od = level_offset(j - 1)
            acc -= blocks.down[j - 2] @ v[od : od + j - 1]
        r[o : o + j] = acc
    scale = max(float(np.linalg.norm(rhs, np.inf)), np.finfo(float).tiny)
    return float(np.linalg.norm(r, np.inf)) / scale


def _check_residual(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> None:
    res = residual_norm(blocks, v, rhs)
    if not res <= RESIDUAL_TOL:
        raise ConsistencyError(
            f"structured solve residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} "
            f"({blocks.variant}, depth {blocks.depth})"
        )


def sojourn_vector(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected remaining sojourn times when nobody may renege."""
    blocks = build_chain(params, x, VARIANT_NONRENEGING)
    v = solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))
    return ValueVector("sojourn_n", v, blocks.depth, params, blocks.threshold)


def payoff_vector_n(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected payoffs (reward minus waiting) when nobody may renege."""
    w = sojourn_vector(params, x)
    return ValueVector("payoff_n", params.r0 - w.values, w.depth, params, w.threshold)


def sojourn_vector_r_tagged(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected sojourn times when others renege but the tagged customer stays."""
    blocks = build_chain(params, x, VARIANT_RENEGING_TAGGED)
    v = solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))
    return ValueVector("sojourn_r", v, blocks.depth, params, blocks.threshold)


def payoff_vector_r_tagged(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected payoffs when others renege but the tagged customer never does.

    Because the tagged customer always collects the reward in this variant,
    the payoff solve and reward-minus-sojourn must coincide; both are
    computed and cross-checked.
    """
    blocks = build_chain(params, x, VARIANT_RENEGING_TAGGED)
    factors = factorize(blocks)
    z = solve_structured(blocks, build_rhs_payoff(params, blocks.depth), factors)
    w = solve_structured(blocks, build_rhs_sojourn(params, blocks.depth), factors)
    gap = float(np.max(np.abs(z - (params.r0 - w))))
    if gap > AFFINE_CHECK_TOL * max(1.0, float(np.max(np.abs(z)))):
        raise ConsistencyError(
            f"payoff solve and reward-minus-sojourn disagree by {gap:.3e}"
        )
    return ValueVector("payoff_r_tagged", z, blocks.depth, params, blocks.threshold)


def payoff_vector_r_all(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected payoffs when every customer, tagged included, may renege."""
    blocks = build_chain(params, x, VARIANT_RENEGING_ALL)
    z = solve_structured(blocks, build_rhs_payoff(params, blocks.depth))
    return ValueVector("payoff_r_all", z, blocks.depth, params, blocks.threshold)
