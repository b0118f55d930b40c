"""The structured solver for (I - P) v = b on the threshold QBD chains, and
the sojourn and payoff vectors built on it.

:func:`solve_structured` is the linear level reduction for level-dependent
QBDs (Gaver, Jacobs & Latouche 1984): one forward block elimination from
level 1 upward, then back-substitution, for any number of right-hand-side
columns.  Every solved column must meet ``RESIDUAL_TOL`` in relative
residual.  The tests cross-check it against a dense elimination oracle
(``tests/dense_oracle.py``) and a truncated series of ``sum_d P^d b``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
    level_offset,
    state_index,
)
from .qbd import (
    VARIANT_NONRENEGING,
    VARIANT_RENEGING_ALL,
    VARIANT_RENEGING_TAGGED,
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
        k = state_index(i, j)
        if j > self.depth:
            raise ValueError(f"state ({i}, {j}) outside depth {self.depth}")
        return float(self.values[k - 1])

    def diagonal(self) -> np.ndarray:
        """Values at the joining states (j, j), j = 1..depth."""
        return self.values[level_offset(np.arange(2, self.depth + 2)) - 1]

    def joining_mean(self, probs: np.ndarray, x: float | Threshold) -> float:
        """Joining-state values averaged over the law ``probs`` of the queue
        length an arrival sees, for an arrival who thresholds at ``x``.

        Seeing k - 1 customers she joins at state (k, k): surely up to the
        integer part of x, with the fractional probability one position
        higher, never beyond the chain.  Balking contributes zero.
        """
        n, p = branch_parts(as_threshold(x))
        diag = self.diagonal()
        total = sum(probs[i] * diag[i] for i in range(min(n, self.depth)))
        if p and n < self.depth:
            total += p * probs[n] * diag[n]
        return float(total)


def _per_column(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``f(a, b)`` one column of b at a time.  numpy and BLAS take other
    routes for one column than for several, so a product or solve on all
    columns at once would not reproduce the single-column solves bit for bit."""
    if b.shape[1] == 1:
        return f(a, b)
    return np.hstack([f(a, b[:, i : i + 1]) for i in range(b.shape[1])])


def _eliminate(blocks: QbdBlocks, cols: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass of :func:`solve_structured`: k_j and h_j for j = 1..depth
    (k_depth has no columns)."""
    depth = blocks.depth
    width = cols.shape[1]
    ks: list[np.ndarray] = []
    hs: list[np.ndarray] = []
    for j in range(1, depth + 1):
        o = level_offset(j)
        s = np.eye(j) - blocks.local[j - 1]
        c = cols[o : o + j]
        if j > 1:
            d = blocks.down[j - 2]
            s -= d @ ks[-1]
            c = c + _per_column(np.matmul, d, hs[-1])
        try:
            if j < depth:
                kh = np.linalg.solve(s, np.concatenate((blocks.up[j - 1], c), axis=1))
            else:
                kh = _per_column(np.linalg.solve, s, c)
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError(f"singular elimination block at level {j}") from exc
        ks.append(kh[:, :-width])
        hs.append(kh[:, -width:])
    return ks, hs


def solve_structured(blocks: QbdBlocks, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - P) v = rhs by linear level reduction, level 1 first.

    Level j's equation is S_j v_j = U_j v_{j+1} + c_j once the levels below
    are folded in through v_{j-1} = h_{j-1} + k_{j-1} v_j, with
    S_j = I - L_j - D_j k_{j-1} and c_j = b_j + D_j h_{j-1}.  One solve of S_j
    on [U_j | c_j] gives k_j, the first-passage-up probabilities from level j,
    and h_j.  The top level has no U block, so v_J = h_J, and
    back-substitution v_j = h_j + k_j v_{j+1} completes the solution.  ``rhs``
    may hold several columns, all solved in the one elimination; each is
    residual-checked.
    """
    depth = blocks.depth
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != blocks.num_states or b.size == 0:
        raise ValueError(f"rhs must have {blocks.num_states} rows, got shape {b.shape}")
    cols = b.reshape(blocks.num_states, -1)
    ks, hs = _eliminate(blocks, cols)
    v = np.empty_like(cols)
    h = hs[-1]
    for j in range(depth, 0, -1):
        if j < depth:
            h = hs[j - 1] + _per_column(np.matmul, ks[j - 1], h)
        v[level_offset(j) : level_offset(j) + j] = h
    v = v.reshape(b.shape)
    _check_residual(blocks, v, b)
    return v


def residual_norm(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float:
    """Relative infinity norm of (I - P) v - rhs, evaluated blockwise; for
    several columns, the largest column's."""
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
    scale = np.maximum(np.abs(rhs).max(axis=0), np.finfo(float).tiny)
    return float(np.max(np.abs(r).max(axis=0) / scale))


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
    rhs = np.column_stack(
        (build_rhs_payoff(params, blocks.depth), build_rhs_sojourn(params, blocks.depth))
    )
    z, w = solve_structured(blocks, rhs).T
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
