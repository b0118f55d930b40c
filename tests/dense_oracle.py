"""Dense assembly of a chain from its jump rates and direct elimination on
it: the test-side oracle for the structured solver, which never forms the
full matrix and expands each level's blocks by its own rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from feedbackq import ConsistencyError, QbdBlocks
from feedbackq.model import level_offset


@dataclass(frozen=True, slots=True)
class FullMatrix:
    """Dense assembly of a block chain, with per-row probability deficiency."""

    depth: int
    matrix: np.ndarray
    deficiency: np.ndarray


def level_blocks(blocks: QbdBlocks, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level j's blocks L_j (j x j), U_j (j x (j+1)) and D_j (j x (j-1)), set
    entry by entry from its row of ``blocks.rates``, with the chain's stack
    axis if it has one."""
    balk, shift, tail, join, dep = np.moveaxis(blocks.rates[..., j - 1, :, None], -2, 0)
    local, up, down = (np.zeros(blocks.stack + (j, j + d)) for d in (0, 1, -1))
    i = np.arange(j)
    local[..., i, i] = balk  # (i, j) -> (i, j): the newcomer balks
    local[..., i[1:], i[:-1]] = shift  # (i, j) -> (i - 1, j): the customer ahead fails, rejoins
    local[..., 0, j - 1] += tail[..., 0]  # (1, j) -> (j, j): the tagged customer fails, rejoins
    up[..., i, i] = join  # (i, j) -> (i, j + 1): the newcomer joins
    down[..., i[1:], i[:-1]] = dep  # (i, j) -> (i - 1, j - 1): the customer ahead departs
    return local, up, down


def assemble_full(blocks: QbdBlocks) -> FullMatrix:
    """Dense block-tridiagonal matrix of one chain in state-index order, plus
    row deficiencies."""
    size = blocks.num_states
    mat = np.zeros((size, size))
    for j in range(1, blocks.depth + 1):
        local, up, down = level_blocks(blocks, j)
        r = level_offset(j)
        rows = slice(r, r + j)
        mat[rows, r : r + j] = local
        if j < blocks.depth:
            cu = level_offset(j + 1)
            mat[rows, cu : cu + j + 1] = up
        if j > 1:
            cd = level_offset(j - 1)
            mat[rows, cd : cd + j - 1] = down
    deficiency = 1.0 - mat.sum(axis=1)
    return FullMatrix(blocks.depth, mat, deficiency)


def solve_dense(full: FullMatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct elimination on the assembled matrix."""
    b = np.asarray(rhs, dtype=float)
    size = full.matrix.shape[0]
    if b.shape != (size,):
        raise ValueError(f"rhs must have {size} entries, got {b.shape}")
    try:
        return np.linalg.solve(np.eye(size) - full.matrix, b)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError("dense elimination broke down on a substochastic chain") from exc
