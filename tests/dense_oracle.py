"""Dense assembly of a block chain and direct elimination on it: the test-side
oracle for the structured solver, which never forms the full matrix."""

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
