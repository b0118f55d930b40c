"""The blockwise residual of (I - P) v = b: the test-side oracle for
``solver.residual_norm``, which reads each state's jump rates through a
stencil instead of the dense blocks."""

from __future__ import annotations

import numpy as np

from feedbackq import QbdBlocks
from feedbackq.model import level_offset


def residual_norm_blockwise(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float | np.ndarray:
    """Relative infinity norm of (I - P) v - rhs, evaluated blockwise; for
    several columns, the largest column's; for a stack, one per chain."""
    depth = blocks.depth
    cols = np.reshape(rhs, (len(rhs), -1))
    v = np.reshape(v, blocks.stack + cols.shape)
    r = np.empty_like(v)
    for j in range(1, depth + 1):
        o = level_offset(j)
        seg = v[..., o : o + j, :]
        acc = seg - blocks.local[j - 1] @ seg - cols[o : o + j]
        if j < depth:
            on = level_offset(j + 1)
            acc -= blocks.up[j - 1] @ v[..., on : on + j + 1, :]
        if j > 1:
            od = level_offset(j - 1)
            acc -= blocks.down[j - 2] @ v[..., od : od + j - 1, :]
        r[..., o : o + j, :] = acc
    scale = np.maximum(np.abs(cols).max(axis=0), np.finfo(float).tiny)
    res = (np.abs(r).max(axis=-2) / scale).max(axis=-1)
    return res if blocks.stack else float(res)
