"""The blockwise residual of (I - P) v = b: the test-side oracle for
``solver.residual_norm``, which reads each state's jump rates through a
stencil instead of dense blocks.  The blocks are the dense oracle's,
expanded from the same rates by its own rule."""

from __future__ import annotations

import numpy as np

from feedbackq import QbdBlocks
from feedbackq.model import level_offset

from dense_oracle import level_blocks


def residual_norm_blockwise(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float | np.ndarray:
    """Relative infinity norm of (I - P) v - rhs, evaluated blockwise; for
    several columns, the largest column's; for a stack, one per chain."""
    depth = blocks.depth
    cols = np.reshape(rhs, (len(rhs), -1))
    v = np.reshape(v, blocks.stack + cols.shape)
    r = np.empty_like(v)
    for j in range(1, depth + 1):
        o = level_offset(j)
        local, up, down = level_blocks(blocks, j)
        seg = v[..., o : o + j, :]
        acc = seg - local @ seg - cols[o : o + j]
        if j < depth:
            on = level_offset(j + 1)
            acc -= up @ v[..., on : on + j + 1, :]
        if j > 1:
            od = level_offset(j - 1)
            acc -= down @ v[..., od : od + j - 1, :]
        r[..., o : o + j, :] = acc
    scale = np.maximum(np.abs(cols).max(axis=0), np.finfo(float).tiny)
    res = (np.abs(r).max(axis=-2) / scale).max(axis=-1)
    return res if blocks.stack else float(res)
