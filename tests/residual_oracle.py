"""The blockwise residual of (I - P) v = b: the test-side oracle for
``solver.residual_norm``, which reads each state's jump rates through a
stencil instead of dense blocks.  The blocks are the dense oracle's,
expanded from the same rates by its own rule.  Beside it, the stencil
residual in its earlier form, which the current one must equal byte for
byte: the same terms in the same order, with more array operations."""

from __future__ import annotations

import numpy as np

from feedbackq import QbdBlocks
from feedbackq.model import level_offset, num_states

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


_FAR = np.iinfo(np.intp).max
_TINY = np.finfo(float).tiny


def _stencil_columns(depth: int) -> np.ndarray:
    """The stencil table of a depth-``depth`` chain, built at each call."""
    size = num_states(depth)
    level = np.repeat(np.arange(depth), np.arange(1, depth + 1))
    s = np.arange(size)
    first = s == level * (level + 1) // 2
    return np.stack((
        s,
        np.where(first, _FAR, s - 1),
        np.where(first, s + level, _FAR),
        s + level + 1,
        np.where(first, _FAR, s - level - 1),
        level,
    ))


def residual_norm_reference(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float | np.ndarray:
    """``solver.residual_norm`` as it was before it padded v into one buffer
    and sliced the stencil table once, verbatim but for the table, which
    :func:`_stencil_columns` builds here without the shared copy."""
    cols = np.reshape(rhs, (len(rhs), -1))
    v = np.reshape(v, blocks.stack + cols.shape)
    table = _stencil_columns(blocks.depth)
    padded = np.concatenate((v, np.zeros(blocks.stack + (1, cols.shape[1]))), axis=-2)
    near = np.take(padded, table[:5], axis=-2, mode="clip")
    scale = np.maximum(np.abs(cols).max(axis=0), _TINY)
    with np.errstate(invalid="ignore", over="ignore"):  # a nonfinite v gives a nonfinite norm
        terms = np.take(blocks.rates.swapaxes(-1, -2), table[5], axis=-1)[..., None] * near
        r = v - terms[..., :3, :, :].sum(axis=-3) - cols - terms[..., 3, :, :] - terms[..., 4, :, :]
        res = (np.abs(r).max(axis=-2) / scale).max(axis=-1)
    return res if blocks.stack else float(res)
