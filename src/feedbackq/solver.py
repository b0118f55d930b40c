"""The structured solver for (I - P) v = b on the threshold QBD chains, and
the sojourn and payoff vectors built on it.

:func:`solve_structured` is the linear level reduction for level-dependent
QBDs (Gaver, Jacobs & Latouche 1984): one forward block elimination from
level 1 upward, then back-substitution, for any number of right-hand-side
columns and for a stack of thresholds that share a chain depth.  The chain
is its jump rates (``QbdBlocks.rates``): the elimination expands a level's
I - L_j and U_j from its row only when it reaches the level (a lone chain's
row as Python floats), applies the departure block D_j, one nonzero per
row, as the row shift it is, and solves the level with :func:`_solve`:
LAPACK's gesv through the gufunc that ``np.linalg.solve`` calls, without
that wrapper, whose per-call type checks cost more than the solve of a block
this small and change no bit.  One floating-point hook per elimination turns
a singular block into an error that names its level.  A shallow close costs
its count of numpy calls more than its arithmetic.  A chain's
``shared`` levels (:class:`~feedbackq.qbd.QbdBlocks`) are eliminated once for
its whole stack; on a :class:`~feedbackq.qbd.Ladder` the elimination starts
above the rungs already eliminated and appends the shared levels it
eliminates.  Every chain is back-substituted in full, and every column must
meet ``RESIDUAL_TOL``.  :func:`residual_norm` checks a solve in a
fixed number of array operations whatever the depth: it reads each state's
five neighbours through one read-only stencil table, shared by every chain,
and weights them by the rates themselves rather than by the blocks the
elimination expanded.  The tests cross-check the solver against a dense
elimination oracle (``tests/dense_oracle.py``) and a series of
``sum_d P^d b``, and the residual against its blockwise and earlier forms
(``tests/residual_oracle.py``).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
    chain_depth,
    level_offset,
    num_states,
    state_index,
)
from .qbd import (
    VARIANT_NONRENEGING,
    VARIANT_RENEGING_ALL,
    VARIANT_RENEGING_TAGGED,
    Ladder,
    QbdBlocks,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
)

#: Relative infinity-norm residual admitted for any linear solve.
RESIDUAL_TOL = 1e-10

#: Admitted disagreement between a payoff solve and its reward-minus-sojourn twin.
AFFINE_CHECK_TOL = 1e-10

_gesv = _umath_linalg.solve  # LAPACK's gesv; on float blocks it takes np.linalg.solve's "dd->d" loop


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
    if b.shape[-1] == 1:
        return f(a, b)
    return np.concatenate([f(a, b[..., i : i + 1]) for i in range(b.shape[-1])], axis=-1)


def _level_system(
    j: int, row: list[float] | np.ndarray, c: np.ndarray, up: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Level j's I - L_j and [U_j | c] (c alone if not ``up``), expanded from
    its rate row (``QbdBlocks.rates``): L_j holds the balk self-loops on its
    diagonal, the feedback shifts (i, i - 1) below it and phase 1's feedback
    to the tail in its top-right corner (on the diagonal at level 1), U_j the
    joins on its diagonal.  ``row`` is one chain's five rates, fastest as
    Python floats, or a stack's rows (shape (k, 5)), whose blocks gain a
    leading stack axis; a chain's blocks have the same bytes either way."""
    stacked = isinstance(row, np.ndarray) and row.ndim > 1
    stack = row.shape[:-1] if stacked else ()
    balk, shift, tail, join = (row[:, i : i + 1] for i in range(4)) if stacked else row[:4]
    s = np.zeros(stack + (j * j,))
    s[..., j :: j + 1] = 0.0 - shift  # entries (i, i - 1)
    s[..., j - 1 : j] = 0.0 - tail
    s[..., :: j + 1] = 1.0 - (balk + tail if j == 1 else balk)
    width = (j + 1 if up else 0) + c.shape[-1]
    a = np.zeros(stack + (j, width))
    a[..., width - c.shape[-1] :] = c
    if up:
        a.reshape(stack + (-1,))[..., :: width + 1] = join  # entries (i, i)
    return s.reshape(stack + (j, j)), a


def _singular(err: str, flag: int) -> None:
    raise LinAlgError("Singular matrix")


def _solve(s: np.ndarray, a: np.ndarray, split: bool) -> np.ndarray:
    """S^{-1} a by the gesv gufunc ``np.linalg.solve`` wraps.  Under the
    floating-point hook that :func:`_eliminate` holds, a singular S raises
    ``LinAlgError``.  ``split`` solves column by column."""
    return _per_column(_gesv, s, a) if split else _gesv(s, a)


def _eliminate(blocks: QbdBlocks, cols: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass of :func:`solve_structured`: k_j and h_j for j = 1..depth
    (k_depth has no columns).  The ``shared`` levels are eliminated once for
    the whole stack, and once for the ladder, which keeps each as a rung.
    One floating-point hook covers every level: LAPACK reports a singular
    S_j through it, and no other warning is raised."""
    depth, shared, ladder, stack = blocks.depth, blocks.shared, blocks.ladder, blocks.stack
    width = cols.shape[1]
    done = []
    if ladder is not None and shared:
        ladder.hold(cols)
        done = ladder.joining[:shared]
    ks, hs = [k for k, _ in done], [h for _, h in done]
    first = len(ks) + 1
    # a lone chain's rows, or the shared levels', alike in every chain of a stack
    rows = blocks.rates.reshape(-1, depth, 5)[0, first - 1 :].tolist()
    o = level_offset(first)
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        for j, row in enumerate(rows, start=first):
            stacked = stack and j > shared
            if stacked:
                row = blocks.rates[:, j - 1]
            try:
                s, a = _level_system(j, row, cols[o : o + j], j < depth)
                if j > 1:  # D_j shifts rows down by one: (D_j m)[i] = dn m[i - 1], and row 0 is zero
                    dn = row[:, 4, None, None] if stacked else row[4]
                    below = s[..., 1:, :]  # updated in place, not stored back through a subscript
                    below -= dn * ks[-1]
                    below = a[..., 1:, -width:]
                    below += dn * hs[-1]
                kh = _solve(s, a, j == depth)
            except LinAlgError as exc:
                raise ConsistencyError(f"singular elimination block at level {j}") from exc
            o += j
            ks.append(kh[..., :-width])
            hs.append(kh[..., -width:])
            if ladder is not None and j <= shared:
                ladder.joining.append((ks[-1], hs[-1]))
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

    For a stack of thresholds (:func:`feedbackq.qbd.build_chain`) ``rhs`` is
    shared and the result gains a leading stack axis.  The shared levels, the
    all-joining ones below the smallest floor(x), are eliminated once for
    all; each chain is residual-checked and equals its own solve bit for bit.
    """
    depth = blocks.depth
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != blocks.num_states or b.size == 0:
        raise ValueError(f"rhs must have {blocks.num_states} rows, got shape {b.shape}")
    cols = b.reshape(blocks.num_states, -1)
    ks, hs = _eliminate(blocks, cols)
    mul = np.matmul if cols.shape[1] == 1 else partial(_per_column, np.matmul)
    v = np.empty(blocks.stack + cols.shape)
    o = level_offset(depth)
    v[..., o:, :] = h = hs[-1]
    for j in range(depth - 1, 0, -1):
        o -= j
        h = np.add(hs[j - 1], mul(ks[j - 1], h), out=v[..., o : o + j, :])
    v = v.reshape(blocks.stack + b.shape)
    _check_residual(blocks, v, b)
    return v


#: Read-only neighbour table of the deepest chain checked so far, one column
#: per state.  Rows 0-4 name the state itself, its feedback-shift source,
#: its level's last state, the state above and the state below (the order of
#: ``QbdBlocks.rates``); row 5 is its level's index.  A neighbour that the
#: state's row of P cannot reach is past every chain, where a clipped read
#: finds the zero appended to v.  A depth-d chain reads the first d(d+1)/2
#: columns; a deeper chain swaps in a larger table, under ``_stencil_lock``,
#: and never writes to the one in use, so threads may share it.
_stencil = np.empty((6, 0), dtype=np.intp)
_stencil_lock = threading.Lock()
_FAR = np.iinfo(np.intp).max
_TINY = np.finfo(float).tiny


def _stencil_columns(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The neighbours (rows 0-4) and the levels (row 5) of the table's first
    ``num_states(depth)`` columns, grown to the depth if it is shallower."""
    global _stencil
    size = num_states(depth)
    table = _stencil
    if table.shape[1] < size:
        with _stencil_lock:  # a table only grows
            table = _stencil
            if table.shape[1] < size:
                level = np.repeat(np.arange(depth), np.arange(1, depth + 1))
                s = np.arange(size)
                first = s == level * (level + 1) // 2
                table = np.stack((
                    s,
                    np.where(first, _FAR, s - 1),
                    np.where(first, s + level, _FAR),
                    s + level + 1,
                    np.where(first, _FAR, s - level - 1),
                    level,
                ))
                table.flags.writeable = False
                _stencil = table
    return table[:5, :size], table[5, :size]


def residual_norm(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> float | np.ndarray:
    """Relative infinity norm of (I - P) v - rhs; for several columns, the
    largest column's; for a stack, one per chain.

    A row of P holds at most five nonzeros, its level's jump rates
    (``blocks.rates``), so (I - P) v is read off five neighbours per state in
    one gather, whatever the depth.  The terms are summed as the blocks group
    them, (v - L v - b) - U v - D v: from lam/mu of about 1e3 on, the measure
    sits at its rounding floor of about eps * lam / mu, where a verdict can
    follow the order of summation.  A nonfinite entry in v gives a nan or
    infinite norm, which fails the check, and no floating-point warning.
    """
    cols = np.asarray(rhs).reshape(len(rhs), -1)
    near, level = _stencil_columns(blocks.depth)
    padded = np.zeros(blocks.stack + (len(cols) + 1, cols.shape[1]))
    padded[..., :-1, :] = np.asarray(v).reshape(blocks.stack + cols.shape)
    v = padded[..., :-1, :]
    near = padded.take(near, axis=-2, mode="clip")
    scale = np.maximum.reduce(np.abs(cols), axis=0, initial=_TINY)
    with np.errstate(invalid="ignore", over="ignore"):  # a nonfinite v gives a nonfinite norm
        terms = blocks.rates.take(level, axis=-2).swapaxes(-1, -2)[..., None] * near
        within = np.add.reduce(terms[..., :3, :, :], axis=-3)
        r = v - within - cols - terms[..., 3, :, :] - terms[..., 4, :, :]
        res = np.maximum.reduce(np.abs(r) / scale, axis=(-2, -1))
    return res if blocks.stack else float(res)


def _check_residual(blocks: QbdBlocks, v: np.ndarray, rhs: np.ndarray) -> None:
    res = residual_norm(blocks, v, rhs)
    for i, r in enumerate(res.tolist() if blocks.stack else (res,)):
        if not r <= RESIDUAL_TOL:
            chain = f", x = {blocks.threshold[i].x!r}" if blocks.stack else ""
            raise ConsistencyError(
                f"structured solve residual {r:.3e} exceeds {RESIDUAL_TOL:.1e} "
                f"({blocks.variant}, depth {blocks.depth}{chain})"
            )


def sojourn_vector(
    params: ModelParams, x: float | Threshold, *, ladder: Ladder | None = None
) -> ValueVector:
    """Expected remaining sojourn times when nobody may renege."""
    blocks = build_chain(params, x, VARIANT_NONRENEGING, ladder)
    v = solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))
    return ValueVector("sojourn_n", v, blocks.depth)


def payoff_vector_n(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected payoffs (reward minus waiting) when nobody may renege."""
    return next(payoff_vectors(params, [x], reneging=False))


def sojourn_vector_r_tagged(
    params: ModelParams, x: float | Threshold, *, ladder: Ladder | None = None
) -> ValueVector:
    """Expected sojourn times when others renege but the tagged customer stays."""
    blocks = build_chain(params, x, VARIANT_RENEGING_TAGGED, ladder)
    v = solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))
    return ValueVector("sojourn_r", v, blocks.depth)


def payoff_vector_r_tagged(
    params: ModelParams, x: float | Threshold, *, ladder: Ladder | None = None
) -> ValueVector:
    """Expected payoffs when others renege but the tagged customer never does.

    Because the tagged customer always collects the reward in this variant,
    the payoff solve and reward-minus-sojourn must coincide; both are
    computed and cross-checked, as one [payoff | sojourn] right-hand side;
    the reward enters it, so a ``ladder`` from a search or another reward is refused.
    """
    blocks = build_chain(params, x, VARIANT_RENEGING_TAGGED, ladder)
    rhs = np.empty((blocks.num_states, 2))  # [payoff | sojourn], without np.column_stack's wrapper
    rhs[:, 0], rhs[:, 1] = build_rhs_payoff(params, blocks.depth), build_rhs_sojourn(params, blocks.depth)
    z, w = solve_structured(blocks, rhs).T
    gap = float(np.maximum.reduce(np.abs(z - (params.r0 - w))))
    if not gap <= AFFINE_CHECK_TOL * max(1.0, float(np.maximum.reduce(np.abs(z)))):
        raise ConsistencyError(f"payoff solve and reward-minus-sojourn disagree by {gap:.3e}")
    return ValueVector("payoff_r_tagged", z, blocks.depth)


def payoff_vector_r_all(params: ModelParams, x: float | Threshold) -> ValueVector:
    """Expected payoffs when every customer, tagged included, may renege."""
    return next(payoff_vectors(params, [x], reneging=True))


def payoff_vectors(
    params: ModelParams, xs: Iterable[float | Threshold], reneging: bool, ladder: Ladder | None = None
) -> Iterator[ValueVector]:
    """Payoffs at each x in turn, nobody or (``reneging``) everybody free to
    renege, solving every run of consecutive thresholds that share a chain
    depth as one stack (a run of one on its own), all on one ``ladder``: the
    one passed, which must hold this layout, or a fresh one.  Without
    ``reneging`` a search's sojourn ladder holds it; with it, the reward enters
    the layout, so a ladder from a search or another reward is refused."""
    variant = VARIANT_RENEGING_ALL if reneging else VARIANT_NONRENEGING
    ladder = ladder or Ladder(params)
    for depth, run in groupby(map(as_threshold, xs), key=lambda th: chain_depth(th, reneging)):
        run = list(run)
        rhs = build_rhs_payoff(params, depth) if reneging else build_rhs_sojourn(params, depth)
        blocks = build_chain(params, run if len(run) > 1 else run[0], variant, ladder)
        z = solve_structured(blocks, rhs)
        if not reneging:
            z = params.r0 - z
        for row in z.reshape(len(run), -1):
            yield ValueVector("payoff_r_all" if reneging else "payoff_n", row, depth)
