"""The tagged simulator's former masked engine, kept as a test oracle.

It steps every live replication's (i, j) pair with boolean masks, writing the
queue-length rule out a second time, exactly as
``feedbackq.simulate._tagged_batch`` did before its queue length became a
lookup in the ergodic engine's transition table.  ``simulate_tagged`` must return the same estimates
field by field under every seed (``tests/test_simulate.py``).
"""

from __future__ import annotations

import numpy as np

from feedbackq.model import as_threshold, branch_parts, chain_depth
from feedbackq.simulate import (
    BATCH_SIZE,
    MAX_BATCH_STEPS,
    MODE_R,
    SimConfig,
    SimResult,
    _estimate,
)


def simulate_tagged_oracle(config: SimConfig, start: tuple[int, int]) -> SimResult:
    """Replicate the tagged customer's remaining trajectory from state (i, j).

    Reports her sojourn time, realised payoff (reward on success minus the
    waiting bill), and success indicator, each with replication standard
    errors.
    """
    i0, j0 = start
    depth = chain_depth(as_threshold(config.x), config.mode == MODE_R)
    if not (isinstance(i0, int) and isinstance(j0, int) and 1 <= i0 <= j0 <= depth):
        raise ValueError(
            f"start state {start!r} outside the depth-{depth} state space of this mode"
        )
    sojourns = np.empty(config.reps)
    succeeded = np.empty(config.reps, dtype=bool)
    root = np.random.SeedSequence(config.seed)
    n_batches = -(-config.reps // BATCH_SIZE)
    children = root.spawn(n_batches)
    done = 0
    for child in children:
        size = min(BATCH_SIZE, config.reps - done)
        t, ok = tagged_batch_oracle(config, child, size, i0, j0, depth)
        sojourns[done : done + size] = t
        succeeded[done : done + size] = ok
        done += size
    payoffs = config.params.r0 * succeeded - sojourns
    return SimResult(
        {
            "sojourn": _estimate(sojourns),
            "payoff": _estimate(payoffs),
            "success": _estimate(succeeded.astype(float)),
        }
    )


def tagged_batch_oracle(
    config: SimConfig,
    seed: np.random.SeedSequence,
    size: int,
    i0: int,
    j0: int,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    params = config.params
    lam, mu, q = params.lam, params.mu, params.q
    pr_arrival = lam / (lam + mu)
    n_pop, p_pop = branch_parts(as_threshold(config.x))
    n_tag, p_tag = branch_parts(config.tagged_threshold)
    reneging = config.mode == MODE_R

    i = np.full(size, i0, dtype=np.int64)
    j = np.full(size, j0, dtype=np.int64)
    t = np.zeros(size)
    ok = np.zeros(size, dtype=bool)
    alive = np.arange(size)
    steps = 0
    while alive.size:
        steps += 1
        if steps > MAX_BATCH_STEPS:
            raise RuntimeError("tagged batch failed to absorb; dynamics are broken")
        m = alive.size
        t[alive] += rng.exponential(1.0 / (lam + mu), m)
        ev = rng.random(m)
        d1 = rng.random(m)
        d2 = rng.random(m)
        ii = i[alive]
        jj = j[alive]

        arrival = ev < pr_arrival
        join = arrival & ((jj + 1 <= n_pop) | ((jj + 1 == n_pop + 1) & (d1 < p_pop)))
        jj = jj + join
        if jj.max() > depth:
            raise RuntimeError("queue exceeded its reachable depth; dynamics are broken")

        service = ~arrival
        success = d1 < q
        tagged_served = service & (ii == 1)
        finished_ok = tagged_served & success
        tagged_failed = tagged_served & ~success
        if reneging:
            tagged_rejoins = (jj <= n_tag) | ((jj == n_tag + 1) & (d2 < p_tag))
        else:
            tagged_rejoins = np.ones(m, dtype=bool)
        finished_gone = tagged_failed & ~tagged_rejoins
        ii = np.where(tagged_failed & tagged_rejoins, jj, ii)

        other_served = service & ~tagged_served
        other_ok = other_served & success
        other_failed = other_served & ~success
        if reneging:
            other_rejoins = (jj <= n_pop) | ((jj == n_pop + 1) & (d2 < p_pop))
        else:
            other_rejoins = np.ones(m, dtype=bool)
        departs = other_ok | (other_failed & ~other_rejoins)
        ii = ii - other_served
        jj = jj - departs

        i[alive] = ii
        j[alive] = jj
        finished = finished_ok | finished_gone
        ok[alive[finished_ok]] = True
        alive = alive[~finished]
    return t, ok
