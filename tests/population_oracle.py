"""The ergodic simulator's former per-event engine, kept as a test oracle.

It steps every event through a Python loop and follows payoffs with a
``deque`` of join times, exactly as ``feedbackq.simulate._population_run``
did before that engine was vectorised.  The library engine must return the
same five arrays bit for bit under every seed (``tests/test_simulate.py``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from feedbackq.model import as_threshold, branch_parts, chain_depth
from feedbackq.simulate import MODE_R, SimConfig


def population_run_oracle(config: SimConfig, track_payoffs: bool):
    """Shared ergodic engine: returns per-batch occupancy, join/renege counts,
    and (optionally) per-batch payoff sums over arrivals."""
    params = config.params
    lam, mu, q = params.lam, params.mu, params.q
    pop = as_threshold(config.x)
    n, p = branch_parts(pop)
    kmax = chain_depth(pop, False) - 1
    reneging = config.mode == MODE_R

    warmup_events = int(config.events * config.warmup)
    measured = config.events - warmup_events
    n_batches = min(config.n_batches, measured)
    bounds = warmup_events + np.round(
        np.arange(1, n_batches + 1) * measured / n_batches
    ).astype(np.int64)

    occupancy = np.zeros((n_batches, kmax + 1))
    joins = np.zeros(n_batches)
    reneges = np.zeros(n_batches)
    payoff_sums = np.zeros(n_batches)
    payoff_counts = np.zeros(n_batches)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    chunk = 1 << 16
    exps = rng.exponential(1.0, chunk)
    us = rng.random(chunk)
    vs = rng.random(chunk)
    ws = rng.random(chunk)
    ptr = 0

    pr_arrival = lam / (lam + mu)
    queue: deque[tuple[float, int]] = deque()  # (join time, batch at arrival or -1)
    k = 0
    now = 0.0
    batch = 0
    for event in range(config.events):
        if ptr == chunk:
            exps = rng.exponential(1.0, chunk)
            us = rng.random(chunk)
            vs = rng.random(chunk)
            ws = rng.random(chunk)
            ptr = 0
        e, u, v, w3 = exps[ptr], us[ptr], vs[ptr], ws[ptr]
        ptr += 1

        in_window = event >= warmup_events
        if in_window and event >= bounds[batch]:
            batch += 1

        if k == 0:
            dt = e / lam
            arrival = True
        else:
            dt = e / (lam + mu)
            arrival = u < pr_arrival
        now += dt
        if in_window:
            occupancy[batch, k] += dt

        if arrival:
            pos = k + 1
            joined = pos <= n or (pos == n + 1 and v < p)
            if in_window:
                payoff_counts[batch] += 1.0
            if joined:
                if in_window:
                    joins[batch] += 1.0
                k += 1
                if track_payoffs:
                    queue.append((now, batch if in_window else -1))
            # a balking arrival contributes a zero payoff, already counted
        else:
            success = v < q
            if success:
                k -= 1
                if track_payoffs:
                    t_join, b = queue.popleft()
                    if b >= 0:
                        payoff_sums[b] += params.r0 - (now - t_join)
            else:
                stays = (not reneging) or k <= n or (k == n + 1 and w3 < p)
                if stays:
                    if track_payoffs:
                        queue.append(queue.popleft())
                else:
                    k -= 1
                    if in_window:
                        reneges[batch] += 1.0
                    if track_payoffs:
                        t_join, b = queue.popleft()
                        if b >= 0:
                            payoff_sums[b] -= now - t_join
        if k > kmax:
            raise RuntimeError("population exceeded its reachable level; dynamics are broken")
    if track_payoffs:
        # Arrivals still in flight never resolve a payoff; drop them from the
        # denominator rather than counting them as zero.
        for _, b in queue:
            if b >= 0:
                payoff_counts[b] -= 1.0
    return occupancy, joins, reneges, payoff_sums, payoff_counts
