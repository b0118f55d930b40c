"""Discrete-event Monte Carlo oracle for the threshold feedback queue.

Replicated tagged-customer experiments estimate conditional sojourn times
and payoffs from a given starting state; a long ergodic run estimates the
stationary queue-length law, the per-arrival payoff, and the abandonment
fraction.  Both engines realise the same dynamics: arrivals and services
race with exponential clocks, services succeed with probability q, failed
customers rejoin the tail or (in the reneging game) leave when the system
exceeds their threshold.

All randomness flows from one 64-bit seed.  Tagged replications run in
vectorised batches, one spawned child stream per batch, so results are
bit-reproducible and batches are embarrassingly parallel.  Ergodic runs use
a single stream with chunked draws and report batch-means standard errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Threshold, as_threshold, branch_parts, chain_depth

MODE_N = "n"
MODE_R = "r"

#: Iteration guard for the vectorised batch loop; absorption times have
#: geometric tails, so hitting this means a bug, not a slow run.
MAX_BATCH_STEPS = 10_000_000


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation experiment's parameters.

    ``x`` is the population threshold; ``x_tag`` (default ``x``) governs the
    tagged customer alone and only matters in tagged reneging runs.  ``reps``
    sizes replicated experiments, ``events`` sizes ergodic runs, of which the
    leading ``warmup`` fraction is discarded.
    """

    params: ModelParams
    x: float
    x_tag: float | None = None
    mode: str = MODE_N
    reps: int = 100_000
    events: int = 1_000_000
    seed: int = 0
    warmup: float = 0.1
    batch_size: int = 25_000
    n_batches: int = 32

    def __post_init__(self) -> None:
        if self.mode not in (MODE_N, MODE_R):
            raise ValueError(f"mode must be 'n' or 'r', got {self.mode!r}")
        if self.reps < 1 or self.events < 1:
            raise ValueError("replication and event counts must be positive")
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError(f"warmup fraction must lie in [0, 1), got {self.warmup}")
        if self.batch_size < 1 or self.n_batches < 1:
            raise ValueError("batch sizes must be positive")
        as_threshold(self.x)
        if self.x_tag is not None:
            as_threshold(self.x_tag)

    @property
    def tagged_threshold(self) -> Threshold:
        return as_threshold(self.x if self.x_tag is None else self.x_tag)


@dataclass(frozen=True, slots=True)
class Estimate:
    """Point estimate with its standard error and sample count."""

    mean: float
    se: float
    count: int


@dataclass(frozen=True, slots=True)
class SimResult:
    """Named estimates plus, for ergodic runs, the queue-length histogram."""

    estimates: dict[str, Estimate]
    histogram: np.ndarray | None = None
    histogram_se: np.ndarray | None = None


def _estimate(values: np.ndarray) -> Estimate:
    n = len(values)
    se = float(values.std(ddof=1)) / np.sqrt(n) if n > 1 else float("nan")
    return Estimate(float(values.mean()), se, n)


def simulate_tagged(config: SimConfig, start: tuple[int, int]) -> SimResult:
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
    n_batches = -(-config.reps // config.batch_size)
    children = root.spawn(n_batches)
    done = 0
    for child in children:
        size = min(config.batch_size, config.reps - done)
        t, ok = _tagged_batch(config, child, size, i0, j0, depth)
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


def _tagged_batch(
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


def simulate_stationary(config: SimConfig, track_payoffs: bool = False) -> SimResult:
    """Time-weighted queue-length law from one long run.

    With ``track_payoffs`` every post-warmup arrival's realised payoff is
    recorded (zero for balkers, reward minus waiting bill for joiners who
    complete, minus the waiting bill for joiners who abandon), estimating the
    population payoff per arrival.  Standard errors come from batch means.
    """
    run = _population_run(config, track_payoffs=track_payoffs)
    occupancy, batch_payoff_sums, batch_payoff_counts = run[0], run[3], run[4]
    total = occupancy.sum(axis=0)
    histogram = total / total.sum()
    shares = occupancy / occupancy.sum(axis=1, keepdims=True)
    hist_se = shares.std(axis=0, ddof=1) / np.sqrt(occupancy.shape[0])
    estimates = {
        "mean_queue": _batch_ratio(
            (occupancy * np.arange(occupancy.shape[1])).sum(axis=1), occupancy.sum(axis=1)
        )
    }
    if track_payoffs:
        estimates["payoff_per_arrival"] = _batch_ratio(batch_payoff_sums, batch_payoff_counts)
    return SimResult(estimates, histogram=histogram, histogram_se=hist_se)


def simulate_renege_fraction(config: SimConfig) -> SimResult:
    """Fraction of joining customers who abandon before a successful completion."""
    if config.mode != MODE_R:
        raise ValueError("the renege fraction is defined for the reneging game only")
    occupancy, joins, reneges, _, _ = _population_run(config, track_payoffs=False)
    del occupancy
    return SimResult({"renege_fraction": _batch_ratio(reneges, joins)})


def _batch_ratio(numerators: np.ndarray, denominators: np.ndarray) -> Estimate:
    """Ratio estimate with a batch-means standard error."""
    total_n = float(numerators.sum())
    total_d = float(denominators.sum())
    mean = total_n / total_d if total_d else 0.0
    valid = denominators > 0
    if valid.sum() > 1:
        ratios = numerators[valid] / denominators[valid]
        se = float(ratios.std(ddof=1)) / np.sqrt(valid.sum())
    else:
        se = float("nan")
    return Estimate(mean, se, int(total_d))


def _population_run(config: SimConfig, track_payoffs: bool):
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
