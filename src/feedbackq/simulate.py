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

Both engines are table-driven and share one queue-length rule,
:func:`_transition_table`.  Each event's uniforms give it a class (arrival
joining or balking at the boundary, success, failure staying or leaving),
and the queue length moves by one lookup ``k = table[code + k]``.  A tagged
replication's queue length steps so, and its own place i by arithmetic on
the class; the live replications of a batch step together.  The ergodic
queue length steps a chunk at a time by a blocked scan over a table
composed for tuples of up to three events: numpy gathers compose each
block's map, a Python walk makes one lookup per block, and gathers fill in
the lengths inside the blocks.  The rest is vectorised over the chunk:
counts per batch, holding times and occupancy summed in event order.  A
batch's successes follow by conservation, joins minus reneges minus the
queue's growth over the batch.  A renege-fraction run only counts, so it
skips the clock: no holding times, no occupancy, no arrivals.  The payoff per
arrival needs no customer to be followed: summed over the customers, the
waiting bill is the time integral of the queue length (Little's law on the
sample path; Brumelle 1971, Stidham 1974), so it is r0 times the successes
less the occupancy-weighted queue length, per arrival.
Outputs equal those of the earlier masked and per-event engines bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    branch_parts,
    chain_depth,
    int_at_least,
    state_index,
)

MODE_N = "n"
MODE_R = "r"

#: Iteration guard for the vectorised batch loop; absorption times have
#: geometric tails, so hitting this means a bug, not a slow run.
MAX_BATCH_STEPS = 10_000_000

#: Ergodic runs draw their randoms and do their array work in chunks of this
#: many events.
CHUNK = 1 << 16

#: Largest composed stepping table (entries) that :class:`_Stepper` builds;
#: x = 50 still steps three events per lookup.
STEP_TABLE_MAX = 1 << 18

#: Tuples per block of :class:`_Stepper`'s scan: one Python lookup walks a
#: block.
SCAN_BLOCK = 32

#: Tagged replications run in batches of this many, one spawned child
#: stream each; ergodic runs report batch means over this many batches.
BATCH_SIZE = 25_000
N_BATCHES = 32


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

    def __post_init__(self) -> None:
        if self.mode not in (MODE_N, MODE_R):
            raise ValueError(f"mode must be 'n' or 'r', got {self.mode!r}")
        for name, lowest in (("reps", 1), ("events", 1), ("seed", 0)):
            object.__setattr__(self, name, int_at_least(getattr(self, name), lowest, name))
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError(f"warmup fraction must lie in [0, 1), got {self.warmup}")
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
    se = float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else float("nan")
    return Estimate(float(values.mean()), se, n)


def simulate_tagged(config: SimConfig, start: tuple[int, int]) -> SimResult:
    """Replicate the tagged customer's remaining trajectory from state (i, j).

    Reports her sojourn time, realised payoff (reward on success minus the
    waiting bill), and success indicator, each with replication standard
    errors.
    """
    i0, j0 = start
    state_index(i0, j0)  # the integer rule and 1 <= i <= j
    depth = chain_depth(as_threshold(config.x), config.mode == MODE_R)
    if j0 > depth:
        raise ValueError(f"start state {start!r} outside the depth-{depth} chain of this mode")
    sojourns = np.empty(config.reps)
    succeeded = np.empty(config.reps, dtype=bool)
    root = np.random.SeedSequence(config.seed)
    n_batches = -(-config.reps // BATCH_SIZE)
    children = root.spawn(n_batches)
    done = 0
    for child in children:
        size = min(BATCH_SIZE, config.reps - done)
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
    """Sojourn times and success flags of ``size`` replications from (i0, j0).

    Each step draws one exponential and three uniforms per live replication.
    The queue length j moves by one lookup in :func:`_transition_table`,
    except when the tagged customer is served: she succeeds, rejoins the tail
    at (j, j) or, reneging, leaves.  Any other service moves her up one place.
    """
    rng = np.random.default_rng(seed)
    lam, mu, q = config.params.lam, config.params.mu, config.params.q
    pr_arrival = lam / (lam + mu)
    n, p = branch_parts(as_threshold(config.x))
    n_tag, p_tag = branch_parts(config.tagged_threshold)
    reneging = config.mode == MODE_R
    table, stride = _transition_table(n, p, depth, reneging)
    table = np.array(table)  # next queue length, as the ergodic engine's

    i = np.full(size, i0, dtype=np.int64)
    j = np.full(size, j0, dtype=np.int64)
    t = np.zeros(size)
    ok = np.zeros(size, dtype=bool)
    alive = np.arange(size)
    for _ in range(MAX_BATCH_STEPS):
        m = alive.size
        t[alive] += rng.exponential(1.0 / (lam + mu), m)
        u, v, w = rng.random(m), rng.random(m), rng.random(m)
        arrival, success = u < pr_arrival, v < q
        codes = stride * (arrival + 2 * (v < p) + 4 * success + 8 * (w < p))
        served = ~arrival
        head = served & (i == 1)
        j = np.where(head, j, table[codes + j])
        if j.max() > depth:
            raise RuntimeError("queue exceeded its reachable depth; dynamics are broken")
        success &= head
        rejoins = head & ~success
        if reneging:
            rejoins &= (j <= n_tag) | ((j == n_tag + 1) & (w < p_tag))
        ok[alive[success]] = True
        i = np.where(rejoins, j, i - served)
        live = ~head | rejoins
        alive, i, j = alive[live], i[live], j[live]
        if not alive.size:
            return t, ok
    raise RuntimeError("tagged batch failed to absorb; dynamics are broken")


def simulate_stationary(config: SimConfig, track_payoffs: bool = False) -> SimResult:
    """Time-weighted queue-length law from one long run.

    With ``track_payoffs`` it also estimates the population payoff per
    arrival (balkers earn zero, joiners the reward on success minus their
    waiting bill): per batch, r0 times the successes less the time integral
    of the queue length, over the arrivals.  Standard errors come from batch
    means.
    """
    occupancy, _, _, successes, arrivals = _population_run(config)
    total = occupancy.sum(axis=0)
    histogram = total / total.sum()
    if occupancy.shape[0] > 1:
        shares = occupancy / occupancy.sum(axis=1, keepdims=True)
        hist_se = shares.std(axis=0, ddof=1) / np.sqrt(occupancy.shape[0])
    else:
        hist_se = np.full(occupancy.shape[1], np.nan)
    measured = config.events - int(config.events * config.warmup)
    waiting = (occupancy * np.arange(occupancy.shape[1])).sum(axis=1)
    estimates = {"mean_queue": _batch_ratio(waiting, occupancy.sum(axis=1), measured)}
    if track_payoffs:
        estimates["payoff_per_arrival"] = _batch_ratio(
            config.params.r0 * successes - waiting, arrivals
        )
    return SimResult(estimates, histogram=histogram, histogram_se=hist_se)


def simulate_renege_fraction(config: SimConfig) -> SimResult:
    """Fraction of joining customers who abandon before a successful completion."""
    if config.mode != MODE_R:
        raise ValueError("the renege fraction is defined for the reneging game only")
    _, joins, reneges, _, _ = _population_run(config, clock=False)
    return SimResult({"renege_fraction": _batch_ratio(reneges, joins)})


def _batch_ratio(numerators: np.ndarray, denominators: np.ndarray, count=None) -> Estimate:
    """Ratio estimate with a batch-means standard error; ``count`` overrides
    the summed denominator as the sample count (a time-weighted ratio's)."""
    total_n = float(numerators.sum())
    total_d = float(denominators.sum())
    mean = total_n / total_d if total_d else 0.0
    valid = denominators > 0
    if valid.sum() > 1:
        ratios = numerators[valid] / denominators[valid]
        se = float(ratios.std(ddof=1)) / math.sqrt(valid.sum())
    else:
        se = float("nan")
    return Estimate(mean, se, int(total_d) if count is None else count)


def _population_run(config: SimConfig, clock: bool = True):
    """Shared ergodic engine: returns per-batch occupancy and counts of joins,
    reneges, successes and arrivals.  Without the ``clock`` it makes no
    holding times, and occupancy and arrivals stay zero."""
    params = config.params
    lam, mu, q = params.lam, params.mu, params.q
    pop = as_threshold(config.x)
    n, p = branch_parts(pop)
    kmax = chain_depth(pop, False) - 1
    reneging = config.mode == MODE_R

    warmup_events = int(config.events * config.warmup)
    measured = config.events - warmup_events
    n_batches = min(N_BATCHES, measured)
    bounds = warmup_events + np.round(
        np.arange(1, n_batches + 1) * measured / n_batches
    ).astype(np.int64)

    occupancy = np.zeros((n_batches, kmax + 1))
    joins = np.zeros(n_batches)
    reneges = np.zeros(n_batches)
    successes = np.zeros(n_batches)
    arrivals = np.zeros(n_batches)

    step = _Stepper(*_transition_table(n, p, kmax, reneging))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    pr_arrival = lam / (lam + mu)
    # Draws are refilled in place chunk by chunk; the standard exponential
    # fill gives the same values as ``rng.exponential(1.0, CHUNK)``.
    exps, us, vs, ws = (np.empty(CHUNK) for _ in range(4))
    k = 0
    for first in range(0, config.events, CHUNK):
        rng.standard_exponential(out=exps)
        rng.random(out=us)
        rng.random(out=vs)
        rng.random(out=ws)
        size = min(CHUNK, config.events - first)
        e, u, v, w = exps[:size], us[:size], vs[:size], ws[:size]
        arrives, succeeds = u < pr_arrival, v < q
        # The one sequential step: the queue length before each event.  The
        # classes' bits add up fastest as bytes.
        bits = (arrives, v < p, succeeds, w < p)
        ks = step(sum(b.view(np.uint8) << i for i, b in enumerate(bits)).astype(np.int64), k)
        k = int(ks[-1])
        if k > kmax:
            raise RuntimeError("population exceeded its reachable level; dynamics are broken")
        before, after = ks[:-1], ks[1:]
        joined = after > before
        leaves = (after < before) & ~succeeds  # only a service lowers k

        win = min(max(warmup_events - first, 0), size)
        # Batch b holds the chunk's events starts[b]:ends[b], none if they are equal.
        ends = np.clip(bounds - first, win, size)
        starts = np.concatenate(([win], ends[:-1]))
        arrival = ((before == 0) | arrives) if clock else None
        for b in np.flatnonzero(ends > starts):
            part = slice(starts[b], ends[b])
            joined_b = np.count_nonzero(joined[part])
            reneged_b = np.count_nonzero(leaves[part])
            joins[b] += joined_b
            reneges[b] += reneged_b
            # The queue grew by its joins less its reneges and successes.
            successes[b] += joined_b - reneged_b - (ks[ends[b]] - ks[starts[b]])
            if clock:
                arrivals[b] += np.count_nonzero(arrival[part])
        if not clock:
            continue
        batch = np.repeat(np.arange(n_batches), ends - starts)
        level = before[win:]
        dt = np.where(level == 0, e[win:] / lam, e[win:] / (lam + mu))
        # add.at adds in event order, so every cell sums as the loop did.
        np.add.at(occupancy, (batch, level), dt)
    return occupancy, joins, reneges, successes, arrivals


def _transition_table(n: int, p: float, kmax: int, reneging: bool) -> tuple[list[int], int]:
    """Next queue length, flattened as ``table[code + k]`` with
    ``code = stride * class``.  The event class packs four bits: arrival
    (u below the arrival share), v < p (an arrival at position n + 1 joins),
    v < q (a service succeeds), w < p (a failed customer at level n + 1
    stays).  At k = 0 every event is an arrival.  Level kmax + 1 is a spare
    absorbing state that flags broken dynamics."""
    stride = kmax + 2
    table = []
    for cls in range(16):
        arrival, joins_at_edge, success, stays_at_edge = (cls >> b & 1 for b in range(4))
        for k in range(stride):
            if k > kmax:
                nxt = k
            elif k == 0 or arrival:
                nxt = k + (k + 1 <= n or (k + 1 == n + 1 and joins_at_edge))
            elif success:
                nxt = k - 1
            else:
                stays = not reneging or k <= n or (k == n + 1 and stays_at_edge)
                nxt = k if stays else k - 1
            table.append(nxt)
    return table, stride


class _Stepper:
    """Queue-length stepping over :func:`_transition_table`: ``t`` events per
    tuple, ``width`` tuples per block and one Python lookup per block.

    The composed table maps a tuple of t event classes and the queue length
    before them to the length after them:
    ``composed[(c1 * 16 + c2) * 16 + c3, k] = table[c3, table[c2, table[c1, k]]]``.
    t is 3 or 2 if that table fits ``STEP_TABLE_MAX`` entries, else 1.  A last
    row, the identity, pads the last block.  The spare level kmax + 1 stays
    absorbing under composition, so a run that reaches it still ends there.
    A block's map costs one gather per level per tuple, less than the Python
    lookups it saves only up to 64 levels (t = 3): wider tables walk tuples.
    """

    def __init__(self, table: list[int], stride: int) -> None:
        single = np.array(table).reshape(16, stride)
        self.t = next((t for t in (3, 2) if 16**t * stride <= STEP_TABLE_MAX), 1)
        composed = single
        for _ in range(self.t - 1):
            composed = single[np.arange(16)[:, None], composed[:, None, :]].reshape(-1, stride)
        self.composed = np.vstack((composed, np.arange(stride))).ravel()
        self.width = SCAN_BLOCK if self.t == 3 else 1
        self.lookup = self.composed.tolist() if self.width == 1 else None
        self.single = single.ravel()
        self.stride = stride

    def __call__(self, classes: np.ndarray, k: int) -> np.ndarray:
        """The queue length before every event and after the last, from k, by
        a blocked scan (Blelloch 1990): gathers compose all blocks' maps on
        every level, tuple by tuple; the walk reads each block's map at its
        start; gathers fill in the tuples, then the events inside and after."""
        t, stride, composed, single, width = self.t, self.stride, self.composed, self.single, self.width
        events = len(classes)
        whole = events - events % t
        tuples = whole // t
        blocks = -(-tuples // width)
        codes = np.full(blocks * width, 16**t, dtype=np.int64)
        codes[:tuples] = classes[0:whole:t]
        for offset in range(1, t):
            codes[:tuples] = 16 * codes[:tuples] + classes[offset:whole:t]
        codes = (stride * codes).reshape(blocks, width).T.copy()  # codes[j, b]: block b's tuple j
        if width == 1:
            flat, bases = self.lookup, codes[0].tolist()
        else:
            maps = np.repeat(np.arange(stride), blocks).reshape(stride, blocks)  # [level, block]
            at = np.empty_like(maps)
            for row in codes:
                np.add(maps, row, out=at)
                composed.take(at, out=maps, mode="clip")  # in range, so unchecked and unbuffered
            flat, bases = memoryview(maps.T.ravel()), range(0, blocks * stride, stride)
        starts = np.fromiter(accumulate(bases, lambda k, b: flat[b + k], initial=k), np.int64, blocks + 1)
        inner = np.empty((width, blocks), dtype=np.int64)
        inner[0] = starts[:-1]
        for j in range(1, width):
            inner[j] = composed[codes[j - 1] + inner[j - 1]]
        ks = np.empty(events + 1, dtype=np.int64)
        ks[0:whole:t] = inner.T.ravel()[:tuples]
        ks[whole] = starts[-1]
        for offset in range(1, t):
            before = ks[offset - 1 : whole : t]
            ks[offset:whole:t] = single[stride * classes[offset - 1 : whole : t] + before]
        for i in range(whole, events):
            ks[i + 1] = single[stride * classes[i] + ks[i]]
        return ks
