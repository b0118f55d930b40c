"""Closed-form quantities: always-join laws, threshold stationary laws,
the queue-length law seen by feedback customers, and reneging probabilities.

The threshold chains are birth-death processes on the number of customers:
births at rate ``lam`` (thinned to ``lam p`` at the boundary level), deaths
at rate ``mu q`` (successful completions), plus, when reneging is allowed,
an extra death channel ``mu (1-q)(1-p)`` out of the top level.  Every law
here follows from the detailed-balance cut equations of those diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Threshold, as_threshold, branch_parts, int_at_least, positive_int


@dataclass(frozen=True, slots=True)
class StationaryDist:
    """A finite stationary law over queue lengths (or observed queue lengths).

    ``probs[k]`` is the mass at k customers; the support runs to ``ceil(x)``
    for the threshold variants and to ``floor(x)`` for the law observed by
    feedback customers.
    """

    probs: np.ndarray

    @property
    def support(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


def sojourn_always_join(params: ModelParams, i: int) -> float:
    """Stationary expected sojourn from joining position i when everyone joins.

    Affine in the position: each extra customer ahead adds the same expected
    clearing time.  Requires the stable regime lam < mu q.
    """
    if params.lam >= params.mu * params.q:
        raise ValueError("always-join sojourn requires lam < mu * q")
    i = positive_int(i, "position")
    return (i + 1 - params.q) / (
        (params.q - 1) * params.lam - (params.q - 2) * params.q * params.mu
    )


def stationary_always_join(params: ModelParams, i: int) -> float:
    """Geometric stationary mass at i customers when everyone always joins."""
    rho = params.rho
    if rho >= 1.0:
        raise ValueError("always-join law requires rho = lam / (mu q) < 1")
    i = int_at_least(i, 0, "queue length")
    return (1.0 - rho) * rho**i


def stationary_threshold(
    params: ModelParams, x: float | Threshold, mode: str = "n"
) -> StationaryDist:
    """Stationary queue-length law under a population threshold.

    Mode "n" forbids reneging, mode "r" allows it; the two differ only in
    the mass of the boundary level ``floor(x) + 1`` (and hence in the
    normalisation), because reneging adds a departure channel there.
    """
    if mode not in ("n", "r"):
        raise ValueError(f"mode must be 'n' or 'r', got {mode!r}")
    th = as_threshold(x)
    n, p = branch_parts(th)
    rho = params.rho
    # Above rho = 1 the weights grow with k: scale them by rho^-n, which keeps
    # the largest near one and lets none overflow.
    shift = n if rho > 1.0 else 0
    weights = rho ** np.arange(-shift, n + 1 - shift, dtype=float)
    if th.is_integer:
        probs = weights / weights.sum()
    else:
        if mode == "n":
            top = p * rho ** (n + 1 - shift)
        else:
            exit_rate = params.mu * params.q + params.mu * (1.0 - params.q) * (1.0 - p)
            top = params.lam * p / exit_rate * rho ** (n - shift)
        probs = np.append(weights, top) / (weights.sum() + top)
    return StationaryDist(probs)


def feedback_observed_dist(params: ModelParams, x: float | Threshold) -> StationaryDist:
    """Law of the number of other customers seen at a service failure.

    A feedback customer observes the system conditioned on being in service,
    which shifts the reneging-case stationary law down by one and
    renormalises.  For integer thresholds the boundary level is unreachable,
    so the top observed count carries no mass.
    """
    th = as_threshold(x)
    if th.x <= 0.0:
        raise ValueError("feedback-observed law requires a positive threshold")
    base = stationary_threshold(params, th, "r").probs
    shifted = np.zeros(th.n + 1)
    shifted[: len(base) - 1] = base[1:]
    return StationaryDist(shifted / shifted.sum())


def renege_probability(params: ModelParams, x: float | Threshold) -> float:
    """Chance that a joining customer abandons before a successful completion.

    A customer can abandon only when her service fails with the system at the
    boundary level; summing the geometric number of feedback rounds gives the
    closed form.  Zero for integer thresholds (the boundary is unreachable)
    and when services never fail.
    """
    th = as_threshold(x)
    if th.x <= 0.0:
        raise ValueError("renege probability requires a positive threshold")
    if th.is_integer or params.q == 1.0:
        return 0.0
    seen_full = feedback_observed_dist(params, th).probs[th.n]
    once = (1.0 - params.q) * (1.0 - th.p) * seen_full
    return once / (1.0 - (1.0 - params.q) * (1.0 - (1.0 - th.p) * seen_full))

