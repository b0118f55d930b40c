"""Independent oracle for the reference table, built from the event rules in
the README alone; it imports nothing from feedbackq.

It holds a dense continuous-time generator of the tagged-customer chain, the
birth-death (product-form) stationary law, and its own root bracketing.  A
state (i, j) puts the tagged customer at position i of j customers.  Chain
variants: "n" nobody reneges; "r_tagged" the others renege and the tagged
customer never does; "r_all" everyone, tagged included, may renege.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def oracle_join_prob(x: float, position: int) -> float:
    """Chance to join (or, after a failed service, rejoin) at ``position``."""
    n = math.floor(x)
    if position <= n:
        return 1.0
    return x - n if position == n + 1 else 0.0


def oracle_generator(lam: float, mu: float, q: float, x: float,
                     variant: str) -> tuple[list[tuple[int, int]], np.ndarray]:
    """States (i, j) with j <= floor(x) + 2, level by level, and the generator
    of the tagged chain on them.  The tagged customer's completion and her
    abandonment leave the state space, so those rows sum below zero."""
    depth = math.floor(x) + 2
    states = [(i, j) for j in range(1, depth + 1) for i in range(1, j + 1)]
    index = {state: k for k, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for (i, j), k in index.items():
        gen[k, k] -= lam + mu
        join = oracle_join_prob(x, j + 1)  # zero at the top level
        if join:
            gen[k, index[(i, j + 1)]] += lam * join
        gen[k, k] += lam * (1.0 - join)  # the arrival balks
        if i > 1:
            gen[k, index[(i - 1, j - 1)]] += mu * q
        may_renege = variant == "r_all" or (variant == "r_tagged" and i > 1)
        rejoin = oracle_join_prob(x, j) if may_renege else 1.0
        gen[k, index[(j, j) if i == 1 else (i - 1, j)]] += mu * (1.0 - q) * rejoin
        if i > 1:
            gen[k, index[(i - 1, j - 1)]] += mu * (1.0 - q) * (1.0 - rejoin)
    return states, gen


def oracle_payoffs(lam: float, mu: float, q: float, r0: float, x: float,
                   variant: str) -> dict[tuple[int, int], float]:
    """Expected reward-minus-waiting from every state (i, j) with j <= floor(x) + 2."""
    states, gen = oracle_generator(lam, mu, q, x, variant)
    gain = np.full(len(states), -1.0)  # waiting cost per unit time
    for k, (i, _) in enumerate(states):
        if i == 1:
            gain[k] += mu * q * r0  # the tagged customer completes
    values = np.linalg.solve(-gen, gain)
    return {state: float(values[k]) for k, state in enumerate(states)}


def oracle_stationary(lam: float, mu: float, q: float, x: float, mode: str) -> np.ndarray:
    """Queue-length law of the birth-death chain; mode "r" adds renege deaths."""
    weights = [1.0]
    while (join := oracle_join_prob(x, len(weights))) > 0.0:
        death = mu * q + (mu * (1.0 - q) * (1.0 - join) if mode == "r" else 0.0)
        weights.append(weights[-1] * lam * join / death)
    return np.array(weights) / sum(weights)


def oracle_root(lam: float, mu: float, q: float, r0: float, variant: str) -> float:
    """Mixed equilibrium threshold: the payoff one past the sure positions is zero.

    Scans the unit intervals (m, m+1) for a sign change of that payoff and
    refines it with Brent's method.
    """
    def marginal(x: float) -> float:
        m = math.floor(x)
        return oracle_payoffs(lam, mu, q, r0, x, variant)[(m + 1, m + 1)]

    for m in range(1, 100):
        lo, hi = m + 1e-9, m + 1.0 - 1e-9
        if marginal(lo) > 0.0 > marginal(hi):
            return brentq(marginal, lo, hi, xtol=1e-14)
    raise ValueError("no mixed equilibrium below threshold 100")


def oracle_table(case: dict) -> dict[str, float]:
    """The oracle's value of every entry of a reference case."""
    lam, mu, q, r0 = case["lam"], case["mu"], case["q"], case["r0"]
    x_e = oracle_root(lam, mu, q, r0, "n")
    x_hat_e = oracle_root(lam, mu, q, r0, "r_tagged")
    z = oracle_payoffs(lam, mu, q, r0, x_e, "n")
    z_hat = oracle_payoffs(lam, mu, q, r0, x_hat_e, "r_all")
    pi = oracle_stationary(lam, mu, q, x_e, "n")
    pi_hat = oracle_stationary(lam, mu, q, x_hat_e, "r")
    return dict(
        x_e=x_e, x_hat_e=x_hat_e,
        z11=z[1, 1], z22=z[2, 2], zh11=z_hat[1, 1], zh22=z_hat[2, 2],
        pi0=pi[0], pi1=pi[1], pih0=pi_hat[0], pih1=pi_hat[1],
    )
