"""Independent exact oracle for the ESS check, built from the event rules in
the README alone; it imports nothing from feedbackq.

Every number is a rational: the float inputs are taken exactly, the
tagged-customer sojourn times are solved by Gaussian elimination over
``fractions.Fraction``, and the law an arrival sees is the birth-death law.
A population thresholds at x: an arrival who sees k customers joins surely
if k < floor(x), with probability x - floor(x) if k = floor(x), and balks
otherwise; nobody reneges.  z_k is the payoff r0 - W of joining at position
k + 1, and pi_k the chance that an arrival sees k customers.

The solve is exact at any depth.  It orders the states by descending
position, so elimination fills in only the position-1 rows; it takes about
0.01 s at depth 8, 0.07 s at depth 11 and 2 s at depth 20.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Thresholds this close are one: the ESS check passes over deviations as
#: near to the threshold it checks.
SAME = 1e-12

WORSE, TIE, FAIL = "worse", "tie", "fail"


def depth(x: float) -> int:
    """Levels a population at x reaches: ceil(x) customers, plus a joiner."""
    x = Fraction(x)
    return math.floor(x) + (1 if x.denominator == 1 else 2)


def shares(x: float, size: int) -> list[Fraction]:
    """Chance that a customer thresholding at x joins, having seen k customers."""
    x = Fraction(x)
    n = math.floor(x)
    return [Fraction(1) if k < n else x - n if k == n else Fraction(0) for k in range(size)]


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals, skipping zero entries."""
    size = len(b)
    for c in range(size):
        piv = next(r for r in range(c, size) if a[r][c] != 0)
        a[c], a[piv], b[c], b[piv] = a[piv], a[c], b[piv], b[c]
        row_c = a[c]
        nonzero = [k for k in range(c + 1, size) if row_c[k] != 0]
        for r in range(c + 1, size):
            if a[r][c] != 0:
                f = a[r][c] / row_c[c]
                for k in nonzero:
                    a[r][k] -= f * row_c[k]
                a[r][c] = Fraction(0)
                b[r] -= f * b[c]
    out = [Fraction(0)] * size
    for c in range(size - 1, -1, -1):
        tail = sum(a[c][k] * out[k] for k in range(c + 1, size) if a[c][k] != 0)
        out[c] = (b[c] - tail) / a[c][c]
    return out


class Game:
    """The no-reneging game at one rate point and reward, with each
    population's joining-state payoffs solved once."""

    def __init__(self, lam: float, mu: float, q: float, r0: float):
        self.lam, self.mu, self.q, self.r0 = (Fraction(v) for v in (lam, mu, q, r0))
        self._z: dict[float, list[Fraction]] = {}

    def payoffs(self, x: float) -> list[Fraction]:
        """z_k, k = 0..depth(x) - 1, against a population at x."""
        if x not in self._z:
            self._z[x] = [self.r0 - w for w in self._sojourns(x)]
        return list(self._z[x])

    def _sojourns(self, x: float) -> list[Fraction]:
        lam, mu, q = self.lam, self.mu, self.q
        levels = depth(x)
        join = shares(x, levels + 1)
        states = sorted(((i, j) for j in range(1, levels + 1) for i in range(1, j + 1)),
                        key=lambda s: (-s[0], s[1]))
        index = {s: k for k, s in enumerate(states)}
        a = [[Fraction(0)] * len(states) for _ in states]
        for (i, j), k in index.items():
            row = a[k]
            row[k] += lam + mu
            if join[j]:  # an arrival sees j customers
                row[index[i, j + 1]] -= lam * join[j]
            row[k] -= lam * (1 - join[j])
            if i == 1:  # her own service: success leaves, failure sends her to the tail
                row[index[j, j]] -= mu * (1 - q)
            else:  # the service of the customer at the head
                row[index[i - 1, j - 1]] -= mu * q
                row[index[i - 1, j]] -= mu * (1 - q)
        w = _solve(a, [Fraction(1)] * len(states))
        return [w[index[k, k]] for k in range(1, levels + 1)]

    def arrival_law(self, x: float) -> list[Fraction]:
        """pi_k, k = 0..depth(x) - 1, under a population at x."""
        rho = self.lam / (self.mu * self.q)
        weights = [Fraction(1)]
        for s in shares(x, depth(x) - 1):
            weights.append(weights[-1] * rho * s)
        total = sum(weights)
        return [w / total for w in weights]

    def payoff(self, x_tag: float, x_pop: float, z: list[Fraction] | None = None) -> Fraction:
        """u(x_tag, x_pop), the payoff of thresholding at x_tag against a
        population at x_pop (whose joining-state payoffs ``z`` may be given)."""
        z = self.payoffs(x_pop) if z is None else z
        law = self.arrival_law(x_pop)
        return sum(s * p * v for s, p, v in zip(shares(x_tag, len(z)), law, z))

    def is_root(self, x: float) -> bool:
        """Whether z_n changes sign within ``SAME`` of x, inside (n, n + 1) for
        n = floor(x) >= 1: a mixed equilibrium that no deviation can tell from x."""
        n = math.floor(x)
        lo, hi = x - SAME, x + SAME
        if n < 1 or not n < lo < hi < n + 1:
            return False
        return self.payoffs(lo)[n] >= 0 >= self.payoffs(hi)[n]


def verdicts(lam: float, mu: float, q: float, r0: float, x_e: float, deviations) -> list[tuple[float, str]]:
    """Each deviation farther than ``SAME`` from x_e with its verdict.

    ``WORSE``: it does strictly worse against a population at x_e.  ``TIE``:
    it does exactly as well there, and strictly worse than x_e against its
    own population.  ``FAIL``: otherwise.  When a mixed root lies within
    ``SAME`` of x_e (:meth:`Game.is_root`), x_e stands for it, and z_n is
    zero: every deviation lies on the same side of both.  Not for the reward
    tie with the lone-customer sojourn.
    """
    game = Game(lam, mu, q, r0)
    z_e = game.payoffs(x_e)
    if game.is_root(x_e):
        z_e[math.floor(x_e)] = Fraction(0)
    u_ee = game.payoff(x_e, x_e, z_e)
    out = []
    for dx in map(float, deviations):
        if abs(dx - x_e) <= SAME:
            continue
        loss = u_ee - game.payoff(dx, x_e, z_e)
        if loss == 0:
            verdict = TIE if game.payoff(x_e, dx) > game.payoff(dx, dx) else FAIL
        else:
            verdict = WORSE if loss > 0 else FAIL
        out.append((dx, verdict))
    return out
