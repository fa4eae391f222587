"""Test oracles: reference forms of library code that no library path calls.

``alpha_params`` bundles the alpha-tilde adversary's first-round bid ratio
with its feasibility cap and regime test; ``strategies.AlphaTildeAdversary``
inlines the regime test, and ``TestAlphaTildeOracle`` replays it from here.

The simultaneous auction's closed forms are checked against general
solvers: ``scan_qp`` solves the adversarial QP for any non-negative weights
by the breakpoint scan ``budget_scan``, ``qp_grid_search`` searches a
lattice at m = 2, and ``exhaustive_best_response_split`` enumerates the
bidder's replies to the split adversary.

``flat_price_scan`` is the adversary's exhaustive best response to the
flat-price policy, which ``strategies.constant_price_worst_profit`` gives in
closed form.

``cross_oracle`` is the value ladder's crossing kernel ``seq._cross`` by
brute force over the adversary's bid.
"""

import math
from dataclasses import dataclass

import numpy as np

from riskfree.seq import alpha_tilde
from riskfree.simul import budget_split
from riskfree.strategies import constant_price_policy


@dataclass(frozen=True)
class AlphaParams:
    """First-round bid ratio data for the m-item uniform additive auction."""

    m: int
    x: float
    alpha_tilde: float
    alpha_max: float
    intermediate: bool  # x in [1/m^2, (m-1)/m]


def alpha_params(m: int, x: float) -> AlphaParams:
    """The sufficient first-round bid ratio and its feasibility cap."""
    at, alpha_max = float(alpha_tilde(m, x)), min(1.0, m * x)
    inter = 1.0 / m**2 <= x <= (m - 1.0) / m
    return AlphaParams(m=m, x=float(x), alpha_tilde=at, alpha_max=alpha_max, intermediate=inter)


def budget_scan(z, d, g, B):
    """clip(z - theta * d, 0, 1) at the least theta >= 0 with spend g . b <= B,
    by scanning the breakpoints where a coordinate leaves 1 or reaches 0 and
    interpolating inside the first piece that fits."""
    b = np.clip(z, 0.0, 1.0)
    if float(g @ b) <= B + 1e-12:
        return b
    thetas = np.concatenate(([0.0], (z - 1.0) / d, z / d))
    thetas = np.unique(thetas[thetas >= 0.0])
    vals = g @ np.clip(z[:, None] - thetas[None, :] * d[:, None], 0.0, 1.0)
    below = np.nonzero(vals <= B)[0]
    if below.size == 0:
        return np.zeros_like(z)
    i = int(below[0])
    if i == 0 or vals[i] == vals[i - 1]:
        theta = float(thetas[i])
    else:
        frac = (vals[i - 1] - B) / (vals[i - 1] - vals[i])
        theta = float(thetas[i - 1] + frac * (thetas[i] - thetas[i - 1]))
    return np.clip(z - theta * d, 0.0, 1.0)


def scan_qp(g, B):
    """Minimizer and value of (1/2) sum g_i (1 - b_i)^2 over {0 <= b <= 1,
    g . b <= B} for any non-negative g: ``budget_scan`` at z = d = 1, where
    each coordinate sits at clip(1 - theta) for the budget multiplier theta."""
    g = np.asarray(g, dtype=float)
    ones = np.ones_like(g)
    b = budget_scan(ones, ones, g, B)
    return b, float(np.sum(g * 0.5 * (1.0 - b) ** 2))


def qp_grid_search(g: np.ndarray, B: float, step: float = 0.001) -> float:
    """Independent lattice oracle for the two-item QP.

    The minimum of the objective over the lattice points (b1, b2) that pass
    ``g[0]*b1 + g[1]*b2 <= B + 1e-12``.  With g >= 0 that test holds on a
    prefix of each b1 row, and the objective falls as b2 rises to 1, so a
    row needs only its last feasible b2 and the point before it (the last
    lattice point may pass 1, and its objective can then round above the
    one before it).  That index is estimated with ``searchsorted`` and
    walked to the exact boundary of the same float test, so the value is
    the full lattice's to the bit, in O(1/step).
    """
    if len(g) != 2:
        raise ValueError("the lattice oracle is for m = 2")
    if not (g[0] >= 0.0 and g[1] >= 0.0):
        raise ValueError("weights must be non-negative")
    axis = np.arange(0.0, 1.0 + step / 2, step)
    last = len(axis) - 1
    cap = B + 1e-12

    def fits(j: np.ndarray) -> np.ndarray:
        return g[0] * axis + g[1] * axis[j] <= cap

    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.searchsorted(axis, (cap - g[0] * axis) / g[1], side="right") - 1
    while (down := (j >= 0) & ~fits(np.maximum(j, 0))).any():
        j = j - down
    while (up := (j < last) & fits(np.minimum(j + 1, last))).any():
        j = j + up
    b1, j = axis[j >= 0], j[j >= 0]

    def obj(b2: np.ndarray) -> np.ndarray:
        return 0.5 * (g[0] * (1.0 - b1) ** 2 + g[1] * (1.0 - b2) ** 2)

    return float(np.minimum(obj(axis[j]), obj(axis[np.maximum(j - 1, 0)])).min())


def exhaustive_best_response_split(m: int, B: float) -> tuple[float, tuple[int, int]]:
    """Enumerated bidder best response against the w1/w2 adversary.

    Undominated per-item bids are: skip, beat w2/m (wins when the item is off
    the random subset, probability 1/2), or beat w1/m (always wins).  The
    expectation is linear, so enumerating the counts (n1, n2) of items played
    at each level is exhaustive.
    """
    split = budget_split(B)
    gain_mid = 0.5 * (1.0 - split.w2) / m  # wins iff off-subset, pays w2/m
    gain_top = (1.0 - split.w1) / m  # always wins, pays w1/m
    best, arg = 0.0, (0, 0)
    for n1 in range(m + 1):
        for n2 in range(m + 1 - n1):
            val = n1 * gain_mid + n2 * gain_top
            if val > best + 1e-12:
                best, arg = val, (n1, n2)
    return float(best), arg


def flat_price_scan(si, B: float, k: int) -> tuple[float, int]:
    """Exhaustive adversary best response to the flat-price policy.

    Against a bidder who pays p until she holds q items, the adversary's only
    lever is how many rounds to win while she is still bidding; each such win
    costs him p (he must outbid it), and the total must stay strictly below
    B.  Returns (bidder profit, adversary win count at the minimum).
    """
    policy, plan = constant_price_policy(si, B, k)
    m, q, p = si.m, plan.q, plan.p
    if p <= 0:
        return si.value_of_count(q), 0
    w_max = min(m, int(math.floor((B - 1e-12) / p - 1e-12)) + 1)
    # w wins at price p each require w * p < B strictly
    while w_max > 0 and w_max * p >= B - 1e-12:
        w_max -= 1
    worst, worst_w = math.inf, 0
    for w in range(w_max + 1):
        c = min(q, m - w)
        profit = si.value_of_count(c) - c * p
        if profit < worst:
            worst, worst_w = profit, w
    return float(worst), worst_w


def cross_oracle(hi, lo, x, n: int = 4000) -> np.ndarray:
    """cross(hi, lo) at each budget in ``x``: the minimum over the grid
    a = x k / n, k = 0..n, of max(hi(x) - a, lo(x - a)), for callables
    ``hi`` and ``lo`` that take arrays.

    The grid holds both ends, so the minimum lies at or above the exact one
    and above it by at most x / n times the objective's largest slope in a,
    max(1, the largest |slope| of lo).
    """
    x = np.asarray(x, dtype=float)
    a = x[:, None] * np.linspace(0.0, 1.0, n + 1)
    return np.maximum(hi(x)[:, None] - a, lo(x[:, None] - a)).min(axis=1)
