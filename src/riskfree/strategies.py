"""Named bidding policies for both sides of the sequential game, plus the
randomized simultaneous bidder.

A sequential policy is a callable mapping a ``SeqGameState`` to a bid.
Policies are immutable after construction.  The randomized simultaneous
bidder carries its own seeded generator, so its draws replay exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstanceError
from .seq import SeqGameState, alpha_tilde, equalization_alpha
from .valuations import (
    AdditiveValuation,
    SInstanceParams,
    SubadditiveIdenticalValuation,
    check_budget,
    check_count,
)


@dataclass(frozen=True)
class FixedBidsPolicy:
    """Non-adaptive: bid ``bids[t]`` on the round-t item regardless of history."""

    bids: tuple[float, ...]

    def __call__(self, state: SeqGameState) -> float:
        return self.bids[state.round]


@dataclass(frozen=True)
class ConstantBidPolicy:
    bid: float

    def __call__(self, state: SeqGameState) -> float:
        return self.bid


def xos_sqrt_policy(gstar: AdditiveValuation, B: float) -> FixedBidsPolicy:
    """Bid sqrt(B) times the dominant additive clause's weight on every item.

    Guarantees (1 - sqrt(B))^2 on any normalized XOS valuation whose
    dominant clause is ``gstar``, against any budget-B adversary.
    """
    check_budget(B)
    root = math.sqrt(B)
    return FixedBidsPolicy(bids=tuple(root * w for w in gstar.weights))


def low_budget_policy(B: float) -> ConstantBidPolicy:
    """Bid the adversary's whole budget on every item (meant for B < 1/m^2)."""
    check_budget(B)
    return ConstantBidPolicy(bid=float(B))


def high_budget_policy(m: int, B: float) -> ConstantBidPolicy:
    """Bid B/m on every item (meant for B > (m-1)/m)."""
    m = check_count(m)
    check_budget(B)
    if B <= (m - 1) / m:
        warnings.warn("high_budget_policy outside its intended range B > (m-1)/m")
    return ConstantBidPolicy(bid=float(B) / m)


@dataclass(frozen=True)
class AlphaTildeAdversary:
    """Adversary for the uniform additive auction A_m.

    Each round the remaining game is a rescaled A_{m'}; in the intermediate
    budget regime the bid ratio is the closed-form sufficient ratio, outside
    it the exact equalization ratio from the value recursion.
    """

    m: int
    budget: float

    def __call__(self, state: SeqGameState) -> float:
        m_rem = len(state.remaining)
        per_item = 1.0 / state.m
        r = state.adversary_budget
        if m_rem == 0 or r <= 0:
            return 0.0
        x_sub = r / (m_rem * per_item)
        if m_rem == 1:
            ratio = min(1.0, x_sub)
        elif 1.0 / m_rem**2 <= x_sub <= (m_rem - 1.0) / m_rem:  # the intermediate regime
            ratio = min(max(alpha_tilde(m_rem, x_sub), 0.0), min(1.0, m_rem * x_sub))
        else:
            ratio = equalization_alpha(m_rem, x_sub)[0]
        return min(ratio * per_item, r)


def alpha_tilde_adversary(m: int, x: float) -> AlphaTildeAdversary:
    m = check_count(m)
    check_budget(x)
    return AlphaTildeAdversary(m=m, budget=float(x))


@dataclass(frozen=True)
class ConstantPricePlan:
    q: int
    p: float


@dataclass(frozen=True)
class ConstantPricePolicy:
    """Bid a flat price until the target allocation is reached, then stop."""

    p: float
    q: int

    def __call__(self, state: SeqGameState) -> float:
        return self.p if len(state.won_by_1) < self.q else 0.0


def constant_price_policy(
    si: SubadditiveIdenticalValuation, B: float, k: int
) -> tuple[ConstantPricePolicy, ConstantPricePlan]:
    """Flat-price strategy targeting q = ceil(m/k) wins at p = B/(m-q+1).

    The price is the smallest at which the adversary's budget cannot block
    the target allocation; the guaranteed profit is at least
    t_{k-1}(B) - (B k / (k-1)) / m.
    """
    k = check_count(k, least=2, name="k")
    check_budget(B)
    m = check_count(si.m, least=k)
    q = math.ceil(m / k)
    p = B / (m - q + 1)
    return ConstantPricePolicy(p=p, q=q), ConstantPricePlan(q=q, p=p)


def tangent_value(k: int, B: float) -> float:
    """t_k(B) = 1/(k+1) - B/k, tangent to (1-sqrt(B))^2 at B = (k/(k+1))^2.

    Defined for every finite budget B >= 0; anything else raises ValueError.
    """
    k = check_count(k, name="k")
    check_budget(B)
    return 1.0 / (k + 1) - B / k


def tangent_peak(B: float, j_max: int) -> tuple[int, float]:
    """Index and value of the highest tangent t_j(B) over 1 <= j <= j_max.

    Returns what the scan j = 1, 2, ..., j_max finds when it moves only on a
    gain above 1e-15, so near-ties break toward smaller j.  Since
    t_j - t_{j+1} = (j - B(j+2)) / (j(j+1)(j+2)), t_j rises while
    j < c = 2B/(1-B) and falls after it (for B >= 1 it rises for every j).
    With j* = max(1, ceil(c)), each step below j* - 1 gains more than
    2/((j*+2) j*^3), which clears the margin while j* < 6000, so the scan
    ends at j* - 1 or j*.  The float c is off by under 3e-16 c; where that
    moves ceil(c), the step between j* - 1 and j* gains under 1e-15.  So
    ``top`` is min(j*, j_max) up to one, and the scan is replayed on
    top - 1 and top.
    """
    check_budget(B)
    j_max = check_count(j_max, name="j_max")
    top = j_max if B >= 1.0 else min(j_max, math.ceil(2.0 * B / (1.0 - B)))
    best_j = max(1, top - 1)
    best_val = tangent_value(best_j, B)
    if top > best_j:
        val = tangent_value(top, B)
        if val > best_val + 1e-15:
            best_j, best_val = top, val
    return best_j, best_val


def choose_k(B: float) -> int:
    """Allocation coarseness whose tangent bound is highest at budget B.

    Maximizes t_{k-1}(B) over 2 <= k <= 400; ties break toward smaller k.
    """
    return tangent_peak(B, 399)[0] + 1


def constant_price_worst_profit(
    si: SubadditiveIdenticalValuation, B: float, k: int
) -> tuple[float, int]:
    """Adversary best response to the flat-price policy, in closed form.

    Against a bidder who pays p until she holds q items, the adversary's only
    lever is how many rounds to win while she is still bidding.  Each such
    win costs him p (he must outbid it), and his wins must total strictly
    below B = (m - q + 1) p, so he wins at most m - q rounds.  Every
    affordable count therefore leaves her exactly q items at price p, and
    her profit is v(q) - q p.  Returns (bidder profit, adversary win count
    at the minimum); every count ties, and the least is 0.
    """
    plan = constant_price_policy(si, B, k)[1]
    return float(si.value_of_count(plan.q) - plan.q * plan.p), 0


@dataclass(frozen=True)
class SInstanceAdversary:
    """Three-phase adversary for the hard identical-item instance.

    Phase 1: bid 0 until Bidder 1 wins an item.  Phase 2 (entered only if the
    adversary holds nothing): bid the blocking price until he wins once.
    Phase 3: play the exact optimal bid for the rescaled uniform additive
    subgame, valued by the piecewise-linear recursion.
    """

    params: SInstanceParams

    def __call__(self, state: SeqGameState) -> float:
        if len(state.won_by_1) == 0:
            return 0.0
        if state.adversary_wins == 0:
            return min(self.params.phase2_bid, state.adversary_budget)
        m_rem = len(state.remaining)
        if m_rem == 0 or state.adversary_budget <= 0:
            return 0.0
        s, d = self.params.sigma, self.params.d
        mu = s / (d * (2.0 + s))  # marginal value of each remaining item
        x_sub = state.adversary_budget / (m_rem * mu)
        ratio = min(1.0, x_sub) if m_rem == 1 else equalization_alpha(m_rem, x_sub)[0]
        return min(ratio * mu, state.adversary_budget)


def s_instance_adversary(params: SInstanceParams) -> SInstanceAdversary:
    if params.m < params.sigma + 2 - 1e-12:
        raise InfeasibleInstanceError("instance is not subadditive at this size")
    if params.phase2_bid > params.x + 1e-12:
        raise InfeasibleInstanceError("blocking bid exceeds the budget")
    return SInstanceAdversary(params=params)


class UniformRandomBidder:
    """Simultaneous bidder drawing an independent U(0,1) ratio per item.

    ``draw`` returns one bid vector X_i * gstar_i and ``draws(n)`` the next
    n of them as the rows of an (n, m) array, the same as n stacked
    ``draw()`` calls; the stream is seeded and counter-based, so runs replay
    exactly.  Build one per worker, each with its own seed, instead of
    sharing one instance.
    """

    def __init__(self, gstar: AdditiveValuation, seed: int):
        self.gstar = gstar
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.Philox(self.seed))

    def draw(self) -> np.ndarray:
        return self.draws(1)[0]

    def draws(self, n: int) -> np.ndarray:
        x = self._rng.random((n, len(self.gstar.weights)))
        return x * np.asarray(self.gstar.weights)
