"""Simultaneous auction resolution and the randomized first-price analysis.

The adversary in a simultaneous auction is constrained by total bid mass
(sum of bids at most B).  Against the uniform-random bidder the adversary's
best response is the quadratic program

    minimize   (1/2) sum_i g_i (1 - b_i)^2
    subject to 0 <= b_i <= 1,  sum_i g_i b_i <= B

whose optimum, for a normalized weight vector g, is the constant vector
b_i = B with value (1 - B)^2 / 2.  ``adversary_qp`` returns that closed form
with its Lagrange multipliers and checks the KKT conditions on every call;
the QP is convex, so they prove optimality.  The general solvers that
re-check such closed forms (an exact QP scan for any non-negative weights, a
lattice search, an enumerated best reply to the split adversary) live in the
tests, as oracles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .valuations import (
    AdditiveValuation,
    Valuation,
    XOSValuation,
    bid_vector,
    check_budget,
    check_count,
    check_price_rule,
    gamma_star,
    item_vector,
    subset_sums,
    workspace,
)

_TOL = 1e-12

#: How far a "normalized" weight vector may sum from 1; the QP's KKT
#: residuals at the closed form are bounded by the same slack.
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SimulOutcome:
    won_by_1: tuple[int, ...]
    bidder_paid: float
    adversary_paid: float
    profit: float


@dataclass(frozen=True)
class QPSolution:
    ratios: tuple[float, ...]
    value: float
    dual: tuple[float, ...]  # m lower-box, m upper-box, then the budget multiplier


@dataclass(frozen=True)
class CounterPlan:
    k_star: int
    p_star: float | None
    bound: float
    realized: float


@dataclass(frozen=True)
class BudgetSplit:
    w1: float
    w2: float
    regime: str  # "low" for B < 1/4, else "high"


def budget_split(B: float) -> BudgetSplit:
    """The two bid levels of the randomized simultaneous adversary."""
    if not 0.0 < B < 1.0:
        raise ValueError("B must lie in (0, 1)")
    if B < 0.25:
        return BudgetSplit(w1=2.0 * B, w2=0.0, regime="low")
    return BudgetSplit(w1=1.0 / 3.0 + 2.0 * B / 3.0, w2=4.0 * B / 3.0 - 1.0 / 3.0, regime="high")


# -- one-shot resolution ------------------------------------------------------


def resolve(
    v: Valuation,
    bids1: Iterable[float],
    bids2: Iterable[float],
    price_rule: str = "first",
) -> SimulOutcome:
    """Resolve one simultaneous auction; per-item ties go to the adversary.
    Bids must be finite and non-negative on both sides."""
    check_price_rule(price_rule)
    b1 = bid_vector(bids1, v.m, "bidder")
    b2 = bid_vector(bids2, v.m, "adversary")
    bidder_wins = b1 > b2
    if price_rule == "first":
        paid1 = float(b1[bidder_wins].sum())
        paid2 = float(b2[~bidder_wins].sum())
    else:
        paid1 = float(b2[bidder_wins].sum())
        paid2 = float(b1[~bidder_wins].sum())
    won = tuple(np.nonzero(bidder_wins)[0].tolist())
    return SimulOutcome(
        won_by_1=won,
        bidder_paid=paid1,
        adversary_paid=paid2,
        profit=float(v.value(won) - paid1),
    )


# -- uniform-random bidder: expected profit ------------------------------------


def expected_profit_uniform_random(gstar: AdditiveValuation, ratios: Sequence[float]) -> float:
    """Closed-form expected profit surrogate sum_i g_i (1 - b_i)^2 / 2.

    Exact when the valuation equals its dominant additive clause; a lower
    bound otherwise.
    """
    g = np.asarray(gstar.weights)
    b = item_vector(ratios, len(g), "ratios")
    if np.any(b < -1e-9) or np.any(b > 1.0 + 1e-9):
        raise ValueError("ratios must lie in [0, 1]")
    return float(np.sum(g * 0.5 * (1.0 - b) ** 2))


def exact_xos_expected_profit(v: XOSValuation, ratios: Sequence[float]) -> float:
    """Exact expected profit of the uniform-random bidder against ratio bids.

    The bidder wins item i with probability 1 - b_i and pays her own bid, in
    expectation g_i (1 - b_i^2) / 2 per item.  The expected value sums
    P(win set S) v(S) over every mask S (m capped at 20); the probabilities
    double like ``subset_sums``, the masks with bit i set winning item i.
    """
    b = item_vector(ratios, v.m, "ratios")
    if np.any((b < 0.0) | (b > 1.0)):
        raise ValueError("ratios must lie in [0, 1]")
    p, vals = workspace(v.m)[:2]
    v.values_all(vals)
    g = np.asarray(gamma_star(v).weights)
    p[0] = 1.0
    for i, bi in enumerate(b.tolist()):
        n = 1 << i
        np.multiply(p[:n], 1.0 - bi, out=p[n : 2 * n])
        p[:n] *= bi
    expected_pay = float(np.sum(g * (1.0 - b**2) / 2.0))
    return float(np.multiply(p, vals, out=p).sum()) - expected_pay


# -- the adversarial quadratic program ------------------------------------------


def adversary_qp(gstar: AdditiveValuation, B: float) -> QPSolution:
    """Optimal adversary ratios against the uniform-random bidder.

    Stationarity forces a constant ratio, so b_i = B with value (1-B)^2 / 2.
    The multipliers are zero on every box constraint and 1-B on the budget
    row; ``_check_kkt`` verifies feasibility, dual sign, stationarity,
    complementary slackness and the value, which proves optimality.
    """
    g = np.asarray(gstar.weights)
    if abs(float(g.sum()) - 1.0) > _NORM_TOL:
        raise ValueError("gstar must be normalized (weights summing to 1)")
    if not 0.0 < B < 1.0:
        raise ValueError("B must lie in (0, 1)")
    m = len(g)
    sol = QPSolution(
        ratios=(float(B),) * m,
        value=float(0.5 * (1.0 - B) ** 2),
        dual=(0.0,) * (2 * m) + (1.0 - B,),
    )
    _check_kkt(g, B, sol)
    return sol


def _check_kkt(g: np.ndarray, B: float, sol: QPSolution) -> None:
    """Raise unless ``sol`` satisfies the QP's KKT conditions (NaN fails)."""
    m = len(g)
    b = np.asarray(sol.ratios)
    dual = np.asarray(sol.dual)
    mu_lo, mu_hi, lam = dual[:m], dual[m : 2 * m], float(dual[2 * m])
    spent = float(g @ b)
    if not (np.all((b >= -_NORM_TOL) & (b <= 1.0 + _NORM_TOL)) and spent <= B + _NORM_TOL):
        raise ArithmeticError("QP solution is infeasible")
    if not np.all(dual >= 0.0):
        raise ArithmeticError("QP multiplier has the wrong sign")
    if not np.max(np.abs(-g * (1.0 - b) + lam * g - mu_lo + mu_hi)) <= _NORM_TOL:
        raise ArithmeticError("QP solution is not stationary")
    slack = np.concatenate((mu_lo * b, mu_hi * (1.0 - b), [lam * (B - spent)]))
    if not np.max(np.abs(slack)) <= _NORM_TOL:
        raise ArithmeticError("QP solution violates complementary slackness")
    if not abs(float(np.sum(g * 0.5 * (1.0 - b) ** 2)) - sol.value) <= _NORM_TOL:
        raise ArithmeticError("QP value does not match its ratios")


def second_price_truthful_worst(
    v: XOSValuation | AdditiveValuation, B: float
) -> tuple[float, tuple[int, ...]]:
    """Worst-case profit of truthful dominant-clause bidding in the
    simultaneous second-price auction, over every adversary response.

    The adversary takes any set whose dominant-clause mass fits his budget
    (ties go to him, so exactly B is enough) and spends whatever budget is
    left driving up the prices of the remaining items, each capped by the
    bidder's bid on it.  Every take-set is tried (m capped at 20); ties go
    to the smallest mask.
    """
    check_budget(B)
    g = gamma_star(v).weights
    cost, profit, vals = workspace(v.m)[:3]
    subset_sums(g, cost)  # dominant-clause mass of each take-set
    won_mass = cost[::-1]  # the same mass over the complement, which the bidder wins
    drain = np.minimum(np.subtract(B, cost, out=profit), won_mass, out=profit)
    np.subtract(v.values_all(vals)[::-1], drain, out=profit)
    np.copyto(profit, math.inf, where=cost > B + 1e-12)
    worst_mask = int(np.argmin(profit))
    plan = tuple(i for i in range(v.m) if worst_mask >> i & 1)
    return float(profit[worst_mask]), plan


# -- deterministic counter-strategies -------------------------------------------


def deterministic_counter(bids1_sorted: Sequence[float], B: float) -> CounterPlan:
    """The prefix counter against a pure bidder in the uniform additive
    simultaneous auction.

    With bids sorted non-decreasingly the adversary wins the longest prefix
    strictly affordable under B; p* is the first bid the bidder keeps.  The
    ``bound`` field is the claim bound (m - B/p* + 1)(1/m - p*); ``realized``
    is the bidder's actual profit minimized over all affordable prefixes.
    """
    bids = np.asarray(list(bids1_sorted), dtype=float)
    m = len(bids)
    if m == 0 or not np.all(np.isfinite(bids) & (bids >= -_TOL)):
        raise ValueError("bids must be a non-empty, finite, non-negative vector")
    check_budget(B)
    if np.any(np.diff(bids) < -_TOL):
        raise ValueError("bids must be sorted non-decreasingly")
    if float(bids.max(initial=0.0)) <= 0.0:
        raise ValueError("all-zero bid vector: the prefix counter is undefined")
    cum = np.concatenate(([0.0], np.cumsum(bids)))
    affordable = np.nonzero(cum < B - 1e-12)[0]
    if affordable.size == 0:
        affordable = np.array([0])
    k_star = int(affordable.max())
    margins = 1.0 / m - bids
    suffix = np.concatenate((np.cumsum(margins[::-1])[::-1], [0.0]))
    realized = float(suffix[affordable].min())
    if k_star >= m:
        return CounterPlan(k_star=m, p_star=None, bound=0.0, realized=realized)
    p_star = float(bids[k_star])
    if p_star <= 0.0:
        bound = 1.0  # degenerate: zero-price prefix, the claim bound is vacuous
    else:
        bound = (m - B / p_star + 1.0) * (1.0 / m - p_star)
    return CounterPlan(k_star=k_star, p_star=p_star, bound=bound, realized=realized)


def optimal_counter_price(m: int, B: float) -> float:
    """Bid level maximizing the prefix-counter bound: sqrt(B / (m (m+1)))."""
    m = check_count(m)
    check_budget(B)
    return math.sqrt(B / (m * (m + 1.0)))


# -- the randomized w1/w2 adversary ---------------------------------------------


def _check_even(m: int) -> None:
    """The randomized adversary splits the items in halves: m > 0 and even."""
    m = operator.index(m)
    if m < 1 or m % 2 != 0:
        raise ValueError(f"m must be a positive even number, got {m}")


def randomized_adversary(m: int, B: float, seed: int) -> np.ndarray:
    """One sampled bid vector: w1/m on a uniform m/2-subset, w2/m elsewhere."""
    _check_even(m)
    split = budget_split(B)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    bids = np.full(m, split.w2 / m)
    chosen = rng.choice(m, size=m // 2, replace=False)
    bids[chosen] = split.w1 / m
    return bids


def best_response_profit(m: int, B: float) -> float:
    """Bidder 1's best-response value against the randomized adversary on the
    uniform additive instance: 1 - 2B below budget 1/4, else 2(1-B)/3.
    B must lie in (0, 1), the domain of ``budget_split``.
    Undominated per-item bids skip, beat w2/m (winning with probability 1/2)
    or beat w1/m (always winning); by linearity the best reply plays every
    item at the better gain, (1 - w2)/(2m) or (1 - w1)/m."""
    _check_even(m)
    if budget_split(B).regime == "low":
        return 1.0 - 2.0 * B
    return 2.0 * (1.0 - B) / 3.0


# -- pure-adversary counter ------------------------------------------------------


def bidder_counter_to_pure(
    v: XOSValuation | AdditiveValuation, bids2: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Counter a known pure adversary vector: outbid wherever his bid is below
    the dominant clause weight.

    Returns (limit bid vector, profit).  For a normalized valuation the
    profit is at least 1 - sum(bids2); violation raises.
    """
    g = np.asarray(gamma_star(v).weights)
    b2 = bid_vector(bids2, v.m, "adversary")
    wins = b2 < g
    bids1 = np.where(wins, b2, 0.0)
    won = tuple(np.nonzero(wins)[0].tolist())
    profit = float(v.value(won) - b2[wins].sum())
    floor = 1.0 - float(b2.sum())
    if abs(v.total() - 1.0) <= 1e-9 and profit < floor - 1e-9:
        raise ArithmeticError("counter strategy fell below the 1 - B floor")
    return bids1, profit
