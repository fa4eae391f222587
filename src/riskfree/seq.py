"""Sequential auction solving against a budgeted adversary.

Three solvers live here:

* an exact backward induction for the uniform additive auction on m identical
  items, producing the game value as a piecewise-linear function of the
  adversary budget (``uniform_additive_value``);
* a discretized game-tree oracle for small instances and arbitrary
  valuations (``solve_discretized``), with ties awarded to the adversary;
* a strategy-profile simulator (``simulate``) plus the adversary's exact
  best response to a fixed bid vector (``best_response_to_fixed_bids``).

The uniform additive recursion: after the first of m items is sold, the rest
of the auction is a rescaled copy of the (m-1)-item auction.  With f_{m-1}
known, the bidder's continuation values after winning / losing round one at
adversary bid a/m are

    g_m(x, a) = (1 - a)/m + ((m-1)/m) * f_{m-1}(m x / (m-1))
    h_m(x, a) = ((m-1)/m) * f_{m-1}((m x - a)/(m-1))

and f_m(x) minimizes max(g, h) over feasible a.  Since g is strictly
decreasing and h non-decreasing in a, the optimum is the equalization point
clamped to [0, min(1, mx)].  Everything is solved segment-exactly; no
bisection is involved, so rational breakpoints (1/9, 5/9, ...) come out to
machine accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import pwl
from .errors import (
    ContractViolationError,
    PolicyContractError,
    StateSpaceError,
)
from .pwl import PiecewiseLinear
from .valuations import (
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    Valuation,
    XOSValuation,
)

_TOL = 1e-12


# -- game state and outcomes --------------------------------------------------


@dataclass(frozen=True)
class SeqGameState:
    """Public state visible to a policy before it bids in the current round."""

    remaining: tuple[int, ...]
    adversary_budget: float
    won_by_1: frozenset[int]
    prices_paid_1: float
    round: int
    price_rule: str
    m: int

    @property
    def adversary_wins(self) -> int:
        return self.round - len(self.won_by_1)


@dataclass(frozen=True)
class SeqOutcome:
    won_by_1: tuple[int, ...]
    rounds: tuple[tuple[str, float], ...]  # (winner, price) per round
    bidder_paid: float
    adversary_spent: float
    profit: float


@dataclass(frozen=True)
class AlphaParams:
    """First-round bid ratio data for the m-item uniform additive auction."""

    m: int
    x: float
    alpha_tilde: float
    alpha_max: float
    intermediate: bool  # x in [1/m^2, (m-1)/m]


# -- exact uniform additive solver --------------------------------------------

_ladder: list[PiecewiseLinear] = []

#: Per-level simplification tolerances.  The exact value function's piece
#: count doubles with every level (measured: 2, 4, 7, 14, 28, 56, ...), so
#: beyond small m the ladder prunes breakpoints whose removal moves the
#: function by less than a certified tolerance.  Genuine kinks at small m are
#: macroscopic, so levels 1..3 stay bit-exact.  The cumulative error is the
#: sum of per-level tolerances: ~3e-11 by m = 34, ~2e-7 by m = 200, orders of
#: magnitude inside every tolerance asserted downstream.
_ETA_TIGHT = 1e-12
_ETA_COARSE = 1e-9
_TIGHT_LEVELS = 30


def _simplify(xs: np.ndarray, ys: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop breakpoints whose removal keeps the function within ``eta``.

    Alternating-parity passes remove non-adjacent candidate points; the
    result is certified against the input polyline and the threshold is
    tightened if compounding ever exceeds the budget.
    """
    if eta <= 0.0 or len(xs) <= 2:
        return xs, ys
    threshold = 0.4 * eta
    for _ in range(3):  # certification retries
        cx, cy = xs, ys
        for sweep in range(60):
            if len(cx) <= 2:
                break
            x0, x1, x2 = cx[:-2], cx[1:-1], cx[2:]
            y0, y1, y2 = cy[:-2], cy[1:-1], cy[2:]
            t = (x1 - x0) / (x2 - x0)
            dev = np.abs(y1 - (y0 + t * (y2 - y0)))
            rem = dev <= threshold
            rem &= (np.arange(len(rem)) % 2) == (sweep % 2)
            if not np.any(rem):
                if sweep % 2 == 1:
                    break
                continue
            keep = np.concatenate(([True], ~rem, [True]))
            cx, cy = cx[keep], cy[keep]
        err = float(np.max(np.abs(np.interp(xs, cx, cy) - ys)))
        if err <= eta:
            return cx, cy
        threshold *= 0.25
    return xs, ys  # give up simplifying rather than exceed the budget


def _level_up(fp: PiecewiseLinear, m: int) -> PiecewiseLinear:
    """Lift f_{m-1} to f_m, exactly, on the budget window [0, 1]."""
    r = (m - 1.0) / m

    # Value of committing to win round one at the adversary's cap bid:
    # E_g(x) = max(1/m - x, 0) + r * f_{m-1}(x / r).
    scaled_prev = fp.affine(r, 1.0 / r, 0.0, 0.0)
    first_round_margin = PiecewiseLinear([0.0, 1.0 / m], [1.0 / m, 0.0])
    e_g = pwl.add(first_round_margin, scaled_prev)

    # Equalization value.  Substituting u = (m x - a)/(m - 1) turns
    # g = h into  f_{m-1}(u) - u = psi(x),  psi(x) = (1/m + B(x) - x)/r,
    # B(x) = r * f_{m-1}(x/r).  psi is strictly decreasing, phi(u) =
    # f_{m-1}(u) - u strictly decreasing, so the crossing is unique and
    # piecewise affine in x.
    xs = np.union1d(scaled_prev.xs, [0.0, 1.0])
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    psi_vals = (1.0 / m + scaled_prev(xs) - xs) / r

    us = np.union1d(fp.xs, [0.0, 1.0])
    us = us[(us >= 0.0) & (us <= 1.0)]
    phi_vals = fp(us) - us  # strictly decreasing, phi(0)=1, phi(1)=-1

    # x-locations where the crossing u(x) passes a breakpoint of f_{m-1}
    # (exact inverse interpolation of the strictly decreasing psi).
    events = np.interp(phi_vals, psi_vals[::-1], xs[::-1])
    grid = np.union1d(xs, events)

    psi_c = np.interp(grid, xs, psi_vals)
    u = np.interp(psi_c, phi_vals[::-1], us[::-1])
    cross = r * (psi_c + u)
    cross[psi_c >= phi_vals[0]] = r  # crossing needs a < 0: f_{m-1}(u) = 1
    cross[psi_c <= phi_vals[-1]] = 0.0  # crossing beyond u = 1: f_{m-1}(u) = 0
    f_cross = PiecewiseLinear(grid, cross)

    # Where no feasible crossing exists the minimum of max(g, h) sits at
    # alpha_max with value E_g; otherwise the equalization value applies and
    # dominates E_g.  Hence f_m = max(E_g, f_cross).
    fm = pwl.pointwise_extreme(e_g, f_cross, "max")

    xs2 = fm.xs.copy()
    ys2 = fm.ys.copy()
    ys2[np.abs(ys2) <= 1e-12] = 0.0
    eta = _ETA_TIGHT if m <= _TIGHT_LEVELS else _ETA_COARSE
    xs2, ys2 = _simplify(xs2, ys2, eta)
    return PiecewiseLinear(xs2, ys2)


def f_ladder(m: int) -> list[PiecewiseLinear]:
    """Value functions [f_1, ..., f_m]; cached across calls.

    Segment-exact for small m; from level {tight} on, levels carry the
    documented simplification tolerance.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not _ladder:
        _ladder.append(PiecewiseLinear([0.0, 1.0], [1.0, 0.0]))
    while len(_ladder) < m:
        _ladder.append(_level_up(_ladder[-1], len(_ladder) + 1))
    return _ladder[:m]


def uniform_additive_value(m: int) -> PiecewiseLinear:
    """Game value f_m of the m-item uniform additive auction, as a function
    of the adversary budget.  f_m(0) = 1 and f_m(x) = 0 for x >= 1."""
    return f_ladder(m)[-1]


def g_h(m: int, x: float, alpha: float, f_prev: PiecewiseLinear | None = None) -> tuple[float, float]:
    """Continuation values (g, h) after round one of the m-item auction.

    ``alpha`` is the adversary's first-round bid in units of the per-item
    value 1/m; it must satisfy 0 <= alpha <= min(1, m*x).
    """
    if m < 2:
        raise ValueError("g/h need m >= 2")
    if alpha < -_TOL or alpha > min(1.0, m * x) + 1e-9:
        raise ContractViolationError(
            f"alpha = {alpha} outside the feasible range [0, min(1, m x) = {min(1.0, m * x)}]"
        )
    fp = f_prev if f_prev is not None else f_ladder(m - 1)[-1]
    r = (m - 1.0) / m
    g = (1.0 - alpha) / m + r * fp(m * x / (m - 1.0))
    h = r * fp((m * x - alpha) / (m - 1.0))
    return float(g), float(h)


def alpha_params(m: int, x: float) -> AlphaParams:
    """The sufficient first-round bid ratio and its feasibility cap."""
    if m < 2 or x < 0:
        raise ValueError("need m >= 2 and x >= 0")
    one_minus_sqrt = 1.0 - math.sqrt(x)
    alpha_tilde = 1.0 - 2.0 * m * one_minus_sqrt + 2.0 * math.sqrt(m * (m - 1.0)) * one_minus_sqrt
    alpha_max = min(1.0, m * x)
    inter = 1.0 / m**2 <= x <= (m - 1.0) / m
    return AlphaParams(m=m, x=float(x), alpha_tilde=alpha_tilde, alpha_max=alpha_max, intermediate=inter)


def equalization_alpha(m: int, x: float) -> tuple[float, float]:
    """Optimal first-round bid ratio for the adversary in A_m at budget x.

    Returns (alpha, value) where value = f_m(x).  The optimum is the
    equalization point of g and h when it is feasible, else alpha_max.
    """
    if m < 2:
        raise ValueError("equalization needs m >= 2")
    alpha_max = min(1.0, m * x)
    fp = f_ladder(m - 1)[-1]
    r = (m - 1.0) / m
    g0 = 1.0 / m + r * fp(m * x / (m - 1.0))
    if alpha_max <= 0.0:
        return 0.0, g0
    g_line = PiecewiseLinear([0.0, alpha_max], [g0, g0 - alpha_max / m])
    h_curve = fp.affine(r, -1.0 / (m - 1.0), m * x / (m - 1.0), 0.0)
    crossing = pwl.solve_equal(g_line, h_curve, 0.0, alpha_max)
    if crossing is None:
        return alpha_max, g0 - alpha_max / m
    return crossing, float(g_line(crossing))


# -- simulation ---------------------------------------------------------------

Policy = Callable[[SeqGameState], float]


def _maybe_reseed(policy, seed):
    if seed is not None and hasattr(policy, "with_seed"):
        return policy.with_seed(seed)
    return policy


def simulate(
    v: Valuation,
    bidder: Policy,
    adversary: Policy,
    price_rule: str = "first",
    seed: int | None = None,
    budget: float | None = None,
) -> SeqOutcome:
    """Play all m rounds; higher bid wins with ties to the adversary.

    First price: the winner pays their own bid.  Second price: the winner
    pays the opponent's bid.  The adversary's budget decreases only when he
    wins (first price: by his bid; second price: by Bidder 1's bid).
    """
    if price_rule not in ("first", "second"):
        raise ValueError("price_rule must be 'first' or 'second'")
    if budget is None:
        budget = getattr(adversary, "budget", None)
        if budget is None:
            raise ValueError("pass budget= or use an adversary policy exposing .budget")
    if seed is not None:
        ss = np.random.SeedSequence(seed).generate_state(2)
        bidder = _maybe_reseed(bidder, int(ss[0]))
        adversary = _maybe_reseed(adversary, int(ss[1]))

    m = v.m
    budget_left = float(budget)
    won: set[int] = set()
    paid = 0.0
    spent = 0.0
    rounds: list[tuple[str, float]] = []
    for t in range(m):
        state = SeqGameState(
            remaining=tuple(range(t, m)),
            adversary_budget=budget_left,
            won_by_1=frozenset(won),
            prices_paid_1=paid,
            round=t,
            price_rule=price_rule,
            m=m,
        )
        b1 = float(bidder(state))
        b2 = float(adversary(state))
        if not (math.isfinite(b1) and math.isfinite(b2)):
            raise PolicyContractError(f"bids must be finite, got {b1} and {b2}")
        if b1 < -_TOL:
            raise PolicyContractError("bidder emitted a negative bid")
        if b2 < -_TOL or b2 > budget_left + 1e-9:
            raise PolicyContractError(
                f"adversary bid {b2} violates remaining budget {budget_left}"
            )
        if b2 >= b1:  # ties to the adversary
            price = b2 if price_rule == "first" else b1
            budget_left -= price
            spent += price
            rounds.append(("adversary", price))
        else:
            price = b1 if price_rule == "first" else b2
            paid += price
            won.add(t)
            rounds.append(("bidder", price))
    profit = v.value(won) - paid
    return SeqOutcome(
        won_by_1=tuple(sorted(won)),
        rounds=tuple(rounds),
        bidder_paid=paid,
        adversary_spent=spent,
        profit=float(profit),
    )


# -- discretized game-tree oracle ----------------------------------------------


def _is_symmetric(v: Valuation) -> bool:
    if isinstance(v, SubadditiveIdenticalValuation):
        return True
    if isinstance(v, AdditiveValuation):
        return len(set(v.weights)) == 1
    return False


def solve_discretized(
    v: Valuation,
    B: float,
    delta: float,
    price_rule: str = "first",
    leader: str = "adversary",
    max_ops: float = 2e8,
) -> float:
    """Value of the grid game where each round the leader commits a bid on a
    delta-grid and the follower best-responds (win or lose).

    Ties are awarded to the adversary, so a winning bidder pays one grid step
    above the adversary's bid under first price: this is the conservative
    worst-case reading of the limit-bid convention.  ``leader='adversary'``
    realizes the min-max order; ``leader='bidder'`` the max-min order.
    """
    if price_rule not in ("first", "second"):
        raise ValueError("price_rule must be 'first' or 'second'")
    if leader not in ("adversary", "bidder"):
        raise ValueError("leader must be 'adversary' or 'bidder'")
    m = v.m
    if m > 6:
        raise ValueError("the game-tree oracle is capped at m = 6")
    n_max = round(1.0 / delta)
    if abs(n_max * delta - 1.0) > 1e-9:
        raise ValueError("delta must divide the bid range [0, 1] evenly")
    bu0 = int(math.floor(B / delta + 1e-9))

    symmetric = _is_symmetric(v)
    if symmetric:
        won_space = m + 1
        final = [v.value(range(k)) for k in range(m + 1)]
    else:
        won_space = 1 << m
        final = [v.value([i for i in range(m) if mask >> i & 1]) for mask in range(1 << m)]
    loop = (bu0 + 1) if leader == "adversary" else (n_max + 1)
    if m * won_space * (bu0 + 1) * loop > max_ops:
        raise StateSpaceError("discretized state space exceeds the cap")

    memo: dict[tuple[int, int, int], float] = {}

    def val(t: int, won: int, bu: int) -> float:
        if t == m:
            return final[won]
        key = (t, won, bu)
        got = memo.get(key)
        if got is not None:
            return got
        next_won = won + 1 if symmetric else won | (1 << t)
        if leader == "adversary":
            best = math.inf
            for a in range(bu + 1):
                pay_units = a + 1 if price_rule == "first" else a
                win_branch = val(t + 1, next_won, bu) - pay_units * delta
                lose_branch = val(t + 1, won, bu - a)
                follower = max(win_branch, lose_branch)
                if follower < best:
                    best = follower
        else:
            best = -math.inf
            for bid in range(n_max + 1):
                drain = min(bid - 1, bu) if bid >= 1 else 0
                pay_units = bid if price_rule == "first" else drain
                options = [val(t + 1, next_won, bu) - pay_units * delta]
                if bu >= bid:
                    options.append(val(t + 1, won, bu - bid))
                follower = min(options)
                if follower > best:
                    best = follower
        memo[key] = best
        return best

    return float(val(0, 0, bu0))


# -- exact adversary best response to fixed bids --------------------------------

_CHUNK = 1 << 16


def _won_values(v: Valuation, won_bits: np.ndarray) -> np.ndarray:
    if isinstance(v, AdditiveValuation):
        return won_bits @ np.asarray(v.weights)
    if isinstance(v, XOSValuation):
        clause_mat = np.array([c.weights for c in v.clauses])  # (ell, m)
        return (won_bits @ clause_mat.T).max(axis=1)
    table = np.asarray(v.table)
    return table[won_bits.sum(axis=1).astype(int)]


def best_response_to_fixed_bids(
    v: Valuation,
    bids1: Iterable[float],
    B: float,
    price_rule: str = "first",
) -> tuple[tuple[int, ...], float]:
    """Adversary's profit-minimizing plan against a fixed bid vector.

    The adversary can win a set T exactly when its limit cost sum(bids1[T])
    is strictly below B (he must outbid by a vanishing margin, so spending
    exactly B is out of reach).  Under second price his losing bids also
    drain the bidder, capped by the budget remaining at each round.

    Returns (winning plan as a sorted index tuple, Bidder 1's profit).
    """
    bids = np.asarray(list(bids1), dtype=float)
    m = v.m
    if bids.shape != (m,):
        raise ValueError("bid vector length must match the item count")
    if np.any(bids < -_TOL):
        raise ValueError("bids must be non-negative")
    if m > 20:
        if isinstance(v, AdditiveValuation) and price_rule == "first":
            return _best_response_knapsack(v, bids, B)
        raise ValueError("exhaustive enumeration is capped at m = 20")

    budget_cap = B - 1e-12
    best_profit = math.inf
    best_mask = 0
    for start in range(0, 1 << m, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, 1 << m), dtype=np.int64)
        tbits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
        cost = tbits @ bids
        feasible = (cost < budget_cap) | (masks == 0)
        if not np.any(feasible):
            continue
        tbits = tbits[feasible]
        masks = masks[feasible]
        won_bits = 1.0 - tbits
        values = _won_values(v, won_bits)
        if price_rule == "first":
            pay = won_bits @ bids
        else:
            spend = tbits * bids
            before = np.cumsum(spend, axis=1) - spend
            drain = np.clip(np.minimum(bids, B - before), 0.0, None)
            pay = (won_bits * drain).sum(axis=1)
        profit = values - pay
        i = int(np.argmin(profit))
        if profit[i] < best_profit:
            best_profit = float(profit[i])
            best_mask = int(masks[i])
    plan = tuple(i for i in range(m) if best_mask >> i & 1)
    return plan, best_profit


def _best_response_knapsack(v: AdditiveValuation, bids: np.ndarray, B: float) -> tuple[tuple[int, ...], float]:
    """Branch-and-bound for large additive instances under first price."""
    w = np.asarray(v.weights)
    total_margin = float((w - bids).sum())
    gains = w - bids
    cand = [i for i in range(len(w)) if gains[i] > _TOL]
    cand.sort(key=lambda i: gains[i] / bids[i] if bids[i] > _TOL else math.inf, reverse=True)
    cap = B - 1e-12

    best = {"gain": 0.0, "take": ()}

    def bound(idx: int, room: float) -> float:
        out = 0.0
        for i in cand[idx:]:
            if bids[i] <= _TOL:
                out += gains[i]
            elif bids[i] < room:
                out += gains[i]
                room -= bids[i]
            else:
                out += gains[i] * (room / bids[i])
                break
        return out

    def dfs(idx: int, room: float, gain: float, take: list[int]) -> None:
        if gain > best["gain"]:
            best["gain"] = gain
            best["take"] = tuple(take)
        if idx == len(cand) or gain + bound(idx, room) <= best["gain"] + 1e-15:
            return
        i = cand[idx]
        if bids[i] < room:
            take.append(i)
            dfs(idx + 1, room - bids[i], gain + gains[i], take)
            take.pop()
        dfs(idx + 1, room, gain, take)

    dfs(0, cap, 0.0, [])
    plan = tuple(sorted(best["take"]))
    return plan, total_margin - best["gain"]
