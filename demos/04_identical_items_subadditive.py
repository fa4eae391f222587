"""Identical items with a subadditive value table: tangent bounds both ways.

With subadditive (not XOS) values the square-root rule can fail, but a
flat-price strategy recovers the tangent envelope t*(B): commit to a target
count q, bid the blocking price B/(m-q+1) until q wins.  Conversely a hard
family of tables holds every response near t_1(B) for small budgets, which
this script evaluates exactly through rescaled uniform-auction subgames.
"""

import math

import numpy as np

from riskfree import analysis
from riskfree.strategies import (
    choose_k,
    constant_price_policy,
    constant_price_worst_profit,
    tangent_value,
)
from riskfree.valuations import make_s_instance, random_subadditive_identical

rng = np.random.Generator(np.random.Philox(5))

print("tangent envelope t*(B) = max_k [1/(k+1) - B/k]")
for B in (0.1, 1 / 3, 0.5, 0.7):
    val, k = analysis.t_star(B)
    print(f"  B = {B:.3f}: t* = {val:.5f} attained by k = {k}")

print("\nflat-price strategy on random subadditive tables (m = 60)")
for B in (0.1, 0.3, 0.5):
    k = choose_k(B)
    worst_gap = math.inf
    for _ in range(100):
        si = random_subadditive_identical(60, rng)
        profit, _ = constant_price_worst_profit(si, B, k)
        worst_gap = min(worst_gap, profit - analysis.t_star(B)[0])
    _, plan = constant_price_policy(random_subadditive_identical(60, rng), B, k)
    print(
        f"  B = {B}: k = {k}, q = {plan.q}, price {plan.p:.5f}; "
        f"worst profit - t* = {worst_gap:+.5f} (the 1/m term)"
    )

print("\nhard tables: every response class stays near t_1(x) = 1/2 - x")
for x in (0.05, 0.1, 0.2):
    t1 = tangent_value(1, x)
    for m in (50, 200):
        r = analysis.si_upper_response_value(x, m)
        print(
            f"  x = {x:.2f}, m = {m:>3}: best response {r['value']:.5f} "
            f"(t_1 = {t1:.5f}, excess {r['value'] - t1:+.5f}, "
            f"first win at {r['best_j1']}, first loss at {r['best_j2']})"
        )

print("\nthe hard table itself, small instance (x = 1/8, m = 10)")
si, params = make_s_instance(0.125, 10)
print("  cumulative values:", [round(t, 4) for t in si.table])
print(f"  blocking bid {params.phase2_bid:.5f} <= budget {params.x}")
