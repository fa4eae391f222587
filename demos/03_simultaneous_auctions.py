"""Simultaneous auctions: the rival is weaker when he cannot overbid freely.

Second price: truthful bidding of the dominant clause guarantees 1 - B flat.
First price: pure strategies are hopeless (a prefix counter holds them near
the sequential value), but drawing each bid uniformly at random guarantees
(1 - B)^2 / 2 in expectation; the rival's best reply is the solution of a
small quadratic program.  Its closed-form value is checked against an exact
solver for any weights, a lattice search and a Monte Carlo estimate.
"""

import math

import numpy as np

from riskfree import simul
from riskfree.valuations import AdditiveValuation, XOSValuation

rng = np.random.Generator(np.random.Philox(99))

print("second price: worst case of truthful dominant-clause bidding")
for B in (0.2, 0.5, 0.8):
    v = XOSValuation([(0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)])
    worst, plan = simul.second_price_truthful_worst(v, B)
    print(f"  B = {B}: worst profit {worst:.4f} vs floor {1 - B:.4f} (rival takes {plan})")

print("\nfirst price: the quadratic program behind the randomized guarantee")
g = AdditiveValuation((0.45, 0.35, 0.2))
for B in (0.25, 0.5, 0.75):
    sol = simul.adversary_qp(g, B)
    _, exact_value = simul.exact_qp(g.weights, B)
    print(
        f"  B = {B}: closed form {(1 - B) ** 2 / 2:.5f}, "
        f"exact solver {exact_value:.5f}, rival ratios {sol.ratios}"
    )
g2 = np.array([0.9, 0.1])
print(f"  two-item lattice search at B=0.25: {simul.qp_grid_search(g2, 0.25):.5f}")

print("\nMonte Carlo check of the expected profit (one million draws)")
B = 0.4
ratios = np.full(3, B)
n = 10**6
draws = rng.random((n, 3)) * np.asarray(g.weights)
wins = draws > ratios * np.asarray(g.weights)
profits = (np.asarray(g.weights) * wins).sum(axis=1) - (draws * wins).sum(axis=1)
closed = simul.expected_profit_uniform_random(g, ratios)
print(f"  closed {closed:.5f}, sampled {profits.mean():.5f} (+-{3 * profits.std() / math.sqrt(n):.5f})")

print("\npure first-price strategies are capped near the sequential value")
m, B = 200, 0.25
for b in (0.003, simul.optimal_counter_price(m, B), 0.008):
    plan = simul.deterministic_counter((b,) * m, B)
    print(f"  constant bid {b:.5f}: profit after the prefix counter {plan.realized:.4f}")
print(f"  (compare (1-sqrt(B))^2 = {(1 - math.sqrt(B)) ** 2:.4f} and 1-B = {1 - B:.4f})")

print("\nand the rival's randomized split keeps even the best reply under 1 - B")
for B in (0.1, 0.4, 0.7):
    value, _ = simul.exhaustive_best_response_split(12, B)
    print(f"  B = {B}: best reply value {value:.4f} < {1 - B:.4f}")
